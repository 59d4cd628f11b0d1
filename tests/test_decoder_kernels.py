import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpccc.decoder import (
    _cnp_float_rows,
    _cnp_qspa_rows,
    _cnp_rows,
    _column_table,
    _variable_update,
    app_decide,
    cnp_float,
    cnp_qspa,
    vnp,
)
from ldpccc.quantization import (
    Quantizer,
    _code_values,
    _packed_pairs,
    _saturated_codes,
    build_pair_lut,
    dump_lut,
    parse_lut,
    to_twos_complement,
)

from reference_decoder import ref_check_update_lut, ref_cnp_float_rows


# ---------------------------------------------------------------------------
# cnp_float


def test_cnp_float_rejects_short_input():
    with pytest.raises(ValueError):
        cnp_float([1.0])


def test_cnp_float_degree_two_swaps():
    out = cnp_float([0.7, -1.3])
    assert out[0] == pytest.approx(-1.3, rel=1e-12)
    assert out[1] == pytest.approx(0.7, rel=1e-12)


def test_cnp_float_zero_annihilates_others():
    out = cnp_float([1.0, 0.0, -2.0, 3.0])
    assert out[1] != 0.0  # the zero position gets the product of the others
    assert out[0] == 0.0 and out[2] == 0.0 and out[3] == 0.0


def test_cnp_float_two_zeros_zero_everything():
    out = cnp_float([0.0, 1.0, 0.0])
    assert np.all(out == 0.0)


def test_cnp_float_degree_four_against_high_precision_oracle():
    # frozen from a 40-digit evaluation of 2 atanh(prod tanh(b/2))
    out = cnp_float([1.0, 2.0, 3.0, 4.0])
    expect = [
        1.6018652290564667,
        0.8550189242300108,
        0.7065694608913686,
        0.6600941150966802,
    ]
    assert out == pytest.approx(expect, rel=1e-12)


def test_cnp_float_sign_rule():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        beta = rng.normal(0, 3, d)
        out = cnp_float(beta)
        signs = np.sign(beta)
        for i in range(d):
            expect = np.prod(np.delete(signs, i))
            assert np.sign(out[i]) == expect


def test_cnp_float_magnitude_domination():
    rng = np.random.default_rng(1)
    for _ in range(500):
        d = int(rng.integers(2, 12))
        beta = rng.normal(0, 8, d)
        out = cnp_float(beta)
        for i in range(d):
            others = np.abs(np.delete(beta, i))
            assert abs(out[i]) <= others.min() + 1e-12


def test_cnp_float_clamps_output():
    out = cnp_float([40.0, 50.0, 60.0], clamp=25.0)
    assert np.all(np.abs(out) <= 25.0)
    assert out[0] == pytest.approx(25.0)


def test_cnp_float_brute_force_product_agreement():
    # direct per-output product evaluation, moderate magnitudes only so
    # atanh amplification stays benign
    rng = np.random.default_rng(2)
    for _ in range(300):
        d = int(rng.integers(2, 10))
        beta = rng.uniform(-6, 6, d)
        out = cnp_float(beta)
        for i in range(d):
            prod = np.prod(np.tanh(0.5 * np.delete(beta, i)))
            expect = 2.0 * np.arctanh(np.clip(prod, -(1 - 1e-15), 1 - 1e-15))
            assert out[i] == pytest.approx(np.clip(expect, -25, 25), abs=1e-9)


def bits_of(x):
    """The float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def hard_block(rng, degree, n, clamp):
    """(degree, n) inputs with the kernel's hard cases: +-0.0, checks with
    one and with two zeros, tied magnitudes, values at and above the clamp
    and large magnitudes, mixed into ordinary values."""
    v = rng.normal(0.0, 4.0, (degree, n))
    pick = rng.random((degree, n))
    v[pick < 0.05] = 0.0
    v[(pick >= 0.05) & (pick < 0.08)] = -0.0
    v[(pick >= 0.08) & (pick < 0.12)] = rng.choice([-1.0, 1.0]) * clamp
    v[(pick >= 0.12) & (pick < 0.16)] *= 1e3  # far above the clamp
    v[(pick >= 0.16) & (pick < 0.18)] = rng.choice([-1e300, 1e300, -1e-300, 1e-300])
    cols = rng.permutation(n)
    k = rng.integers(0, degree, n)
    one, two, tie = np.array_split(cols[: 3 * (n // 4)], 3)
    v[:, one] = np.where(v[:, one] == 0.0, 1.5, v[:, one])
    v[k[one], one] = 0.0  # exactly one zero
    if degree >= 2:
        v[0, two], v[1, two] = 0.0, -0.0  # two zeros of either sign
        v[:, tie] = rng.choice([-2.0, 2.0, 0.75, -0.75], (degree, tie.size))  # ties
    return v


@pytest.mark.parametrize("degree", range(1, 65))
def test_degree_major_kernel_matches_row_major_reference(degree):
    # bitwise against the row-major kernel the engine ran before, sign of
    # zero included, at every degree from 1 to 64 and at several widths
    rng = np.random.default_rng(1000 + degree)
    for n, clamp in ((1, 25.0), (7, 25.0), (64, 25.0), (301, 8.0)):
        v = hard_block(rng, degree, n, clamp)
        want = ref_cnp_float_rows(v.T, clamp).T
        got = _cnp_float_rows(v, clamp)
        assert got.shape == v.shape and got.dtype == np.float64
        assert np.array_equal(bits_of(got), bits_of(want))


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 64), n=st.integers(1, 400),
       clamp=st.sampled_from([25.0, 5.0, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_degree_major_kernel_matches_reference_on_random_blocks(degree, n, clamp, seed):
    v = hard_block(np.random.default_rng(seed), degree, n, clamp)
    assert np.array_equal(bits_of(_cnp_float_rows(v, clamp)),
                          bits_of(ref_cnp_float_rows(v.T, clamp).T))


def test_degree_major_kernel_reads_any_layout_and_keeps_its_input():
    rng = np.random.default_rng(7)
    v = hard_block(rng, 24, 90, 25.0)
    want = bits_of(ref_cnp_float_rows(v.T, 25.0).T)
    kept = v.copy()
    assert np.array_equal(bits_of(_cnp_float_rows(np.asfortranarray(v), 25.0)), want)
    wide = np.zeros((24, 180))
    wide[:, ::2] = v
    assert np.array_equal(bits_of(_cnp_float_rows(wide[:, ::2], 25.0)), want)
    assert np.array_equal(bits_of(v), bits_of(kept))


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(2, 40), n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_cnp_float_sign_symmetry(degree, n, seed):
    # flipping input k by s_k flips output k by s_k * prod(s), bit for bit:
    # magnitudes depend on |v| only
    rng = np.random.default_rng(seed)
    v = hard_block(rng, degree, n, 25.0)
    v[v == 0.0] = 0.5
    s = rng.choice([-1.0, 1.0], (degree, n))
    out = _cnp_float_rows(v, 25.0)
    flipped = _cnp_float_rows(s * v, 25.0)
    assert np.array_equal(bits_of(flipped), bits_of(s * s.prod(axis=0) * out))


# ---------------------------------------------------------------------------
# cnp_qspa


@pytest.fixture
def q4():
    return Quantizer(4, 0.5)


@pytest.fixture
def lut4(q4):
    return build_pair_lut(q4)


def nested_fold_oracle(codes, table):
    """Literal prefix/suffix nesting, recomputed from scratch per output."""
    d = len(codes)
    out = []
    for i in range(d):
        left = None
        for k in range(i):
            left = codes[k] if left is None else int(table[left, codes[k]])
        right = None
        for k in range(d - 1, i, -1):
            right = codes[k] if right is None else int(table[right, codes[k]])
        if left is None:
            out.append(right)
        elif right is None:
            out.append(left)
        else:
            out.append(int(table[left, right]))
    return out


def test_cnp_qspa_rejects_short_input(lut4):
    with pytest.raises(ValueError):
        cnp_qspa([3], lut4)


def test_cnp_qspa_rejects_out_of_range_codes(lut4):
    with pytest.raises(ValueError):
        cnp_qspa([3, 16], lut4)
    with pytest.raises(ValueError):
        cnp_qspa([-1, 3, 4], lut4)


def test_cnp_qspa_degree_two_swaps(lut4):
    out = cnp_qspa([5, 9], lut4)
    assert out.tolist() == [9, 5]


def test_cnp_qspa_zero_annihilates(lut4, q4):
    out = cnp_qspa([3, 0, 12, 6], lut4)
    vals = q4.value(out)
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[3] == 0.0


def test_cnp_qspa_matches_nested_fold(lut4):
    rng = np.random.default_rng(3)
    for _ in range(400):
        d = int(rng.integers(2, 25))
        codes = rng.integers(0, 16, d).astype(np.uint8)
        out = cnp_qspa(codes, lut4)
        assert out.tolist() == nested_fold_oracle(codes.tolist(), lut4.table)


def test_cnp_qspa_degree_24(lut4):
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 16, 24).astype(np.uint8)
    out = cnp_qspa(codes, lut4)
    assert out.tolist() == nested_fold_oracle(codes.tolist(), lut4.table)


@settings(max_examples=40, deadline=None)
@given(bits=st.sampled_from([2, 3, 4, 5, 8]), degree=st.integers(1, 30),
       checks=st.integers(1, 300), pair_table=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cnp_qspa_rows_matches_reference_fold(bits, degree, checks, pair_table, seed):
    # the batched kernel against the literal fold, check by check; a random
    # table is neither symmetric nor associative, so every fold order shows
    rng = np.random.default_rng(seed)
    n_codes = 1 << bits
    if pair_table:
        table = build_pair_lut(Quantizer(bits)).table
    else:
        table = rng.integers(0, n_codes, (n_codes, n_codes)).astype(np.uint8)
    max_pos = (1 << (bits - 1)) - 1
    codes = rng.integers(0, n_codes, (degree, checks)).astype(np.uint8)
    got = _cnp_qspa_rows(codes, table, max_pos)
    assert got.shape == codes.shape and got.dtype == np.uint8
    for column, out in zip(codes.T, got.T):
        assert out.tolist() == ref_check_update_lut(column.tolist(), table, max_pos)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(2, 8), step=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
       degree=st.integers(1, 30), checks=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_value_table_fold_matches_the_code_fold(bits, step, degree, checks, seed):
    # the flooding engine's check update: integers saturate at M, fold
    # offset by M through the value table and lose the offset; the same
    # integers as codes through the code table, read back as values, agree
    q = Quantizer(bits, step)
    lut, m = build_pair_lut(q), q.max_magnitude_int
    ints = np.random.default_rng(seed).integers(-3 * m, 3 * m + 1, (degree, checks))
    codes = np.empty(ints.shape, dtype=np.uint8)
    _saturated_codes(ints.copy(), q, codes)
    want = np.empty(ints.shape, dtype=np.int64)
    _code_values(_cnp_qspa_rows(codes, lut.table, m), q, want)
    offset = (np.clip(ints, -m, m) + m).astype(np.uint8)
    table = lut.value_table
    assert table.shape == (2 * m + 1, 2 * m + 1) and table.dtype == np.uint8
    got = _cnp_qspa_rows(offset, table, 2 * m).astype(np.int64) - m
    assert got.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(2, 8), degree=st.integers(1, 30), checks=st.integers(1, 50),
       in_place=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_engine_check_update_is_the_value_table_fold(bits, degree, checks, in_place, seed):
    # the engine's check update saturates its integer inputs and folds them
    # offset by M through the value table (two checks a lookup, through the
    # packed table, up to 4 bits); a degree-2 check skips the table and
    # passes each saturated input across, with the same result, also when
    # the output is the input's own array
    q = Quantizer(bits)
    lut, m = build_pair_lut(q), q.max_magnitude_int
    ints = np.random.default_rng(seed).integers(-3 * m, 3 * m + 1, (degree, checks))
    offset = (np.clip(ints, -m, m) + m).astype(np.uint8)
    want = _cnp_qspa_rows(offset, lut.value_table, 2 * m).astype(np.int64) - m
    v2c = ints.astype(np.int16)
    out = v2c if in_place else np.empty_like(v2c)
    _cnp_rows(v2c, out, lut, 25.0)
    assert out.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(2, 4), degree=st.integers(1, 30), checks=st.integers(1, 101),
       pair_table=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_packed_fold_is_the_plain_fold_on_each_check(bits, degree, checks, pair_table, seed):
    # checks side by side, two to a uint16 and an odd count padded by one,
    # fold through the packed table exactly as each check folds through the
    # plain one; a random table is neither symmetric nor associative, so
    # every operand order shows
    rng = np.random.default_rng(seed)
    m = (1 << (bits - 1)) - 1
    if pair_table:
        table = build_pair_lut(Quantizer(bits)).value_table
    else:
        table = rng.integers(0, 2 * m + 1, (2 * m + 1, 2 * m + 1)).astype(np.uint8)
    offset = rng.integers(0, 2 * m + 1, (degree, checks)).astype(np.uint8)
    want = _cnp_qspa_rows(offset, table, 2 * m)
    pairs = np.zeros((degree, checks + checks % 2), dtype=np.uint8)
    pairs[:, :checks] = offset
    got = _cnp_qspa_rows(pairs.view(np.uint16), _packed_pairs(table), 2 * m * 0x101)
    assert got.dtype == np.uint16 and got.shape == (degree, pairs.shape[1] // 2)
    assert got.view(np.uint8)[:, :checks].tolist() == want.tolist()


@pytest.mark.parametrize("bits", range(2, 9))
def test_only_quantizers_of_up_to_4_bits_have_a_packed_table(bits):
    # an offset value below 16 fits in 4 bits, so two checks index one
    # 2**16-entry table; wider quantizers fold through the value table
    lut = build_pair_lut(Quantizer(bits))
    packed, fold = lut.packed_table, lut.fold_tables
    if bits <= 4:
        assert packed.shape == (16, 16, 16, 16) and packed.dtype == np.uint16
        assert not packed.flags.writeable
        assert fold.width == 16 and fold.table.base is packed
    else:
        assert packed is None
        assert fold.width == len(lut.value_table)
    assert not any(form.flags.writeable for form in fold[1:])


def test_degree_one_checks_keep_the_input_dtype():
    # a degree-1 check outputs +max, in the input's dtype, for plain and
    # for packed indices
    lut = build_pair_lut(Quantizer(4))
    plain = _cnp_qspa_rows(np.zeros((1, 3), dtype=np.uint8), lut.value_table, 14)
    assert plain.dtype == np.uint8 and plain.tolist() == [[14, 14, 14]]
    pairs = _cnp_qspa_rows(np.zeros((1, 2), dtype=np.uint16), lut.packed_table, 14 * 0x101)
    assert pairs.dtype == np.uint16 and pairs.view(np.uint8).tolist() == [[14] * 4]


def test_value_table_needs_both_zeros_alike():
    # a table that combines +0 and -0 differently has no value-indexed form
    q = Quantizer(4)
    rows = [row.split() for row in dump_lut(build_pair_lut(q)).splitlines()]
    for zero_row in (0, q.sign_bit):
        for column in (False, True):
            changed = [list(row) for row in rows]
            if column:
                for row in changed:
                    row[zero_row] = str(q.max_magnitude_int)
            else:
                changed[zero_row] = [str(q.max_magnitude_int)] * q.n_codes
            lut = parse_lut("\n".join(" ".join(row) for row in changed), q)
            with pytest.raises(ValueError, match="[+]0 and -0"):
                lut.value_table
    assert parse_lut(dump_lut(build_pair_lut(q)), q).value_table.shape == (15, 15)


# ---------------------------------------------------------------------------
# vnp


def test_vnp_degree_one_float():
    out = vnp(1.5, [])
    assert np.asarray(out).size == 0 or np.all(out == 1.5)
    out = vnp(1.5, [0.0])
    assert out[0] == pytest.approx(1.5)


def test_vnp_cancellation():
    out = vnp(0.0, [2.0, -2.0])
    assert out[0] == pytest.approx(-2.0)
    assert out[1] == pytest.approx(2.0)


def test_vnp_excludes_own_input():
    out = vnp(1.0, [3.0, -1.0, 0.5])
    assert out[0] == pytest.approx(1.0 - 1.0 + 0.5)
    assert out[1] == pytest.approx(1.0 + 3.0 + 0.5)
    assert out[2] == pytest.approx(1.0 + 3.0 - 1.0)


def test_vnp_quantized_saturates(q4):
    lam = q4.quantize(1.5)  # +3 steps
    alphas = np.array([7, 7, 7], dtype=np.uint8)  # +7 each
    out = vnp(lam, alphas, quantizer=q4)
    # each output is 3 + 14 = 17, saturating at +7
    assert all(int(to_twos_complement(c, q4)) == 7 for c in out)


def test_vnp_quantized_integer_sum(q4):
    lam = q4.quantize(-0.5)  # -1 step
    alphas = np.array([2, 8 + 3], dtype=np.uint8)  # +2, -3
    out = vnp(lam, alphas, quantizer=q4)
    assert int(to_twos_complement(out[0], q4)) == -1 - 3
    assert int(to_twos_complement(out[1], q4)) == -1 + 2


def test_scalar_updates_reject_invalid_codes(q4):
    for channel, incoming in ((3, [20, 200]), (300, [20]), (3, [-1]), (2.0, [1]), (3, [1.7])):
        with pytest.raises(ValueError, match="codes must"):
            vnp(channel, incoming, q4)
        with pytest.raises(ValueError, match="codes must"):
            app_decide(channel, incoming, q4)


# ---------------------------------------------------------------------------
# _variable_update: the one variable update of every decoder


def literal_variable_update(alpha, slots, cols, channel):
    """Per column and word, a sum from 0 over the slot table's rows in
    order, in alpha's dtype, then the channel value."""
    n_cols, width = channel.shape
    zero = alpha.dtype.type(0)
    post = np.empty(channel.shape, dtype=alpha.dtype)
    for c in range(n_cols):
        for w in range(width):
            total = zero
            for k in range(len(slots)):
                total = total + alpha[slots[k, c], w]
            post[c, w] = total + channel[c, w]
    beta = np.empty((cols.size, width), dtype=alpha.dtype)
    for e, c in enumerate(cols):
        for w in range(width):
            beta[e, w] = post[c, w] - alpha[e, w]
    return post, beta


# columns of 11 edges over 6 columns, listed out of column order: column 5
# has no edge, columns 1 and 4 are short and padded
VU_COLS = np.array([2, 0, 3, 1, 0, 2, 3, 4, 0, 2, 3])


def test_column_table_lists_each_column_in_order_then_pads():
    rows = np.array([10, 3, 7, 0, 1, 9, 2, 8, 4, 6, 5])
    table = _column_table(VU_COLS, rows, 6, 99)
    assert table.shape == (3, 6)
    for col in range(6):
        listed = [r for r, c in zip(rows, VU_COLS) if c == col]
        assert table[:, col].tolist() == listed + [99] * (3 - len(listed))


@pytest.mark.parametrize("dtype", [np.float64, np.int8, np.int16])
def test_variable_update_matches_literal_loop(dtype):
    rng = np.random.default_rng(11)
    k, width = VU_COLS.size, 4
    if dtype is np.float64:
        scale = 10.0 ** rng.integers(-8, 9, (k + 1, width))
        alpha = rng.normal(0.0, 3.0, (k + 1, width)) * scale
        alpha[rng.random(alpha.shape) < 0.2] = -0.0
        channel = rng.normal(0.0, 2.0, (6, width))
        channel[0] = -0.0
    else:
        m = 7 if dtype is np.int8 else 127  # a channel value and 3 edges fit the type
        alpha = rng.integers(-m, m + 1, (k + 1, width)).astype(dtype)
        channel = rng.integers(-m, m + 1, (6, width)).astype(dtype)
    alpha[k] = 0
    # an order per column that is neither edge nor column order
    rows = rng.permutation(k)
    slots = _column_table(VU_COLS, rows, 6, k)
    row_cols = np.empty(k, dtype=np.intp)
    row_cols[rows] = VU_COLS  # the column of each row of alpha
    post, table = _variable_update(alpha, slots, channel)
    want_post, want_beta = literal_variable_update(alpha, slots, row_cols, channel)
    assert post.dtype == table.dtype == alpha.dtype
    assert np.array_equal(post[5], channel[5])  # the column with no edge
    # the message out of each row of alpha sits where the table lists the row
    assert table.shape == slots.shape + (width,)
    real = slots < k
    beta = np.empty_like(want_beta)
    beta[slots[real]] = table[real]
    if dtype is np.float64:
        post, beta = post.view(np.int64), beta.view(np.int64)
        want_post, want_beta = want_post.view(np.int64), want_beta.view(np.int64)
    assert np.array_equal(post, want_post) and np.array_equal(beta, want_beta)


# ---------------------------------------------------------------------------
# app_decide


def test_app_decide_basic():
    soft, bit = app_decide(5.0, [-1.0, -1.0])
    assert soft == pytest.approx(3.0)
    assert bit == 0
    soft, bit = app_decide(-5.0, [1.0])
    assert bit == 1


def test_app_decide_tie_is_zero():
    soft, bit = app_decide(2.0, [-2.0])
    assert soft == 0.0
    assert bit == 0


def test_app_decide_quantized(q4):
    lam = q4.quantize(1.0)  # +2
    alphas = np.array([8 + 7, 8 + 7], dtype=np.uint8)  # -7, -7
    soft, bit = app_decide(lam, alphas, quantizer=q4)
    assert soft == 2 - 14
    assert bit == 1
