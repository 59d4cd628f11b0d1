import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpccc.decoder import _cnp_qspa_rows, app_decide, cnp_float, cnp_qspa, vnp
from ldpccc.quantization import Quantizer, build_pair_lut, to_twos_complement

from reference_decoder import ref_check_update_lut


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
