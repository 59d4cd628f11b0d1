import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpccc.construction import demo_base, demo_base_names, expand_base, split_and_unwrap
from ldpccc.decoder import VARIANT_QSPA, BlockDecoder, DecoderConfig, StreamDecoder
from ldpccc.quantization import (
    PairLut,
    Quantizer,
    _code_values,
    _saturated_codes,
    build_pair_lut,
    dump_lut,
    from_twos_complement,
    parse_lut,
    to_twos_complement,
)


@pytest.fixture
def q4():
    return Quantizer(4, 0.5)


def test_build_validation():
    with pytest.raises(ValueError):
        Quantizer(1, 0.5)
    with pytest.raises(ValueError):
        Quantizer(9, 0.5)
    with pytest.raises(ValueError):
        Quantizer(4, 0.0)


@pytest.mark.parametrize("step", [math.inf, -math.inf, math.nan, 0.0, -0.5])
def test_build_rejects_a_step_that_is_not_finite_and_positive(step):
    # an infinite step used to build, then failed as "cannot quantize NaN"
    with pytest.raises(ValueError, match="step must be finite and > 0"):
        Quantizer(4, step)


@pytest.mark.parametrize("name", ["bits"])
def test_build_rejects_non_integer_counts(name):
    # bits=4.5, and even 4.0, used to build and then fail in build_pair_lut
    # with a TypeError; numpy integers are integers
    for bad in (4.5, 4.0):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            Quantizer(**{name: bad})
    assert Quantizer(**{name: np.int64(4)}) == Quantizer(**{name: 4})


def test_max_magnitude(q4):
    assert q4.max_magnitude == pytest.approx(3.5)
    assert q4.max_magnitude_int == 7
    assert q4.n_codes == 16


def test_levels_shape(q4):
    levels = q4.levels
    assert levels.size == 16
    assert np.array_equal(levels, -levels[::-1])  # symmetric around zero
    assert np.count_nonzero(levels == 0.0) == 2   # two zero codes


def test_quantize_zero_and_saturation(q4):
    assert q4.value(q4.quantize(0.0)) == 0.0
    assert int(q4.quantize(0.0)) == 0  # canonical +0
    assert q4.value(q4.quantize(1e6)) == pytest.approx(3.5)
    assert q4.value(q4.quantize(-1e6)) == pytest.approx(-3.5)


def test_quantize_rejects_nan(q4):
    with pytest.raises(ValueError, match="NaN"):
        q4.quantize(np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="NaN"):
        q4.quantize(float("nan"))


def test_quantize_ties_toward_smaller_magnitude(q4):
    assert q4.value(q4.quantize(0.25)) == 0.0     # halfway between 0 and 0.5
    assert q4.value(q4.quantize(0.75)) == 0.5
    assert q4.value(q4.quantize(-0.25)) == 0.0
    assert q4.value(q4.quantize(-0.75)) == -0.5
    assert q4.value(q4.quantize(0.26)) == 0.5


def test_quantize_monotone(q4):
    xs = np.linspace(-6, 6, 4001)
    vals = q4.value(q4.quantize(xs))
    assert np.all(np.diff(vals) >= 0)


def test_quantize_nearest_level(q4):
    rng = np.random.default_rng(0)
    xs = rng.uniform(-5, 5, 2000)
    vals = np.atleast_1d(q4.value(q4.quantize(xs)))
    levels = np.unique(q4.levels)
    for x, v in zip(xs, vals):
        best = levels[np.argmin(np.abs(levels - x))]
        assert abs(x - v) <= abs(x - best) + 1e-12


def test_negate_mirrors_codes(q4):
    codes = np.arange(16, dtype=np.uint8)
    neg = q4.negate(codes)
    assert np.allclose(q4.value(neg), -q4.value(codes))


def test_quantized_message_wrapper(q4):
    assert q4.value(3) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        q4.value(16)
    with pytest.raises(ValueError):
        q4.value(np.array([3, -1]))


# ---------------------------------------------------------------------------
# two's complement conversion


def test_twos_complement_zero_codes(q4):
    assert to_twos_complement(0, q4) == 0
    assert to_twos_complement(8, q4) == 0  # -0


def test_twos_complement_values(q4):
    assert to_twos_complement(3, q4) == 3       # +3 steps
    assert to_twos_complement(8 + 5, q4) == -5  # -5 steps


def test_from_twos_saturates(q4):
    assert int(from_twos_complement(9, q4)) == 7
    assert int(from_twos_complement(-9, q4)) == 8 + 7
    assert int(from_twos_complement(0, q4)) == 0


def test_twos_roundtrip_all_codes(q4):
    for code in range(16):
        back = int(from_twos_complement(to_twos_complement(code, q4), q4))
        assert q4.value(back) == q4.value(code)


def test_twos_roundtrip_all_values(q4):
    for v in range(-7, 8):
        assert to_twos_complement(from_twos_complement(v, q4), q4) == v


def test_twos_complement_rejects_invalid_codes(q4):
    for bad in (1.7, np.array([2.0]), True, -1, 16, [3, 300]):
        with pytest.raises(ValueError, match="codes must"):
            to_twos_complement(bad, q4)


def test_code_methods_reject_invalid_codes():
    # value, negate and combine share the decoders' code check: a float
    # code is no code, and 20 or 300 lies outside a 4-bit quantizer's 16
    q = Quantizer()
    lut = build_pair_lut(q)
    calls = [q.value, q.negate, lambda c: lut.combine(c, 3), lambda c: lut.combine(3, c)]
    for call in calls:
        for bad in (1.7, np.array([2.0]), True, -1, 16, 20, 300, [3, 300]):
            with pytest.raises(ValueError, match="codes must"):
                call(bad)
    assert q.negate(7) == 15 and q.negate(np.uint8(15)) == 7
    assert lut.combine(15, 3) == lut.table[15, 3]


@pytest.mark.parametrize("bits", range(2, 9))
def test_conversion_pair_matches_its_definitions(bits):
    for q in (Quantizer(bits), Quantizer(bits, 0.25)):
        m = q.max_magnitude_int
        codes = np.arange(q.n_codes)
        want = q.value(codes) / q.step
        assert to_twos_complement(codes, q).tolist() == want.tolist()
        assert [to_twos_complement(int(c), q) for c in codes] == want.tolist()
        # every integer a variable update can reach on a bundled code
        col_degree = max(int(expand_base(demo_base(n)).col_weights().max())
                         for n in demo_base_names())
        ints = np.arange(-m * (col_degree + 2), m * (col_degree + 2) + 1)
        v = np.clip(ints, -m, m)
        want_codes = np.where(v < 0, q.sign_bit | -v, v)
        assert from_twos_complement(ints, q).tolist() == want_codes.tolist()
        for dtype in (np.int8, np.int16, np.int64):
            out = np.empty(codes.shape, dtype=dtype)
            _code_values(codes.astype(np.uint8), q, out)
            assert out.tolist() == want.tolist()
            if ints.max() <= np.iinfo(dtype).max:
                codes_out = np.empty(ints.shape, dtype=np.uint8)
                _saturated_codes(ints.astype(dtype), q, codes_out)
                assert codes_out.tolist() == want_codes.tolist()


# ---------------------------------------------------------------------------
# pair lut


@pytest.fixture
def lut4(q4):
    return build_pair_lut(q4)


def _float_combine(a: float, b: float) -> float:
    t = np.tanh(a / 2.0) * np.tanh(b / 2.0)
    return 2.0 * np.arctanh(np.clip(t, -(1 - 1e-15), 1 - 1e-15))


def test_lut_shape_and_dtype(lut4):
    assert lut4.table.shape == (16, 16)
    assert lut4.table.dtype == np.uint8


def test_lut_zero_annihilation(lut4, q4):
    for zero in (0, 8):
        for j in range(16):
            assert q4.value(lut4.table[zero, j]) == 0.0
            assert q4.value(lut4.table[j, zero]) == 0.0


def test_lut_symmetry(lut4):
    assert np.array_equal(lut4.table, lut4.table.T)


def test_lut_sign_rule(lut4, q4):
    vals = q4.value(np.arange(16))
    for i in range(16):
        for j in range(16):
            vi, vj = vals[i], vals[j]
            if vi != 0 and vj != 0:
                out = q4.value(lut4.table[i, j])
                if out != 0:
                    assert np.sign(out) == np.sign(vi) * np.sign(vj)


def test_lut_magnitude_domination(lut4, q4):
    vals = q4.value(np.arange(16))
    for i in range(16):
        for j in range(16):
            out = q4.value(lut4.table[i, j])
            assert abs(out) <= min(abs(vals[i]), abs(vals[j])) + 1e-12


def test_lut_matches_float_recomputation(lut4, q4):
    vals = q4.value(np.arange(16))
    for i in range(16):
        for j in range(16):
            expect = int(q4.quantize(_float_combine(vals[i], vals[j])))
            assert int(lut4.table[i, j]) == expect


def test_lut_max_max_closed_form(lut4, q4):
    # 2 atanh(tanh(1.75)^2) = 2.80776... -> 5.6155 steps -> level 3.0
    out = q4.value(lut4.table[7, 7])
    assert out == pytest.approx(3.0)


def test_lut_deterministic_rebuild(q4):
    a = build_pair_lut(q4)
    b = build_pair_lut.__wrapped__(q4)  # a fresh build, past the cache
    assert a is not b
    assert np.array_equal(a.table, b.table)
    assert np.array_equal(a.value_table, b.value_table)


def test_decoders_with_equal_quantizers_share_one_lut():
    base = demo_base("toy_2x4_z8")
    code = split_and_unwrap(base)

    def stream_lut(q):
        return StreamDecoder(code, DecoderConfig(2, VARIANT_QSPA, q)).lut

    lut = stream_lut(Quantizer(4, 0.5))
    assert stream_lut(Quantizer(4, 0.5)) is lut
    assert BlockDecoder(expand_base(base), 2, Quantizer(4, 0.5)).lut is lut
    assert stream_lut(Quantizer(4, 0.25)) is not lut
    assert stream_lut(Quantizer(5, 0.5)) is not lut


def test_lut_combine_arrays(lut4):
    a = np.array([1, 2, 3], dtype=np.uint8)
    b = np.array([4, 5, 6], dtype=np.uint8)
    out = lut4.combine(a, b)
    assert out.tolist() == [int(lut4.table[x, y]) for x, y in zip(a, b)]


def test_lut_dump_roundtrip(lut4, q4, tmp_path):
    text = dump_lut(lut4)
    assert len(text.splitlines()) == 16
    again = parse_lut(text, q4)
    assert np.array_equal(again.table, lut4.table)
    with pytest.raises(ValueError):
        parse_lut("1 2 3\n", q4)


def test_parse_lut_rejects_codes_outside_the_table(lut4, q4):
    rows = dump_lut(lut4).splitlines()
    for first in ("-1", "300", "16", str(10**30)):
        text = "\n".join([" ".join([first] + rows[0].split()[1:])] + rows[1:])
        with pytest.raises(ValueError, match="out-of-range codes"):
            parse_lut(text, q4)


@settings(max_examples=25, deadline=None)
@given(bits=st.integers(2, 8),
       step=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False))
def test_parse_lut_inverts_dump_lut(bits, step):
    lut = build_pair_lut(Quantizer(bits, step))
    assert np.array_equal(parse_lut(dump_lut(lut), lut.quantizer).table, lut.table)
