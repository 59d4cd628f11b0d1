import collections
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldpccc.decoder

from ldpccc import harness
from ldpccc.channel import ChannelConfig, noise_sigma, to_llr, transmit_all_zero
from ldpccc.construction import (
    BaseMatrix,
    demo_base,
    expand_base,
    split_and_unwrap,
    syndrome_check,
    window_matrix,
)
from ldpccc.decoder import (
    VARIANT_QSPA,
    BlockDecoder,
    DecoderConfig,
    StreamDecoder,
    _block_syndromes,
    _stream_frames_per_call,
    _window_rows,
    decode_stream,
)
from ldpccc.harness import ExperimentConfig
from ldpccc.quantization import Quantizer, build_pair_lut, to_twos_complement

from reference_decoder import (
    ref_cnp_float_rows,
    ref_decode_block,
    ref_decode_float,
    ref_decode_qspa,
)


@pytest.fixture(scope="module")
def toy_code():
    return split_and_unwrap(demo_base("toy_2x4_z8"))


def noisy_llrs(code, n_blocks, seed, ebno_db=4.0):
    cfg = ChannelConfig(ebno_db=ebno_db, rate=code.rate, seed=seed)
    y = transmit_all_zero(n_blocks * code.block_len, cfg)
    return to_llr(y, noise_sigma(cfg))


# ---------------------------------------------------------------------------
# step mechanics


def test_step_rejects_wrong_length(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    with pytest.raises(ValueError):
        dec.step(np.zeros(toy_code.block_len + 1))


def test_float_config_rejects_a_quantizer():
    with pytest.raises(ValueError, match="quantizer"):
        DecoderConfig(8, "float", Quantizer(8))


@pytest.mark.parametrize("clamp", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_config_rejects_a_clamp_that_is_not_finite_and_positive(clamp):
    # a NaN clamp decided every bit 0, a negative one flipped every check
    # message: both decoders take their clamp through DecoderConfig
    with pytest.raises(ValueError, match="clamp must be finite and > 0"):
        DecoderConfig(4, clamp=clamp)
    with pytest.raises(ValueError, match="clamp must be finite and > 0"):
        BlockDecoder(expand_base(demo_base("toy_2x4_z8")), 4, clamp=clamp)


@pytest.mark.parametrize("clamp", [True, False, "5", None, np.bool_(True)])
def test_config_rejects_a_clamp_that_is_not_a_real_number(clamp, toy_code):
    # True used to pass as a clamp of 1.0, and "5" failed in np.isfinite
    # with a TypeError that named no setting
    with pytest.raises(ValueError, match=f"clamp must be a real number, got {clamp!r}"):
        DecoderConfig(8, clamp=clamp)
    assert DecoderConfig(8, clamp=np.float32(5.0)) == DecoderConfig(8, clamp=5.0)
    # np.float32(3.3) used to be stored as given: equal to 3.3 (numpy
    # compares in float32), while hashing apart from it and decoding to
    # other soft values
    numpy_clamp = np.float32(3.3)
    cfg, want = DecoderConfig(8, clamp=numpy_clamp), DecoderConfig(8, clamp=float(numpy_clamp))
    assert type(cfg.clamp) is float
    assert cfg == want and hash(cfg) == hash(want) and cfg != DecoderConfig(8, clamp=3.3)
    llrs = noisy_llrs(toy_code, 12, seed=4, ebno_db=2.0).reshape(3, -1)
    assert np.array_equal(decode_stream(StreamDecoder(toy_code, cfg), llrs).soft,
                          decode_stream(StreamDecoder(toy_code, want), llrs).soft)


@pytest.mark.parametrize("clamp", [0.5, 24.9, 100.0])
def test_qspa_config_rejects_a_clamp_it_would_not_read(clamp):
    # the quantized check update never reads the clamp: a qspa run at clamp
    # 0.5 gave the same bit errors as at 25, where a float run's tripled
    with pytest.raises(ValueError, match="clamp applies to the float variant only"):
        DecoderConfig(4, "qspa", clamp=clamp)
    with pytest.raises(ValueError, match="clamp applies to the float variant only"):
        BlockDecoder(expand_base(demo_base("toy_2x4_z8")), 4, Quantizer(), clamp)
    assert DecoderConfig(4, "float", clamp=clamp).clamp == clamp
    assert DecoderConfig(4, "qspa", clamp=DecoderConfig.clamp).quantizer == Quantizer()


@pytest.mark.parametrize("variant", ["bogus", "QSPA", ""])
def test_config_rejects_an_unknown_variant(variant):
    with pytest.raises(ValueError, match=f"unknown variant {variant!r}"):
        DecoderConfig(4, variant)


@pytest.mark.parametrize("iterations", [4.5, 4.0, 0, -1, "4", True, False])
def test_config_rejects_iterations_that_are_not_a_positive_integer(iterations):
    with pytest.raises(ValueError, match="iterations must be (an integer|>= 1), got"):
        DecoderConfig(iterations)
    with pytest.raises(ValueError, match="iterations must be (an integer|>= 1), got"):
        BlockDecoder(expand_base(demo_base("toy_2x4_z8")), iterations)
    assert DecoderConfig(np.int64(4)).iterations == 4


def test_initial_delay(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=3))
    delay = dec.output_delay
    assert delay == (toy_code.memory + 1) * 3
    block = np.full(toy_code.block_len, 2.0)
    for _ in range(delay):
        assert dec.step(block) is None
    out = dec.step(block)
    assert out is not None and out[0] == 0  # (block_index, bits, soft)


def test_continuous_output_after_delay(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    block = np.full(toy_code.block_len, 2.0)
    outs = [dec.step(block) for _ in range(dec.output_delay + 5)]
    emitted = [o[0] for o in outs if o is not None]
    assert emitted == [0, 1, 2, 3, 4]


def test_decoding_step_alias(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=1))
    assert dec.step(np.zeros(toy_code.block_len)) is None


def period_four_code(rng):
    """A random period-4 code whose grid may hold -1 (all-zero) entries."""
    while True:
        exps = tuple(
            tuple(-1 if rng.random() < 0.1 else int(rng.integers(0, 5))
                  for _ in range(8))
            for _ in range(4)
        )
        grid = np.array(exps)
        if ((grid != -1).sum(axis=0) > 0).all() and ((grid != -1).sum(axis=1) > 0).all():
            break
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        return split_and_unwrap(BaseMatrix(z=5, exponents=exps))


def table_codes():
    return [split_and_unwrap(demo_base("toy_2x4_z8")),
            split_and_unwrap(demo_base("toy_3x6_z16")),
            period_four_code(np.random.default_rng(5))]


def row_slots(tables):
    """Each window row's message slots, from the window's groups."""
    slots = collections.defaultdict(list)
    for deg, lo, hi, rows in tables.groups:
        by_row = np.arange(lo, hi).reshape(deg, rows.size, -1)
        for i, r in enumerate(rows.tolist()):
            slots[r].extend(by_row[:, i].ravel().tolist())
    return slots


def test_processor_state_edge_counts(monkeypatch):
    # on the codes without -1 entries every full-band row holds (block_len
    # - info_len) checks of degree block_cols; on every code, the step's
    # check update on rows r, r - period, ... (a strided view per group)
    # reads each slot of those rows once and no other slot
    read = []
    monkeypatch.setattr(ldpccc.decoder, "_cnp_rows",
                        lambda v2c, out, lut, clamp: read.extend(v2c.ravel().tolist()))
    for code in table_codes() + [split_and_unwrap(demo_base("toy_2x4_z16"))]:
        p, m = code.period, code.memory
        dec = StreamDecoder(code, DecoderConfig(3))
        dec.step(np.zeros(code.block_len))
        n_rows = len(dec._lam)
        slots = row_slots(ldpccc.decoder._window_tables(code, n_rows))
        dec._msg[:, 0] = np.arange(len(dec._msg))  # every slot holds its own index
        for r in range(n_rows):
            for n in range(1, 2 if r < m else (r - m) // p + 2):
                read.clear()
                dec._check_rows(r, n)
                assert sorted(read) == sorted(x for i in range(n) for x in slots[r - i * p])
        if min(min(row) for row in code.base.exponents) >= 0:
            expected = (code.block_len - code.info_len) * code.base.block_cols
            assert all(len(slots[r]) == expected for r in range(m, n_rows))


def slot_owners(code, tables):
    """Each slot's block row and its position in that row's own layout."""
    row_of = np.empty(tables.slot_col.size, dtype=np.int64)
    pos_of = np.empty_like(row_of)
    for deg, lo, hi, rows in tables.groups:
        checks = (hi - lo) // (deg * rows.size)
        for k, r in enumerate(rows.tolist()):
            pos = dict(code.row_structure(r).by_degree)[deg]
            assert len(pos) == checks
            at = lo + (np.arange(deg)[:, None] * rows.size + k) * checks + np.arange(checks)
            row_of[at], pos_of[at] = r, pos.T
    return row_of, pos_of


def test_slot_conservation_audit():
    # each column of a window lists the slots of its block's edges once, in
    # the pipeline's summation order: the block's newest row first, then its
    # older rows from oldest to newest, each row's edges in layout order;
    # rows past the window read as pads in place, a whole block's column
    # pads at its end, and every slot is listed exactly once
    for code in table_codes():
        p, m, c = code.period, code.memory, code.block_len
        for n_rows in (1, m + p - 1, 3 * p + 1, 4 * p):
            tables = ldpccc.decoder._window_tables(code, n_rows)
            row_of, pos_of = slot_owners(code, tables)
            pad = tables.slot_col.size
            listed = tables.col_slots.T  # (columns, column degree)
            for column, slots in enumerate(listed):
                real = slots[slots < pad]
                block = column // c
                if block + m < n_rows:
                    assert (slots[real.size:] == pad).all()
                assert (tables.slot_col[real] == column).all()
                offset = row_of[real] - block
                assert ((0 <= offset) & (offset <= m)).all()
                order = ((offset + 1) % (m + 1)) * 10**6 + pos_of[real]
                assert (np.diff(order) > 0).all()
            counts = np.bincount(listed[listed < pad], minlength=pad)
            assert (counts == 1).all()


def test_stream_pad_row_sits_past_the_largest_leaving_block():
    # the leaving block's size varies by phase on the period-4 code; its
    # columns are padded with the zero slot past every real slot, up to the
    # largest column degree
    code = period_four_code(np.random.default_rng(5))
    tables = ldpccc.decoder._window_tables(code, 64 + code.memory)
    pad = tables.slot_col.size
    degrees = np.bincount(tables.slot_col.astype(np.int64), minlength=tables.col_slots.shape[1])
    assert len(tables.col_slots) == degrees.max() > degrees.min()
    assert np.array_equal((tables.col_slots < pad).sum(axis=0), degrees)
    assert tables.col_slots.max() == pad


def test_step_state_appears_at_the_first_step():
    # the step state (a message array over a cached window of whole
    # periods, a slot per edge plus the zero slot, a column per frame, and
    # the window's channel values) appears at the first step, so a decoder
    # that only decode_stream sees builds none
    step_only = ("_msg", "_lam")
    for n_proc, frames, variant in itertools.product((1, 3, 8), ((), (1,), (3,)),
                                                     ("float", VARIANT_QSPA)):
        code = split_and_unwrap(demo_base("toy_2x4_z8"))
        dec = StreamDecoder(code, DecoderConfig(n_proc, variant))
        decode_stream(dec, np.ones(frames + (2 * code.block_len,)))
        assert not any(hasattr(dec, name) for name in step_only)
        dec.step(np.ones(frames + (code.block_len,), dtype=np.uint8))
        n_rows, f = len(dec._lam), (frames or (1,))[0]
        assert n_rows % code.period == 0
        tables = code._decoder_tables[("window", n_rows)]
        assert dec._msg.shape == (tables.slot_col.size + 1, f)
        assert dec._lam.shape == (n_rows, code.block_len, f)
        assert dec._msg.dtype == (np.float64 if variant == "float" else np.int8)


# ---------------------------------------------------------------------------
# decode_stream contracts


def test_stream_requires_multiple_of_block(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    with pytest.raises(ValueError):
        decode_stream(dec, np.zeros(toy_code.block_len + 3))


def test_empty_stream(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    res = decode_stream(dec, np.zeros(0))
    assert res.bits.size == 0 and res.syndrome_ok.size == 0


def test_block_conservation(toy_code):
    for k in (1, 2, 7):
        dec = StreamDecoder(toy_code, DecoderConfig(iterations=3))
        res = decode_stream(dec, np.full(k * toy_code.block_len, 1.5))
        assert res.bits.size == k * toy_code.block_len
        assert res.syndrome_ok.size == k


def test_noiseless_stream_decodes_clean(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=4))
    res = decode_stream(dec, np.full(6 * toy_code.block_len, 5.0))
    assert res.bits.sum() == 0
    assert res.syndrome_ok.all()


def test_noisy_high_snr_stream(toy_code):
    llrs = noisy_llrs(toy_code, 40, seed=11, ebno_db=7.0)
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=4))
    res = decode_stream(dec, llrs)
    assert res.bits.sum() == 0
    assert res.syndrome_ok.all()


def test_quantized_stream_decodes(toy_code):
    llrs = noisy_llrs(toy_code, 40, seed=12, ebno_db=7.0)
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=4, variant=VARIANT_QSPA))
    res = decode_stream(dec, llrs)
    assert res.bits.sum() == 0
    assert res.syndrome_ok.all()


def test_negated_llrs_flip_all_decisions(toy_code):
    llrs = noisy_llrs(toy_code, 30, seed=13, ebno_db=2.0)
    a = decode_stream(StreamDecoder(toy_code, DecoderConfig(iterations=4)), llrs)
    b = decode_stream(StreamDecoder(toy_code, DecoderConfig(iterations=4)), -llrs)
    assert np.array_equal(a.bits ^ 1, b.bits)  # float softs never tie exactly


def test_negated_llrs_flip_quantized_up_to_ties(toy_code):
    # integer softs can land exactly on zero, where the documented tie rule
    # decides 0 on both signs; everywhere else the decision must flip
    llrs = noisy_llrs(toy_code, 30, seed=13, ebno_db=2.0)
    a = decode_stream(
        StreamDecoder(toy_code, DecoderConfig(iterations=4, variant=VARIANT_QSPA)),
        llrs,
    )
    b = decode_stream(
        StreamDecoder(toy_code, DecoderConfig(iterations=4, variant=VARIANT_QSPA)),
        -llrs,
    )
    assert np.array_equal(a.soft, -b.soft)
    ties = a.soft == 0
    assert np.array_equal((a.bits ^ 1)[~ties], b.bits[~ties])
    assert not a.bits[ties].any() and not b.bits[ties].any()


def test_syndrome_flags_false_on_forced_errors(toy_code):
    # adversarial LLRs that confuse the decoder at low SNR should produce
    # at least one failed syndrome over many blocks
    llrs = noisy_llrs(toy_code, 200, seed=14, ebno_db=-2.0)
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    res = decode_stream(dec, llrs)
    assert res.bits.sum() > 0
    assert not res.syndrome_ok.all()


# ---------------------------------------------------------------------------
# pipeline vs unrolled flooding reference


def test_pipeline_matches_reference_float(toy_code):
    rng = np.random.default_rng(100)
    for _ in range(30):
        k = int(rng.integers(1, 8))
        llrs = rng.normal(1.0, 1.1, k * toy_code.block_len) * 3.0
        dec = StreamDecoder(toy_code, DecoderConfig(iterations=4))
        res = decode_stream(dec, llrs)
        ref_bits, ref_soft = ref_decode_float(toy_code, llrs, 4)
        assert np.array_equal(res.bits, ref_bits)
        assert np.max(np.abs(res.soft - ref_soft)) <= 1e-9


def test_pipeline_matches_reference_qspa(toy_code):
    q = Quantizer()
    table = build_pair_lut(q).table
    rng = np.random.default_rng(101)
    for _ in range(30):
        k = int(rng.integers(1, 8))
        llrs = rng.normal(1.0, 1.1, k * toy_code.block_len) * 3.0
        dec = StreamDecoder(
            toy_code, DecoderConfig(iterations=4, variant=VARIANT_QSPA, quantizer=q)
        )
        res = decode_stream(dec, llrs)
        ref_bits, ref_soft = ref_decode_qspa(toy_code, llrs, 4, q, table)
        assert np.array_equal(res.bits, ref_bits)
        assert np.array_equal(res.soft, ref_soft)


def test_pipeline_matches_reference_period_four_with_zero_blocks():
    rng = np.random.default_rng(5)
    code = period_four_code(rng)
    assert code.memory == 3
    q = Quantizer()
    table = build_pair_lut(q).table
    for _ in range(10):
        k = int(rng.integers(1, 9))
        llrs = rng.normal(1.0, 1.2, k * code.block_len) * 3.0
        res = decode_stream(StreamDecoder(code, DecoderConfig(iterations=3)), llrs)
        rb, rs = ref_decode_float(code, llrs, 3)
        assert np.array_equal(res.bits, rb)
        assert np.max(np.abs(res.soft - rs)) <= 1e-9
        res = decode_stream(
            StreamDecoder(code, DecoderConfig(iterations=3, variant=VARIANT_QSPA)),
            llrs,
        )
        rb, rs = ref_decode_qspa(code, llrs, 3, q, table)
        assert np.array_equal(res.bits, rb)
        assert np.array_equal(res.soft, rs)


def test_stream_requires_fresh_decoder(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    dec.step(np.zeros(toy_code.block_len))
    with pytest.raises(ValueError, match="fresh"):
        decode_stream(dec, np.zeros(toy_code.block_len))


def test_pipeline_matches_reference_other_period(toy_code):
    code = split_and_unwrap(demo_base("toy_3x6_z16"))
    rng = np.random.default_rng(102)
    q = Quantizer()
    table = build_pair_lut(q).table
    for _ in range(6):
        k = int(rng.integers(1, 6))
        llrs = rng.normal(1.0, 1.0, k * code.block_len) * 3.0
        res = decode_stream(StreamDecoder(code, DecoderConfig(iterations=3)), llrs)
        ref_bits, ref_soft = ref_decode_float(code, llrs, 3)
        assert np.array_equal(res.bits, ref_bits)
        assert np.max(np.abs(res.soft - ref_soft)) <= 1e-9
        res = decode_stream(
            StreamDecoder(code, DecoderConfig(iterations=3, variant=VARIANT_QSPA)),
            llrs,
        )
        ref_bits, ref_soft = ref_decode_qspa(code, llrs, 3, q, table)
        assert np.array_equal(res.bits, ref_bits)
        assert np.array_equal(res.soft, ref_soft)


def test_pipeline_matches_reference_up_to_eight_processors():
    # one short stream, where the flush runs with the pipeline partly full,
    # and one longer than I * period blocks, where every processor is busy
    # with real data; periods 2, 3 and 4 (the last with -1 entries)
    q = Quantizer()
    table = build_pair_lut(q).table
    rng = np.random.default_rng(103)
    for code, n_proc in itertools.product(table_codes(), (1, 2, 3, 8)):
        for k in (1, n_proc * code.period + 1):
            llrs = rng.normal(1.0, 1.1, k * code.block_len) * 3.0
            res = decode_stream(StreamDecoder(code, DecoderConfig(n_proc)), llrs)
            ref_bits, ref_soft = ref_decode_float(code, llrs, n_proc)
            assert np.array_equal(res.bits, ref_bits)
            assert np.max(np.abs(res.soft - ref_soft)) <= 1e-9
            res = decode_stream(
                StreamDecoder(code, DecoderConfig(n_proc, VARIANT_QSPA, q)), llrs
            )
            ref_bits, ref_soft = ref_decode_qspa(code, llrs, n_proc, q, table)
            assert np.array_equal(res.bits, ref_bits)
            assert np.array_equal(res.soft, ref_soft)


# ---------------------------------------------------------------------------
# frame axis: F streams side by side


def bundled_codes():
    """The four bundled codes and the period-4 code with -1 entries."""
    names = ("toy_2x4_z8", "toy_2x4_z16", "toy_3x6_z16", "rate56_4x24_z31")
    return ([split_and_unwrap(demo_base(name)) for name in names]
            + [period_four_code(np.random.default_rng(5))])


def assert_same_result(batched, f, alone):
    for name in ("bits", "soft", "syndrome_ok"):
        got, want = getattr(batched, name)[f], getattr(alone, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_batched_stream_matches_single_frames():
    # an (F, n) batch decodes every frame bit-exactly as a 1-D call on that
    # frame alone: one block, where only warm-up rows and the flush run, and
    # I * period + 1 blocks, where every processor sees real data; one frame
    # is all zeros and one partly zero
    rng = np.random.default_rng(105)
    for code in bundled_codes():
        for n_proc, variant in itertools.product((1, 2, 3, 8), ("float", VARIANT_QSPA)):
            for k in (1, n_proc * code.period + 1):
                llrs = rng.normal(1.0, 1.2, (3, k * code.block_len)) * 3.0
                llrs[1] = 0.0
                llrs[2, rng.random(llrs.shape[1]) < 0.3] = 0.0
                cfg = DecoderConfig(n_proc, variant)
                batched = decode_stream(StreamDecoder(code, cfg), llrs)
                for f in range(len(llrs)):
                    assert_same_result(batched, f,
                                       decode_stream(StreamDecoder(code, cfg), llrs[f]))


def stepped_stream(code, cfg, llrs):
    """decode_stream's bits and soft values from a plain loop over
    StreamDecoder.step, flushed with zero-LLR blocks until every block is
    decided."""
    dec = StreamDecoder(code, cfg)
    c = code.block_len
    frames, n_blocks = llrs.shape[:-1], llrs.shape[-1] // c
    pad = np.zeros(frames + (c,))
    if cfg.quantizer is not None:
        llrs, pad = cfg.quantizer.quantize(llrs), cfg.quantizer.quantize(pad)
    bits, soft = [], []
    for k in range(n_blocks + dec.output_delay):
        out = dec.step(llrs[..., k * c:(k + 1) * c] if k < n_blocks else pad)
        if out is not None:
            assert out[0] == len(bits)
            bits.append(out[1])
            soft.append(out[2])
    return np.concatenate(bits, axis=-1), np.concatenate(soft, axis=-1)


def oldest_block_code():
    """A period-2 code whose odd rows check only the block before them.

    Zero-LLR padding silences a window's last row wherever each of its
    checks touches a padding block; here the last row of a frame of odd
    length reaches a real block, so a window one row short shows.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        return split_and_unwrap(BaseMatrix(z=5, exponents=((0, 3, 1, 4), (2, 1, -1, -1))))


def test_decode_stream_matches_the_stepped_pipeline():
    # decode_stream floods the frame's window processor by processor;
    # stepping the decoder with the zero-LLR flush gives the same bits, soft values
    # (float compared as bit patterns) and dtypes: one block, I * period + 1
    # blocks and 40; one frame of three is all zeros
    rng = np.random.default_rng(106)
    variants = [("float", None), (VARIANT_QSPA, Quantizer(4, 1.0)),
                (VARIANT_QSPA, Quantizer(8, 0.25))]
    for code in bundled_codes() + [oldest_block_code()]:
        for (variant, q), n_proc in itertools.product(variants, (1, 2, 3, 8)):
            cfg = DecoderConfig(n_proc, variant, q)
            for k, frames in itertools.product((1, n_proc * code.period + 1, 40), ((), (3,))):
                llrs = rng.normal(1.0, 1.3, frames + (k * code.block_len,)) * 2.5
                if frames:
                    llrs[1] = 0.0
                res = decode_stream(StreamDecoder(code, cfg), llrs)
                bits, soft = stepped_stream(code, cfg, llrs)
                assert_identical(res.bits, bits)
                assert_identical(res.soft, soft)


def test_a_code_without_edges_decodes_to_its_channel_values():
    # every check of an all -1 base is empty: both schedules return the
    # channel values (the codes' values for qspa) and every flag holds
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        code = split_and_unwrap(BaseMatrix(z=2, exponents=((-1,) * 4,) * 2))
    llrs = np.linspace(-2.0, 2.0, 3 * code.block_len)
    q = Quantizer()
    for variant, want in (("float", llrs), (VARIANT_QSPA, q.value(q.quantize(llrs)) / q.step)):
        cfg = DecoderConfig(2, variant)
        res = decode_stream(StreamDecoder(code, cfg), llrs)
        assert np.array_equal(res.soft, want) and res.syndrome_ok.all()
        bits, soft = stepped_stream(code, cfg, llrs)
        assert_identical(res.bits, bits)
        assert_identical(res.soft, soft)


def test_stepped_decisions_do_not_depend_on_the_flush():
    # unflushed, step's decision for block w equals decode_stream's on any
    # prefix of more than w + I * memory blocks (the blocks w's decision
    # reads): bits, soft values and dtypes, byte for byte, on streams that
    # run past three shifts of the step's window; 5% of the LLRs are zero
    rng = np.random.default_rng(108)
    for code in bundled_codes():
        c = code.block_len
        for variant, n_proc, frames in itertools.product(("float", VARIANT_QSPA), (1, 3, 8),
                                                         ((), (3,))):
            cfg = DecoderConfig(n_proc, variant)
            dec = StreamDecoder(code, cfg)
            blocks, decided, shifts = [], [], 0
            while shifts < 3:
                llrs = rng.normal(1.0, 1.3, frames + (c,)) * 2.5
                llrs[rng.random(llrs.shape) < 0.05] = 0.0
                blocks.append(llrs)
                origin = getattr(dec, "_origin", 0)
                out = dec.step(cfg.quantizer.quantize(llrs) if cfg.quantizer else llrs)
                shifts += dec._origin != origin
                if out is not None:
                    assert out[0] == len(decided)
                    decided.append(out)
            stream = np.concatenate(blocks, axis=-1)
            reach = n_proc * code.memory
            for n_blocks in (reach + 1, int(rng.integers(reach + 2, len(blocks))), len(blocks)):
                res = decode_stream(StreamDecoder(code, cfg), stream[..., :n_blocks * c])
                for w, bits, soft in decided[:n_blocks - reach]:
                    assert_identical(res.bits[..., w * c:(w + 1) * c], bits)
                    assert_identical(res.soft[..., w * c:(w + 1) * c], soft)


def test_batched_stream_output_shapes(toy_code):
    c = toy_code.block_len
    for variant, dtype in (("float", np.float64), (VARIANT_QSPA, np.int64)):
        cfg = DecoderConfig(2, variant)
        for frames in ((), (1,), (4,)):
            res = decode_stream(StreamDecoder(toy_code, cfg), np.ones(frames + (3 * c,)))
            assert res.bits.shape == res.soft.shape == frames + (3 * c,)
            assert res.syndrome_ok.shape == frames + (3,)
            assert res.bits.dtype == np.uint8 and res.soft.dtype == dtype
        with pytest.raises(ValueError, match="one or more frames"):
            decode_stream(StreamDecoder(toy_code, cfg), np.ones((0, 3 * c)))
        dec = StreamDecoder(toy_code, cfg)
        block = np.ones((4, c), dtype=np.uint8 if variant == VARIANT_QSPA else np.float64)
        outs = [dec.step(block) for _ in range(dec.output_delay + 1)]
        _, bits, soft = outs[-1]
        assert bits.shape == soft.shape == (4, c)


def test_step_rejects_a_changed_frame_count(toy_code):
    c = toy_code.block_len
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    dec.step(np.ones((3, c)))
    for bad in (np.ones((2, c)), np.ones(c), np.ones((1, c))):
        with pytest.raises(ValueError, match="frame count"):
            dec.step(bad)
    assert dec.steps_run == 1
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    dec.step(np.ones(c))
    with pytest.raises(ValueError, match="frame count"):
        dec.step(np.ones((1, c)))


def test_decode_stream_rejects_bad_batch_shapes(toy_code):
    c = toy_code.block_len
    for shape in ((2, 2, 3 * c), (2, 3 * c + 1), (1, c - 1)):
        with pytest.raises(ValueError, match="multiple of"):
            decode_stream(StreamDecoder(toy_code, DecoderConfig(iterations=2)), np.ones(shape))


def test_batch_rejects_nan_in_one_frame(toy_code):
    llrs = np.ones((4, 3 * toy_code.block_len))
    llrs[2, -5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decode_stream(StreamDecoder(toy_code, DecoderConfig(iterations=2)), llrs)
    with pytest.raises(ValueError, match="NaN"):
        decode_stream(
            StreamDecoder(toy_code, DecoderConfig(iterations=2, variant=VARIANT_QSPA)), llrs
        )
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    block = np.ones((4, toy_code.block_len))
    block[3, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        dec.step(block)
    assert dec.steps_run == 0


def test_qspa_batch_rejects_out_of_range_code_in_one_frame(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2, variant=VARIANT_QSPA))
    n_codes = dec.config.quantizer.n_codes
    for bad in (n_codes, -1):
        block = np.zeros((4, toy_code.block_len), dtype=np.int64)
        block[1, 7] = bad
        with pytest.raises(ValueError, match="codes"):
            dec.step(block)
    assert dec.steps_run == 0
    dec.step(np.full((4, toy_code.block_len), n_codes - 1, dtype=np.int64))
    assert dec.steps_run == 1


# ---------------------------------------------------------------------------
# input validation at the step boundary


def test_qspa_step_rejects_non_integer_codes(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2, variant=VARIANT_QSPA))
    with pytest.raises(ValueError, match="integer"):
        dec.step(np.full(toy_code.block_len, 3.0))
    assert dec.steps_run == 0


def test_qspa_step_rejects_out_of_range_codes(toy_code):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2, variant=VARIANT_QSPA))
    n_codes = dec.config.quantizer.n_codes
    for bad in (n_codes, 255, -1):
        block = np.zeros(toy_code.block_len, dtype=np.int64)
        block[3] = bad
        with pytest.raises(ValueError, match="codes"):
            dec.step(block)
    assert dec.steps_run == 0
    dec.step(np.full(toy_code.block_len, n_codes - 1, dtype=np.int64))
    dec.step(np.zeros(toy_code.block_len, dtype=np.uint8))
    assert dec.steps_run == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_step_rejects_non_finite_llrs(toy_code, bad):
    dec = StreamDecoder(toy_code, DecoderConfig(iterations=2))
    block = np.ones(toy_code.block_len)
    block[5] = bad
    with pytest.raises(ValueError, match="finite"):
        dec.step(block)
    assert dec.steps_run == 0


def test_decode_stream_rejects_nan(toy_code):
    llrs = np.ones(3 * toy_code.block_len)
    llrs[-1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decode_stream(StreamDecoder(toy_code, DecoderConfig(iterations=2)), llrs)
    with pytest.raises(ValueError, match="NaN"):
        decode_stream(
            StreamDecoder(toy_code, DecoderConfig(iterations=2, variant=VARIANT_QSPA)),
            llrs,
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("variant", ["float", VARIANT_QSPA])
def test_decode_stream_rejects_non_finite_llrs(toy_code, bad, variant):
    # the frame front end that BlockDecoder.decode shares: infinities fail
    # as NaN does, quantized or not, in one frame and in a batch
    llrs = np.ones((2, 3 * toy_code.block_len))
    llrs[1, 5] = bad
    for frames in (llrs[1], llrs):
        with pytest.raises(ValueError, match="finite"):
            decode_stream(StreamDecoder(toy_code, DecoderConfig(2, variant)), frames)


def test_qspa_frames_are_scanned_for_non_finite_llrs_once(toy_code, monkeypatch):
    # the frame front end rejects NaN and infinities, then quantizes without
    # the public quantizer's second NaN scan, to the same codes
    llrs = noisy_llrs(toy_code, 6, seed=8, ebno_db=2.0)
    cfg = DecoderConfig(iterations=3, variant=VARIANT_QSPA)
    want = decode_stream(StreamDecoder(toy_code, cfg), llrs).soft

    def scanning_again(self, x):
        raise AssertionError("the frame engine scanned its LLRs twice")

    monkeypatch.setattr(Quantizer, "quantize", scanning_again)
    assert np.array_equal(decode_stream(StreamDecoder(toy_code, cfg), llrs).soft, want)


@pytest.mark.parametrize("variant", ["float", VARIANT_QSPA])
def test_decode_stream_splits_a_batch_into_calls(toy_code, variant, monkeypatch):
    # with a byte budget of two toy windows of messages, five frames go to
    # the engine two at a time and decode as each frame alone
    n_blocks, cfg = 4, DecoderConfig(2, variant)
    window = ldpccc.decoder._window_tables(toy_code, _window_rows(toy_code, n_blocks, 2))
    size = np.dtype(ldpccc.decoder._message_dtype(window, cfg.quantizer)).itemsize
    assert size == (8 if variant == "float" else 1)
    monkeypatch.setattr(ldpccc.decoder, "_CALL_BYTES", 2 * window.slot_col.size * size)
    calls = []
    flood = ldpccc.decoder._flood

    def counted(tables, lam, *args):
        calls.append(lam.shape[1])
        return flood(tables, lam, *args)

    monkeypatch.setattr(ldpccc.decoder, "_flood", counted)
    llrs = np.random.default_rng(107).normal(1.0, 1.3, (5, n_blocks * toy_code.block_len)) * 2.5
    batched = decode_stream(StreamDecoder(toy_code, cfg), llrs)
    assert calls == [2, 2, 1]
    for f in range(len(llrs)):
        assert_same_result(batched, f, decode_stream(StreamDecoder(toy_code, cfg), llrs[f]))


def calls_of_bundled_codes(quantizer):
    """(slots, frames per call) of each bundled code's stream windows, at
    8- and 64-block frames and 4 and 8 processors, and of its block matrix."""
    for code in bundled_codes():
        for n_blocks, n_proc in itertools.product((8, 64), (4, 8)):
            window = ldpccc.decoder._window_tables(code, _window_rows(code, n_blocks, n_proc))
            yield window.slot_col.size, _stream_frames_per_call(code, n_proc, n_blocks, quantizer)
        matrix = expand_base(code.base)
        yield int(matrix.row_weights().sum()), BlockDecoder(matrix, 8, quantizer).frames_per_call


def test_float_frames_per_call_are_those_of_the_edge_budget():
    # the byte budget holds 2**16 float messages of 8 bytes, the edges a
    # call held before calls were sized in bytes
    for slots, per_call in calls_of_bundled_codes(None):
        assert per_call == max(1, 2**16 // slots)


@pytest.mark.parametrize("bits, size", [(4, 1), (8, 2)])
def test_qspa_frames_per_call_fill_the_byte_budget(bits, size):
    # quantized sums take one byte (int8) at 4 bits and two (int16) at 8,
    # so a quantized call takes 8 or 4 times the frames of a float one; a
    # 64-block rate-5/6 frame at I = 8 floods its own 64 rows, 46,500 slots
    for slots, per_call in calls_of_bundled_codes(Quantizer(bits)):
        assert per_call == max(1, ldpccc.decoder._CALL_BYTES // (slots * size))
    rate56 = demo_base("rate56_4x24_z31")
    assert BlockDecoder(expand_base(rate56), 8, Quantizer(bits)).frames_per_call == 176 // size
    code = split_and_unwrap(rate56)
    assert ldpccc.decoder._window_tables(code, 64).slot_col.size == 46_500
    per_call = _stream_frames_per_call(code, 8, 64, Quantizer(bits))
    assert per_call == 2**19 // (46_500 * size) == {1: 11, 2: 5}[size]


@pytest.mark.parametrize("bits", [4, 8])
def test_quantized_stream_batch_over_two_calls_matches_single_frames(bits, monkeypatch):
    # a rate-5/6 batch of one call's 64-block frames plus three goes to the
    # engine in two calls and decodes every frame as it decodes alone
    code = split_and_unwrap(demo_base("rate56_4x24_z31"))
    cfg = DecoderConfig(8, VARIANT_QSPA, Quantizer(bits))
    per_call = _stream_frames_per_call(code, 8, 64, cfg.quantizer)
    llrs = np.stack([noisy_llrs(code, 64, seed, ebno_db=2.5) for seed in range(per_call + 3)])
    calls = []
    flood = ldpccc.decoder._flood

    def counted(tables, lam, *args):
        calls.append(lam.shape[1])
        return flood(tables, lam, *args)

    monkeypatch.setattr(ldpccc.decoder, "_flood", counted)
    batched = decode_stream(StreamDecoder(code, cfg), llrs)
    assert calls == [per_call, 3]
    assert not batched.syndrome_ok.all()  # low enough Eb/N0 that some blocks keep errors
    for f in range(len(llrs)):
        assert_same_result(batched, f, decode_stream(StreamDecoder(code, cfg), llrs[f]))


def test_window_groups_one_per_degree_and_row_width():
    # every window row with the same (check degree, checks of that degree)
    # is in one group, rows ascending; the groups hold each check of each
    # row once, as the row's own structure lists them
    for code in bundled_codes():
        c = code.block_len
        for n_rows in (1, code.memory + 1, 64 + 2 * code.memory):
            tables = ldpccc.decoder._window_tables(code, n_rows)
            keys, got, end = [], collections.Counter(), 0
            for deg, lo, hi, rows in tables.groups:
                assert lo == end and rows.size and (np.diff(rows) > 0).all()
                checks, rest = divmod(hi - lo, deg * rows.size)
                assert rest == 0
                keys.append((deg, checks))
                cols = tables.slot_col[lo:hi].reshape(deg, rows.size, checks)
                for i, r in enumerate(rows.tolist()):
                    got.update((r, frozenset(check)) for check in cols[:, i].T.tolist())
                end = hi
            assert end == tables.slot_col.size and len(set(keys)) == len(keys)
            want = collections.Counter()
            for r in range(n_rows):
                struct = code.row_structure(r)
                cols = (r - struct.edge_delta) * c + struct.edge_col
                want.update((r, frozenset(cols[check].tolist()))
                            for _, pos in struct.by_degree for check in pos)
            assert got == want
    for name, n_groups in (("toy_2x4_z16", 2), ("rate56_4x24_z31", 4)):
        code = split_and_unwrap(demo_base(name))
        assert len(ldpccc.decoder._window_tables(code, 64 + code.memory).groups) == n_groups


@pytest.mark.parametrize("variant", ["float", VARIANT_QSPA])
def test_flooding_splits_a_group_into_kernel_calls(variant, monkeypatch):
    # a byte budget of one check, and budgets that leave a short last run
    # of checks, change the engine's kernel calls but no output byte, on
    # stream windows and in the block decoder
    kernel = "_cnp_float_rows" if variant == "float" else "_cnp_qspa_rows"
    quantizer = None if variant == "float" else Quantizer()
    rng = np.random.default_rng(110)
    runs = []
    for name in ("toy_2x4_z8", "rate56_4x24_z31"):
        code, matrix = split_and_unwrap(demo_base(name)), expand_base(demo_base(name))
        llrs = rng.normal(1.0, 1.3, (3, 5 * code.block_len)) * 2.5
        runs.append(functools.partial(decode_stream, StreamDecoder(code, DecoderConfig(2, variant)),
                                      llrs))
        block = BlockDecoder(matrix, 2, quantizer)
        runs.append(functools.partial(block.decode, rng.normal(1.0, 1.3, (3, matrix.cols)) * 2.5))

    def outputs():
        out = []
        for run in runs:
            res = run()
            out.extend(res if isinstance(res, tuple) else (res.bits, res.soft, res.syndrome_ok))
        return out

    widths = []
    original = getattr(ldpccc.decoder, kernel)

    def counted(v, *args):
        widths.append(v.shape[1])
        return original(v, *args)

    monkeypatch.setattr(ldpccc.decoder, kernel, counted)
    want, whole = outputs(), len(widths)
    size = 8 if variant == "float" else 1  # bytes of a message
    # at three frames a call: one check a call; five degree-24 (30
    # degree-4) checks; six degree-4 (one degree-24) checks
    for budget in (1, size * (24 * 3 * 5 + 1), size * (4 * 3 * 7 - 1)):
        monkeypatch.setattr(ldpccc.decoder, "_KERNEL_BYTES", budget)
        widths.clear()
        for got, expected in zip(outputs(), want):
            assert_identical(got, expected)
        assert len(widths) > whole
        if budget == 1:
            assert max(widths) <= 3  # one check's messages, a column per frame


def test_float_block_decoder_splits_wide_groups(monkeypatch):
    # at the default byte budget the float block decoder calls the check
    # update more than once per group on the rate-5/6 matrix, each call
    # within the budget, over every check of the batch
    matrix = expand_base(demo_base("rate56_4x24_z31"))
    dec = BlockDecoder(matrix, 1)
    shapes = []
    original = ldpccc.decoder._cnp_float_rows

    def counted(v, clamp):
        shapes.append(v.shape)
        return original(v, clamp)

    monkeypatch.setattr(ldpccc.decoder, "_cnp_float_rows", counted)
    dec.decode(np.ones((dec.frames_per_call, matrix.cols)))
    assert len(shapes) > len(dec._tables.groups)
    assert all(d * n * 8 <= ldpccc.decoder._KERNEL_BYTES for d, n in shapes)
    assert sum(d * n for d, n in shapes) == dec.frames_per_call * matrix.row_weights().sum()


# ---------------------------------------------------------------------------
# dependency cone


def degree_one_code():
    """A period-2 code with degree-1 checks in its full-band rows: a degree-1
    check outputs +max whatever it reads, so a window row that reads only
    zero LLRs does not output zeros."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        return split_and_unwrap(BaseMatrix(z=8, exponents=((3, -1, -1, -1, 0, 7),
                                                           (4, -1, -1, -1, -1, -1))))


def whole_window_soft(code, cfg, llrs):
    """decode_stream's soft values from a flood of every row of its window
    at every iteration, on the same tables and channel values."""
    frames = np.atleast_2d(llrs)
    n, q = frames.shape[1], cfg.quantizer
    tables = ldpccc.decoder._window_tables(code, n // code.block_len
                                           + cfg.iterations * code.memory)
    lam = np.zeros((tables.col_slots.shape[1], len(frames)),
                   dtype=ldpccc.decoder._message_dtype(tables, q))
    lam[:n] = (frames if q is None else to_twos_complement(q.quantize(frames), q)).T
    lut = None if q is None else build_pair_lut(q)
    post = ldpccc.decoder._flood(tables, lam, cfg.iterations, lut, cfg.clamp)[:n].T
    return post.reshape(np.shape(llrs)).astype(np.float64 if q is None else np.int64)


def assert_cone_is_whole_window(code, cfg, llrs):
    soft = decode_stream(StreamDecoder(code, cfg), llrs).soft
    assert_identical(soft, whole_window_soft(code, cfg, llrs))


CONE_VARIANTS = [("float", None), (VARIANT_QSPA, Quantizer(2, 0.5)), (VARIANT_QSPA, Quantizer()),
                 (VARIANT_QSPA, Quantizer(6, 0.75)), (VARIANT_QSPA, Quantizer(8, 0.25))]


@pytest.mark.parametrize("code", bundled_codes() + [oldest_block_code(), degree_one_code()],
                         ids=["toy_2x4_z8", "toy_2x4_z16", "toy_3x6_z16", "rate56_4x24_z31",
                              "period_four", "oldest_block", "degree_one"])
def test_decode_stream_floods_only_the_cone_bit_for_bit(code):
    # decode_stream floods the n_blocks + max_i min((i + 1) * J, (I - i) *
    # memory) rows of _window_rows, J the code's zero reach: 0 on the
    # bundled codes, 1 of memory 3 on the period-4 one, all of memory on
    # oldest_block_code, none with degree-1 checks; the soft values equal a
    # flood of the whole window byte for byte, from one block to past I *
    # memory blocks, one to three frames, some LLRs zero
    rng = np.random.default_rng(111)
    for (variant, q), n_proc in itertools.product(CONE_VARIANTS, (1, 2, 5, 8)):
        reach = n_proc * code.memory
        for k, frames in zip((1, reach, reach + 1, reach + code.period + 2), ((), (2,), (3,), (1,))):
            llrs = rng.normal(1.0, 1.3, frames + (k * code.block_len,)) * 2.5
            llrs[rng.random(llrs.shape) < 0.05] = 0.0
            assert_cone_is_whole_window(code, DecoderConfig(n_proc, variant, q), llrs)


def test_degree_one_checks_keep_the_rows_past_the_forward_bound():
    # the counterexample to the forward bound: float, I = 2, four blocks;
    # its degree-1 checks output +max from only zero inputs, so the window
    # keeps all n_blocks + I * memory rows, and a window cut at the forward
    # bound, n_blocks + max_i min(i + 1, I - i) * memory rows as if J were
    # memory, gives other soft values
    code, cfg = degree_one_code(), DecoderConfig(2)
    llrs = noisy_llrs(code, 4, 17, ebno_db=2.0)
    assert ldpccc.decoder._zero_reach(code) is None
    assert _window_rows(code, 4, 2) == 4 + 2 * code.memory
    assert_cone_is_whole_window(code, cfg, llrs)
    tables = ldpccc.decoder._window_tables(code, 4 + code.memory)
    lam = np.zeros((tables.col_slots.shape[1], 1))
    lam[:llrs.size, 0] = llrs
    cut = ldpccc.decoder._flood(tables, lam, 2, None, cfg.clamp)[:llrs.size, 0]
    assert cut.tobytes() != whole_window_soft(code, cfg, llrs).tobytes()


@st.composite
def cone_cases(draw):
    """A small base whose block rows and columns share a factor, with -1
    entries anywhere (so degree-1 and empty rows), a decoder configuration
    and channel values of one to three frames."""
    z = draw(st.integers(2, 9))
    rows = draw(st.integers(2, 4))
    cols = draw(st.sampled_from([c for c in range(rows + 1, 9) if math.gcd(rows, c) >= 2]))
    entry = st.one_of(st.just(-1), st.integers(0, z - 1))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        code = split_and_unwrap(BaseMatrix(z=z, exponents=tuple(map(tuple, grid))))
    n_proc = draw(st.integers(1, 8))
    variant, q = draw(st.sampled_from(CONE_VARIANTS[:1] + [
        (VARIANT_QSPA, Quantizer(bits, step)) for bits in range(2, 9) for step in (0.5, 1.0)]))
    n_blocks = draw(st.integers(1, n_proc * code.memory + code.period + 1))
    frames = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    llrs = rng.normal(1.0, 1.5, frames + (n_blocks * code.block_len,)) * 2.0
    llrs[rng.random(llrs.shape) < 0.1] = 0.0
    return code, DecoderConfig(n_proc, variant, q), llrs


@settings(max_examples=60, deadline=None)
@given(case=cone_cases())
def test_cone_matches_the_whole_window_property(case):
    assert_cone_is_whole_window(*case)


def checks_checked(monkeypatch, code, cfg, llrs):
    """The checks, per frame, that _cnp_rows receives in one decode_stream call."""
    seen = []
    cnp_rows = ldpccc.decoder._cnp_rows

    def counting(v2c, *args):
        seen.append(v2c.shape[1])
        return cnp_rows(v2c, *args)

    with monkeypatch.context() as patch:
        patch.setattr(ldpccc.decoder, "_cnp_rows", counting)
        decode_stream(StreamDecoder(code, cfg), llrs)
    return sum(seen) // len(np.atleast_2d(llrs))


def row_checks(code, n_rows):
    """The checks of each block row of a window."""
    return [sum(len(pos) for _, pos in code.row_structure(r).by_degree) for r in range(n_rows)]


def test_decode_stream_checks_only_the_cone(monkeypatch):
    # rate 5/6, float, I = 8, one 64-block frame: every check has two or
    # more edges in its own row's block (zero reach 0), so each iteration
    # checks the frame's 64 rows of 31 checks, where flooding all 88 rows of
    # n_blocks + I * memory checks 704 row-iterations
    code = split_and_unwrap(demo_base("rate56_4x24_z31"))
    assert ldpccc.decoder._zero_reach(code) == 0
    llrs = noisy_llrs(code, 64, 3, ebno_db=3.0)
    assert checks_checked(monkeypatch, code, DecoderConfig(8), llrs) == 8 * 64 * 31 == 15_872
    assert (64 + 8 * code.memory) * 8 * 31 == 21_824
    # zero reach equal to memory: every iteration checks the rows below
    # n_blocks + memory * max_i min(i + 1, I - i); with degree-1 checks only
    # the backward bound holds, rows below n_blocks + I * memory
    n_blocks, n_proc = 5, 6
    both_bounds = max(min(i + 1, n_proc - i) for i in range(n_proc))
    for code, reach in ((oldest_block_code(), both_bounds), (degree_one_code(), n_proc)):
        m = code.memory
        assert ldpccc.decoder._zero_reach(code) in (m, None)
        assert _window_rows(code, n_blocks, n_proc) == n_blocks + reach * m
        want = n_proc * sum(row_checks(code, n_blocks + reach * m))
        assert checks_checked(monkeypatch, code, DecoderConfig(n_proc),
                              noisy_llrs(code, n_blocks, 4)) == want


def test_small_floods_check_the_whole_window(monkeypatch):
    # a small flood, two 64-block frames of toy_2x4_z16 at I = 8 (zero reach
    # 0, 8,128 messages), checks every row of its 64-row window at every
    # iteration
    code = split_and_unwrap(demo_base("toy_2x4_z16"))
    n_rows = _window_rows(code, 64, 8)
    slots = ldpccc.decoder._window_tables(code, n_rows).slot_col.size
    assert (n_rows, slots * 2) == (64, 8_128)
    llrs = np.stack([noisy_llrs(code, 64, seed) for seed in (5, 6)])
    want = 8 * sum(row_checks(code, n_rows))
    assert checks_checked(monkeypatch, code, DecoderConfig(8, VARIANT_QSPA), llrs) == want


@pytest.mark.parametrize("variant", ["float", VARIANT_QSPA])
@pytest.mark.parametrize("code", bundled_codes() + [degree_one_code()],
                         ids=["toy_2x4_z8", "toy_2x4_z16", "toy_3x6_z16", "rate56_4x24_z31",
                              "period_four", "degree_one"])
def test_a_call_is_budgeted_by_the_window_it_floods(code, variant, monkeypatch):
    # decode_stream floods the cached tables of exactly _window_rows rows
    # (64 of the 88 rows of n_blocks + I * memory on a 64-block rate-5/6
    # frame at I = 8), every row at every iteration, and the harness's
    # frames per call are those of the same tables
    n_blocks, n_proc = 64, 8
    run = ExperimentConfig(base=code.base, variant=variant, iterations=n_proc,
                           frame_blocks=n_blocks)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        per_call = harness._build_run(run, baseline=False)[2]
    cfg = DecoderConfig(n_proc, variant)
    floods = []
    flood = ldpccc.decoder._flood

    def recording(tables, lam, *args):
        floods.append(tables)
        return flood(tables, lam, *args)

    monkeypatch.setattr(ldpccc.decoder, "_flood", recording)
    checks = checks_checked(monkeypatch, code, cfg, noisy_llrs(code, n_blocks, 8))
    (tables,) = floods
    n_rows = _window_rows(code, n_blocks, n_proc)
    assert tables is ldpccc.decoder._window_tables(code, n_rows)
    assert tables.col_slots.shape[1] == n_rows * code.block_len
    assert checks == n_proc * sum(row_checks(code, n_rows))
    dtype = ldpccc.decoder._message_dtype(tables, cfg.quantizer)
    assert per_call == ldpccc.decoder._frames_per_call(tables, dtype)


# ---------------------------------------------------------------------------
# syndrome flags


def test_stream_syndromes_match_the_stream_window():
    # decode_stream reads its flags through its own window, which runs past
    # the stream; the stream's own window gives the same flags
    rng = np.random.default_rng(108)
    seen = set()
    for code in bundled_codes():
        for n_blocks in (1, 7):
            llrs = rng.normal(1.0, 2.0, (3, n_blocks * code.block_len))
            llrs[1] = 4.0
            res = decode_stream(StreamDecoder(code, DecoderConfig(2)), llrs)
            assert_identical(res.syndrome_ok, _block_syndromes(code, res.bits))
            seen.update(res.syndrome_ok.ravel().tolist())
    assert seen == {False, True}


def test_stream_flags_are_computed_when_first_read(toy_code, monkeypatch):
    # decode_stream leaves its flags to their first read, which gives what
    # _block_syndromes gives on the decisions, for one stream and for
    # several; a second read returns the same array
    block_syndromes = ldpccc.decoder._block_syndromes
    calls = []

    def counting(*args):
        calls.append(args)
        return block_syndromes(*args)

    monkeypatch.setattr(ldpccc.decoder, "_block_syndromes", counting)
    rng = np.random.default_rng(109)
    for shape in ((5 * toy_code.block_len,), (3, 5 * toy_code.block_len)):
        calls.clear()
        res = decode_stream(StreamDecoder(toy_code, DecoderConfig(2)),
                            rng.normal(1.0, 2.0, shape))
        assert calls == []
        flags = res.syndrome_ok
        assert res.syndrome_ok is flags and len(calls) == 1
        assert_identical(flags, block_syndromes(toy_code, res.bits))
        assert flags.shape == shape[:-1] + (5,)


def test_block_syndromes_match_per_block_windows():
    # flag w is the parity of block row w over the blocks it touches, as
    # one window per block computes it; errors sit in the first and last
    # block as well as inside, and one pattern is fully random
    rng = np.random.default_rng(104)
    for code in table_codes():
        c, m = code.block_len, code.memory
        for n_blocks in (1, m + 1, 13):
            patterns = [np.zeros(n_blocks * c, dtype=np.uint8),
                        rng.integers(0, 2, n_blocks * c).astype(np.uint8)]
            for block in {0, n_blocks // 2, n_blocks - 1}:
                bits = np.zeros(n_blocks * c, dtype=np.uint8)
                bits[block * c + rng.integers(0, c)] = 1
                patterns.append(bits)
            for bits in patterns:
                want = [
                    syndrome_check(window_matrix(code, w, 1),
                                   bits[max(0, w - m) * c:(w + 1) * c])
                    for w in range(n_blocks)
                ]
                assert _block_syndromes(code, bits).tolist() == want


# ---------------------------------------------------------------------------
# flooding block decoder


def test_block_decoder_noiseless(toy_code):
    matrix = expand_base(toy_code.base)
    dec = BlockDecoder(matrix, iterations=5)
    bits, soft = dec.decode(np.full(matrix.cols, 4.0))
    assert bits.sum() == 0
    assert np.all(soft > 0)


def test_block_decoder_high_snr_and_quantized(toy_code):
    matrix = expand_base(toy_code.base)
    cfg = ChannelConfig(ebno_db=7.0, rate=0.5, seed=5)
    llrs = to_llr(transmit_all_zero(matrix.cols, cfg), noise_sigma(cfg))
    assert BlockDecoder(matrix, 8).decode(llrs)[0].sum() == 0
    assert BlockDecoder(matrix, 8, quantizer=Quantizer()).decode(llrs)[0].sum() == 0


def block_matrices():
    """The four bundled block codes and a random one with -1 entries."""
    names = ("toy_2x4_z8", "toy_2x4_z16", "toy_3x6_z16", "rate56_4x24_z31")
    return ([expand_base(demo_base(name)) for name in names]
            + [period_four_code(np.random.default_rng(11)).h_block])


def decode_frame_by_frame(dec, llrs):
    outs = [dec.decode(row) for row in llrs]
    return np.stack([b for b, _ in outs]), np.stack([s for _, s in outs])


def assert_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_block_decoder_batch_matches_single_frames():
    # a batch decodes every frame bit-exactly as a call on that frame alone,
    # soft values included; one frame is all zeros and one partly zero
    rng = np.random.default_rng(31)
    for matrix in block_matrices():
        llrs = rng.normal(1.5, 2.0, (5, matrix.cols)) * rng.choice([0.5, 1.0, 2.5], (5, 1))
        llrs[1] = 0.0
        llrs[3, rng.random(matrix.cols) < 0.3] = 0.0
        for iterations, quantizer in itertools.product(
                (1, 3, 8), (None, Quantizer(), Quantizer(6, 0.5))):
            dec = BlockDecoder(matrix, iterations, quantizer)
            bits, soft = dec.decode(llrs)
            want_bits, want_soft = decode_frame_by_frame(dec, llrs)
            assert_identical(bits, want_bits)
            assert_identical(soft, want_soft)


def test_block_decoder_matches_reference_flooding():
    # against literal edge-by-edge flooding at a low Eb/N0, where every
    # iteration moves the soft output: float and quantized bit-exact,
    # including wider codes whose sums leave int8
    rng = np.random.default_rng(41)
    for matrix in block_matrices():
        wide = matrix.cols > 500
        cfg = ChannelConfig(ebno_db=1.5, rate=0.5, seed=int(rng.integers(1 << 30)))
        llrs = to_llr(transmit_all_zero(matrix.cols, cfg), noise_sigma(cfg))
        llrs[rng.random(matrix.cols) < 0.1] = 0.0
        for iterations, quantizer in itertools.product(
                (3,) if wide else (1, 3, 8), (None, Quantizer(), Quantizer(6, 0.5))):
            table = None if quantizer is None else build_pair_lut(quantizer).table
            bits, soft = BlockDecoder(matrix, iterations, quantizer).decode(llrs)
            want_bits, want_soft = ref_decode_block(matrix, llrs, iterations, quantizer, table)
            assert_identical(bits, want_bits)
            assert_identical(soft, want_soft)


@pytest.mark.parametrize("quantizer", [None, Quantizer()])
def test_block_decoder_batch_spans_several_calls(quantizer):
    matrix = expand_base(demo_base("rate56_4x24_z31"))
    dec = BlockDecoder(matrix, 8, quantizer)
    n_frames = dec.frames_per_call + 3
    assert dec.frames_per_call > 1 and n_frames > dec.frames_per_call
    cfg = ChannelConfig(ebno_db=3.0, rate=5 / 6, seed=8)
    llrs = to_llr(transmit_all_zero(n_frames * matrix.cols, cfg),
                  noise_sigma(cfg)).reshape(n_frames, -1)
    llrs[-1] = 0.0
    bits, soft = dec.decode(llrs)
    want_bits, want_soft = decode_frame_by_frame(dec, llrs)
    assert_identical(bits, want_bits)
    assert_identical(soft, want_soft)
    assert bits.any()  # low enough Eb/N0 that some frames keep errors


def test_block_decoder_output_shapes(toy_code):
    matrix = expand_base(toy_code.base)
    for quantizer, dtype in ((None, np.float64), (Quantizer(), np.int64)):
        dec = BlockDecoder(matrix, 2, quantizer)
        bits, soft = dec.decode(np.ones(matrix.cols))
        assert bits.shape == soft.shape == (matrix.cols,)
        assert bits.dtype == np.uint8 and soft.dtype == dtype
        bits, soft = dec.decode(np.ones((3, matrix.cols)))
        assert bits.shape == soft.shape == (3, matrix.cols)
        bits, soft = dec.decode(np.ones((0, matrix.cols)))
        assert bits.shape == soft.shape == (0, matrix.cols) and soft.dtype == dtype
        for bad_shape in ((matrix.cols + 1,), (2, matrix.cols - 1), (1, 2, matrix.cols)):
            with pytest.raises(ValueError):
                dec.decode(np.ones(bad_shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("quantizer", [None, Quantizer()])
def test_block_decoder_rejects_non_finite_llrs(toy_code, bad, quantizer):
    matrix = expand_base(toy_code.base)
    dec = BlockDecoder(matrix, 3, quantizer)
    llrs = np.ones((2, matrix.cols))
    llrs[1, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        dec.decode(llrs[1])
    with pytest.raises(ValueError, match="finite"):
        dec.decode(llrs)


# ---------------------------------------------------------------------------
# float check update: the degree-major kernel inside both engines

BUNDLED = ("toy_2x4_z8", "toy_2x4_z16", "toy_3x6_z16", "rate56_4x24_z31")


@functools.cache
def bundled_pair(name):
    """A bundled base's convolutional code and its block code's matrix."""
    return split_and_unwrap(demo_base(name)), expand_base(demo_base(name))


def row_major_kernel(v, clamp):
    """The row-major reference in the engine's degree-major kernel slot."""
    return ref_cnp_float_rows(v.T, clamp).T


def test_float_engines_match_the_row_major_kernel(monkeypatch):
    # every bundled code through both decoders, batched, with some zero
    # LLRs: the engines give the same bytes with the reference kernel
    rng = np.random.default_rng(77)
    cases = []
    for name in BUNDLED:
        code, matrix = bundled_pair(name)
        stream = rng.normal(1.0, 1.5, (3, (2 * code.period + 1) * code.block_len)) * 2.0
        block = rng.normal(1.0, 1.5, (4, matrix.cols)) * 2.0
        for llrs in (stream, block):
            llrs[1, rng.random(llrs.shape[1]) < 0.2] = 0.0
        cases.append((code, matrix, stream, block))

    def decode_all():
        out = []
        for code, matrix, stream, block in cases:
            res = decode_stream(StreamDecoder(code, DecoderConfig(3)), stream)
            out += [res.soft, res.bits, BlockDecoder(matrix, 3).decode(block)[1]]
        return out

    fast = decode_all()
    monkeypatch.setattr(ldpccc.decoder, "_cnp_float_rows", row_major_kernel)
    slow = decode_all()
    for got, want in zip(fast, slow):
        assert_identical(got, want)


def same_up_to_zero_sign(a, b):
    """Bit patterns equal once -0.0 reads as 0.0: a sum that cancels to
    zero is +0.0 on both signs of its inputs."""
    return np.array_equal((a + 0.0).view(np.int64), (b + 0.0).view(np.int64))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(BUNDLED), iterations=st.integers(1, 4),
       n_blocks=st.integers(1, 6), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_float_decoders_are_sign_symmetric(name, iterations, n_blocks, zeros, seed):
    # every check of the bundled codes has even degree, so negating all
    # LLRs negates every message and soft value exactly
    code, matrix = bundled_pair(name)
    rng = np.random.default_rng(seed)
    stream = rng.normal(0.5, 2.0, n_blocks * code.block_len)
    block = rng.normal(0.5, 2.0, (2, matrix.cols))
    if zeros:
        stream[rng.random(stream.shape) < 0.1] = 0.0
        block[rng.random(block.shape) < 0.1] = 0.0
    cfg = DecoderConfig(iterations)
    pos = decode_stream(StreamDecoder(code, cfg), stream).soft
    neg = decode_stream(StreamDecoder(code, cfg), -stream).soft
    assert same_up_to_zero_sign(neg, -pos)
    dec = BlockDecoder(matrix, iterations)
    assert same_up_to_zero_sign(dec.decode(-block)[1], -dec.decode(block)[1])
