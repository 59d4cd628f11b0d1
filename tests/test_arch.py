import copy
import hashlib
import io
import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpccc.arch import (
    CONVENTIONAL_PHASES,
    PROPOSED_PHASES,
    ArchModelError,
    ArchParams,
    FPGA_REFERENCE,
    PRESETS,
    Schedule,
    derive_report,
    proposed_conventional_ratio,
    ram_trace_example,
    report_arch,
    report_presets,
    schedule_conventional,
    schedule_multi,
    schedule_single,
)
from ldpccc.arch import _RamMap
from ldpccc.cli import main
from ldpccc.construction import (
    BaseMatrix,
    demo_base,
    demo_base_names,
    expand_base,
    split_and_unwrap,
)
from ldpccc.decoder import VARIANT_QSPA, DecoderConfig, StreamDecoder
from ldpccc.quantization import Quantizer

from reference_hw import ref_audit, ref_csv_rows, ref_events

GOLDEN = Path(__file__).parent / "data" / "ram_trace_golden.txt"


def params_2s(**kw):
    base = dict(
        z=512, block_rows=4, block_cols=24, stages=512, processors=18,
        quant_bits=4, clock_hz=1e8, stage_delay=0, codewords=1,
    )
    base.update(kw)
    return ArchParams(**base)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_reject_bad_stage_split():
    with pytest.raises(ArchModelError, match="stages"):
        params_2s(stages=511)  # does not divide 512 checks per block


def test_params_reject_codeword_overflow():
    with pytest.raises(ArchModelError, match="codewords"):
        params_2s(codewords=5)


def test_params_reject_degenerate_grid():
    with pytest.raises(ArchModelError, match="period"):
        ArchParams(z=8, block_rows=3, block_cols=8, stages=1, processors=2)


@pytest.mark.parametrize("rows,cols", [(4, 4), (8, 4)])
def test_params_reject_rate_at_or_below_zero(rows, cols):
    with pytest.raises(ArchModelError, match="rate"):
        ArchParams(z=8, block_rows=rows, block_cols=cols, stages=1, processors=2)


@pytest.mark.parametrize("name", ["z", "block_rows", "block_cols", "stages", "processors",
                                  "quant_bits", "stage_delay", "codewords"])
def test_params_reject_non_integer_counts(name):
    # processors=2.5 used to report 38,400 memory bits and quant_bits=4.5
    # 34,560: plausible numbers from an impossible model; numpy integers
    # are integers
    good = PRESETS["1-S"]
    value = getattr(good, name)
    for bad in (value + 0.5, float(value), True, False):
        with pytest.raises(ArchModelError, match=f"{name} must be an integer, got {bad!r}"):
            replace(good, **{name: bad})
    assert replace(good, **{name: np.int64(value)}) == good
    # and reports as Python ints do: a numpy stages used to raise an
    # AttributeError (no bit_length), and int16 fields overflowed
    for preset, params in PRESETS.items():
        for kind in (np.int16, np.uint16, np.int64):
            numpy_params = replace(params, **{name: kind(getattr(params, name))})
            assert report_arch(numpy_params, preset) == report_arch(params, preset)
            assert type(getattr(numpy_params, name)) is int


@pytest.mark.parametrize("build", [schedule_single, schedule_multi, schedule_conventional])
def test_schedule_rejects_a_step_count_that_is_not_a_count(build):
    # steps=-3 used to give an empty schedule whose steps_per_cycle() read
    # 0.0, and steps=2.5 float columns on which .events raised a TypeError
    p = ArchParams(z=12, block_rows=4, block_cols=8, stages=3, processors=2)
    with pytest.raises(ArchModelError, match="steps must be >= 0, got -3"):
        build(p, steps=-3)
    for bad in (2.5, 4.0, True):
        with pytest.raises(ArchModelError, match=f"steps must be an integer, got {bad!r}"):
            build(p, steps=bad)
    assert build(p, steps=np.int64(4)) == build(p, steps=4)
    assert build(p, steps=0).events == ()


def test_every_valid_model_splits_the_edge_rams_evenly():
    # no separate check guards the edge RAM split: z·rows·cols / (period²·stages)
    # is checks_per_block / stages times block_cols / period, an integer
    # whenever stages divides the checks per block
    models = list(PRESETS.values())
    for z, rows, cols in itertools.product(range(2, 13), range(1, 5), range(2, 13)):
        for stages in range(1, z * rows + 1):
            try:
                models.append(ArchParams(z, rows, cols, stages, processors=2))
            except ArchModelError:
                pass
    assert len(models) > 300 and any(p.stages not in (1, p.checks_per_block) for p in models)
    for p in models:
        assert _RamMap(p).edge_per_pair * p.period ** 2 * p.stages == p.z * p.block_rows * p.block_cols


@pytest.mark.parametrize("clock", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_params_reject_non_finite_or_non_positive_clock(clock):
    with pytest.raises(ArchModelError, match="clock_hz"):
        params_2s(clock_hz=clock)


@pytest.mark.parametrize("clock", [True, False, "1e8", None])
def test_params_reject_a_clock_that_is_not_a_real_number(clock):
    # True used to model a 1 Hz clock
    with pytest.raises(ArchModelError, match=f"clock_hz must be a real number, got {clock!r}"):
        params_2s(clock_hz=clock)
    assert params_2s(clock_hz=100_000_000) == params_2s(clock_hz=1e8)


@pytest.mark.parametrize("clock", ["nan", "inf"])
def test_cli_arch_rejects_non_finite_clock(clock, capsys):
    assert main(["arch", "--clock", clock]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "clock_hz" in captured.err
    assert "Gbps" not in captured.out


_ints = st.integers(-3, 40)


@settings(max_examples=200, deadline=None)
@given(z=_ints, block_rows=_ints, block_cols=_ints, stages=_ints, processors=_ints,
       quant_bits=_ints, stage_delay=_ints, codewords=_ints,
       clock_hz=st.floats(allow_nan=True, allow_infinity=True)
       | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e8]))
def test_params_validate_or_raise_model_error(**kw):
    try:
        p = ArchParams(**kw)
    except ArchModelError:
        return
    assert math.isfinite(p.clock_hz) and p.clock_hz > 0
    assert p.period >= 2 and 1 <= p.codewords <= p.period
    assert min(p.z, p.stages, p.processors, p.quant_bits) >= 1 and p.stage_delay >= 0
    rep = derive_report(p)
    assert math.isfinite(rep.throughput_bps) and rep.throughput_bps > 0


# ---------------------------------------------------------------------------
# derive_report


def test_report_counts_for_reference_configuration():
    rep = derive_report(params_2s())
    assert rep.cnp_count == 1
    assert rep.vnp_count == 6
    assert rep.edge_rams == 96
    assert rep.channel_rams == 24
    assert rep.ram_depth == 512
    assert rep.ram_width == 4 * 18
    assert rep.cycles_per_step == 512


def test_report_throughput_single_and_multi():
    rep = derive_report(params_2s())
    assert rep.throughput_bps == pytest.approx(0.5e9)
    rep4 = derive_report(params_2s(codewords=4))
    assert rep4.throughput_bps == pytest.approx(2.0e9)


def test_report_memory_formula():
    # (96 + 24) RAMs * depth 512 * width 4*18 = 4,423,680 bits
    rep = derive_report(params_2s())
    assert rep.memory_bits == 4_423_680


def test_report_depth_rounds_to_power_of_two():
    rep = derive_report(params_2s(z=422, stages=422))
    assert rep.ram_depth == 512
    assert rep.memory_bits == 4_423_680  # same physical RAMs as stages=512


def test_report_stage_delay_lowers_throughput():
    rep = derive_report(params_2s(stage_delay=64))
    assert rep.cycles_per_step == 576
    assert rep.throughput_bps == pytest.approx(0.5e9 * 512 / 576)


def test_all_presets_match_reference_hardware():
    for name, params in PRESETS.items():
        rep = derive_report(params)
        ref = FPGA_REFERENCE[name]
        assert rep.throughput_bps == pytest.approx(ref["throughput_bps"])
        assert abs(rep.memory_bits / ref["memory_bits"] - 1.0) < 0.02


REPORT_1S = (
    "config          G  depth  memory bits     clock   throughput\n"
    "1-S           422    512      4423680    100 MHz    0.50 Gbps\n"
    "reference                     4402268              0.50 Gbps (model memory +0.49%)\n"
    "\n"
    "CNPs/BPU 1, VNPs/BPU 6, edge RAMs 96, channel RAMs 24, RAM width 72, cycles/step 422"
)


def test_report_arch_text_for_1s():
    assert report_arch(PRESETS["1-S"], "1-S") == REPORT_1S


def test_report_presets_lists_every_preset():
    lines = report_presets().splitlines()
    assert lines[0].split() == ["config", "z", "I", "G", "cw", "depth", "model",
                                "bits", "ref", "bits", "delta", "Gbps"]
    assert [line.split()[0] for line in lines[1:]] == list(PRESETS)
    assert lines[1].split() == ["1-S", "422", "18", "422", "1", "512", "4423680",
                                "4402268", "+0.49%", "0.50"]


def test_cli_arch_preset_prints_report(capsys):
    assert main(["arch", "--preset", "1-S"]) == 0
    assert capsys.readouterr().out == REPORT_1S + "\n"


def test_throughput_monotonicity():
    base = derive_report(params_2s()).throughput_bps
    assert derive_report(params_2s(stages=256)).throughput_bps > base  # fewer stages
    assert derive_report(params_2s(z=1024, stages=1024)).throughput_bps == pytest.approx(base)
    assert derive_report(params_2s(clock_hz=2e8)).throughput_bps == pytest.approx(2 * base)


# ---------------------------------------------------------------------------
# schedules


def sched_params(**kw):
    base = dict(z=12, block_rows=4, block_cols=8, stages=3, processors=2)
    base.update(kw)
    return ArchParams(**base)


def test_group_time_ratio_is_four_sevenths():
    p = sched_params()  # period 4, stages 3
    assert p.period == 4 and p.stages == 3
    assert proposed_conventional_ratio(p) == Fraction(4, 7)
    a = schedule_single(p, steps=1)
    b = schedule_conventional(p, steps=1)
    assert Fraction(a.group_span, b.group_span) == Fraction(4, 7)


def test_single_codeword_duty_cycle():
    p = sched_params()
    s = schedule_single(p, steps=2 * p.period)
    duty = s.bpu_busy_fraction()
    assert len(duty) == p.period
    for frac in duty.values():
        assert frac == pytest.approx(1.0 / p.period)


def test_single_codeword_one_bpu_at_a_time():
    s = schedule_single(sched_params(), steps=8)
    by_cycle = {}
    for ev in s.events:
        by_cycle.setdefault(ev.cycle, set()).add(ev.bpu)
    assert all(len(b) == 1 for b in by_cycle.values())


def test_zero_stage_delay_step_span():
    s = schedule_single(sched_params(stage_delay=0), steps=1)
    assert s.cycles_per_step == 3
    s = schedule_single(sched_params(stage_delay=3), steps=1)
    assert s.cycles_per_step == 6


def test_multi_equals_single_for_one_codeword():
    p = sched_params(codewords=1)
    assert schedule_multi(p, steps=5) == schedule_single(p, steps=5)
    # the default window is two periods, whichever builder fills it in
    assert schedule_multi(p) == schedule_single(p) == Schedule(p, PROPOSED_PHASES, 2 * p.period)
    assert schedule_multi(p) != schedule_conventional(p)


def test_multi_full_pipeline_busy_and_scales():
    p = sched_params(codewords=4)
    m = schedule_multi(p, steps=2 * p.period)
    s = schedule_single(p, steps=2 * p.period)
    duty = m.bpu_busy_fraction()
    assert len(duty) == 4
    assert all(f == pytest.approx(1.0) for f in duty.values())
    assert m.steps_per_cycle() == pytest.approx(4 * s.steps_per_cycle())


def test_schedules_are_collision_free():
    for cw in (1, 2, 4):
        p = sched_params(codewords=cw)
        sched = schedule_multi(p, steps=3 * p.period)
        assert sched.audit_collisions() == []
    assert schedule_conventional(sched_params(), steps=8).audit_collisions() == []


def test_schedule_csv_rows_shape():
    s = schedule_single(sched_params(), steps=1)
    rows = s.csv_rows()
    assert all(len(r) == 5 for r in rows)
    ops = {r[2] for r in rows}
    assert "R" in ops and "W" in ops


SCHEDULE_CASES = [
    ("single", schedule_single, {}, PROPOSED_PHASES),
    ("multi-1", schedule_multi, {"codewords": 1}, PROPOSED_PHASES),
    ("multi-2", schedule_multi, {"codewords": 2}, PROPOSED_PHASES),
    ("multi-4", schedule_multi, {"codewords": 4}, PROPOSED_PHASES),
    ("multi-2-delay", schedule_multi, {"codewords": 2, "stage_delay": 2}, PROPOSED_PHASES),
    ("single-delay", schedule_single, {"stage_delay": 3}, PROPOSED_PHASES),
    ("conventional", schedule_conventional, {}, CONVENTIONAL_PHASES),
    ("period-2", schedule_multi,
     {"z": 8, "block_rows": 2, "block_cols": 4, "stages": 2, "codewords": 2},
     PROPOSED_PHASES),
]


@pytest.mark.parametrize("steps", [0, 1, 9])
@pytest.mark.parametrize("name,build,kw,phases", SCHEDULE_CASES,
                         ids=[c[0] for c in SCHEDULE_CASES])
def test_schedule_matches_object_per_access_reference(name, build, kw, phases, steps):
    p = sched_params(**kw)
    sched = build(p, steps=steps)
    single = p if build is schedule_multi else sched_params(**dict(kw, codewords=1))
    want = ref_events(single, phases, steps)
    assert sched.events == tuple(want)
    rows = sched.csv_rows()
    assert rows == ref_csv_rows(want)
    text = io.StringIO()
    sched.write_csv(text)
    assert text.getvalue() == "cycle,bpu,activity,ram_id,address\n" + "".join(
        f"{','.join(map(str, r))}\n" for r in rows)
    assert sched.audit_collisions() == ref_audit(sched.events) == []


def _with_rams(sched, rams):
    bad = copy.copy(sched)
    bad.rams = rams
    return bad


def test_audit_finds_injected_port_collisions():
    p = sched_params(codewords=4)
    sched = schedule_multi(p, steps=p.period + 1)
    rams = sched.rams.copy()
    rams[2] = rams[0]          # codeword 2 reuses codeword 0's RAM banks
    rams[3, 1, 5] = rams[3, 1, 0]  # and one access of codeword 3 repeats a port
    bad = _with_rams(sched, rams)
    found = bad.audit_collisions()
    assert found == ref_audit(bad.events)
    # every access of codeword 2 in all 5 steps, plus one per stage of step 1
    assert len(found) == p.stages * (p.period + 1) * len(sched.ops) + p.stages
    assert found[0] == f"cycle 0: RAM {rams[0, 0, 0]} R by BPU 0 and BPU 2"
    assert bad != sched and _with_rams(sched, sched.rams.copy()) == sched


def test_schedule_column_statistics_match_events():
    for _name, build, kw, _phases in SCHEDULE_CASES:
        sched = build(sched_params(**kw), steps=7)
        events = sched.events
        span = max(ev.cycle for ev in events) + 1
        busy = {}
        for ev in events:
            busy.setdefault(ev.bpu, set()).add(ev.cycle)
        assert sched.bpu_busy_fraction() == {
            b: len(c) / span for b, c in sorted(busy.items())}
        assert sched.steps_per_cycle() == len(
            {(ev.codeword, ev.step) for ev in events}) / span
    empty = schedule_single(sched_params(), steps=0)
    assert empty.events == () and empty.csv_rows() == []
    assert empty.bpu_busy_fraction() == {} and empty.steps_per_cycle() == 0.0


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("batch", [1, 2, 3, 4])
@pytest.mark.parametrize("build", [schedule_single, schedule_multi, schedule_conventional],
                         ids=["single", "multi-2-delay", "conventional"])
def test_write_csv_keeps_the_rows_at_every_batch_edge(monkeypatch, build, batch):
    # one stage: a step is one event per codeword, so the step counts give
    # 0, 1, B-1, B, B+1 and 2B+1 events, twice as many with two codewords
    monkeypatch.setattr("ldpccc.arch._CSV_BATCH", batch)
    p = sched_params(stages=1, codewords=2, stage_delay=2)
    for steps in (0, 1, batch - 1, batch, batch + 1, 2 * batch + 1):
        sched = build(p, steps=steps)
        text = _CountedWrites()
        sched.write_csv(text)
        assert text.getvalue() == "cycle,bpu,activity,ram_id,address\n" + "".join(
            f"{','.join(map(str, r))}\n" for r in sched.csv_rows())
        assert text.writes == 1 + -(-sched.cycle.size // batch)  # the header, then batches


PRESET_1S_CSV_SHA256 = "625f1b5491ad13d6939e3f2928f4e07e458b32167c4b32afe90cd647ed225b61"


def test_cli_schedule_csv_for_1s_is_pinned(tmp_path, capsys):
    path = tmp_path / "sched.csv"
    assert main(["arch", "--preset", "1-S", "--schedule-csv", str(path)]) == 0
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PRESET_1S_CSV_SHA256
    assert data.count(b"\n") - 1 == 327_472


def test_cli_schedule_csv_with_all_presets_is_an_error(tmp_path, capsys):
    path = tmp_path / "sched.csv"
    assert main(["arch", "--all-presets", "--schedule-csv", str(path)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--schedule-csv" in captured.err
    assert not path.exists()


# ---------------------------------------------------------------------------
# storage trace


def test_ram_trace_counts():
    t = ram_trace_example()
    assert t.edge_rams == 16
    assert t.channel_rams == 8
    assert t.edge_rams_per_row == 8
    assert t.channel_rams_per_block == 4


def test_ram_trace_addresses_count_up():
    t = ram_trace_example()
    for _label, cells in t.snapshots:
        addresses = sorted({a for _r, a, _t in cells})
        assert addresses == [0, 1]


def test_ram_trace_matches_golden_text():
    assert ram_trace_example().render() == GOLDEN.read_text()


def test_ram_trace_narrated_facts():
    t = ram_trace_example()
    snaps = dict(t.snapshots)
    start = dict(((r, a), tag) for r, a, tag in
                 snaps["step 1: start of BPU_1 processing u[t0], v[t0-1]"])
    for ram in range(1, 9):
        for addr in (0, 1):
            assert start[(ram, addr)].startswith("v2c")
            assert start[(ram, addr)].endswith("u[t0]")
    for ram in range(9, 13):
        assert start[(ram, 0)] == "v2c v[t0]->u[t0+1]"
    for ram in range(13, 17):
        assert start[(ram, 0)] == "c2v u[t0-1]->v[t0-1]"
    final = dict(((r, a), tag) for r, a, tag in
                 snaps["after BPU_2: RAM 1-8 hold variable-to-check messages for u[t0+2]"])
    for ram in range(1, 9):
        for addr in (0, 1):
            assert final[(ram, addr)].startswith("v2c")
            assert final[(ram, addr)].endswith("u[t0+2]")


def test_ram_trace_writes_match_schedule():
    # between snapshots, the entries that change are the schedule's writes
    # of the stages replayed: step 0 (row phase 0) stage 0, then step 1
    # (row phase 1) at both addresses
    t = ram_trace_example()
    states = [dict(((r, a), tag) for r, a, tag in cells) for _label, cells in t.snapshots]
    events = schedule_single(t.params, steps=2).events

    def writes(event):
        return {(acc.ram, acc.address) for acc in event.accesses if acc.op == "W"}

    def changed(before, after):
        return {key for key in after if after[key] != before[key]}

    assert changed(states[0], states[1]) == writes(events[0])
    assert changed(states[2], states[3]) == writes(events[2]) | writes(events[3])


# random bases at z = 8 whose periods, 2 and 3, are below their block rows
RANDOM_BASES = {"random_4x6_z8": (4, 6), "random_6x9_z8": (6, 9)}


def assert_same_outputs(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a[0] == b[0]
        for x, y in zip(a[1:], b[1:]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", demo_base_names() + list(RANDOM_BASES))
def test_step_state_is_the_model_memory(name):
    # at a step boundary t past I * period steps, a stepped decoder's live
    # state, the messages and channel values of blocks t - memory - (I - 1)
    # * period .. t - 1, with the arriving block's edges and channel values
    # is, per processor, one slot per edge of the expanded base matrix and
    # the channel values of a period of blocks: the model's RAM bits at every
    # power-of-two stage count it accepts.  Garbage in every other message
    # slot and channel value but the zero slot changes no later output, and
    # the state keeps its size through later window shifts
    if name in RANDOM_BASES:
        exps = np.random.default_rng(17).integers(0, 8, RANDOM_BASES[name])
        base = BaseMatrix(z=8, exponents=tuple(map(tuple, exps.tolist())))
    else:
        base = demo_base(name)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal sub-matrix")
        code = split_and_unwrap(base)
    p, m, c = code.period, code.memory, code.block_len
    rng = np.random.default_rng(18)
    for iterations in (1, 3, 8):
        for bits in (4, 8):
            cfg = DecoderConfig(iterations, VARIANT_QSPA, Quantizer(bits=bits))
            dec, clean = StreamDecoder(code, cfg), StreamDecoder(code, cfg)
            for _ in range(iterations * p + 1):
                block = rng.integers(0, 1 << bits, c)
                assert_same_outputs(dec.step(block), clean.step(block))
            msg, lam = dec._msg, dec._lam
            t = dec.steps_run - dec._origin  # the arriving block, in the window
            live = slice(t - m - (iterations - 1) * p, t)
            zero = len(msg) - 1
            slots = dec._col_slots[:, live]
            slots = slots[slots != zero]
            arriving = dec._col_slots[:, t]
            arriving = arriving[arriving != zero]
            assert np.unique(np.append(slots, arriving)).size == slots.size + arriving.size
            state = slots.size + arriving.size + (live.stop - live.start + 1) * c
            assert state == iterations * (expand_base(base).nnz + p * c)
            accepted = 0
            for stages in (1 << k for k in range(code.checks_per_block.bit_length())):
                try:
                    params = ArchParams(base.z, base.block_rows, base.block_cols, stages,
                                        iterations, bits)
                except ArchModelError:
                    continue
                accepted += 1
                assert derive_report(params).memory_bits == state * bits
            assert accepted
            dead = np.ones(len(msg), dtype=bool)
            dead[slots] = dead[zero] = False
            msg[dead] = rng.integers(-100, 100, (np.count_nonzero(dead), msg.shape[1]))
            dead = np.ones(len(lam), dtype=bool)
            dead[live] = False
            lam[dead] = rng.integers(-100, 100, lam[dead].shape)
            shapes = [(a.shape, a.dtype) for a in (msg, lam)]
            origin = dec._origin
            for _ in range(len(lam) + 2 * p):
                block = rng.integers(0, 1 << bits, c)
                assert_same_outputs(dec.step(block), clean.step(block))
            assert dec._origin > origin
            assert [(a.shape, a.dtype) for a in (dec._msg, dec._lam)] == shapes
