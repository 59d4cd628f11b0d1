import dataclasses
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import ldpccc.cli
import ldpccc.decoder
from ldpccc import harness
from ldpccc.channel import ChannelConfig, derive_seed, noise_sigma, to_llr, transmit_all_zero
from ldpccc.cli import main
from ldpccc.construction import BaseMatrix, demo_base, expand_base, split_and_unwrap
from ldpccc.decoder import (
    BlockDecoder,
    DecoderConfig,
    StreamDecoder,
    _stream_frames_per_call,
    decode_stream,
)
from ldpccc.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    run_ber,
    run_block_baseline,
    write_csv,
)
from ldpccc.quantization import Quantizer, build_pair_lut, dump_lut, parse_lut


@pytest.fixture(scope="module")
def small_cfg():
    return ExperimentConfig(
        base=demo_base("toy_2x4_z8"),
        variant="float",
        iterations=3,
        ebno_grid=(3.0, 6.0),
        min_error_events=15,
        max_blocks=600,
        seed=21,
        frame_blocks=16,
    )


def test_config_validation():
    base = demo_base("toy_2x4_z8")
    with pytest.raises(ValueError):
        ExperimentConfig(base=base, ebno_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(base=base, ebno_grid=(3.0, 2.0))
    with pytest.raises(ValueError):
        ExperimentConfig(base=base, min_error_events=0)


@pytest.mark.parametrize("name", ["iterations", "quant_bits", "min_error_events",
                                  "max_blocks", "seed", "workers", "frame_blocks"])
def test_config_rejects_non_integer_settings(name):
    # a float frame_blocks, workers, max_blocks, seed or quant_bits used to
    # fail with a TypeError deep inside the run, and min_error_events=2.5
    # ran and reported numbers; numpy integers are integers
    good = ExperimentConfig(base=demo_base("toy_2x4_z8"))
    value = getattr(good, name)
    for bad in (value + 0.5, float(value)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            dataclasses.replace(good, **{name: bad})
    assert dataclasses.replace(good, **{name: np.int64(value)}) == good


@pytest.mark.parametrize("max_blocks", [0, -1])
def test_config_rejects_a_block_budget_below_one(max_blocks):
    # a budget of no blocks used to run a whole frame and report it, with
    # more blocks sent than the budget allows
    with pytest.raises(ValueError, match="max_blocks must be >= 1"):
        ExperimentConfig(base=demo_base("toy_2x4_z8"), max_blocks=max_blocks)


@pytest.mark.parametrize("grid", [(1.0, math.nan), (math.nan,), (math.nan, 1.0),
                                  (1.0, math.inf), (-math.inf, 1.0)])
def test_config_rejects_a_non_finite_grid_point(grid):
    # NaN compares false with everything, so it passed the increasing check
    # and failed deep in the decoder after the points before it had run
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(base=demo_base("toy_2x4_z8"), ebno_grid=grid)


def test_cli_ber_rejects_zero_max_blocks(capsys):
    assert main(["ber", "--base", "toy_2x4_z8", "--ebno", "4.0", "--max-blocks", "0"]) == 1
    captured = capsys.readouterr()
    assert "max_blocks must be >= 1" in captured.err
    assert "Eb/N0" not in captured.out


@pytest.mark.parametrize("flags, message", [
    (["--clamp", "nan"], "clamp must be finite and > 0"),
    (["--clamp", "inf"], "clamp must be finite and > 0"),
    (["--clamp", "0"], "clamp must be finite and > 0"),
    (["--clamp", "-1"], "clamp must be finite and > 0"),
    (["--variant", "qspa", "--step", "inf"], "step must be finite and > 0"),
], ids=["clamp-nan", "clamp-inf", "clamp-zero", "clamp-negative", "step-inf"])
def test_cli_ber_rejects_decoder_knobs_that_yield_plausible_numbers(flags, message, capsys):
    # a NaN clamp used to report BER 0 and a clamp of -1 a BER of 0.16
    assert main(["ber", "--base", "toy_2x4_z8", "--ebno", "3", "--max-blocks", "16",
                 "--min-errors", "5"] + flags) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Eb/N0" not in captured.out


@pytest.mark.parametrize("bad", ["square-base", "no-iterations", "nine-bit-quantizer",
                                 "float-nine-bit-quantizer", "float-quantizer-settings",
                                 "budget-below-a-frame"])
def test_worker_count_changes_no_failure(bad, tmp_path, capfd):
    # a run that fails while it is built fails the same way at any worker
    # count: one error line from the CLI, the same exception from run_ber.
    # A float run used to ignore its quantizer settings, even invalid ones,
    # and a stream budget of less than one frame sent a whole frame; the
    # budget is checked after the code and the decoder knobs
    square = tmp_path / "square.txt"
    square.write_text("2 2 4\n0 1\n1 0\n")
    flags, fields, message = {
        "square-base": (["--base", str(square)], {"base": BaseMatrix.load(square)},
                        "code rate would not be positive"),
        "no-iterations": (["--base", "toy_2x4_z8", "--iters", "0"], {"iterations": 0},
                          "iterations must be an integer >= 1"),
        "nine-bit-quantizer": (["--base", "toy_2x4_z8", "--variant", "qspa", "--bits", "9"],
                               {"variant": "qspa", "quant_bits": 9},
                               "bits must be in [2, 8], got 9"),
        "float-nine-bit-quantizer": (["--base", "toy_2x4_z8", "--bits", "9", "--step", "-3"],
                                     {"quant_bits": 9, "quant_step": -3.0},
                                     "bits must be in [2, 8], got 9"),
        "float-quantizer-settings": (["--base", "toy_2x4_z8", "--step", "0.5"],
                                     {"quant_step": 0.5},
                                     "quant_bits and quant_step apply to the qspa variant only"),
        "budget-below-a-frame": (["--base", "toy_2x4_z8"], {},
                                 "max_blocks (16) is less than one frame of 64 blocks"),
    }[bad]
    errors, raised = [], []
    for workers in (1, 2):
        assert main(["ber", "--ebno", "3", "--max-blocks", "16", "--workers", str(workers)]
                    + flags) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
        cfg = ExperimentConfig(**{"base": demo_base("toy_2x4_z8"), **fields},
                               ebno_grid=(3.0,), max_blocks=16, workers=workers)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            run_ber(cfg)
        raised.append(info.type)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1
    assert message in errors[0]
    assert raised[0] is raised[1]


def test_quantizer_settings_and_frame_budget_checks_leave_valid_runs_alone(small_cfg):
    # a float run at the default quantizer settings, a qspa run at others,
    # and a block baseline, whose frames are one block, under one stream frame
    cfg = dataclasses.replace(small_cfg, ebno_grid=(3.0,), max_blocks=16, frame_blocks=16)
    assert run_ber(dataclasses.replace(cfg, quant_bits=4, quant_step=1.0))[0].blocks_sent == 16
    assert run_ber(dataclasses.replace(cfg, variant="qspa", quant_bits=6,
                                       quant_step=0.5))[0].blocks_sent == 16
    point = run_block_baseline(dataclasses.replace(cfg, frame_blocks=64, min_error_events=10**9))[0]
    assert point.blocks_sent == 16 and point.truncated


def test_run_ber_point_fields(small_cfg):
    points = run_ber(small_cfg)
    assert [p.ebno_db for p in points] == [3.0, 6.0]
    for p in points:
        assert p.blocks_sent > 0
        assert 0.0 <= p.ber <= 1.0
        assert 0.0 <= p.bler <= 1.0
        assert p.bit_errors >= p.block_errors  # an errored block has >= 1 bit
        if not p.truncated:
            assert p.bit_errors >= small_cfg.min_error_events


def test_run_ber_noiseless_grid():
    cfg = ExperimentConfig(
        base=demo_base("toy_2x4_z8"),
        iterations=2,
        ebno_grid=(60.0,),
        min_error_events=5,
        max_blocks=64,
        seed=3,
        frame_blocks=16,
    )
    p = run_ber(cfg)[0]
    assert p.ber == 0.0
    assert p.truncated  # stopped by the block cap, not by error events


def test_run_ber_deterministic_and_worker_independent(small_cfg):
    a = run_ber(small_cfg)
    b = run_ber(small_cfg)
    c = run_ber(dataclasses.replace(small_cfg, workers=3))
    for x, y in zip(a, b):
        assert x == y or (x.ebno_db, x.bit_errors, x.blocks_sent) == (
            y.ebno_db, y.bit_errors, y.blocks_sent
        )
    for x, y in zip(a, c):
        assert (x.blocks_sent, x.bit_errors, x.block_errors) == (
            y.blocks_sent, y.bit_errors, y.block_errors
        )


def test_csv_schema_and_byte_determinism(small_cfg, tmp_path):
    points = run_ber(small_cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(points, p1)
    write_csv(run_ber(small_cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(points)


def test_block_baseline_pairing(small_cfg):
    cfg = dataclasses.replace(small_cfg, ebno_grid=(4.0,), max_blocks=120)
    a = run_block_baseline(cfg)[0]
    b = run_block_baseline(cfg)[0]
    assert (a.blocks_sent, a.bit_errors) == (b.blocks_sent, b.bit_errors)
    assert a.seed == run_ber(cfg)[0].seed  # same per-point seed derivation


def test_block_baseline_noiseless():
    cfg = ExperimentConfig(
        base=demo_base("toy_2x4_z8"),
        iterations=3,
        ebno_grid=(60.0,),
        min_error_events=5,
        max_blocks=20,
        seed=4,
    )
    assert run_block_baseline(cfg)[0].ber == 0.0


def test_block_baseline_matches_frame_by_frame_decoding(monkeypatch):
    # the batched baseline counts exactly what one decode per seeded frame
    # counts, over more frames than one decoder call takes (at a byte budget
    # an eighth of the default's), with any workers
    monkeypatch.setattr(ldpccc.decoder, "_CALL_BYTES", ldpccc.decoder._CALL_BYTES // 8)
    base = demo_base("rate56_4x24_z31")
    cfg = ExperimentConfig(base=base, variant="qspa", iterations=4, ebno_grid=(3.0,),
                           min_error_events=10**9, max_blocks=30, seed=5)
    matrix = expand_base(base)
    dec = BlockDecoder(matrix, cfg.iterations, Quantizer())
    assert cfg.max_blocks > dec.frames_per_call
    bit_errors = block_errors = 0
    for f in range(cfg.max_blocks):
        ch = ChannelConfig(ebno_db=3.0, rate=5 / 6, seed=derive_seed(cfg.seed, 0, f))
        bits, _soft = dec.decode(to_llr(transmit_all_zero(matrix.cols, ch), noise_sigma(ch)))
        bit_errors += int(bits.sum())
        block_errors += int(bits.any())
    assert block_errors > 0
    for workers in (1, 2):
        p = run_block_baseline(dataclasses.replace(cfg, workers=workers))[0]
        assert (p.blocks_sent, p.bit_errors, p.block_errors) == (30, bit_errors, block_errors)


def test_stream_batches_match_frame_by_frame_decoding(monkeypatch):
    # the harness decodes each batch in calls of several frames; the counts
    # equal one decode per seeded frame, over more frames than one call
    # takes (at a byte budget an eighth of the default's), with any workers
    monkeypatch.setattr(ldpccc.decoder, "_CALL_BYTES", ldpccc.decoder._CALL_BYTES // 8)
    base = demo_base("toy_3x6_z16")
    n_blocks = 16
    cfg = ExperimentConfig(base=base, variant="qspa", iterations=8, ebno_grid=(2.0,),
                           min_error_events=10**9, max_blocks=30 * n_blocks, seed=6,
                           frame_blocks=n_blocks)
    code = split_and_unwrap(base)
    assert 30 > _stream_frames_per_call(code, cfg.iterations, n_blocks, Quantizer()) > 1
    dec_cfg = DecoderConfig(cfg.iterations, "qspa", Quantizer())
    bit_errors = block_errors = 0
    for f in range(30):
        ch = ChannelConfig(ebno_db=2.0, rate=code.rate, seed=derive_seed(cfg.seed, 0, f))
        llrs = to_llr(transmit_all_zero(n_blocks * code.block_len, ch), noise_sigma(ch))
        bits = decode_stream(StreamDecoder(code, dec_cfg), llrs).bits
        bit_errors += int(bits.sum())
        block_errors += int(bits.reshape(n_blocks, -1).any(axis=1).sum())
    assert block_errors > 0
    for workers in (1, 2):
        p = run_ber(dataclasses.replace(cfg, workers=workers))[0]
        assert (p.blocks_sent, p.bit_errors, p.block_errors) == (
            cfg.max_blocks, bit_errors, block_errors)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run", [run_ber, run_block_baseline])
def test_a_run_is_built_once_in_the_caller(small_cfg, monkeypatch, tmp_path, run, workers):
    # the code (or block matrix) and the decoder are built once per run, in
    # the caller's process; forked workers inherit the counting builders and
    # would log their own pids
    log = tmp_path / "builds.txt"

    def counting(kind, build):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{kind} {os.getpid()}\n")
            return build(*args, **kwargs)
        return wrapper

    for name in ("split_and_unwrap", "expand_base"):
        monkeypatch.setattr(harness, name, counting("code", getattr(harness, name)))
    for name in ("StreamDecoder", "BlockDecoder"):
        monkeypatch.setattr(harness, name, counting("decoder", getattr(harness, name)))
    cfg = dataclasses.replace(small_cfg, ebno_grid=(3.0, 4.0, 6.0), workers=workers,
                              min_error_events=10**9, max_blocks=96)
    points = run(cfg)
    assert len(points) == 3 and all(p.blocks_sent == 96 for p in points)
    assert log.read_text().split("\n") == [f"code {os.getpid()}", f"decoder {os.getpid()}", ""]


def _log_decoder_calls(monkeypatch, log):
    """Log the frames of each stream decoder call; forked pool workers
    inherit the counting decoder."""
    def counting(decoder, llrs):
        with open(log, "a") as fh:
            fh.write(f"{len(llrs)}\n")
        return decode_stream(decoder, llrs)

    monkeypatch.setattr(harness, "decode_stream", counting)


def test_early_stop_bounds_the_frames_decoded_ahead(small_cfg, monkeypatch, tmp_path):
    # a point that stops on its first frame with a budget of thousands:
    # every batch is one decoder call of per_call frames, under the batch
    # cap of 64, so the batches in flight hold at most per_call * window
    # frames, not 64 per batch
    log = tmp_path / "frames.txt"
    _log_decoder_calls(monkeypatch, log)
    cfg = dataclasses.replace(small_cfg, base=demo_base("rate56_4x24_z31"), iterations=4,
                              ebno_grid=(0.0,), min_error_events=1, max_blocks=32_000,
                              frame_blocks=8)
    per_call = _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                       cfg.frame_blocks, None)
    assert 1 < per_call < 64 and 64 % per_call == 0
    for workers in (1, 2, 3):
        log.write_text("")
        (point,) = run_ber(dataclasses.replace(cfg, workers=workers))
        assert point.blocks_sent == cfg.frame_blocks and not point.truncated
        calls = [int(n) for n in log.read_text().split()]
        window = 1 if workers == 1 else 2 * workers
        assert calls and all(n == per_call for n in calls)
        assert sum(calls) <= per_call * window


@pytest.mark.parametrize("workers", [1, 2])
def test_every_sweep_batch_is_one_decoder_call(monkeypatch, tmp_path, workers):
    # a float call takes 28 toy frames of 64 blocks at I = 8, under the
    # batch cap of 64: every batch is one call of 28 frames, but a point's
    # last, which takes the 20 frames its budget of 300 has left
    log = tmp_path / "frames.txt"
    _log_decoder_calls(monkeypatch, log)
    cfg = ExperimentConfig(base=demo_base("toy_2x4_z8"), iterations=8, ebno_grid=(3.0, 4.0),
                           min_error_events=10**9, max_blocks=300 * 64, seed=4,
                           workers=workers)
    assert _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                   cfg.frame_blocks, None) == 28
    points = run_ber(cfg)
    assert [p.blocks_sent for p in points] == [cfg.max_blocks] * 2
    calls = [int(n) for n in log.read_text().split()]
    want = ([28] * 10 + [20]) * 2
    assert sorted(calls) == sorted(want)  # pool workers log in finishing order
    assert workers > 1 or calls == want


def test_a_run_computes_no_syndrome_flags(small_cfg, monkeypatch):
    # the harness reads only the decisions; the flags cost about 6% of a
    # toy job
    calls = []
    monkeypatch.setattr(ldpccc.decoder, "_block_syndromes", lambda *args: calls.append(args))
    (point,) = run_ber(dataclasses.replace(small_cfg, ebno_grid=(3.0,)))
    assert point.blocks_sent > 0 and calls == []


def test_sweep_batches_split_no_decoder_call(small_cfg, monkeypatch, tmp_path):
    # where a call holds a full batch, every batch is one call, from a
    # point's first batch on
    log = tmp_path / "frames.txt"
    _log_decoder_calls(monkeypatch, log)
    cfg = dataclasses.replace(small_cfg, ebno_grid=(3.0, 4.0), min_error_events=10**9,
                              max_blocks=256 * 8, frame_blocks=8, workers=2)
    assert _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                   cfg.frame_blocks, None) >= 64
    points = run_ber(cfg)
    assert [p.blocks_sent for p in points] == [cfg.max_blocks] * 2
    assert log.read_text().split() == ["64"] * 8


def test_qspa_sweep_batches_split_no_decoder_call(monkeypatch, tmp_path):
    # a quantized call takes eight rate-5/6 frames of 64 blocks; each
    # point's batches of 8, 8, 8 and 8 frames go to the decoder, and from
    # it to the flooding engine, in calls of eight
    log, engine_log = tmp_path / "frames.txt", tmp_path / "engine.txt"
    _log_decoder_calls(monkeypatch, log)
    flood = ldpccc.decoder._flood

    def counting(tables, lam, *args):
        with open(engine_log, "a") as fh:
            fh.write(f"{lam.shape[1]}\n")
        return flood(tables, lam, *args)

    monkeypatch.setattr(ldpccc.decoder, "_flood", counting)
    cfg = ExperimentConfig(base=demo_base("rate56_4x24_z31"), variant="qspa", iterations=8,
                           ebno_grid=(3.0, 4.0), min_error_events=10**9, max_blocks=32 * 64,
                           seed=3, workers=2)
    per_call = _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                       cfg.frame_blocks, Quantizer())
    assert per_call == 8
    points = run_ber(cfg)
    assert [p.blocks_sent for p in points] == [cfg.max_blocks] * 2
    assert log.read_text().split() == engine_log.read_text().split() == ["8"] * 8


def test_sweep_csv_bytes_do_not_depend_on_workers(small_cfg, tmp_path):
    # points that stop within their first batches, later, and at the block
    # cap, with the pool window running across point boundaries, for the
    # stream decoder and the block baseline (whose first batch is 64 frames)
    for run, grid, first in ((run_ber, (0.0, 2.0, 3.0, 9.0), 16),
                             (run_block_baseline, (0.0, 2.0, 4.0, 9.0), 64)):
        cfg = dataclasses.replace(small_cfg, ebno_grid=grid, min_error_events=15,
                                  max_blocks=400, frame_blocks=8)
        texts = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            write_csv(run(dataclasses.replace(cfg, workers=workers)), path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]
        rows = [line.split(",") for line in texts[0].decode().splitlines()[1:]]
        blocks = [int(r[1]) for r in rows]
        assert blocks[0] <= first < blocks[2] < 400
        assert blocks[-1] == 400 and rows[-1][7] == "1"


def test_conv_vs_block_reported_not_asserted(small_cfg, capsys):
    # qualitative comparison only: print the paired result for inspection
    cfg = dataclasses.replace(
        small_cfg, ebno_grid=(4.0,), min_error_events=10, max_blocks=200
    )
    conv = run_ber(cfg)[0]
    block = run_block_baseline(cfg)[0]
    print(f"paired comparison at 4 dB: conv {conv.ber:.3e}, block {block.ber:.3e}")
    assert conv.ber >= 0 and block.ber >= 0


# ---------------------------------------------------------------------------
# CLI


def test_cli_construct(capsys):
    assert main(["construct", "--base", "toy_2x4_z8"]) == 0
    out = capsys.readouterr().out
    assert "period 2" in out
    assert "girth" in out


def test_cli_construct_missing_base(capsys):
    assert main(["construct", "--base", "/nonexistent/file.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_ber_writes_csv(tmp_path, capsys):
    out = tmp_path / "ber.csv"
    rc = main([
        "ber", "--base", "toy_2x4_z8", "--iters", "2", "--ebno", "3.0",
        "--min-errors", "5", "--max-blocks", "64", "--frame-blocks", "16",
        "--seed", "9", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_ber_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "base=toy_2x4_z8\niters=2\nebno=3.0\nmin-errors=5\n"
        "max-blocks=64\nframe-blocks=16\nseed=9\n"
    )
    out1 = tmp_path / "one.csv"
    assert main(["ber", "--base", "toy_2x4_z8", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    out2 = tmp_path / "two.csv"
    assert main([
        "ber", "--base", "toy_2x4_z8", "--iters", "2", "--ebno", "3.0",
        "--min-errors", "5", "--max-blocks", "64", "--frame-blocks", "16",
        "--seed", "9", "--out", str(out2),
    ]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_flag_at_its_default_wins_over_the_config_file(tmp_path, capsys, monkeypatch):
    # a flag given on the command line used to lose to the config file
    # whenever it repeated its default; the file still fills the rest
    seen = []
    monkeypatch.setattr(ldpccc.cli, "run_ber", lambda cfg: seen.append(cfg) or [])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("iters=4\nseed=5\n")
    assert main(["ber", "--base", "toy_2x4_z8", "--iters", "8", "--config", str(cfg)]) == 0
    assert (seen[0].iterations, seen[0].seed) == (8, 5)
    cfg.write_text("bits=6\n")
    capsys.readouterr()
    assert main(["lut-dump", "--bits", "4", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == dump_lut(build_pair_lut(Quantizer(4, 1.0)))


@pytest.mark.parametrize("argv, key", [
    (["ber", "--base", "toy_2x4_z8", "--ebno", "3", "--max-blocks", "16",
      "--frame-blocks", "16"], "timings"),
    (["arch", "--preset", "1-S"], "trace_demo"),
], ids=["ber", "arch"])
def test_cli_config_rejects_a_mistyped_boolean(tmp_path, capsys, argv, key):
    # "timings=ture" used to read as False and silently turn timings off
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key}=ture\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{key!r}" in captured.err and "'ture'" in captured.err


def test_cli_config_booleans_take_any_case(tmp_path, capsys):
    golden = (Path(__file__).parent / "data" / "ram_trace_golden.txt").read_text()
    cfg = tmp_path / "arch.cfg"
    for raw, on in [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                    ("0", False), ("False", False), ("NO", False), ("Off", False)]:
        cfg.write_text(f"trace-demo={raw}\n")
        assert main(["arch", "--preset", "1-S", "--config", str(cfg)]) == 0
        assert (golden in capsys.readouterr().out) == on


@pytest.mark.parametrize("key", ["func", "subparser", "command", "help", "config"])
def test_cli_config_rejects_non_option_keys(tmp_path, capsys, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key}=x\n")
    assert main(["construct", "--base", "toy_2x4_z8", "--skip-girth",
                 "--config", str(cfg)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_cli_arch_preset(capsys):
    assert main(["arch", "--preset", "2-P"]) == 0
    out = capsys.readouterr().out
    assert "2.00 Gbps" in out


def test_cli_arch_rejects_unknown_preset(capsys):
    assert main(["arch", "--preset", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "1-S" in err and "4-P" in err


def test_cli_arch_all_presets(capsys):
    assert main(["arch", "--all-presets"]) == 0
    out = capsys.readouterr().out
    assert "0.50" in out and "2.00" in out
    row_4s = next(ln for ln in out.splitlines() if ln.startswith("4-S"))
    assert row_4s.rstrip().endswith("0.50")
    row_2p = next(ln for ln in out.splitlines() if ln.startswith("2-P"))
    assert row_2p.rstrip().endswith("2.00")


def test_cli_arch_preset_and_all_presets_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["arch", "--preset", "1-S", "--all-presets"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--z", "512"), ("--nc", "2"), ("--nv", "6"), ("--g", "3"), ("--iters", "2"),
    ("--bits", "5"), ("--clock", "2e8"), ("--dpipe", "1"), ("--codewords", "2"),
])
@pytest.mark.parametrize("which", [["--preset", "1-S"], ["--all-presets"]])
def test_cli_arch_custom_flag_beside_a_preset_is_an_error(flag, value, which, capsys):
    # even a flag that repeats its default value: the preset would ignore it
    assert main(["arch", *which, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and flag in captured.err


def test_cli_arch_config_file_obeys_the_preset_rules(tmp_path, capsys):
    cfg = tmp_path / "arch.cfg"
    cfg.write_text("preset=1-S\nz=12\n")
    assert main(["arch", "--config", str(cfg)]) == 1
    assert "--z" in capsys.readouterr().err
    cfg.write_text("preset=1-S\nall-presets=1\n")
    assert main(["arch", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    # custom flags from a file equal the same flags on the command line
    cfg.write_text("z=12\nnc=2\nnv=4\ng=3\niters=2\nclock=2e8\n")
    assert main(["arch", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["arch", "--z", "12", "--nc", "2", "--nv", "4", "--g", "3",
                 "--iters", "2", "--clock", "2e8"]) == 0
    assert capsys.readouterr().out == from_file
    assert "200 MHz" in from_file


def test_cli_arch_schedule_csv(tmp_path):
    out = tmp_path / "sched.csv"
    assert main([
        "arch", "--z", "12", "--nc", "2", "--nv", "4", "--g", "3",
        "--iters", "2", "--schedule-csv", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cycle,bpu,activity,ram_id,address"
    assert len(lines) > 10


def test_cli_arch_trace_demo(capsys):
    assert main(["arch", "--preset", "1-S", "--trace-demo"]) == 0
    out = capsys.readouterr().out
    # the walkthrough is printed last, followed by print's newline
    golden = (Path(__file__).parent / "data" / "ram_trace_golden.txt").read_text()
    assert out.endswith("\n" + golden + "\n")


def test_cli_lut_dump_roundtrip(tmp_path, capsys):
    out = tmp_path / "lut.txt"
    assert main(["lut-dump", "--bits", "4", "--step", "1.0",
                 "--out", str(out)]) == 0
    q = Quantizer(4, 1.0)
    again = parse_lut(out.read_text(), q)
    assert dump_lut(build_pair_lut(q)) == dump_lut(again)


def test_cli_bad_flag_value(capsys):
    assert main(["ber", "--base", "toy_2x4_z8", "--ebno", "5.0,4.0"]) == 1
    assert "error" in capsys.readouterr().err
