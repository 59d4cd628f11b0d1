import concurrent.futures
import dataclasses
import math
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ldpccc.cli
import ldpccc.decoder
from ldpccc import harness
from ldpccc.channel import ChannelConfig, derive_seed, noise_sigma, to_llr, transmit_all_zero
from ldpccc.arch import ArchParams, report_arch
from ldpccc.cli import build_parser, main
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
def test_config_rejects_non_integer_settings(name, small_cfg, tmp_path):
    # a float frame_blocks, workers, max_blocks, seed or quant_bits used to
    # fail with a TypeError deep inside the run, and min_error_events=2.5
    # ran and reported numbers; numpy integers are integers
    good = ExperimentConfig(base=demo_base("toy_2x4_z8"))
    value = getattr(good, name)
    for bad in (value + 0.5, float(value), True, False):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            dataclasses.replace(good, **{name: bad})
    assert dataclasses.replace(good, **{name: np.int64(value)}) == good
    # and run as Python ints do: an np.uint8 frame_blocks used to overflow
    # in the window-table build ("cannot reshape array")
    cfg = dataclasses.replace(small_cfg, ebno_grid=(3.0,), max_blocks=64)
    write_csv(run_ber(cfg), tmp_path / "want.csv")
    for kind in (np.uint8, np.int16):
        numpy_cfg = dataclasses.replace(cfg, **{name: kind(getattr(cfg, name))})
        write_csv(run_ber(numpy_cfg), tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert type(getattr(numpy_cfg, name)) is int


@pytest.mark.parametrize("name", ["frame_blocks", "workers"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_frames_or_workers_below_one(name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        ExperimentConfig(base=demo_base("toy_2x4_z8"), **{name: value})


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
def test_config_rejects_a_negative_seed(seed, capsys):
    # a negative seed used to fail inside numpy's seeding with "expected
    # non-negative integer", a message that names no setting
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        ExperimentConfig(base=demo_base("toy_2x4_z8"), seed=seed)
    assert main(["ber", "--base", "toy_2x4_z8", "--ebno", "3.0", "--max-blocks", "64",
                 "--seed", str(seed)]) == 1
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert ExperimentConfig(base=demo_base("toy_2x4_z8"), seed=0).seed == 0


def test_qspa_block_baseline_rejects_a_clamp(small_cfg):
    # the quantized check update never reads the clamp
    cfg = dataclasses.replace(small_cfg, variant="qspa", clamp=0.5)
    with pytest.raises(ValueError, match="clamp applies to the float variant only"):
        run_block_baseline(cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_block_baseline_rejects_frame_blocks(workers, tmp_path, capfd):
    # a baseline's frame is one codeword, so frame_blocks changed nothing:
    # its CSV was the same at any value, and a budget below one frame ran
    cfg = ExperimentConfig(base=demo_base("toy_2x4_z8"), ebno_grid=(3.0,), max_blocks=8,
                           frame_blocks=16, workers=workers)
    with pytest.raises(ValueError, match="frame_blocks applies to stream runs only"):
        run_block_baseline(cfg)
    # the decoder settings are checked first
    with pytest.raises(ValueError, match="clamp applies to the float variant only"):
        run_block_baseline(dataclasses.replace(cfg, variant="qspa", clamp=0.5))
    out = tmp_path / "ber.csv"
    assert main(["ber", "--base", "toy_2x4_z8", "--block-baseline", "--ebno", "3",
                 "--max-blocks", "8", "--frame-blocks", "16", "--workers", str(workers),
                 "--out", str(out)]) == 1
    captured = capfd.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: frame_blocks applies to stream runs only\n"
    assert run_block_baseline(dataclasses.replace(cfg, frame_blocks=64))[0].blocks_sent == 8


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


@pytest.mark.parametrize("grid", [(True, "3"), (1.0, "3"), (False,), (1.0, None)])
def test_config_rejects_a_grid_point_that_is_not_a_real_number(grid):
    # float() ran True as 1.0 dB and "3" as 3.0 dB
    with pytest.raises(ValueError, match=re.escape(f"ebno_grid must hold real numbers, "
                                                   f"got {grid!r}")):
        ExperimentConfig(base=demo_base("toy_2x4_z8"), ebno_grid=grid)
    cfg = ExperimentConfig(base=demo_base("toy_2x4_z8"),
                           ebno_grid=(np.float32(1.0), np.int64(2), 3, np.float64(3.5)))
    assert cfg.ebno_grid == (1.0, 2.0, 3.0, 3.5)
    assert all(type(x) is float for x in cfg.ebno_grid)


@pytest.mark.parametrize("base", ["toy_2x4_z8", [[0, 1, 2, 3]], None])
def test_config_rejects_a_base_that_is_not_a_base_matrix(base):
    # a bundled name used to construct and then fail inside run_ber with an
    # AttributeError
    with pytest.raises(ValueError, match=f"base must be a BaseMatrix, got "
                                         f"{type(base).__name__}; .*demo_base"):
        ExperimentConfig(base=base, max_blocks=64)


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
                                 "budget-below-a-frame", "qspa-clamp"])
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
                          "iterations must be >= 1, got 0"),
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
        "qspa-clamp": (["--base", "toy_2x4_z8", "--variant", "qspa", "--clamp", "0.5"],
                       {"variant": "qspa", "clamp": 0.5},
                       "clamp applies to the float variant only"),
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


@pytest.mark.parametrize("workers", [1, 2])
def test_stream_points_stop_within_their_block_budget(tmp_path, workers):
    # a budget that is not a whole number of frames runs the whole frames
    # it holds: 20 blocks of 7-block frames are 2 frames, 14 blocks, where
    # rounding the frames up used to decode and report 21
    out = tmp_path / "ber.csv"
    assert main(["ber", "--base", "toy_2x4_z8", "--frame-blocks", "7", "--max-blocks", "20",
                 "--ebno", "1,4", "--workers", str(workers), "--out", str(out)]) == 0
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
    assert [int(row["blocks"]) for row in rows] == [14, 14]


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
    block_cfg = dataclasses.replace(cfg, frame_blocks=ExperimentConfig.frame_blocks)
    a = run_block_baseline(block_cfg)[0]
    b = run_block_baseline(block_cfg)[0]
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
    # takes (at a byte budget a sixteenth of the default's), with any workers
    monkeypatch.setattr(ldpccc.decoder, "_CALL_BYTES", ldpccc.decoder._CALL_BYTES // 16)
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
    if run is run_block_baseline:
        cfg = dataclasses.replace(cfg, frame_blocks=ExperimentConfig.frame_blocks)
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
    # cap of 64, and a pool holds one batch per worker, so at most
    # per_call * workers frames are decoded, not 64 per batch
    log = tmp_path / "frames.txt"
    _log_decoder_calls(monkeypatch, log)
    cfg = dataclasses.replace(small_cfg, base=demo_base("rate56_4x24_z31"), iterations=4,
                              ebno_grid=(0.0,), min_error_events=1, max_blocks=32_000,
                              frame_blocks=22)
    per_call = _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                       cfg.frame_blocks, None)
    assert 1 < per_call < 64 and 64 % per_call == 0
    for workers in (1, 2, 3):
        log.write_text("")
        (point,) = run_ber(dataclasses.replace(cfg, workers=workers))
        assert point.blocks_sent == cfg.frame_blocks and not point.truncated
        calls = [int(n) for n in log.read_text().split()]
        assert calls and all(n == per_call for n in calls)
        assert sum(calls) <= per_call * workers


# a float call takes one toy_3x6_z16 frame of 512 blocks at I = 2, so a
# batch is one frame and frames decoded can be set against frames used
_ONE_FRAME_CALLS = dict(base=demo_base("toy_3x6_z16"), iterations=2, frame_blocks=512, seed=5)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pool_decodes_only_needed_batches_when_every_budget_is_one_batch(
        monkeypatch, tmp_path, workers):
    # every batch is a point's first, so every batch is needed and the pool
    # decodes exactly the frames its points report
    log = tmp_path / "frames.txt"
    _log_decoder_calls(monkeypatch, log)
    cfg = ExperimentConfig(**_ONE_FRAME_CALLS, ebno_grid=(0.0, 1.0, 2.0, 3.0, 4.0),
                           min_error_events=10**9, max_blocks=512, workers=workers)
    points = run_ber(cfg)
    calls = [int(n) for n in log.read_text().split()]
    assert calls == [1] * 5
    assert [p.blocks_sent for p in points] == [512] * 5


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pool_takes_speculative_batches_only_when_none_is_needed(
        monkeypatch, tmp_path, workers):
    # four points that stop on their first frame, with budgets of 40: every
    # first batch is needed, so speculation starts only once every live
    # point has its first batch in flight and a slot is free, that is with
    # at most workers - 1 points live, and each stop discards at most
    # workers - 1 batches.  At 2 workers that is the last point alone and
    # one batch; at 3, a discarded batch that ends frees its slot for one
    # more, so the bound is (workers - 1) ** 2
    log = tmp_path / "frames.txt"
    _log_decoder_calls(monkeypatch, log)
    cfg = ExperimentConfig(**_ONE_FRAME_CALLS, ebno_grid=(0.0, 0.5, 1.0, 1.5),
                           min_error_events=1, max_blocks=40 * 512, workers=workers)
    assert _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                   cfg.frame_blocks, None) == 1
    points = run_ber(cfg)
    assert [p.blocks_sent for p in points] == [512] * 4
    calls = [int(n) for n in log.read_text().split()]
    assert calls and all(n == 1 for n in calls)
    assert sum(calls) <= len(points) + (workers - 1) ** 2


def test_a_pool_starts_no_more_workers_than_the_grid_has_batches(monkeypatch, tmp_path):
    # a forked pool starts all its workers at the first submit; a stand-in
    # pool records its size and runs every call in the caller, so no
    # process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    # _run_points imports the pool class from concurrent.futures at its first pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness, "_worker_runner", None)
    # three points of two one-frame batches each: six batches
    argv = ["ber", "--base", "toy_2x4_z8", "--iters", "2", "--ebno", "1,2,3",
            "--min-errors", "1000000", "--max-blocks", "128"]
    texts = []
    for workers in (1, 5, 6, 64):
        out = tmp_path / f"w{workers}.csv"
        assert main(argv + ["--workers", str(workers), "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert sizes == [5, 6, 6]
    assert len(set(texts)) == 1
    # a grid of one batch runs without a pool
    assert main(["ber", "--base", "toy_2x4_z8", "--iters", "2", "--ebno", "3",
                 "--max-blocks", "64", "--workers", "64"]) == 0
    assert sizes == [5, 6, 6]


# the modules only a pool (the first two) or proposed_conventional_ratio
# (fractions, which loads decimal) needs; a process imports each at first use
_ON_USE = ("concurrent.futures", "multiprocessing", "fractions")

_TOY_RUN = """
from ldpccc import ExperimentConfig, demo_base, run_ber, write_csv
cfg = ExperimentConfig(base=demo_base("toy_2x4_z8"), iterations=2, ebno_grid=(1.0, 2.0, 3.0),
                       min_error_events=40, max_blocks=256, workers={workers})
write_csv(run_ber(cfg), {out!r})
"""


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports the package from
    this checkout."""
    src = str(Path(ldpccc.cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _loaded_on_use(code: str) -> list[str]:
    """The modules of _ON_USE in sys.modules after ``code`` runs in a fresh
    interpreter."""
    code += f"\nimport sys\nprint(*[m for m in {_ON_USE!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("code", [
    "import ldpccc",
    _TOY_RUN.format(workers=1, out=os.devnull),
    "from ldpccc.cli import main; main(['construct', '--base', 'toy_3x6_z16'])",
    "from ldpccc.cli import main; main(['arch', '--preset', '1-S'])",
], ids=["import", "serial-ber", "construct", "arch"])
def test_a_process_without_a_pool_leaves_the_pool_stack_unloaded(code):
    # these modules took about half of a fresh `import ldpccc`
    assert _loaded_on_use(code) == []


def test_the_first_pool_loads_the_pool_stack_and_keeps_the_serial_bytes(tmp_path):
    serial, pooled = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert _loaded_on_use(_TOY_RUN.format(workers=1, out=str(serial))) == []
    assert _loaded_on_use(_TOY_RUN.format(workers=2, out=str(pooled))) == [
        "concurrent.futures", "multiprocessing"]
    assert pooled.read_bytes() == serial.read_bytes()
    assert _loaded_on_use("from ldpccc import PRESETS, proposed_conventional_ratio\n"
                          "proposed_conventional_ratio(PRESETS['1-S'])") == ["fractions"]


def test_pooled_wall_times_are_ordered_ends_that_sum_to_the_sweep(monkeypatch, tmp_path):
    # at seed 29 point 0 stops on its 7th frame, in its third batch of 3
    # frames, and point 1 on its 2nd, so point 1 finishes first; a point ends
    # once it and every point before it have, so its wall time is >= 0 and
    # the times sum to the sweep's.  A clock that ticks once a reading
    # makes every time exact.
    readings = []

    def clock():
        readings.append(float(len(readings)))
        return readings[-1]

    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=clock))
    cfg = ExperimentConfig(base=demo_base("toy_2x4_z8"), iterations=3, ebno_grid=(7.0, 7.5, 9.0),
                           min_error_events=1, max_blocks=16 * 512, seed=29, frame_blocks=512,
                           workers=2)
    path = tmp_path / "ber.csv"
    points = run_ber(cfg)
    assert [p.blocks_sent // 512 for p in points] == [7, 2, 16]
    write_csv(points, path, timings=True)
    walls = [float(line.split(",")[-1]) for line in path.read_text().splitlines()[1:]]
    assert all(w >= 0 for w in walls)
    assert sum(walls) == max(readings) - readings[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_sweep_batch_is_one_decoder_call(monkeypatch, tmp_path, workers):
    # a float call takes 32 toy frames of 64 blocks at I = 8, under the
    # batch cap of 64: every batch is one call of 32 frames, but a point's
    # last, which takes the 12 frames its budget of 300 has left
    log = tmp_path / "frames.txt"
    _log_decoder_calls(monkeypatch, log)
    cfg = ExperimentConfig(base=demo_base("toy_2x4_z8"), iterations=8, ebno_grid=(3.0, 4.0),
                           min_error_events=10**9, max_blocks=300 * 64, seed=4,
                           workers=workers)
    assert _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                   cfg.frame_blocks, None) == 32
    points = run_ber(cfg)
    assert [p.blocks_sent for p in points] == [cfg.max_blocks] * 2
    calls = [int(n) for n in log.read_text().split()]
    want = ([32] * 9 + [12]) * 2
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
    # a quantized call takes eleven rate-5/6 frames of 64 blocks; each
    # point's batches of 11, 11 and 11 frames go to the decoder, and from
    # it to the flooding engine, in calls of eleven
    log, engine_log = tmp_path / "frames.txt", tmp_path / "engine.txt"
    _log_decoder_calls(monkeypatch, log)
    flood = ldpccc.decoder._flood

    def counting(tables, lam, *args):
        with open(engine_log, "a") as fh:
            fh.write(f"{lam.shape[1]}\n")
        return flood(tables, lam, *args)

    monkeypatch.setattr(ldpccc.decoder, "_flood", counting)
    cfg = ExperimentConfig(base=demo_base("rate56_4x24_z31"), variant="qspa", iterations=8,
                           ebno_grid=(3.0, 4.0), min_error_events=10**9, max_blocks=33 * 64,
                           seed=3, workers=2)
    per_call = _stream_frames_per_call(split_and_unwrap(cfg.base), cfg.iterations,
                                       cfg.frame_blocks, Quantizer())
    assert per_call == 11
    points = run_ber(cfg)
    assert [p.blocks_sent for p in points] == [cfg.max_blocks] * 2
    assert log.read_text().split() == engine_log.read_text().split() == ["11"] * 6


def test_sweep_csv_bytes_do_not_depend_on_workers(small_cfg, tmp_path):
    # points that stop within their first batches, later, and at the block
    # cap, with the pool window running across point boundaries, for the
    # stream decoder and the block baseline (whose first batch is 64 frames)
    for run, grid, first, frame_blocks in (
            (run_ber, (0.0, 2.0, 3.0, 9.0), 16, 8),
            (run_block_baseline, (0.0, 2.0, 4.0, 9.0), 64, ExperimentConfig.frame_blocks)):
        cfg = dataclasses.replace(small_cfg, ebno_grid=grid, min_error_events=15,
                                  max_blocks=400, frame_blocks=frame_blocks)
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
    block_cfg = dataclasses.replace(cfg, frame_blocks=ExperimentConfig.frame_blocks)
    block = run_block_baseline(block_cfg)[0]
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


def test_cli_settings_not_given_take_the_config_types_defaults(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(ldpccc.cli, "run_ber", lambda cfg: seen.append(cfg) or [])
    assert main(["ber", "--base", "toy_2x4_z8"]) == 0
    assert seen == [ExperimentConfig(base=demo_base("toy_2x4_z8"))]
    capsys.readouterr()
    assert main(["lut-dump"]) == 0
    assert capsys.readouterr().out == dump_lut(build_pair_lut(Quantizer()))
    shape = ["--z", "12", "--nc", "2", "--nv", "4", "--g", "3", "--iters", "2"]
    assert main(["arch", *shape]) == 0
    assert capsys.readouterr().out == report_arch(ArchParams(12, 2, 4, 3, 2)) + "\n"
    # every option's parser default is None, or False for a switch: the
    # config types own every default, and a config file fills what holds
    # neither
    for sub in build_parser()._subparsers._group_actions[0].choices.values():
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                assert action.default is None or action.default is False, action.dest


CLI_COMMANDS = ("construct", "ber", "arch", "lut-dump")


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]] + [
    [command, flag] for command in CLI_COMMANDS for flag in ("-h", "--bogus")],
    ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_builds_only_the_named_subcommand_and_prints_the_full_parsers_text(
        argv, capsys, monkeypatch):
    full = build_parser()
    built = []
    monkeypatch.setattr(ldpccc.cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert built == [argv[0] if argv and argv[0] in CLI_COMMANDS else None]
    text = capsys.readouterr()
    with pytest.raises(SystemExit) as want:
        full.parse_args(argv)
    assert (got.value.code, text) == (want.value.code, capsys.readouterr())


def test_cli_parser_for_one_subcommand_registers_all_but_fills_only_that_one():
    subs = build_parser("arch")._subparsers._group_actions[0].choices
    assert tuple(subs) == CLI_COMMANDS
    assert [name for name, sub in subs.items() if len(sub._actions) > 1] == ["arch"]


@pytest.mark.parametrize("argv, line", [
    (["arch", "--preset", "1-S"], "base=toy_2x4_z8"),
    (["construct", "--base", "toy_2x4_z8", "--skip-girth"], "preset=1-S"),
    (["lut-dump"], "schedule_csv=x.csv"),
])
def test_cli_config_keys_of_another_subcommand_stay_unknown(tmp_path, capsys, argv, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    key = line.split("=")[0]
    assert capsys.readouterr() == ("", f"error: unknown config key {key!r}\n")


def test_cli_ber_timings_without_out_is_an_error(tmp_path, capsys):
    # the flag only changes the CSV: without one the run printed the same lines
    argv = ["ber", "--base", "toy_2x4_z8", "--ebno", "3", "--max-blocks", "16",
            "--frame-blocks", "16", "--timings"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: --timings needs --out: it only changes "
                                       "the CSV\n")
    assert main(argv + ["--out", str(tmp_path / "ber.csv")]) == 0


@pytest.mark.parametrize("text, message", [
    ("# comment\n\n   \niters=2  # trailing comment\n", None),
    ("iters 2\n", "error: config lines must be key=value, got 'iters 2'"),
], ids=["comments-and-blank-lines", "no-equals-sign"])
def test_cli_config_file_lines(tmp_path, capsys, monkeypatch, text, message):
    seen = []
    monkeypatch.setattr(ldpccc.cli, "run_ber", lambda cfg: seen.append(cfg) or [])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    rc = main(["ber", "--base", "toy_2x4_z8", "--config", str(cfg)])
    if message is None:
        assert rc == 0 and seen[0].iterations == 2
    else:
        assert rc == 1 and capsys.readouterr() == ("", message + "\n")


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


@pytest.mark.parametrize("argv, line, message", [
    # int("4.5") used to surface as "invalid literal for int() with base 10"
    (["ber", "--base", "toy_2x4_z8"], "iters=4.5",
     "error: config key 'iters': invalid int value '4.5'"),
    (["arch"], "clock=fast", "error: config key 'clock': invalid float value 'fast'"),
    # a config value used to skip argparse's choices and fail in the decoder
    (["ber", "--base", "toy_2x4_z8"], "variant=bogus",
     "error: config key 'variant': invalid choice 'bogus' (choose from float, qspa)"),
], ids=["int", "float", "choice"])
def test_cli_config_values_pass_the_option_checks(tmp_path, capsys, argv, line, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", message + "\n")


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


def test_python_m_ldpccc_runs_the_cli_from_a_source_checkout():
    done = subprocess.run([sys.executable, "-m", "ldpccc", "arch", "--preset", "1-S"],
                          env=_checkout_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("config ")


def test_cli_bad_flag_value(capsys):
    assert main(["ber", "--base", "toy_2x4_z8", "--ebno", "5.0,4.0"]) == 1
    assert "error" in capsys.readouterr().err
