import dataclasses

import numpy as np
import pytest

from ldpccc import harness
from ldpccc.channel import ChannelConfig, derive_seed, noise_sigma, to_llr, transmit_all_zero
from ldpccc.cli import main
from ldpccc.construction import demo_base, expand_base, split_and_unwrap
from ldpccc.decoder import BlockDecoder
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


def test_block_baseline_matches_frame_by_frame_decoding():
    # the batched baseline counts exactly what one decode per seeded frame
    # counts, over more frames than one decoder call takes, with any workers
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


def test_serial_run_builds_the_code_once(small_cfg, monkeypatch):
    calls = []

    def counting(base):
        calls.append(base)
        return split_and_unwrap(base)

    monkeypatch.setattr(harness, "split_and_unwrap", counting)
    points = run_ber(dataclasses.replace(small_cfg, min_error_events=10**9, max_blocks=48))
    assert len(points) == 2 and all(p.blocks_sent == 48 for p in points)
    assert len(calls) == 1


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
    assert "RAM 13" in out


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
