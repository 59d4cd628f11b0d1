"""The four benchmark workloads: one job each, its output check, its oracle.

Every workload is a closed loop: one caller issues jobs back to back and
job j gets seed ``workload seed + j``.  A job is one call (or two) into the
public API.  Reading the job's files back and checking them happens after
the job's clock stops.

Checks per job, for any seed: the counts a job reports are consistent with
its parameters (fixed block counts, stopping rule, derived seeds, BER text).
For the golden seed they must also equal the stored golden outputs.  Once
per pass, outside the timed loop, ``oracle`` re-derives job 0 another way
and compares the decoder with an independent reference on one frame at a
low Eb/N0: the unrolled reference decoder from ``tests/reference_decoder.py``
(stream and block qspa, and the float stream decoder of the sweep, whose
job 0 is also re-run serially, pool vs no pool), or the schedule audit
(hardware model).  The hardware model uses no randomness, so its golden
output holds for every seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ldpccc import arch, cli, harness
from ldpccc.channel import ChannelConfig, derive_seed, noise_sigma, to_llr, transmit_all_zero
from ldpccc.construction import demo_base, expand_base, split_and_unwrap
from ldpccc.decoder import (
    VARIANT_FLOAT,
    VARIANT_QSPA,
    BlockDecoder,
    cnp_float,
    DecoderConfig,
    StreamDecoder,
    decode_stream,
)
from ldpccc.quantization import Quantizer, build_pair_lut

GOLDEN_SEED = 1
ITERS = 8
UNREACHABLE = 10**12  # min_error_events no job can reach: fixed block count
# decoder-vs-reference comparisons run at a low Eb/N0, where the decoder does
# not converge early and every iteration changes the soft output
ORACLE_EBNO = 2.0

# stream-qspa-toy
TOY = "toy_2x4_z16"
TOY_EBNO = 4.0
TOY_FRAME = 64
TOY_FRAMES = 2
# sweep-float-rate56
R56 = "rate56_4x24_z31"
SWEEP_GRID = (2.5, 3.25, 4.0)
SWEEP_MIN_ERRORS = 100
SWEEP_MAX_BLOCKS = 128
SWEEP_WORKERS = 2
SWEEP_FRAME = 64
SWEEP_ORACLE_BLOCKS = 4  # blocks of the one frame compared with the reference
# block-qspa-rate56
BLOCK_EBNO = 4.0
BLOCK_FRAMES = 32
# hw-model
HW_BASE = "toy_3x6_z16"
HW_PRESET = "1-S"


@dataclass(frozen=True)
class Workload:
    name: str
    base: str                      # base matrix of the per-process set-up
    pool_workers: int              # worker processes a job starts (0: none)
    tail_pct: int                  # percentile reported as job_s.tail
    job: Callable                  # (seed, work_dir) -> raw output; timed
    collect: Callable              # raw -> comparable output; untimed
    check: Callable                # (out, seed) -> list of problems
    info_bits: Callable            # out -> decoded information bits
    frames_used: Callable          # out -> frames whose counts were used
    oracle: Callable               # (job 0 out, seed, work_dir, golden) -> problems


def _points(points) -> list:
    return [[p.blocks_sent, p.bit_errors, p.block_errors, p.seed, int(p.truncated)]
            for p in points]


def _count_problems(point, seed, idx, blocks, bits_per_block) -> list[str]:
    n, bit_errors, block_errors, point_seed, truncated = point
    bad = []
    if n != blocks:
        bad.append(f"blocks {n} != {blocks}")
    if point_seed != derive_seed(seed, idx):
        bad.append(f"point seed {point_seed} is not derived from {seed}")
    if truncated != 1:
        bad.append("fixed-length point not marked truncated")
    if not 0 <= block_errors <= min(n, bit_errors):
        bad.append(f"block errors {block_errors} out of range")
    if bit_errors > n * bits_per_block or (bit_errors == 0) != (block_errors == 0):
        bad.append(f"bit errors {bit_errors} inconsistent with {block_errors}")
    return bad


def _llrs(seed, idx, frame, ebno, rate, n):
    ch = ChannelConfig(ebno_db=ebno, rate=rate, seed=derive_seed(seed, idx, frame))
    return to_llr(transmit_all_zero(n, ch), noise_sigma(ch))


@functools.cache
def _code(name):
    return split_and_unwrap(demo_base(name))


@functools.cache
def _block_info_bits():
    matrix = expand_base(demo_base(R56))
    return matrix.cols - matrix.rows


def _reference():
    # the unrolled reference decoder the acceptance tests trust
    import reference_decoder
    return reference_decoder


# ---------------------------------------------------------------------------
# 1. stream-qspa-toy


def _toy_cfg(seed):
    return harness.ExperimentConfig(
        base=demo_base(TOY), variant=VARIANT_QSPA, iterations=ITERS,
        ebno_grid=(TOY_EBNO,), min_error_events=UNREACHABLE,
        max_blocks=TOY_FRAMES * TOY_FRAME, seed=seed, workers=1,
        frame_blocks=TOY_FRAME)


def _toy_job(seed, work_dir):
    return harness.run_ber(_toy_cfg(seed))


def _toy_check(out, seed):
    return _count_problems(out[0], seed, 0, TOY_FRAMES * TOY_FRAME,
                           _code(TOY).block_len)


def _toy_oracle(out, seed, work_dir, golden):
    ref = _reference()
    code = _code(TOY)
    q = Quantizer()
    table = build_pair_lut(q).table
    n = TOY_FRAME * code.block_len
    bad = []
    bit_errors = block_errors = 0
    for f in range(TOY_FRAMES):
        llrs = _llrs(seed, 0, f, TOY_EBNO, code.rate, n)
        bits, _soft = ref.ref_decode_qspa(code, llrs, ITERS, q, table)
        bit_errors += int(bits.sum())
        block_errors += int(bits.reshape(TOY_FRAME, -1).any(axis=1).sum())
    if out[0][1:3] != [bit_errors, block_errors]:
        bad.append(f"job 0 counts {out[0][1:3]} != reference {[bit_errors, block_errors]}")
    llrs = _llrs(seed, 0, 0, ORACLE_EBNO, code.rate, n)
    got = decode_stream(StreamDecoder(code, DecoderConfig(ITERS, VARIANT_QSPA, q)), llrs)
    _bits, ref_soft = ref.ref_decode_qspa(code, llrs, ITERS, q, table)
    if not np.array_equal(got.soft, ref_soft):
        bad.append(f"StreamDecoder differs from the reference at {ORACLE_EBNO} dB")
    return bad


# ---------------------------------------------------------------------------
# 2. sweep-float-rate56


def _sweep_argv(seed, out_path):
    return ["ber", "--base", R56, "--variant", VARIANT_FLOAT,
            "--iters", str(ITERS), "--ebno", ",".join(f"{x:g}" for x in SWEEP_GRID),
            "--min-errors", str(SWEEP_MIN_ERRORS),
            "--max-blocks", str(SWEEP_MAX_BLOCKS),
            "--workers", str(SWEEP_WORKERS), "--seed", str(seed),
            "--out", str(out_path)]


def _sweep_job(seed, work_dir):
    path = work_dir / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(_sweep_argv(seed, path))
    return rc, path


def _sweep_collect(raw):
    rc, path = raw
    return {"rc": rc, "csv": path.read_text()}


def _csv_rows(text):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _sweep_check(out, seed):
    if out["rc"] != 0:
        return [f"exit code {out['rc']}"]
    head, rows = _csv_rows(out["csv"])
    bad = []
    if head != ",".join(harness.CSV_COLUMNS) or len(rows) != len(SWEEP_GRID):
        return ["CSV header or row count differs"]
    bits_per_block = _code(R56).block_len
    for idx, (ebno, row) in enumerate(zip(SWEEP_GRID, rows)):
        e, blocks, bit_errors, block_errors, ber, bler, pseed, trunc, wall = row
        blocks, bit_errors, block_errors = int(blocks), int(bit_errors), int(block_errors)
        truncated = bit_errors < SWEEP_MIN_ERRORS
        if float(e) != ebno or int(pseed) != derive_seed(seed, idx) or wall != "0.000":
            bad.append(f"row {idx}: Eb/N0, seed or wall time differs")
        if blocks % SWEEP_FRAME or not 0 < blocks <= SWEEP_MAX_BLOCKS:
            bad.append(f"row {idx}: {blocks} blocks")
        if int(trunc) != truncated or (truncated and blocks != SWEEP_MAX_BLOCKS):
            bad.append(f"row {idx}: stopping rule broken")
        if not 0 <= block_errors <= min(blocks, bit_errors):
            bad.append(f"row {idx}: block errors {block_errors}")
        if ber != f"{bit_errors / (blocks * bits_per_block):.8e}" or \
                bler != f"{block_errors / blocks:.8e}":
            bad.append(f"row {idx}: BER text does not match counts")
    return bad


def _sweep_blocks(out):
    return sum(int(row[1]) for row in _csv_rows(out["csv"])[1])


def _sweep_oracle(out, seed, work_dir, golden):
    bad = []
    # same sweep through the API with no pool: worker count changes no byte
    cfg = harness.ExperimentConfig(
        base=demo_base(R56), variant=VARIANT_FLOAT, iterations=ITERS,
        ebno_grid=SWEEP_GRID, min_error_events=SWEEP_MIN_ERRORS,
        max_blocks=SWEEP_MAX_BLOCKS, seed=seed, workers=1,
        frame_blocks=SWEEP_FRAME)
    path = work_dir / "sweep-serial.csv"
    harness.write_csv(harness.run_ber(cfg), path)
    if path.read_text() != out["csv"]:
        bad.append("job 0 CSV differs from the serial re-run")
    return bad + float_decoder_problems(seed)


def _literal_check_update(row, clamp):
    """Tanh rule edge by edge: 2 atanh of the product of the other tanhs."""
    out = []
    for i in range(len(row)):
        others = [row[j] for j in range(len(row)) if j != i]
        sign = -1.0 if sum(x < 0 for x in others) % 2 else 1.0
        prod = float(np.prod([np.tanh(abs(x) / 2) for x in others]))
        out.append(sign * min(2 * np.arctanh(prod), clamp))
    return out


def float_decoder_problems(seed) -> list[str]:
    """The float stream decoder against the unrolled reference on one short
    frame, and the float check update it shares with that reference against
    the literal tanh rule on check inputs cut from the same frame."""
    code = _code(R56)
    clamp = DecoderConfig(ITERS).clamp
    llrs = _llrs(seed, 0, 0, ORACLE_EBNO, code.rate, SWEEP_ORACLE_BLOCKS * code.block_len)
    got = decode_stream(StreamDecoder(code, DecoderConfig(ITERS, VARIANT_FLOAT)), llrs)
    ref_bits, ref_soft = _reference().ref_decode_float(code, llrs, ITERS)
    bad = []
    if not (np.array_equal(got.bits, ref_bits) and np.allclose(got.soft, ref_soft)):
        bad.append(f"float StreamDecoder differs from the reference at {ORACLE_EBNO} dB")
    degree = code.base.block_cols
    rows = llrs[: len(llrs) // degree * degree].reshape(-1, degree)
    if not all(np.allclose(cnp_float(r, clamp), _literal_check_update(r, clamp))
               for r in rows):
        bad.append("float check update differs from the literal tanh rule")
    return bad


# ---------------------------------------------------------------------------
# 3. block-qspa-rate56


def _block_cfg(seed):
    return harness.ExperimentConfig(
        base=demo_base(R56), variant=VARIANT_QSPA, iterations=ITERS,
        ebno_grid=(BLOCK_EBNO,), min_error_events=UNREACHABLE,
        max_blocks=BLOCK_FRAMES, seed=seed, workers=1)


def _block_job(seed, work_dir):
    return harness.run_block_baseline(_block_cfg(seed))


def _block_check(out, seed):
    base = demo_base(R56)
    return _count_problems(out[0], seed, 0, BLOCK_FRAMES, base.z * base.block_cols)


def _ref_block_qspa(matrix, llrs, iterations, quantizer, table):
    """Soft output of literal flooding with the reference table fold."""
    ref = _reference()
    sign, maxm = quantizer.sign_bit, quantizer.max_magnitude_int

    def to_int(k):
        return -(k & (sign - 1)) if k & sign else k & (sign - 1)

    def to_code(v):
        v = max(-maxm, min(maxm, v))
        return sign - v if v < 0 else v

    lam = [to_int(int(k)) for k in quantizer.quantize(llrs)]
    checks = [[int(c) for c in matrix.row_support(r)] for r in range(matrix.rows)]
    v2c = [[lam[c] for c in cols] for cols in checks]
    for _ in range(iterations):
        c2v = [[to_int(a) for a in ref.ref_check_update_lut(
            [to_code(v) for v in vs], table, maxm)] for vs in v2c]
        total = [0] * matrix.cols
        for cols, alphas in zip(checks, c2v):
            for c, a in zip(cols, alphas):
                total[c] += a
        v2c = [[max(-maxm, min(maxm, lam[c] + total[c] - a))
                for c, a in zip(cols, alphas)]
               for cols, alphas in zip(checks, c2v)]
    return np.array(lam) + np.array(total)


def _block_oracle(out, seed, work_dir, golden):
    base = demo_base(R56)
    matrix = expand_base(base)
    rate = 1.0 - base.block_rows / base.block_cols
    q = Quantizer()
    decoder = BlockDecoder(matrix, ITERS, q)
    bad = []
    bit_errors = block_errors = 0
    for f in range(BLOCK_FRAMES):
        bits, _soft = decoder.decode(_llrs(seed, 0, f, BLOCK_EBNO, rate, matrix.cols))
        bit_errors += int(bits.sum())
        block_errors += int(bits.any())
    if out[0][1:3] != [bit_errors, block_errors]:
        bad.append(f"job 0 counts {out[0][1:3]} != {[bit_errors, block_errors]}")
    llrs = _llrs(seed, 0, 0, ORACLE_EBNO, rate, matrix.cols)
    bits, soft = decoder.decode(llrs)
    ref_soft = _ref_block_qspa(matrix, llrs, ITERS, q, build_pair_lut(q).table)
    if not (np.array_equal(soft, ref_soft)
            and np.array_equal(bits, (ref_soft < 0).astype(np.uint8))):
        bad.append(f"BlockDecoder differs from the reference at {ORACLE_EBNO} dB")
    return bad


# ---------------------------------------------------------------------------
# 4. hw-model

_GIRTH = re.compile(r"girth:\s+block (\S+), windowed conv \(\d+ block rows\) (\S+)")


def _hw_job(seed, work_dir):
    path = work_dir / "schedule.csv"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc1 = cli.main(["construct", "--base", HW_BASE])
        rc2 = cli.main(["arch", "--preset", HW_PRESET, "--schedule-csv", str(path)])
    return rc1, rc2, buf.getvalue(), path


def _hw_collect(raw):
    rc1, rc2, text, path = raw
    m = _GIRTH.search(text)
    data = path.read_bytes()
    return {"rc": [rc1, rc2], "girth": list(m.groups()) if m else None,
            "csv_sha256": hashlib.sha256(data).hexdigest(),
            "csv_rows": data.count(b"\n") - 1}


def _hw_check(out, seed):
    bad = []
    if out["rc"] != [0, 0]:
        bad.append(f"exit codes {out['rc']}")
    if out["girth"] != ["6", "6"]:
        bad.append(f"girth {out['girth']} != 6/6")
    return bad


def hw_info_bits() -> int:
    """Information bits the default schedule window carries (2 periods)."""
    p = arch.PRESETS[HW_PRESET]
    return 2 * p.period * p.codewords * (p.block_len - p.checks_per_block)


def _hw_oracle(out, seed, work_dir, golden):
    sched = arch.schedule_multi(arch.PRESETS[HW_PRESET])
    bad = []
    collisions = sched.audit_collisions()
    if collisions:
        bad.append(f"{len(collisions)} RAM port collisions")
    windows = {(ev.codeword, ev.step) for ev in sched.events}
    p = sched.params
    if len(windows) * (p.block_len - p.checks_per_block) != hw_info_bits():
        bad.append("schedule window differs from the modelled bit count")
    lines = ["cycle,bpu,activity,ram_id,address"]
    lines += [",".join(str(x) for x in row) for row in sched.csv_rows()]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    if digest != out["csv_sha256"]:
        bad.append("job 0 CSV differs from the schedule it was written from")
    want = golden["hw-model"]["steps_per_cycle"]
    if sched.steps_per_cycle() != want:
        bad.append(f"steps per cycle {sched.steps_per_cycle()!r} != {want!r}")
    return bad


# tail_pct is fixed per workload, not picked per run: picked per run it
# would flip between neighbours as the host's speed changes the job count,
# and a faster program would move it up.  In 25 s runs at the commit the
# benchmark was defined on, the short-job workloads ran 155 to 233 jobs
# (p90 needs 100 for ten beyond it), the sweep 39 to 47 (p75 needs 40: too
# close, so the upper median) and hw-model 13 to 20, short of ten beyond
# even the median; its tail is the upper median with 6 to 9 jobs beyond.
WORKLOADS = {
    w.name: w for w in (
        Workload("stream-qspa-toy", TOY, 0, 90, _toy_job, _points, _toy_check,
                 lambda out: out[0][0] * _code(TOY).info_len,
                 lambda out: out[0][0] // TOY_FRAME, _toy_oracle),
        Workload("sweep-float-rate56", R56, SWEEP_WORKERS, 50, _sweep_job,
                 _sweep_collect, _sweep_check,
                 lambda out: _sweep_blocks(out) * _code(R56).info_len,
                 lambda out: _sweep_blocks(out) // SWEEP_FRAME, _sweep_oracle),
        Workload("block-qspa-rate56", R56, 0, 90, _block_job, _points, _block_check,
                 lambda out: out[0][0] * _block_info_bits(),
                 lambda out: out[0][0], _block_oracle),
        Workload("hw-model", HW_BASE, 0, 50, _hw_job, _hw_collect, _hw_check,
                 lambda out: hw_info_bits(), lambda out: 0, _hw_oracle),
    )
}


def golden_problems(name: str, golden: dict, out, seed: int, job: int) -> list[str]:
    """Compare a job's output with the stored golden one: hw-model's for
    every seed, the other workloads' for the golden seed's first jobs."""
    want = golden[name]
    if name == "hw-model":
        got = {k: out[k] for k in ("csv_sha256", "csv_rows", "girth")}
        exp = {k: want[k] for k in got}
    elif seed != GOLDEN_SEED or job >= len(want):
        return []
    elif name == "sweep-float-rate56":
        got, exp = out["csv"], want[job]
    else:
        got, exp = out, want[job]
    return [] if got == exp else [f"job {job} differs from golden: {got} != {exp}"]
