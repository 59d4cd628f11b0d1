"""Monte-Carlo BER experiments and architecture report formatting.

A BER point streams seeded all-zero-codeword frames through the channel
and decoder until enough bit-error events accumulate.  Frames are seeded
by frame index, never by worker, so any worker count reproduces the same
numbers; workers only split the frame list.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arch
from .channel import ChannelConfig, derive_seed, noise_sigma, to_llr, transmit_all_zero
from .construction import BaseMatrix, expand_base, split_and_unwrap
from .decoder import (
    VARIANT_FLOAT,
    VARIANT_QSPA,
    BlockDecoder,
    DecoderConfig,
    StreamDecoder,
    decode_stream,
)
from .quantization import Quantizer

__all__ = [
    "ExperimentConfig",
    "BerPoint",
    "run_ber",
    "run_block_baseline",
    "write_csv",
    "CSV_COLUMNS",
    "report_arch",
    "report_presets",
]

CSV_COLUMNS = (
    "ebno_db",
    "blocks",
    "bit_errors",
    "block_errors",
    "ber",
    "bler",
    "seed",
    "truncated",
    "wall_time_s",
)


@dataclass(frozen=True)
class ExperimentConfig:
    base: BaseMatrix
    variant: str = VARIANT_FLOAT
    iterations: int = 8
    ebno_grid: tuple[float, ...] = (2.0, 3.0, 4.0)
    quant_bits: int = 4
    quant_step: float = 1.0
    clamp: float = 25.0
    min_error_events: int = 100
    max_blocks: int = 200_000
    seed: int = 1
    workers: int = 1
    frame_blocks: int = 64

    def __post_init__(self):
        if self.min_error_events < 1:
            raise ValueError("min_error_events must be >= 1")
        grid = tuple(float(x) for x in self.ebno_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("ebno_grid must be nonempty and strictly increasing")
        object.__setattr__(self, "ebno_grid", grid)
        if self.frame_blocks < 1:
            raise ValueError("frame_blocks must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class BerPoint:
    ebno_db: float
    blocks_sent: int
    bit_errors: int
    block_errors: int
    ber: float
    bler: float
    seed: int
    truncated: bool
    wall_time_s: float


def _decoder_config(cfg: ExperimentConfig) -> DecoderConfig:
    quantizer = None
    if cfg.variant == VARIANT_QSPA:
        quantizer = Quantizer(bits=cfg.quant_bits, step=cfg.quant_step)
    return DecoderConfig(
        iterations=cfg.iterations,
        variant=cfg.variant,
        quantizer=quantizer,
        clamp=cfg.clamp,
    )


def _frame_llrs(cfg, point_idx, frame, rate, n):
    ch = ChannelConfig(ebno_db=cfg.ebno_grid[point_idx], rate=rate,
                       seed=derive_seed(cfg.seed, point_idx, frame))
    return to_llr(transmit_all_zero(n, ch), noise_sigma(ch))


def _stream_batch(cfg, code, dec_cfg, point_idx, frame_lo, frame_hi):
    n_blocks = cfg.frame_blocks
    out = []
    for f in range(frame_lo, frame_hi):
        llrs = _frame_llrs(cfg, point_idx, f, code.rate, n_blocks * code.block_len)
        bits = decode_stream(StreamDecoder(code, dec_cfg), llrs).bits
        per_block = bits.reshape(n_blocks, code.block_len)
        out.append((n_blocks, bits.size, int(bits.sum()),
                    int(np.count_nonzero(per_block.any(axis=1)))))
    return out


def _block_batch(cfg, decoder, point_idx, frame_lo, frame_hi):
    """Frames go to the decoder in whole calls, generated call by call."""
    n = decoder.matrix.cols
    rate = 1.0 - cfg.base.block_rows / cfg.base.block_cols
    out = []
    for lo in range(frame_lo, frame_hi, decoder.frames_per_call):
        frames = range(lo, min(lo + decoder.frames_per_call, frame_hi))
        llrs = np.empty((len(frames), n))
        for i, f in enumerate(frames):
            llrs[i] = _frame_llrs(cfg, point_idx, f, rate, n)
        bit_errors = decoder.decode(llrs)[0].sum(axis=1)
        out += [(1, n, int(e), int(e > 0)) for e in bit_errors]
    return out


def _batch_runner(cfg: ExperimentConfig, baseline: bool):
    """(point_idx, frame_lo, frame_hi) -> one (blocks, bits, bit errors,
    block errors) row per frame, with the code built once."""
    dec_cfg = _decoder_config(cfg)
    if baseline:
        decoder = BlockDecoder(expand_base(cfg.base), cfg.iterations,
                               dec_cfg.quantizer, cfg.clamp)
        return functools.partial(_block_batch, cfg, decoder)
    return functools.partial(_stream_batch, cfg, split_and_unwrap(cfg.base), dec_cfg)


def _worker_batch(cfg: ExperimentConfig, baseline: bool, point_idx: int,
                  frame_lo: int, frame_hi: int):
    """Simulate a contiguous batch of frames in a pool worker."""
    return _batch_runner(cfg, baseline)(point_idx, frame_lo, frame_hi)


def _run_points(cfg: ExperimentConfig, baseline: bool) -> list[BerPoint]:
    run_batch = _batch_runner(cfg, baseline) if cfg.workers == 1 else None
    blocks_per_frame = 1 if baseline else cfg.frame_blocks
    points = []
    for point_idx, ebno_db in enumerate(cfg.ebno_grid):
        t_start = time.perf_counter()
        blocks = decoded_bits = bit_errors = block_errors = 0
        point_seed = derive_seed(cfg.seed, point_idx)
        max_frames = max(1, -(-cfg.max_blocks // blocks_per_frame))
        batch = max(1, min(64, max_frames // max(1, cfg.workers)))

        def batches():
            for lo in range(0, max_frames, batch):
                yield point_idx, lo, min(lo + batch, max_frames)

        def consume_one(results) -> bool:
            nonlocal blocks, decoded_bits, bit_errors, block_errors
            for nb, n_bits, be, blke in results:
                blocks += nb
                decoded_bits += n_bits
                bit_errors += be
                block_errors += blke
                if bit_errors >= cfg.min_error_events or blocks >= cfg.max_blocks:
                    return True
            return False

        if run_batch is not None:
            for args in batches():
                if consume_one(run_batch(*args)):
                    break
        else:
            # submit a bounded window of batches ahead, consume strictly in
            # order so the stopping point never depends on the worker count
            gen = batches()
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                pending: deque = deque()
                stop = False
                while not stop:
                    while len(pending) < 2 * cfg.workers:
                        args = next(gen, None)
                        if args is None:
                            break
                        pending.append(pool.submit(_worker_batch, cfg, baseline, *args))
                    if not pending:
                        break
                    stop = consume_one(pending.popleft().result())
                for fut in pending:
                    fut.cancel()

        points.append(
            BerPoint(
                ebno_db=ebno_db,
                blocks_sent=blocks,
                bit_errors=bit_errors,
                block_errors=block_errors,
                ber=bit_errors / decoded_bits if decoded_bits else 0.0,
                bler=block_errors / blocks if blocks else 0.0,
                seed=point_seed,
                truncated=bit_errors < cfg.min_error_events,
                wall_time_s=time.perf_counter() - t_start,
            )
        )
    return points


def run_ber(cfg: ExperimentConfig) -> list[BerPoint]:
    """BER/BLER per Eb/N0 point for the convolutional stream decoder."""
    return _run_points(cfg, baseline=False)


def run_block_baseline(cfg: ExperimentConfig) -> list[BerPoint]:
    """BER/BLER for the underlying block code under flooding decoding.

    Uses the same frame-seed derivation as run_ber so paired comparisons
    share channel randomness where frame sizes line up.
    """
    return _run_points(cfg, baseline=True)


def write_csv(points: list[BerPoint], path, timings: bool = False) -> None:
    """Fixed-schema CSV; wall time is zeroed unless timings is set, so a
    repeated run writes byte-identical output."""
    lines = [",".join(CSV_COLUMNS)]
    for p in points:
        wall = f"{p.wall_time_s:.3f}" if timings else "0.000"
        lines.append(
            f"{p.ebno_db:g},{p.blocks_sent},{p.bit_errors},{p.block_errors},"
            f"{p.ber:.8e},{p.bler:.8e},{p.seed},{int(p.truncated)},{wall}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def report_arch(params: arch.ArchParams, name: str = "custom") -> str:
    """One-configuration report with the reference-hardware comparison row."""
    rep = arch.derive_report(params)
    ref = arch.FPGA_REFERENCE.get(name)
    lines = [
        f"{'config':<10} {'G':>6} {'depth':>6} {'memory bits':>12} "
        f"{'clock':>9} {'throughput':>12}",
        f"{name:<10} {params.stages:>6} {rep.ram_depth:>6} {rep.memory_bits:>12} "
        f"{params.clock_hz / 1e6:>6.0f} MHz {rep.throughput_bps / 1e9:>7.2f} Gbps",
    ]
    if ref is not None:
        delta = rep.memory_bits / ref["memory_bits"] - 1.0
        lines.append(
            f"{'reference':<10} {'':>6} {'':>6} {ref['memory_bits']:>12} "
            f"{'':>9} {ref['throughput_bps'] / 1e9:>7.2f} Gbps "
            f"(model memory {delta:+.2%})"
        )
    lines.append("")
    lines.append(
        f"CNPs/BPU {rep.cnp_count}, VNPs/BPU {rep.vnp_count}, "
        f"edge RAMs {rep.edge_rams}, channel RAMs {rep.channel_rams}, "
        f"RAM width {rep.ram_width}, cycles/step {rep.cycles_per_step}"
    )
    return "\n".join(lines)


def report_presets() -> str:
    """Table of every built-in configuration, model vs reference hardware."""
    head = (
        f"{'config':<8} {'z':>5} {'I':>3} {'G':>5} {'cw':>3} {'depth':>6} "
        f"{'model bits':>11} {'ref bits':>11} {'delta':>7} {'Gbps':>6}"
    )
    lines = [head]
    for name, params in arch.PRESETS.items():
        rep = arch.derive_report(params)
        ref = arch.FPGA_REFERENCE[name]
        delta = rep.memory_bits / ref["memory_bits"] - 1.0
        lines.append(
            f"{name:<8} {params.z:>5} {params.processors:>3} {params.stages:>5} "
            f"{params.codewords:>3} {rep.ram_depth:>6} {rep.memory_bits:>11} "
            f"{ref['memory_bits']:>11} {delta:>+7.2%} "
            f"{rep.throughput_bps / 1e9:>6.2f}"
        )
    return "\n".join(lines)
