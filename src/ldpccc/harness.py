"""Monte-Carlo BER experiments.

A BER point streams seeded all-zero-codeword frames through the channel
and decoder until enough bit-error events accumulate.  Frames are seeded
by frame index, never by worker, so any worker count reproduces the same
numbers; workers only split the frame list.
"""

from __future__ import annotations

import functools
import math
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, derive_seed, noise_sigma, to_llr, transmit_all_zero
from .construction import BaseMatrix, expand_base, split_and_unwrap
from .decoder import (
    VARIANT_FLOAT,
    VARIANT_QSPA,
    BlockDecoder,
    DecoderConfig,
    StreamDecoder,
    _stream_frames_per_call,
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
        if self.max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {self.max_blocks}")
        grid = tuple(float(x) for x in self.ebno_grid)
        if not all(math.isfinite(x) for x in grid):
            raise ValueError(f"ebno_grid must hold finite values, got {grid}")
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


def _llr_calls(cfg, point_idx, frame_lo, frame_hi, per_call, rate, n):
    """The (frames, n) LLRs of each decoder call, generated call by call,
    every frame from its own seed."""
    for lo in range(frame_lo, frame_hi, per_call):
        llrs = np.empty((min(per_call, frame_hi - lo), n))
        for i in range(len(llrs)):
            llrs[i] = _frame_llrs(cfg, point_idx, lo + i, rate, n)
        yield llrs


def _stream_batch(cfg, code, dec_cfg, point_idx, frame_lo, frame_hi):
    """Frames go to a fresh decoder per call, as many as the edge budget takes."""
    n_blocks, c = cfg.frame_blocks, code.block_len
    per_call = _stream_frames_per_call(code, dec_cfg.iterations, n_blocks)
    out = []
    for llrs in _llr_calls(cfg, point_idx, frame_lo, frame_hi, per_call, code.rate,
                           n_blocks * c):
        bits = decode_stream(StreamDecoder(code, dec_cfg), llrs).bits
        block_errors = bits.reshape(len(bits), n_blocks, c).any(axis=2).sum(axis=1)
        out += [(n_blocks, n_blocks * c, int(e), int(b))
                for e, b in zip(bits.sum(axis=1), block_errors)]
    return out


def _block_batch(cfg, decoder, point_idx, frame_lo, frame_hi):
    """Frames go to the decoder in whole calls."""
    n = decoder.matrix.cols
    rate = 1.0 - cfg.base.block_rows / cfg.base.block_cols
    out = []
    for llrs in _llr_calls(cfg, point_idx, frame_lo, frame_hi, decoder.frames_per_call,
                           rate, n):
        bit_errors = decoder.decode(llrs)[0].sum(axis=1)
        out += [(1, n, int(e), int(e > 0)) for e in bit_errors]
    return out


def _batch_runner(cfg: ExperimentConfig, baseline: bool):
    """The batch runner, (point_idx, frame_lo, frame_hi) -> one (blocks,
    bits, bit errors, block errors) row per frame, with the code built
    once, and the frames its decoder takes per call."""
    dec_cfg = _decoder_config(cfg)
    if baseline:
        decoder = BlockDecoder(expand_base(cfg.base), cfg.iterations,
                               dec_cfg.quantizer, cfg.clamp)
        return functools.partial(_block_batch, cfg, decoder), decoder.frames_per_call
    code = split_and_unwrap(cfg.base)
    return (functools.partial(_stream_batch, cfg, code, dec_cfg),
            _stream_frames_per_call(code, dec_cfg.iterations, cfg.frame_blocks))


# the batch runner of a pool worker and its frames per call, built once by
# _init_worker
_worker_runner = None
_worker_per_call = 0


def _init_worker(cfg: ExperimentConfig, baseline: bool) -> None:
    global _worker_runner, _worker_per_call
    _worker_runner, _worker_per_call = _batch_runner(cfg, baseline)


def _worker_frames_per_call() -> int:
    return _worker_per_call


def _worker_batch(point_idx: int, frame_lo: int, frame_hi: int):
    """Simulate a contiguous batch of frames in a pool worker."""
    return _worker_runner(point_idx, frame_lo, frame_hi)


def _run_points(cfg: ExperimentConfig, baseline: bool) -> list[BerPoint]:
    if cfg.workers == 1:
        return _sweep(cfg, baseline, None)
    # one pool for the whole grid; each worker builds the code once
    with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_worker,
                             initargs=(cfg, baseline)) as pool:
        return _sweep(cfg, baseline, pool)


def _sweep(cfg: ExperimentConfig, baseline: bool, pool) -> list[BerPoint]:
    """Every grid point, its batches run in ``pool`` or, without one, here.

    The batches of the whole grid form one sequence in (point, frame)
    order.  A pool keeps up to ``2 * workers`` of them in flight, across
    point boundaries, so no worker waits for a point's last batch; results
    are consumed strictly in order, so the stopping point never depends on
    the worker count.  When a point stops, its batches still queued are
    cancelled and the sequence skips past it.  A point's first batch holds
    the frames of one decoder call, and each next batch twice as many, up
    to ``min(64, max_frames // workers)``.  Batches below that size hold
    whole calls, so they cost no more decoder calls than full-size ones,
    and where a call holds few frames few are decoded past an early stop.
    ``wall_time_s`` is the time from the previous point's end (or the
    sweep's start) to this point's end.
    """
    blocks_per_frame = 1 if baseline else cfg.frame_blocks
    max_frames = max(1, -(-cfg.max_blocks // blocks_per_frame))
    cap = max(1, min(64, max_frames // cfg.workers))
    # seeding imports numpy.random; doing it before the first submit forks
    # the pool lets the workers inherit that module instead of loading it
    seeds = [derive_seed(cfg.seed, p) for p in range(len(cfg.ebno_grid))]
    if pool is None:
        run_batch, per_call = _batch_runner(cfg, baseline)

        def submit(args):
            fut = Future()
            fut.set_result(run_batch(*args))
            return fut
        window = 1
    else:
        per_call = pool.submit(_worker_frames_per_call).result()

        def submit(args):
            return pool.submit(_worker_batch, *args)
        window = 2 * cfg.workers
    point_idx = 0

    def grid_batches():
        for p in range(len(cfg.ebno_grid)):
            lo, size = 0, min(per_call, cap)
            while lo < max_frames and point_idx <= p:
                yield p, lo, min(lo + size, max_frames)
                lo, size = min(lo + size, max_frames), min(2 * size, cap)

    batches = grid_batches()
    pending: deque = deque()  # (point, frame_hi, future) in sequence order
    points = []
    t_start = time.perf_counter()
    for point_idx, ebno_db in enumerate(cfg.ebno_grid):
        blocks = decoded_bits = bit_errors = block_errors = 0
        stop = False
        while not stop:
            while len(pending) < window and (args := next(batches, None)) is not None:
                pending.append((args[0], args[2], submit(args)))
            _, frame_hi, fut = pending.popleft()
            for nb, n_bits, be, blke in fut.result():
                blocks += nb
                decoded_bits += n_bits
                bit_errors += be
                block_errors += blke
                if bit_errors >= cfg.min_error_events or blocks >= cfg.max_blocks:
                    stop = True
                    break
            stop = stop or frame_hi == max_frames
        while pending and pending[0][0] == point_idx:
            pending.popleft()[2].cancel()
        t_end = time.perf_counter()
        points.append(
            BerPoint(
                ebno_db=ebno_db,
                blocks_sent=blocks,
                bit_errors=bit_errors,
                block_errors=block_errors,
                ber=bit_errors / decoded_bits if decoded_bits else 0.0,
                bler=block_errors / blocks if blocks else 0.0,
                seed=seeds[point_idx],
                truncated=bit_errors < cfg.min_error_events,
                wall_time_s=t_end - t_start,
            )
        )
        t_start = t_end
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
