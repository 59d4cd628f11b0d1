"""Monte-Carlo BER experiments.

A BER point streams seeded all-zero-codeword frames through the channel
and decoder until enough bit-error events accumulate.  Frames are seeded
by frame index, never by worker, so any worker count reproduces the same
numbers; workers only split the frame list.  A run's code and its one
decoder are built once, in the caller, before any pool starts: pool
workers receive that run, so a bad config fails the same way at any
worker count.
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
        for name in ("iterations", "quant_bits", "min_error_events", "max_blocks", "seed",
                     "workers", "frame_blocks"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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


def _frame_llrs(cfg, point_idx, frame, rate, n):
    ch = ChannelConfig(ebno_db=cfg.ebno_grid[point_idx], rate=rate,
                       seed=derive_seed(cfg.seed, point_idx, frame))
    return to_llr(transmit_all_zero(n, ch), noise_sigma(ch))


def _stream_bits(decoder, llrs):
    # decode_stream is looked up at call time, so patching harness.decode_stream
    # (as the tests and the benchmark's tracer do) reaches every call
    return decode_stream(decoder, llrs).bits


def _block_bits(decoder, llrs):
    return decoder.decode(llrs)[0]


def _frame_batch(cfg, decode, blocks, rate, n, point_idx, frame_lo, frame_hi):
    """Frames ``frame_lo .. frame_hi - 1`` of ``blocks`` blocks and ``n``
    bits, each from its own seed, in one ``decode`` call: one (bits, bit
    errors, block errors) row per frame."""
    llrs = np.empty((frame_hi - frame_lo, n))
    for i in range(len(llrs)):
        llrs[i] = _frame_llrs(cfg, point_idx, frame_lo + i, rate, n)
    bits = decode(llrs)
    block_errors = bits.reshape(len(bits), blocks, -1).any(2).sum(1)
    return [(n, int(e), int(b)) for e, b in zip(bits.sum(axis=1), block_errors)]


def _build_run(cfg: ExperimentConfig, baseline: bool):
    """The run, over the code and one decoder built here: its batch runner,
    ``(point_idx, frame_lo, frame_hi) ->`` one (bits, bit errors, block
    errors) row per frame; the blocks in a frame (one for the block code);
    and the frames the decoder takes per call.  Each run keeps its own
    rate.  Every knob is checked here, so a bad one fails before any pool
    starts: the quantizer's in either variant, and a stream budget of less
    than one frame after the code's and the decoder's."""
    quantizer = Quantizer(cfg.quant_bits, cfg.quant_step)
    if cfg.variant == VARIANT_FLOAT:
        if quantizer != Quantizer():
            raise ValueError("quant_bits and quant_step apply to the qspa variant only")
        quantizer = None
    dec_cfg = DecoderConfig(cfg.iterations, cfg.variant, quantizer, cfg.clamp)
    if baseline:
        decoder = BlockDecoder(expand_base(cfg.base), cfg.iterations, quantizer, cfg.clamp)
        decode, blocks, n = functools.partial(_block_bits, decoder), 1, decoder.matrix.cols
        rate, per_call = 1.0 - cfg.base.block_rows / cfg.base.block_cols, decoder.frames_per_call
    else:
        decoder = StreamDecoder(split_and_unwrap(cfg.base), dec_cfg)
        if cfg.max_blocks < cfg.frame_blocks:
            raise ValueError(f"max_blocks ({cfg.max_blocks}) is less than one frame of "
                             f"{cfg.frame_blocks} blocks")
        decode, blocks = functools.partial(_stream_bits, decoder), cfg.frame_blocks
        rate, n = decoder.code.rate, blocks * decoder.code.block_len
        per_call = _stream_frames_per_call(decoder.code, cfg.iterations, blocks, quantizer)
    return functools.partial(_frame_batch, cfg, decode, blocks, rate, n), blocks, per_call


# the batch runner a pool worker was given by _init_worker
_worker_runner = None


def _init_worker(runner) -> None:
    global _worker_runner
    _worker_runner = runner


def _worker_batch(point_idx: int, frame_lo: int, frame_hi: int):
    """Simulate a contiguous batch of frames in a pool worker."""
    return _worker_runner(point_idx, frame_lo, frame_hi)


def _run_points(cfg: ExperimentConfig, run_batch, blocks_per_frame: int,
                per_call: int) -> list[BerPoint]:
    if cfg.workers == 1:
        return _sweep(cfg, run_batch, blocks_per_frame, per_call, None)
    # one pool for the whole grid; its workers receive the run built here
    with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_worker,
                             initargs=(run_batch,)) as pool:
        return _sweep(cfg, run_batch, blocks_per_frame, per_call, pool)


def _sweep(cfg: ExperimentConfig, run_batch, blocks_per_frame: int, per_call: int,
           pool) -> list[BerPoint]:
    """Every grid point, its batches run by ``run_batch`` here or, given a
    pool whose workers hold that runner, in ``pool``.

    Every batch is one decoder call of ``min(per_call, cap)`` frames, with
    ``cap = max(1, min(64, max_frames // workers))``; a point's last batch
    takes the frames its budget has left.  The batches of the whole grid
    form one sequence in (point, frame) order.  A pool keeps up to
    ``2 * workers`` of them in flight, across point boundaries, so no
    worker waits for a point's last batch; results are consumed strictly
    in order, so the stopping point never depends on the worker count.
    When a point stops, its batches still queued are cancelled and the
    sequence skips past it, so the frames decoded past a stop are at most
    those of the batches in flight.  A call is sized in bytes, so a qspa
    batch holds 8 (int8 sums) or 4 (int16) times the frames of a float
    one: up to 8 rate-5/6 frames of 64 blocks, all decoded even where the
    point stops on the first.
    ``wall_time_s`` is the time from the previous point's end (or the
    sweep's start) to this point's end.
    """
    max_frames = max(1, -(-cfg.max_blocks // blocks_per_frame))
    size = min(per_call, max(1, min(64, max_frames // cfg.workers)))
    # seeding imports numpy.random; doing it before the first submit forks
    # the pool lets the workers inherit that module instead of loading it
    seeds = [derive_seed(cfg.seed, p) for p in range(len(cfg.ebno_grid))]
    if pool is None:
        def submit(args):
            fut = Future()
            fut.set_result(run_batch(*args))
            return fut
        window = 1
    else:
        def submit(args):
            return pool.submit(_worker_batch, *args)
        window = 2 * cfg.workers
    point_idx = 0

    def grid_batches():
        for p in range(len(cfg.ebno_grid)):
            lo = 0
            while lo < max_frames and point_idx <= p:
                yield p, lo, min(lo + size, max_frames)
                lo += size

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
            for n_bits, be, blke in fut.result():
                blocks += blocks_per_frame
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
    return _run_points(cfg, *_build_run(cfg, baseline=False))


def run_block_baseline(cfg: ExperimentConfig) -> list[BerPoint]:
    """BER/BLER for the underlying block code under flooding decoding.

    Uses the same frame-seed derivation as run_ber so paired comparisons
    share channel randomness where frame sizes line up.
    """
    return _run_points(cfg, *_build_run(cfg, baseline=True))


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
