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
import itertools
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import derive_seed, frame_llrs
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
    quant_bits: int = Quantizer.bits
    quant_step: float = Quantizer.step
    clamp: float = DecoderConfig.clamp
    min_error_events: int = 100
    max_blocks: int = 200_000
    seed: int = 1
    workers: int = 1
    frame_blocks: int = 64

    def __post_init__(self):
        if not isinstance(self.base, BaseMatrix):
            raise ValueError(f"base must be a BaseMatrix, got {type(self.base).__name__}; "
                             "load a bundled one with demo_base(name)")
        for name in ("iterations", "quant_bits", "min_error_events", "max_blocks", "seed",
                     "workers", "frame_blocks"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.min_error_events < 1:
            raise ValueError("min_error_events must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {self.max_blocks}")
        grid = tuple(self.ebno_grid)
        if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in grid):
            raise ValueError(f"ebno_grid must hold real numbers, got {grid!r}")
        grid = tuple(float(x) for x in grid)
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


def _stream_bits(decoder, llrs):
    # decode_stream is looked up at call time, so patching harness.decode_stream
    # (as the tests and the benchmark's tracer do) reaches every call
    return decode_stream(decoder, llrs).bits


def _block_bits(decoder, llrs):
    return decoder.decode(llrs)[0]


def _frame_batch(cfg, decode, blocks, rate, n, point_idx, frame_lo, frame_hi):
    """Frames ``frame_lo .. frame_hi - 1`` of ``blocks`` blocks and ``n``
    bits, each from its own seed, in one ``frame_llrs`` call and one
    ``decode`` call: one (bits, bit errors, block errors) row per frame."""
    llrs = frame_llrs(cfg.seed, point_idx, frame_lo, frame_hi, cfg.ebno_grid[point_idx], rate, n)
    bits = decode(llrs)
    block_errors = bits.reshape(len(bits), blocks, -1).any(2).sum(1)
    return [(n, int(e), int(b)) for e, b in zip(bits.sum(axis=1), block_errors)]


def _build_run(cfg: ExperimentConfig, baseline: bool):
    """The run, over the code and one decoder built here: its batch runner,
    ``(point_idx, frame_lo, frame_hi) ->`` one (bits, bit errors, block
    errors) row per frame; the blocks in a frame (one for the block code);
    and the frames the decoder takes per call.  Each run keeps its own
    rate.  Every knob is checked here, so a bad one fails before any pool
    starts: the quantizer's in either variant, a baseline's frame_blocks
    (its frame is one codeword) after the decoder's, and a stream budget of
    less than one frame after the code's and the decoder's."""
    quantizer = Quantizer(cfg.quant_bits, cfg.quant_step)
    if cfg.variant == VARIANT_FLOAT:
        if quantizer != Quantizer():
            raise ValueError("quant_bits and quant_step apply to the qspa variant only")
        quantizer = None
    dec_cfg = DecoderConfig(cfg.iterations, cfg.variant, quantizer, cfg.clamp)
    if baseline:
        if cfg.frame_blocks != ExperimentConfig.frame_blocks:
            raise ValueError("frame_blocks applies to stream runs only")
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


class _Ran(tuple):
    """The rows of a batch run in the caller, read as a pool's future."""

    def done(self):
        return True

    def result(self):
        return self


def _run_points(cfg: ExperimentConfig, run_batch, blocks_per_frame: int,
                per_call: int) -> list[BerPoint]:
    max_frames = cfg.max_blocks // blocks_per_frame
    size = min(per_call, max(1, min(64, max_frames // cfg.workers)))
    # a forked pool starts all its workers at the first submit, so it gets
    # no more than the grid has batches
    workers = min(cfg.workers, len(cfg.ebno_grid) * -(-max_frames // size))
    if workers == 1:
        return _sweep(cfg, run_batch, blocks_per_frame, size, None, 1)
    # the pool stack (multiprocessing, socket, subprocess, ...) is imported
    # here, at a process's first pool, so a serial run never loads it; the
    # workers fork after this import and inherit it
    from concurrent.futures import ProcessPoolExecutor

    # one pool for the whole grid; its workers receive the run built here
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(run_batch,)) as pool:
        return _sweep(cfg, run_batch, blocks_per_frame, size, pool, workers)


def _sweep(cfg: ExperimentConfig, run_batch, blocks_per_frame: int, size: int,
           pool, slots: int) -> list[BerPoint]:
    """Every grid point, its batches run by ``run_batch`` here or, given a
    pool of ``slots`` workers that hold that runner, in ``pool``.

    A point's budget is ``max_frames = max_blocks // blocks_per_frame``
    whole frames, so it never decodes past ``max_blocks``; a budget below
    one frame is rejected before any run starts.  Every batch is one
    decoder call of ``size`` frames; a point's last batch takes the frames
    its budget has left.  A batch holds one of the ``slots``, one per
    worker, from its submission until it is consumed or, once its point
    has stopped, until it ends.  A free slot takes the lowest point's
    *needed* batch, the next of a point that has consumed all its batches
    and not stopped (every first batch is needed), and only when no point
    has one, the lowest point's *speculative* batch, the next of a point
    whose earlier batches are in flight.  Each point consumes its results
    in frame order, so its counts, and the CSV bytes, never depend on the
    worker count, though points may finish out of grid order.  When a
    point stops, its batches still held are cancelled, so a stop discards
    at most ``slots - 1`` batches.  The serial path is one slot: one
    needed batch at a time, in (point, frame) order.
    A call is sized in bytes, so a qspa batch holds 8 (int8 sums) or 4
    (int16) times the frames of a float one: up to 8 rate-5/6 frames of
    64 blocks, all decoded even where the point stops on the first.
    A point ends once it and every point before it have finished;
    ``wall_time_s`` runs from the previous point's end (or the sweep's
    start) to its own, so wall times are >= 0 and sum to the sweep's.
    """
    max_frames = cfg.max_blocks // blocks_per_frame
    max_sent = max_frames * blocks_per_frame  # the blocks of a whole budget
    n_points = len(cfg.ebno_grid)
    # seeding imports numpy.random; doing it before the first submit forks
    # the pool lets the workers inherit that module instead of loading it
    seeds = [derive_seed(cfg.seed, p) for p in range(n_points)]
    if pool is None:
        def submit(p, lo, hi):
            return _Ran(run_batch(p, lo, hi))

        def settle(futures):
            pass  # every batch ran at its submit
    else:
        from concurrent.futures import FIRST_COMPLETED, wait

        submit = functools.partial(pool.submit, _worker_batch)

        def settle(futures):
            wait(futures, return_when=FIRST_COMPLETED)
    next_lo = [0] * n_points
    queued = [deque() for _ in range(n_points)]  # unconsumed futures in frame order
    counts = [(0, 0, 0, 0)] * n_points  # blocks, decoded bits, bit errors, block errors
    finished = [0.0] * n_points
    live = list(range(n_points))  # points not stopped, in grid order
    discarded = []  # batches of stopped points that may still run
    held = 0  # slots held: batches neither consumed nor, once discarded, ended
    t_start = time.perf_counter()
    while live:
        while held < slots:
            for p in live:
                if not queued[p]:
                    break  # the lowest needed batch
            else:
                p = next((p for p in live if next_lo[p] < max_frames), None)
                if p is None:
                    break
            lo = next_lo[p]
            hi = next_lo[p] = min(lo + size, max_frames)
            queued[p].append(submit(p, lo, hi))
            held += 1
        # a slot frees when a live point's oldest unconsumed batch or a
        # discarded one ends
        settle([q[0] for p in live if (q := queued[p])] + discarded)
        for p in live[:]:
            q = queued[p]
            blocks, decoded_bits, bit_errors, block_errors = counts[p]
            stop = False
            while not stop and q and q[0].done():
                held -= 1
                for n_bits, be, blke in q.popleft().result():
                    blocks += blocks_per_frame
                    decoded_bits += n_bits
                    bit_errors += be
                    block_errors += blke
                    if bit_errors >= cfg.min_error_events or blocks >= max_sent:
                        stop = True
                        break
            counts[p] = blocks, decoded_bits, bit_errors, block_errors
            if stop:
                for fut in q:
                    fut.cancel()
                discarded += q
                live.remove(p)
                finished[p] = time.perf_counter()
        running = [fut for fut in discarded if not fut.done()]
        held -= len(discarded) - len(running)
        discarded = running
    points = []
    for p, end in enumerate(itertools.accumulate(finished, max)):
        blocks, decoded_bits, bit_errors, block_errors = counts[p]
        points.append(
            BerPoint(
                ebno_db=cfg.ebno_grid[p],
                blocks_sent=blocks,
                bit_errors=bit_errors,
                block_errors=block_errors,
                ber=bit_errors / decoded_bits if decoded_bits else 0.0,
                bler=block_errors / blocks if blocks else 0.0,
                seed=seeds[p],
                truncated=bit_errors < cfg.min_error_events,
                wall_time_s=end - t_start,
            )
        )
        t_start = end
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
