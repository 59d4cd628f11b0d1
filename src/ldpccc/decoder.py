"""Pipelined stream decoder and its message-update kernels.

The decoder holds I serially connected processors.  Each decoding step
feeds one new block of channel LLRs into the first processor, shifts the
block leaving each processor into the next one, runs a check-node update on
the block row entering every processor, and a variable-node update on the
variable block about to leave it.  The last processor produces hard
decisions from the full a-posteriori sum.  Because every check-node update
in processor i consumes variable-to-check messages produced by processor
i - 1, the pipeline computes exactly I flooding iterations per variable
block, one iteration per processor, in systolic form.

At step t processor i receives block t - i*period and checks block row
t - i*period, so all processors share one phase and one address sequence,
which is why the hardware can stack their memories into one RAM word.  The
software does the same, and also stacks F independent frames into the word,
as the hardware interleaves codewords through the same processors.  The
edge ring is ``(2*period*n_edges, (I + 1)*F)``: a word of edge slots for
each of 2*period ring rows, where processor i keeps block row r in ring
row (r + i*period) mod 2*period in its phase's full-band edge layout, and a
word position per (processor, frame), frames innermost, with one extra
plane for the last processor's output.  Channel values sit in
``(period, block_len, I*F)`` by block mod period.  Every processor's
entering row is ring row t mod 2*period, so one set of per-phase slot
tables, built once per code, drives a fixed set of array operations over
whole words for all processors and frames; a leaving block enters the next
plane at the same slots, period ring rows on.  The float and 4-bit table-driven variants share this
machinery and differ only in the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .construction import ConvCode, SparseBinaryMatrix
from .construction import syndrome_check  # noqa: F401  (traced here by perfbench)
from .quantization import (
    PairLut,
    Quantizer,
    build_pair_lut,
    from_twos_complement,
    to_twos_complement,
)

__all__ = [
    "VARIANT_FLOAT",
    "VARIANT_QSPA",
    "DecoderConfig",
    "StreamDecoder",
    "StepOutput",
    "StreamResult",
    "cnp_float",
    "cnp_qspa",
    "vnp",
    "app_decide",
    "decode_stream",
    "BlockDecoder",
]

VARIANT_FLOAT = "float"
VARIANT_QSPA = "qspa"

# edges a decoder call holds at once, all frames together; it bounds the
# call's working set, a few bytes per edge on the quantized variant
_EDGE_BUDGET = 1 << 16

_TANH_FLOOR = 1e-300
_TANH_CEIL = 1.0 - 1e-15


# ---------------------------------------------------------------------------
# kernels


def _cnp_float_rows(v: np.ndarray, clamp: float) -> np.ndarray:
    """Check update on a (n_checks, degree) block of variable-to-check values.

    Magnitudes are combined in the log-tanh domain; an exact zero input
    zeroes every other output of its check.  Row sums run in memory order,
    so the input is made C-contiguous: a check's output never depends on
    the layout it came in.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    sign = np.where(v < 0, -1.0, 1.0)
    zero = v == 0.0
    n_zero = zero.sum(axis=1, keepdims=True)
    av = np.abs(v)
    # in-place steps keep the temporaries few on wide batches
    lt = np.multiply(av, 0.5)
    np.tanh(lt, out=lt)
    np.clip(lt, _TANH_FLOOR, _TANH_CEIL, out=lt)
    np.log(lt, out=lt)
    np.copyto(lt, 0.0, where=zero)
    total = lt.sum(axis=1, keepdims=True)
    mag = np.subtract(total, lt, out=lt)
    np.exp(mag, out=mag)
    np.clip(mag, 0.0, _TANH_CEIL, out=mag)
    np.arctanh(mag, out=mag)
    mag *= 2.0
    # each output magnitude is mathematically bounded by the smallest other
    # input; clip to that bound so atanh noise never breaks it
    arg = np.argmin(av, axis=1)
    rows = np.arange(av.shape[0])
    min1 = av[rows, arg]
    av[rows, arg] = np.inf  # av has no other use from here on
    min2 = av.min(axis=1)
    min_excl = np.broadcast_to(min1[:, None], av.shape).copy()
    min_excl[rows, arg] = min2
    np.minimum(mag, min_excl, out=mag)
    np.minimum(mag, clamp, out=mag)
    sign_all = np.where(zero, 1.0, sign).prod(axis=1, keepdims=True)
    alpha = np.multiply(sign_all, sign, out=sign)
    alpha *= mag
    np.copyto(alpha, 0.0, where=(n_zero == 1) & ~zero)
    np.copyto(alpha, 0.0, where=n_zero >= 2)
    return alpha


def cnp_float(values, clamp: float = 25.0) -> np.ndarray:
    """Check-to-variable values for one check node (degree >= 2)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("check update needs at least two inputs")
    return _cnp_float_rows(values[None, :], clamp)[0]


def _cnp_qspa_rows(codes: np.ndarray, table: np.ndarray,
                   max_pos_code: int) -> np.ndarray:
    """Table-driven check update on a (degree, n) block of codes.

    Row k holds input k of n checks.  Output i combines a left fold of
    inputs before i with a right-to-left fold of inputs after i; a running
    prefix and the suffixes, kept in the output rows until they are
    overwritten, hold the lookup count at 3d - 6 without changing any fold
    order.  Each lookup reads the flat table at ``(a << bits) | b``, which
    is computed as ``a * n_codes + b`` (numpy multiplies small integers
    faster than it shifts them); the prefix's multiple serves both lookups
    that read it.
    """
    d, n = codes.shape
    if d == 1:
        return np.full((1, n), max_pos_code, dtype=np.uint8)
    n_codes = table.shape[0]
    flat = table.ravel()
    # the index must hold n_codes**2 - 1
    idx, left = np.empty((2, n), dtype=np.uint8 if n_codes <= 16 else np.uint16)

    def combine(b, out):
        """out = table[a, b] for the ``a`` whose a * n_codes is in ``left``."""
        np.add(left, b, out=idx)
        flat.take(idx, out=out, mode="clip")  # every index is in range; no checking pass

    out = np.empty_like(codes)
    out[d - 1] = codes[d - 1]
    for k in range(d - 2, 0, -1):
        np.multiply(out[k + 1], n_codes, out=left, dtype=left.dtype)
        combine(codes[k], out[k])  # suffix k
    out[0] = out[1]
    prefix = codes[0].copy()
    for i in range(1, d - 1):
        np.multiply(prefix, n_codes, out=left, dtype=left.dtype)
        combine(out[i + 1], out[i])  # suffix i + 1 is still in row i + 1
        combine(codes[i], prefix)
    out[d - 1] = prefix
    return out


def cnp_qspa(codes, lut: PairLut) -> np.ndarray:
    """Table-driven check update for one check node (degree >= 2)."""
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size < 2:
        raise ValueError("check update needs at least two inputs")
    q = lut.quantizer
    if codes.min() < 0 or codes.max() >= q.n_codes:
        raise ValueError(f"codes must lie in [0, {q.n_codes})")
    codes = codes.astype(np.uint8)
    return _cnp_qspa_rows(codes[:, None], lut.table, q.max_magnitude_int)[:, 0]


def vnp(channel, incoming, quantizer: Quantizer | None = None):
    """Variable update: each output excludes its own incoming value.

    Float inputs are summed directly.  With a quantizer, inputs are codes:
    the sum runs in two's complement and each output saturates at the
    quantizer range before converting back to sign-magnitude.
    """
    if quantizer is None:
        alpha = np.asarray(incoming, dtype=np.float64)
        return float(channel) + (alpha.sum() - alpha)
    alpha = to_twos_complement(np.asarray(incoming), quantizer)
    total = int(to_twos_complement(channel, quantizer)) + int(alpha.sum())
    return from_twos_complement(total - alpha, quantizer)


def app_decide(channel, incoming, quantizer: Quantizer | None = None):
    """A-posteriori soft value and hard bit; a zero soft value decides 0."""
    if quantizer is None:
        soft = float(channel) + float(np.sum(np.asarray(incoming, dtype=np.float64)))
    else:
        alpha = to_twos_complement(np.asarray(incoming), quantizer)
        soft = int(to_twos_complement(channel, quantizer)) + int(alpha.sum())
    return soft, int(soft < 0)


# ---------------------------------------------------------------------------
# stream decoder


@dataclass(frozen=True)
class DecoderConfig:
    iterations: int
    variant: str = VARIANT_FLOAT
    quantizer: Quantizer | None = None
    clamp: float = 25.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one processor")
        if self.variant not in (VARIANT_FLOAT, VARIANT_QSPA):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == VARIANT_QSPA and self.quantizer is None:
            object.__setattr__(self, "quantizer", Quantizer())


@dataclass(frozen=True)
class StepOutput:
    block_index: int
    bits: np.ndarray
    soft: np.ndarray


@dataclass(frozen=True)
class StreamResult:
    bits: np.ndarray
    soft: np.ndarray
    syndrome_ok: np.ndarray


class _StepTables(NamedTuple):
    """Edge-ring slots for one step phase (t mod 2*period).

    Every processor and frame uses the same slots at its own word
    position.  A block's edges are listed newest row first, then the older
    rows from oldest to newest, which is the variable update's summation
    order.
    """

    cnp: tuple            # per degree group, (checks, degree): the entering row
    vnp: np.ndarray       # (K,) edges of the leaving block
    nxt: np.ndarray       # (K,) the same edges in the next processor's plane
    cols: np.ndarray      # (K,) their columns
    new: np.ndarray       # (K,) edges of the fresh block in plane 0
    new_cols: np.ndarray  # (K,) their columns


class _PipelineTables(NamedTuple):
    steps: tuple          # _StepTables per step phase
    warm: tuple           # per row r < memory: (checks, degree) groups within the row
    row_len: int          # edge slots per ring row
    plane: int            # edge slots per processor
    col_degree: int       # most edges any column of a block has


def _full_rows(code: ConvCode) -> list:
    """Full-band edge layout of each row phase; every ring row uses its phase's."""
    p, m = code.period, code.memory
    return [code.row_structure(m + (k - m) % p) for k in range(p)]


def _pipeline_tables(code: ConvCode) -> _PipelineTables:
    if "pipeline" not in code._decoder_tables:
        code._decoder_tables["pipeline"] = _build_pipeline_tables(code)
    return code._decoder_tables["pipeline"]


def _build_pipeline_tables(code: ConvCode) -> _PipelineTables:
    p, m = code.period, code.memory
    ring = 2 * p
    full = _full_rows(code)
    row_len = max(s.n_edges for s in full)

    def block_edges(q):
        """Ring positions and columns of a block whose first row is ring row q."""
        pos, cols = [], []
        for j in (m, *range(m)):
            positions, columns, _ = full[(q + j) % p].delta_slices[j]
            pos.append((q + j) % ring * row_len + positions)
            cols.append(columns)
        return np.concatenate(pos), np.concatenate(cols).astype(np.intp)

    blocks = [block_edges(q) for q in range(ring)]
    steps = []
    for s in range(ring):
        # the entering row is ring row s; the leaving block's rows start m
        # rows back, and p rows further on in the next processor's plane
        cnp = tuple(s * row_len + pos for _, _, pos in full[s % p].by_degree)
        leaving = blocks[(s - m) % ring]
        steps.append(_StepTables(cnp, leaving[0], blocks[(s - m + p) % ring][0],
                                 leaving[1], *blocks[s]))
    # rows before `memory` lack the blocks before block 0: their edges are
    # the full layout's edges with delta <= row, in the same order, grouped
    # by their own check degrees
    warm = []
    for r in range(m):
        kept = np.flatnonzero(full[r].edge_delta <= r)
        warm.append(tuple(kept[pos] for _, _, pos in code.row_structure(r).by_degree))
    col_degree = max(int(np.bincount(cols).max()) for _, cols in blocks)
    return _PipelineTables(tuple(steps), tuple(warm), row_len, ring * row_len, col_degree)


class StreamDecoder:
    """Pipeline of I processors over an unterminated convolutional code.

    Decoding step t feeds variable block t; the decision for block w is
    available after step w + (iterations * period), i.e. the pipeline has an
    initial delay of (memory + 1) * iterations decoding steps.
    """

    def __init__(self, code: ConvCode, config: DecoderConfig):
        self.code = code
        self.config = config
        self.quantized = config.variant == VARIANT_QSPA
        self._tables = _pipeline_tables(code)
        if self.quantized:
            q = self.quantizer = config.quantizer
            self.lut = build_pair_lut(q)
            self._table = self.lut.table
            self._max_pos = q.max_magnitude_int
            # code -> integer value, and integer -> saturated code for every
            # variable-update output; negative integers index from the end
            self._c2i = to_twos_complement(np.arange(q.n_codes), q).astype(np.float64)
            bound = q.max_magnitude_int * self._tables.col_degree
            ints = np.arange(2 * bound + 1)
            ints[ints > bound] -= ints.size
            self._i2c = from_twos_complement(ints, q)
        else:
            self.quantizer = None
        self.output_delay = (code.memory + 1) * config.iterations
        self._t = 0
        self._pending: StepOutput | None = None
        self._frames: tuple | None = None  # leading shape of every step's input

    @property
    def steps_run(self) -> int:
        return self._t

    @property
    def phase(self) -> int:
        """Current time instant modulo the code period."""
        return self._t % self.code.period

    def _allocate(self, frames: tuple):
        """Rings and word-wide tables for the frame count of the first step."""
        n_frames, n_proc = (frames or (1,))[0], self.config.iterations
        self._n_frames = n_frames
        # a word holds every plane's copy of one slot, frames innermost; one
        # extra plane takes the last processor's output
        width = (n_proc + 1) * n_frames
        self._edges = np.zeros((self._tables.plane, width),
                               dtype=np.uint8 if self.quantized else np.float64)
        # channel values as the variable update adds them: integers for codes
        self._chan = np.zeros((self.code.period, self.code.block_len, n_proc * n_frames))
        # per step phase: the variable update's bin of each (edge, word
        # position), and the flat ring positions of the fresh block
        words = np.arange(n_proc * n_frames)
        self._bins = [st.cols[:, None] * words.size + words for st in self._tables.steps]
        self._new_slots = [st.new[:, None] * width + np.arange(n_frames)
                           for st in self._tables.steps]
        self._frames = frames

    def _check_update(self, groups, words: slice, offset: int = 0):
        """Check update in place on the ring slots that the (checks, degree)
        groups name, at the given word positions."""
        edges = self._edges
        for idx in groups:
            idx = idx.T + offset  # (degree, checks)
            vals = edges[idx, words]  # (degree, checks, word positions)
            if self.quantized:
                out = _cnp_qspa_rows(vals.reshape(len(idx), -1), self._table, self._max_pos)
            else:
                out = _cnp_float_rows(vals.reshape(len(idx), -1).T, self.config.clamp).T
            edges[idx, words] = out.reshape(vals.shape)

    def _validate(self, values: np.ndarray) -> np.ndarray:
        """Checks one step's input with one reduction for all its frames."""
        c = self.code.block_len
        if values.ndim not in (1, 2) or values.shape[-1] != c or values.size == 0:
            raise ValueError(f"expected {c} channel values in each of one or more "
                             f"frames, got shape {values.shape}")
        if self._frames is not None and values.shape[:-1] != self._frames:
            raise ValueError(f"frame count changed: the first step had shape "
                             f"{self._frames + (c,)}, this one {values.shape}")
        if self.quantized:
            if values.dtype.kind not in "iu":
                raise ValueError(f"codes must be integers, not {values.dtype}")
            if ((values.dtype.kind == "i" and values.min() < 0)
                    or values.max() >= self.quantizer.n_codes):
                raise ValueError(f"codes must lie in [0, {self.quantizer.n_codes})")
            return values
        if not np.isfinite(values).all():
            raise ValueError("channel LLRs must be finite")
        return values.astype(np.float64, copy=False)

    def step(self, new_llrs: np.ndarray) -> StepOutput | None:
        """One decoding step; returns a decided block once the delay elapsed.

        ``new_llrs`` holds one block of channel values (codes for the
        quantized variant, floats otherwise) for one stream ``(c,)`` or for
        F streams ``(F, c)``; the decided block has the same shape.  The
        first step fixes F for the decoder's life.
        """
        lam_new = self._validate(np.asarray(new_llrs))
        if self._frames is None:
            self._allocate(lam_new.shape[:-1])
        lam_new = lam_new.reshape(-1, lam_new.shape[-1]).T  # (block_len, frames)
        t = self._t
        period, memory = self.code.period, self.code.memory
        n_proc, f = self.config.iterations, self._n_frames
        tables = self._tables
        s = t % (2 * period)
        st = tables.steps[s]
        edges, chan = self._edges, self._chan
        out_slot = (t + 1) % period  # channel slot of every leaving block

        chan[t % period, :, :f] = self._c2i[lam_new] if self.quantized else lam_new
        edges.ravel()[self._new_slots[s]] = lam_new[st.new_cols]
        # processors 0..n-1 are on full-band rows; processor n may be on a
        # first row (< memory), which has no leaving block yet
        n = min(n_proc, (t - memory) // period + 1)
        if n:
            self._check_update(st.cnp, slice(0, n * f))
        row = t - n * period
        if n < n_proc and row >= 0:
            self._check_update(tables.warm[row], slice(n * f, (n + 1) * f),
                               s * tables.row_len)

        # the variable update reads the entering row's check-to-variable
        # values just written back; no other slot a step reads is written
        # in that step, since the next plane's rows for the leaving block
        # are not yet resident there
        decision = None
        if n:
            busy = slice(0, n * f)
            bins = self._bins[s][:, busy]
            alpha = edges[st.vnp, busy]  # (edges, word positions)
            if self.quantized:
                alpha = self._c2i[alpha]
            post = np.bincount(bins.ravel(), alpha.ravel(), chan[0].size).reshape(chan[0].shape)
            post[:, busy] += chan[out_slot, :, busy]
            beta = post.ravel()[bins] - alpha
            if self.quantized:
                beta = self._i2c[beta.astype(np.intp)]
            edges[st.nxt, f:(n + 1) * f] = beta
            if n == n_proc:
                soft = post[:, -f:].T.reshape(self._frames + (-1,))
                if self.quantized:
                    soft = soft.astype(np.int64)
                decision = StepOutput(block_index=t - memory - (n_proc - 1) * period,
                                      bits=(soft < 0).astype(np.uint8), soft=soft)
        chan[out_slot, :, f:] = chan[out_slot, :, :-f]

        self._t += 1
        out, self._pending = self._pending, decision
        return out


def _syndrome_tables(code: ConvCode) -> list:
    """Per row phase: each edge's bit offset from the block ``memory`` rows
    back, and where each check's edges start (edges are ordered by check)."""
    if "syndrome" not in code._decoder_tables:
        tables = []
        for s in _full_rows(code):
            offset = (code.memory - s.edge_delta) * code.block_len + s.edge_col
            starts = np.flatnonzero(np.diff(s.edge_check, prepend=-1))
            tables.append((offset.astype(np.intp), starts))
        code._decoder_tables["syndrome"] = tables
    return code._decoder_tables["syndrome"]


def _block_syndromes(code: ConvCode, bits: np.ndarray) -> np.ndarray:
    """Flag w is True iff every check of block row w has even parity.

    ``bits`` is one stream ``(n,)`` or F streams ``(F, n)``; the flags have
    one row per stream.
    """
    c, p = code.block_len, code.period
    frames = bits if bits.ndim == 2 else bits[None]
    n = frames.shape[1] // c
    # blocks before block 0 read as zeros, so the first rows need no layout of their own
    padded = np.concatenate([np.zeros((len(frames), code.memory * c), dtype=np.uint8),
                             frames], axis=1)
    flags = np.empty((len(frames), n), dtype=bool)
    for k, (offset, starts) in enumerate(_syndrome_tables(code)):
        ones = padded[:, offset + (np.arange(k, n, p) * c)[:, None]]
        if starts.size:
            ones = np.bitwise_xor.reduceat(ones, starts, axis=2)
        flags[:, k::p] = ~ones.any(axis=2)
    return flags.reshape(bits.shape[:-1] + (n,))


def decode_stream(decoder: StreamDecoder, llr_stream: np.ndarray) -> StreamResult:
    """Decode a finite stream and drain the pipeline with zero-LLR padding.

    ``llr_stream`` is one stream ``(n,)`` or F streams ``(F, n)`` decoded
    side by side, each exactly as it would be alone; every output gains
    the same leading axis.  The stream length must be a multiple of the
    block length.  Unlike the hardware's continuous operation, the flush
    pads with erasures (zero LLRs) so every fed block is decided.  One
    syndrome flag is returned per block, checking the block row that the
    block completes.
    """
    llr_stream = np.asarray(llr_stream, dtype=np.float64)
    c = decoder.code.block_len
    if llr_stream.ndim not in (1, 2) or llr_stream.shape[-1] % c != 0:
        raise ValueError(f"expected (n,) or (F, n) channel values with n a multiple "
                         f"of {c}, got shape {llr_stream.shape}")
    if decoder.steps_run != 0:
        raise ValueError("decode_stream needs a fresh decoder")
    frames, n = llr_stream.shape[:-1], llr_stream.shape[-1]
    n_blocks = n // c
    # block k of every frame is one step's input
    feed = np.moveaxis(llr_stream.reshape(frames + (n_blocks, c)), -2, 0)
    pad = np.zeros(frames + (c,))
    if decoder.quantized:
        feed, pad = decoder.quantizer.quantize(feed), decoder.quantizer.quantize(pad)
    bits = np.zeros(frames + (n,), dtype=np.uint8)
    soft = np.zeros(frames + (n,), dtype=np.int64 if decoder.quantized else np.float64)
    # outputs arrive in block order, exactly blocks 0..n_blocks-1
    for k in range(n_blocks + decoder.output_delay):
        out = decoder.step(feed[k] if k < n_blocks else pad)
        if out is not None:
            sl = slice(out.block_index * c, (out.block_index + 1) * c)
            bits[..., sl], soft[..., sl] = out.bits, out.soft
    flags = _block_syndromes(decoder.code, bits)
    return StreamResult(bits=bits, soft=soft, syndrome_ok=flags)


def _stream_frames_per_call(code: ConvCode, iterations: int) -> int:
    """Frames a StreamDecoder takes at once within the edge budget."""
    return max(1, _EDGE_BUDGET // ((iterations + 1) * _pipeline_tables(code).plane))


# ---------------------------------------------------------------------------
# flooding decoder for the block-code baseline


class BlockDecoder:
    """Standard flooding decoder over an arbitrary parity-check matrix.

    Runs a fixed number of iterations with the same check-update kernels as
    the stream decoder; used to compare a block code against its unwrapped
    form.  A batch of frames is one array problem, ``frames_per_call``
    frames at a time, with messages in slot order and frames innermost:
    the checks of one degree occupy one contiguous ``(degree, checks,
    frames)`` run of slots, so the check update reads them in place.
    """

    def __init__(self, matrix: SparseBinaryMatrix, iterations: int,
                 quantizer: Quantizer | None = None, clamp: float = 25.0):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.matrix = matrix
        self.iterations = iterations
        self.quantizer = quantizer
        self.clamp = clamp
        ent = matrix.entries()  # edge order: by row, then by column
        edge_row, edge_col = ent[:, 0], ent[:, 1]
        n_edges = edge_col.size
        degrees = np.bincount(edge_row, minlength=matrix.rows)
        starts = np.cumsum(degrees) - degrees
        self._groups = []  # (degree, first slot, end slot) per check degree
        slot_edge = []
        for deg in sorted(set(degrees.tolist()) - {0}):
            first = starts[degrees == deg]
            slot_edge.append((first + np.arange(deg)[:, None]).ravel())
            lo = self._groups[-1][2] if self._groups else 0
            self._groups.append((deg, lo, lo + slot_edge[-1].size))
        slot_edge = np.concatenate(slot_edge) if slot_edge else np.zeros(0, np.intp)
        self._slot_col = edge_col[slot_edge].astype(np.intp)
        # the float variable update sums in edge order
        self._edge_slot = np.empty(n_edges, dtype=np.intp)
        self._edge_slot[slot_edge] = np.arange(n_edges)
        self._edge_col = edge_col.astype(np.intp)
        # per column, its slots; short columns are padded with slot
        # n_edges, which holds a zero
        col_degree = np.bincount(self._slot_col, minlength=matrix.cols)
        by_col = np.lexsort((self._slot_col,))
        rank = np.arange(n_edges) - (np.cumsum(col_degree) - col_degree)[self._slot_col[by_col]]
        self._col_slots = np.full((int(col_degree.max(initial=0)), matrix.cols), n_edges,
                                 dtype=np.intp)
        self._col_slots[rank, self._slot_col[by_col]] = by_col
        self.frames_per_call = max(1, _EDGE_BUDGET // max(1, n_edges))
        if quantizer is not None:
            self.lut = build_pair_lut(quantizer)
            # smallest signed type that holds a channel value plus a full column
            bound = quantizer.max_magnitude_int * (self._col_slots.shape[0] + 1)
            self._sum_dtype = next(t for t in (np.int8, np.int16, np.int32)
                                   if bound <= np.iinfo(t).max)

    def decode(self, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hard decisions and soft a-posteriori values after all iterations.

        ``llrs`` holds one codeword ``(n,)`` or a batch ``(F, n)``; both
        outputs have its shape, and every frame decodes as it would alone.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        n = self.matrix.cols
        if llrs.ndim not in (1, 2) or llrs.shape[-1] != n:
            raise ValueError(f"expected {n} channel values per frame")
        if not np.isfinite(llrs).all():
            raise ValueError("channel LLRs must be finite")
        frames = llrs.reshape(-1, n)
        decode = self._decode_float if self.quantizer is None else self._decode_qspa
        # the output is allocated once no decode temporaries are left
        posts = [decode(frames[lo:lo + self.frames_per_call]).T
                 for lo in range(0, len(frames), self.frames_per_call)]
        soft = np.concatenate(posts or [np.zeros((0, n), np.int8)],
                              dtype=np.float64 if self.quantizer is None else np.int64)
        soft = soft.reshape(llrs.shape)
        return (soft < 0).astype(np.uint8), soft

    def _decode_float(self, llrs: np.ndarray) -> np.ndarray:
        """(n, F) soft values of a (F, n) batch."""
        n_frames = len(llrs)
        lam = llrs.T
        lam_s = lam.take(self._slot_col, axis=0)
        # column sums run in edge order, as the stream decoder's do
        bins = (self._edge_col[:, None] * n_frames + np.arange(n_frames)).ravel()
        v2c = lam_s
        alpha = np.empty_like(lam_s)
        for it in range(self.iterations):
            for deg, lo, hi in self._groups:
                rows = v2c[lo:hi].reshape(deg, -1, n_frames).transpose(1, 2, 0)
                out = _cnp_float_rows(rows.reshape(-1, deg), self.clamp)
                alpha[lo:hi] = out.reshape(-1, n_frames, deg).transpose(2, 0, 1).reshape(-1, n_frames)
            weights = alpha.take(self._edge_slot, axis=0).ravel()
            total = np.bincount(bins, weights, lam.size).reshape(lam.shape)
            if it + 1 < self.iterations:
                v2c = lam_s + total.take(self._slot_col, axis=0) - alpha
        return lam + total

    def _decode_qspa(self, llrs: np.ndarray) -> np.ndarray:
        """(n, F) soft values of a (F, n) batch; messages stay codes."""
        q = self.quantizer
        table, max_pos = self.lut.table, q.max_magnitude_int
        n_edges, n_frames = self._slot_col.size, len(llrs)
        dtype = self._sum_dtype
        lam = np.empty((llrs.shape[1], n_frames), dtype=dtype)
        _code_values(q.quantize(llrs).T, q, lam)
        v2c = np.empty((n_edges, n_frames), dtype=np.uint8)
        _saturated_codes(lam.take(self._slot_col, axis=0), q, v2c)
        alpha = np.zeros((n_edges + 1, n_frames), dtype=dtype)  # slot n_edges stays 0
        for it in range(self.iterations):
            for deg, lo, hi in self._groups:
                _code_values(_cnp_qspa_rows(v2c[lo:hi].reshape(deg, -1), table, max_pos),
                             q, alpha[lo:hi].reshape(deg, -1))
            post = alpha.take(self._col_slots, axis=0).sum(axis=0, dtype=dtype)
            post += lam
            if it + 1 < self.iterations:
                beta = post.take(self._slot_col, axis=0)
                beta -= alpha[:n_edges]
                _saturated_codes(beta, q, v2c)
                del beta  # the next check update needs the room
        return post


def _code_values(codes: np.ndarray, q: Quantizer, out: np.ndarray) -> None:
    """Signed integer value of each code into ``out`` (int8 or wider);
    both zeros map to 0 and ``codes`` is overwritten.  Branch-free in small
    integers with no temporary: numpy's masked ufuncs are many times
    slower, and batch-sized temporaries raise the peak memory."""
    c = codes.view(np.int8)
    np.left_shift(c, 8 - q.bits, out=out)
    np.right_shift(out, 7, out=out)  # -1 for a negative code, else 0
    np.bitwise_and(c, q.sign_bit - 1, out=c)
    np.bitwise_xor(c, out, out=c)
    np.subtract(c, out, out=out)  # (v ^ -1) + 1 == -v


def _saturated_codes(values: np.ndarray, q: Quantizer, out: np.ndarray) -> None:
    """Code of each integer into ``out``, saturating at the quantizer range;
    0 -> +0.  ``values`` is overwritten."""
    m = q.max_magnitude_int
    np.clip(values, -m, m, out=values)
    sign = out.view(np.int8)
    np.right_shift(values, 8 * values.itemsize - 1, out=sign)  # -1 for a negative value
    values ^= sign  # magnitude, as in _code_values
    values -= sign
    out &= q.sign_bit
    np.bitwise_or(out, values, out=out, casting="unsafe")
