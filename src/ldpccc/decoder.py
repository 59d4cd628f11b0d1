"""Pipelined stream decoder, the flooding engine, and their kernels.

The decoder holds I serially connected processors.  Each decoding step
feeds one new block of channel LLRs into the first processor, shifts the
block leaving each processor into the next one, runs a check-node update on
the block row entering every processor, and a variable-node update on the
variable block about to leave it.  The last processor produces hard
decisions from the full a-posteriori sum.  Because every check-node update
in processor i consumes variable-to-check messages produced by processor
i - 1, the pipeline computes exactly I flooding iterations per variable
block, one iteration per processor, in systolic form.

A stream fed through ``StreamDecoder.step`` is decoded step-major, as the
hardware runs.  At step t processor i receives block t - i*period and
checks block row t - i*period, so all processors share one phase and one
address sequence, which is why the hardware can stack their memories into
one RAM word.  The software does the same, and also stacks F independent
frames into the word, as the hardware interleaves codewords through the
same processors.  The edge ring is ``(period*row_len + 1, I*F)``: every
processor keeps block row r in ring row r mod period, in its phase's
full-band edge layout, and the last slot holds 0; a word has a position per
(processor, frame), frames innermost.  A processor holds period consecutive
blocks, so a (row phase, block phase) pair names one resident message.  As
in the paper's RAM, a leaving block's messages take the slots that the next
plane's leaving block, of the same phase, frees in the same step, so a step
gathers all leaving blocks before it writes any; the last processor's
output goes nowhere.  Channel values sit in ``(period, block_len, I*F)`` by
block mod period.  One set of per-phase slot tables, built once per code at
the first step, drives a fixed set of array operations for all processors
and frames.

A frame whose end is known is decoded processor-major by
``decode_stream``: processor i depends only on processor i - 1 and on its
own earlier steps, so its work over the whole frame is one flooding
iteration over block rows 0 .. n_blocks + I*memory - 1, the rows a decided
block can depend on, with zero-LLR blocks past the frame.  Each check
lists its edges in row-structure order and each column its sum in the
pipeline's order, so even float sums match the step-major engine bit for
bit.  ``_flood`` is that flooding loop, for the window and for the block
decoder's matrix alike, and ``_decode_frames`` the one way frames enter it.
The window puts every block row with the same check degree and checks per
row in one group, and the loop calls the check update on cache-sized runs
of a group's checks.  Its quantized messages are integer values, which the
check update folds through the pair table's value-indexed form; only the
stepped ring keeps codes.

Every decoder, and the scalar ``vnp``/``app_decide``, sums columns the
same way, through a padded slot table, in float64 or, for codes, in the
smallest signed type that holds them.  Both check-update kernels take a
degree-major ``(degree, n)`` block, row k holding input k of n checks: the
layout in which the ring's tables gather a row and the flooding engine
stores its messages, so no call transposes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .construction import ConvCode, SparseBinaryMatrix
from .construction import syndrome_check  # noqa: F401  (traced here by perfbench)
from .quantization import (
    PairLut,
    Quantizer,
    _checked_codes,
    _code_values,
    build_pair_lut,
    from_twos_complement,
    to_twos_complement,
)

__all__ = [
    "VARIANT_FLOAT",
    "VARIANT_QSPA",
    "DecoderConfig",
    "StreamDecoder",
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
# messages one check-update call of the flooding engine holds, in bytes: a
# wider call runs out of cache (on a 2-core Xeon host the float kernel took
# 48 ns an edge on a (24, 2,728) block against 26-27 ns on (24, 682))
_KERNEL_BYTES = 1 << 17

_TANH_FLOOR = 1e-300
_TANH_CEIL = 1.0 - 1e-15


# ---------------------------------------------------------------------------
# kernels


def _cnp_float_rows(v: np.ndarray, clamp: float) -> np.ndarray:
    """Check update on a (degree, n) block of variable-to-check values.

    Row k holds input k of n checks, as for ``_cnp_qspa_rows``.  Magnitudes
    are combined in the log-tanh domain; an exact zero input zeroes every
    other output of its check.  Each check's log terms are summed as one
    contiguous row, in numpy's order for a row (pairwise from 8 terms), so
    a check's output never depends on the layout it came in.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[1]
    neg = v < 0
    zero = v == 0.0
    any_zero = np.count_nonzero(zero)
    av = np.abs(v)
    # in-place steps keep the temporaries few on wide batches
    lt = np.multiply(av, 0.5)
    np.tanh(lt, out=lt)
    np.clip(lt, _TANH_FLOOR, _TANH_CEIL, out=lt)
    np.log(lt, out=lt)
    if any_zero:
        np.copyto(lt, 0.0, where=zero)
    # numpy sums a contiguous row of fewer than 8 terms left to right, as a
    # sum over this block's rows does; longer rows it sums pairwise, so
    # those are summed as rows of a transposed copy (below 8 terms that
    # copy would slow a degree-4 float sweep by about 9%)
    total = lt.sum(axis=0) if len(lt) < 8 else np.ascontiguousarray(lt.T).sum(axis=1)
    mag = np.subtract(total, lt, out=lt)
    np.exp(mag, out=mag)
    np.minimum(mag, _TANH_CEIL, out=mag)
    np.arctanh(mag, out=mag)
    mag *= 2.0
    # each output magnitude is mathematically bounded by the smallest other
    # input; clip to that bound so atanh noise never breaks it: the first
    # smallest input is bounded by the second smallest, every other one by
    # the smallest
    cols = np.arange(n)
    arg = np.argmin(av, axis=0)
    min1 = av[arg, cols]
    at_min = mag[arg, cols]
    av[arg, cols] = np.inf  # av has no other use from here on
    np.minimum(mag, min1, out=mag)
    mag[arg, cols] = np.minimum(at_min, av.min(axis=0))
    np.minimum(mag, clamp, out=mag)
    # output k is negative iff the other inputs hold an odd count of
    # negatives; multiplying by -1.0 keeps the sign of a zero magnitude
    flip = np.bitwise_xor(neg, np.bitwise_xor.reduce(neg, axis=0), out=neg)
    mag *= np.where(flip, -1.0, 1.0)
    if any_zero:
        n_zero = zero.sum(axis=0)
        np.copyto(mag, 0.0, where=(n_zero == 1) & ~zero)
        np.copyto(mag, 0.0, where=n_zero >= 2)
    return mag


def cnp_float(values, clamp: float = 25.0) -> np.ndarray:
    """Check-to-variable values for one check node (degree >= 2)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("check update needs at least two inputs")
    return _cnp_float_rows(values[:, None], clamp)[:, 0]


def _cnp_qspa_rows(codes: np.ndarray, table: np.ndarray,
                   max_pos_code: int) -> np.ndarray:
    """Table-driven check update on a (degree, n) block of uint8 indices.

    Row k holds input k of n checks, indices into the square ``table``:
    codes for ``PairLut.table``, offset values for ``PairLut.value_table``;
    ``max_pos_code`` is the index of +max, a degree-1 check's output.
    Output i combines a left fold of inputs before i with a right-to-left
    fold of inputs after i; a running prefix and the suffixes, kept in the
    output rows until they are overwritten, hold the lookup count at 3d - 6
    without changing any fold order.  Each lookup reads the flat table at
    ``a * width + b``, with ``width`` the table's side (numpy multiplies
    small integers faster than it shifts them); the prefix's multiple
    serves both lookups that read it.
    """
    d, n = codes.shape
    if d == 1:
        return np.full((1, n), max_pos_code, dtype=np.uint8)
    width = table.shape[0]
    flat = table.ravel()
    # the index must hold width**2 - 1
    idx, left = np.empty((2, n), dtype=np.uint8 if width <= 16 else np.uint16)

    def combine(b, out):
        """out = table[a, b] for the ``a`` whose a * width is in ``left``."""
        np.add(left, b, out=idx)
        flat.take(idx, out=out, mode="clip")  # every index is in range; no checking pass

    out = np.empty_like(codes)
    out[d - 1] = codes[d - 1]
    for k in range(d - 2, 0, -1):
        np.multiply(out[k + 1], width, out=left, dtype=left.dtype)
        combine(codes[k], out[k])  # suffix k
    out[0] = out[1]
    prefix = codes[0].copy()
    for i in range(1, d - 1):
        np.multiply(prefix, width, out=left, dtype=left.dtype)
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
    codes = _checked_codes(codes, q).astype(np.uint8)
    return _cnp_qspa_rows(codes[:, None], lut.table, q.max_magnitude_int)[:, 0]


def _column_sums(alpha: np.ndarray, slots: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """A-posteriori sums: per column, its rows of ``alpha`` and its channel value.

    ``slots`` lists each column's rows of ``alpha``; its last row holds 0
    and pads short columns.  A sum starts from 0 and adds the table's rows
    in order in alpha's dtype, then the channel value: floats sum in table
    order.
    """
    post = np.zeros(channel.shape, dtype=alpha.dtype)
    for row in slots:
        post += alpha.take(row, axis=0)
    post += channel
    return post


def _variable_update(alpha: np.ndarray, slots: np.ndarray, cols: np.ndarray,
                     channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A-posteriori sums ``post`` and messages ``post[cols] - alpha``, row
    e of ``alpha`` holding the messages into edge e, of column ``cols[e]``."""
    post = _column_sums(alpha, slots, channel)
    beta = post.take(cols, axis=0)
    beta -= alpha[:cols.size]
    return post, beta


def _column_table(cols: np.ndarray, rows: np.ndarray, n_cols: int, pad: int) -> np.ndarray:
    """(most rows of a column, n_cols) slot table of ``_variable_update``:
    each column's ``rows`` in the order listed, then ``pad``."""
    order = np.argsort(cols, kind="stable")
    by_col = cols[order]
    rank = np.arange(cols.size) - np.searchsorted(by_col, np.arange(n_cols))[by_col]
    table = np.full((rank.max(initial=-1) + 1, n_cols), pad, dtype=np.intp)
    table[rank, by_col] = rows[order]
    return table


def _sum_dtype(q: Quantizer, col_degree: int) -> type:
    """Smallest signed type that holds a channel value plus a full column."""
    bound = q.max_magnitude_int * (col_degree + 1)
    return next(t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max)


def _node_update(channel, incoming, quantizer: Quantizer | None):
    """``_variable_update`` on one variable node: its soft value and its
    outgoing messages, as integers for codes."""
    numbers = (functools.partial(np.asarray, dtype=np.float64) if quantizer is None
               else functools.partial(to_twos_complement, quantizer=quantizer))
    alpha = numbers(np.ravel(incoming))
    post, beta = _variable_update(np.append(alpha, 0)[:, None], np.arange(alpha.size)[:, None],
                                  np.zeros(alpha.size, dtype=np.intp),
                                  np.reshape(numbers(channel), (1, 1)))
    return post[0, 0], beta[:, 0]


def vnp(channel, incoming, quantizer: Quantizer | None = None):
    """Variable update: each output excludes its own incoming value.

    Float inputs are summed directly.  With a quantizer, inputs are codes:
    the sum runs in two's complement and each output saturates at the
    quantizer range before converting back to sign-magnitude.
    """
    beta = _node_update(channel, incoming, quantizer)[1]
    return beta if quantizer is None else from_twos_complement(beta, quantizer)


def app_decide(channel, incoming, quantizer: Quantizer | None = None):
    """A-posteriori soft value and hard bit; a zero soft value decides 0."""
    post = _node_update(channel, incoming, quantizer)[0]
    soft = float(post) if quantizer is None else int(post)
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
        if self.variant == VARIANT_FLOAT and self.quantizer is not None:
            raise ValueError("the float variant takes no quantizer")
        if self.variant == VARIANT_QSPA and self.quantizer is None:
            object.__setattr__(self, "quantizer", Quantizer())


@dataclass(frozen=True)
class StreamResult:
    bits: np.ndarray
    soft: np.ndarray
    syndrome_ok: np.ndarray


class _StepTables(NamedTuple):
    """Edge-ring slots for one step phase (t mod period).

    Every processor and frame uses the same slots at its own word
    position.  The leaving block's edges are listed newest row first, then
    the older rows from oldest to newest (the summation order), and the
    fresh block of phase s takes the leaving slots of phase s + memory.
    """

    cnp: tuple          # per degree group, (degree, checks): the entering row
    vnp: np.ndarray     # the leaving block's K slots, then zero slots up to the largest K + 1
    cols: np.ndarray    # (K,) their columns
    slots: np.ndarray   # (column degree, block_len) positions in vnp, padded with the largest K


class _PipelineTables(NamedTuple):
    steps: tuple          # _StepTables per step phase
    warm: tuple           # per row r < memory: (degree, checks) groups in ring row r
    row_len: int          # edge slots per ring row
    plane: int            # edge slots per processor; slot `plane` of each word holds 0


def _full_rows(code: ConvCode) -> list:
    """Full-band edge layout of each row phase; every ring row uses its phase's."""
    p, m = code.period, code.memory
    return [code.row_structure(m + (k - m) % p) for k in range(p)]


def _pipeline_tables(code: ConvCode) -> _PipelineTables:
    if "pipeline" not in code._decoder_tables:
        code._decoder_tables["pipeline"] = _build_pipeline_tables(code)
    return code._decoder_tables["pipeline"]


def _leaving_edges(code: ConvCode) -> tuple[list, int]:
    """Per step phase s, the K edges of the block that leaves there, in the
    summation order, as ``(rows, positions, cols, slots)``: each edge's row
    as an offset from the block, its position in that row's full-band
    layout, its column, and the ``_column_table`` over the K edges, padded
    with ``pad``, the largest K, which is returned too.  The block's newest
    row comes first, then its older rows from oldest to newest."""
    p, m = code.period, code.memory
    full = _full_rows(code)
    edges = []
    for s in range(p):
        rows, pos, cols = [], [], []
        for j in (m, *range(m)):
            positions, columns = full[(s - m + j) % p].delta_slices[j]
            rows.append(np.full(positions.size, j))
            pos.append(positions)
            cols.append(columns)
        edges.append((np.concatenate(rows), np.concatenate(pos),
                      np.concatenate(cols).astype(np.intp)))
    pad = max(cols.size for _, _, cols in edges)
    return [(rows, pos, cols, _column_table(cols, np.arange(cols.size), code.block_len, pad))
            for rows, pos, cols in edges], pad


def _build_pipeline_tables(code: ConvCode) -> _PipelineTables:
    p, m = code.period, code.memory
    full = _full_rows(code)
    row_len = max(s.n_edges for s in full)
    plane = p * row_len
    leaving, pad = _leaving_edges(code)
    steps = []
    for s, (rows, pos, cols, slots) in enumerate(leaving):
        # the entering row is ring row s; block row r is kept in ring row r mod period
        cnp = tuple(np.ascontiguousarray(s * row_len + pos.T)
                    for _, pos in full[s].by_degree)
        vnp = np.append((s - m + rows) % p * row_len + pos, np.full(pad + 1 - pos.size, plane))
        steps.append(_StepTables(cnp, vnp, cols, slots))
    # rows before `memory` lack the blocks before block 0: their edges are
    # the full layout's edges with delta <= row, in the same order, grouped
    # by their own check degrees; row r < memory < period sits in ring row r
    warm = []
    for r in range(m):
        kept = r * row_len + np.flatnonzero(full[r].edge_delta <= r)
        warm.append(tuple(kept[pos.T] for _, pos in code.row_structure(r).by_degree))
    return _PipelineTables(tuple(steps), tuple(warm), row_len, plane)


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
        self.quantizer = config.quantizer
        self.lut = build_pair_lut(self.quantizer) if self.quantized else None
        self.output_delay = (code.memory + 1) * config.iterations
        self._t = 0
        self._pending: tuple | None = None
        self._frames: tuple | None = None  # leading shape of every step's input

    @property
    def steps_run(self) -> int:
        return self._t

    def _allocate(self, frames: tuple):
        """Ring tables, conversion tables and rings for the frame count of
        the first step."""
        self._tables = _pipeline_tables(self.code)
        self._dtype = np.float64
        if self.quantized:
            q = self.quantizer
            # the unwrapped code keeps the block code's column weights
            col_degree = int(self.code.h_block.col_weights().max())
            self._dtype = _sum_dtype(q, col_degree)
            # code -> integer and integer -> saturated code (negative
            # integers index from the end), tabulated from the conversion
            # pair, which is slower on a step's small words: on (8, 16) words
            # the tables take 2.2 / 1.5 us against 8.3 / 19.4 us (the pair
            # wins on the block decoder's (2,976, 22): 55 / 52 against 224 /
            # 453 us); in the tables' place the pair made a toy_2x4_z16 qspa
            # step at I = 8 take 188-196 against 106-113 us p50 at F = 1 and
            # 250-273 against 177-192 us at F = 8 (same process, 2-core host,
            # numpy 2.4)
            self._c2i = to_twos_complement(np.arange(q.n_codes), q).astype(self._dtype)
            bound = q.max_magnitude_int * col_degree
            ints = np.arange(2 * bound + 1)
            ints[ints > bound] -= ints.size
            self._i2c = from_twos_complement(ints, q)
        n_frames, n_proc = (frames or (1,))[0], self.config.iterations
        self._n_frames = n_frames
        # a word holds every plane's copy of one slot, frames innermost
        width = n_proc * n_frames
        self._edges = np.zeros((self._tables.plane + 1, width),
                               dtype=np.uint8 if self.quantized else np.float64)
        # channel values as the variable update adds them: integers for codes
        self._chan = np.zeros((self.code.period, self.code.block_len, n_proc * n_frames),
                              dtype=self._dtype)
        self._frames = frames

    def _check_update(self, groups, words: slice):
        """Check update in place on the ring slots that the (degree, checks)
        groups name, at the given word positions."""
        edges = self._edges
        for idx in groups:
            vals = edges[idx, words]  # (degree, checks, word positions)
            rows = vals.reshape(len(idx), -1)
            out = (_cnp_qspa_rows(rows, self.lut.table, self.quantizer.max_magnitude_int)
                   if self.quantized else _cnp_float_rows(rows, self.config.clamp))
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
            return _checked_codes(values, self.quantizer)
        if not np.isfinite(values).all():
            raise ValueError("channel LLRs must be finite")
        return values.astype(np.float64, copy=False)

    def step(self, new_llrs: np.ndarray) -> tuple | None:
        """One decoding step; once the delay elapsed, returns a decided
        block as ``(block_index, bits, soft)``.

        ``new_llrs`` holds one block of channel values (codes for the
        quantized variant, floats otherwise) for one stream ``(c,)`` or for
        F streams ``(F, c)``; the decided bits and soft values have the
        same shape.  The first step fixes F for the decoder's life.
        """
        lam_new = self._validate(np.asarray(new_llrs))
        if self._frames is None:
            self._allocate(lam_new.shape[:-1])
        lam_new = lam_new.reshape(-1, lam_new.shape[-1]).T  # (block_len, frames)
        t = self._t
        period, memory = self.code.period, self.code.memory
        n_proc, f = self.config.iterations, self._n_frames
        tables = self._tables
        s = t % period
        st, fresh = tables.steps[s], tables.steps[(s + memory) % period]
        edges, chan = self._edges, self._chan
        out_slot = (t + 1) % period  # channel slot of every leaving block

        chan[s, :, :f] = self._c2i[lam_new] if self.quantized else lam_new
        edges[fresh.vnp[:fresh.cols.size], :f] = lam_new.take(fresh.cols, axis=0)
        # processors 0..n-1 are on full-band rows; processor n may be on a
        # first row (< memory), which has no leaving block yet
        n = min(n_proc, (t - memory) // period + 1)
        if n:
            self._check_update(st.cnp, slice(0, n * f))
        row = t - n * period
        if n < n_proc and row >= 0:
            self._check_update(tables.warm[row], slice(n * f, (n + 1) * f))

        # the variable update reads the entering row's check-to-variable
        # values just written back; all planes' leaving blocks are gathered
        # before each is written one plane on, where the same phase leaves;
        # the last processor's messages have no next plane
        decision = None
        if n:
            busy = slice(0, n * f)
            alpha = edges[st.vnp, busy]  # (edges + pad, word positions)
            if self.quantized:
                alpha = self._c2i[alpha]
            post, beta = _variable_update(alpha, st.slots, st.cols, chan[out_slot, :, busy])
            passed = min(n, n_proc - 1) * f
            beta = beta[:, :passed]
            if self.quantized:
                beta = self._i2c.take(beta)
            edges[st.vnp[:st.cols.size], f:f + passed] = beta
            if n == n_proc:
                soft = post[:, -f:].T.reshape(self._frames + (-1,))
                if self.quantized:
                    soft = soft.astype(np.int64)
                index = t - memory - (n_proc - 1) * period
                decision = (index, (soft < 0).astype(np.uint8), soft)
        chan[out_slot, :, f:] = chan[out_slot, :, :-f]

        self._t += 1
        out, self._pending = self._pending, decision
        return out


def _block_syndromes(code: ConvCode, bits: np.ndarray,
                     tables: _FloodTables | None = None) -> np.ndarray:
    """Flag w is True iff every check of block row w has even parity.

    ``bits`` is one stream ``(n,)`` or F streams ``(F, n)``; the flags have
    one row per stream.  Each check reads its bits through the slots of a
    window at least as long as the stream, by default its own.
    """
    c = code.block_len
    frames = bits if bits.ndim == 2 else bits[None]
    n = frames.shape[1] // c
    if tables is None:
        tables = _window_tables(code, n)
    flags = np.ones((len(frames), n), dtype=bool)
    for deg, lo, hi, rows in tables.groups:
        # rows below n read only the stream's blocks
        k = np.searchsorted(rows, n)
        cols = tables.slot_col[lo:hi].reshape(deg, rows.size, -1)[:, :k]
        odd = np.bitwise_xor.reduce(frames[:, cols], axis=1).any(axis=2)
        flags[:, rows[:k]] &= ~odd
    return flags.reshape(bits.shape[:-1] + (n,))


def decode_stream(decoder: StreamDecoder, llr_stream: np.ndarray) -> StreamResult:
    """Decode a finite stream, padded with zero-LLR blocks past its end.

    ``llr_stream`` is one stream ``(n,)`` or F streams ``(F, n)`` decoded
    side by side, each exactly as it would be alone; every output gains
    the same leading axis.  The stream length must be a multiple of the
    block length.  Unlike the hardware's continuous operation, the stream
    ends in erasures (zero LLRs), so every fed block is decided with the
    bits that stepping the decoder through that flush would give.  The
    pipeline runs processor-major: each processor is one flooding
    iteration over the stream's window.  One syndrome flag is returned per
    block, checking the block row that the block completes.
    """
    llr_stream = np.asarray(llr_stream, dtype=np.float64)
    code, cfg = decoder.code, decoder.config
    c = code.block_len
    if llr_stream.ndim not in (1, 2) or llr_stream.shape[-1] % c != 0:
        raise ValueError(f"expected (n,) or (F, n) channel values with n a multiple "
                         f"of {c}, got shape {llr_stream.shape}")
    if decoder.steps_run != 0:
        raise ValueError("decode_stream needs a fresh decoder")
    if llr_stream.ndim == 2 and len(llr_stream) == 0:
        raise ValueError(f"expected {c} channel values in each of one or more "
                         f"frames, got shape {llr_stream.shape}")
    tables = _window_tables(code, llr_stream.shape[-1] // c + cfg.iterations * code.memory)
    soft = _decode_frames(tables, np.atleast_2d(llr_stream), cfg.iterations, decoder.lut,
                          cfg.clamp).reshape(llr_stream.shape)
    bits = (soft < 0).astype(np.uint8)
    return StreamResult(bits=bits, soft=soft, syndrome_ok=_block_syndromes(code, bits, tables))


def _stream_frames_per_call(code: ConvCode, iterations: int, n_blocks: int) -> int:
    """Frames of ``n_blocks`` blocks that decode_stream takes at once within
    the edge budget."""
    return _frames_per_call(_window_tables(code, n_blocks + iterations * code.memory))


# ---------------------------------------------------------------------------
# flooding engine


class _FloodTables(NamedTuple):
    """Slot layout of one flooding problem.

    Messages sit in slot order with frames innermost.  Each group is a run
    of checks of one degree in ``(degree, checks)`` order, so the check
    update reads the group's slots in place; a window's group spans the
    checks of that degree in every block row that has as many of them,
    ``(degree, rows, checks)``.
    ``col_slots`` lists each column's slots in summation order, padded with
    slot ``slots``, which holds 0.
    """

    groups: tuple           # (degree, first slot, end slot, ascending block rows) per group
    slot_col: np.ndarray    # (slots,) the column of each slot's edge
    col_slots: np.ndarray   # (column degree, columns)


def _flood(tables: _FloodTables, lam: np.ndarray, iterations: int,
           lut: PairLut | None, clamp: float) -> np.ndarray:
    """(columns, F) a-posteriori sums after flooding iterations.

    ``lam`` holds the channel values, (columns, F): floats, or the codes'
    integers in the sum's dtype with ``lut`` the quantized check update.
    One array holds the check-to-variable messages; a group's
    variable-to-check messages are formed from the last sums just before
    its check update writes over them, a run of checks at a time that
    holds at most ``_KERNEL_BYTES`` of messages, so beside the messages
    only one run's values are live.  Quantized messages stay integers: a
    run's values saturate at M = max_magnitude_int, fold offset by M
    through the lut's value table, and lose the offset on the way back.
    """
    groups, slot_col, col_slots = tables
    f = lam.shape[1]
    if lut is not None:
        m, table = lut.quantizer.max_magnitude_int, lut.value_table
        # bounds in the messages' dtype: np.clip converts Python ints on every call
        lo_m, hi_m = np.array([-m, m], dtype=lam.dtype)
    msg = np.zeros((slot_col.size + 1, f), dtype=lam.dtype)
    calls = []  # (degree, slots, messages) of each kernel call, in order
    for deg, lo, hi, _rows in groups:
        slots = slot_col[lo:hi].reshape(deg, -1)
        group = msg[lo:hi].reshape(deg, -1, f)
        run = max(1, _KERNEL_BYTES // (deg * f * msg.itemsize))  # checks per call
        calls += [(deg, slots[:, c:c + run], group[:, c:c + run].reshape(deg, -1))
                  for c in range(0, slots.shape[1], run)]
    post = lam  # the first variable-to-check messages are the channel values
    for _ in range(iterations):
        for deg, slots, out in calls:
            v2c = post.take(slots, axis=0).reshape(deg, -1)
            v2c -= out
            if lut is None:
                out[...] = _cnp_float_rows(v2c, clamp)
            else:
                np.clip(v2c, lo_m, hi_m, out=v2c)
                offset = np.empty(v2c.shape, dtype=np.uint8)
                np.add(v2c, m, out=offset, casting="unsafe")
                # a uint8 result less M would wrap before the cast
                np.subtract(_cnp_qspa_rows(offset, table, 2 * m), m, out=out,
                            dtype=out.dtype)
        post = _column_sums(msg, col_slots, lam)
    return post


def _frames_per_call(tables: _FloodTables) -> int:
    """Frames a flooding call takes at once within the edge budget."""
    return max(1, _EDGE_BUDGET // max(1, tables.slot_col.size))


def _decode_frames(tables: _FloodTables, llrs: np.ndarray, iterations: int,
                   lut: PairLut | None, clamp: float) -> np.ndarray:
    """(F, n) soft values of (F, n) finite channel LLRs, floats or, with
    ``lut``, integers; columns past n read zero LLRs.  ``_frames_per_call``
    frames at a time become channel values: floats, or the codes' integers.
    """
    if not np.isfinite(llrs).all():
        raise ValueError("channel LLRs must be finite, not NaN or infinite")
    n = llrs.shape[1]
    q = None if lut is None else lut.quantizer
    dtype = np.float64 if q is None else _sum_dtype(q, len(tables.col_slots))
    soft = np.empty(llrs.shape, dtype=np.float64 if q is None else np.int64)
    per_call = _frames_per_call(tables)
    for lo in range(0, len(llrs), per_call):
        chunk = llrs[lo:lo + per_call]
        lam = np.zeros((tables.col_slots.shape[1], len(chunk)), dtype=dtype)
        if q is None:
            lam[:n] = chunk.T
        else:
            _code_values(q.quantize(chunk).T, q, lam[:n])
        soft[lo:lo + per_call] = _flood(tables, lam, iterations, lut, clamp)[:n].T
    return soft


def _window_tables(code: ConvCode, n_rows: int) -> _FloodTables:
    """Flooding tables of block rows 0 .. n_rows - 1 over blocks 0 .. n_rows - 1."""
    key = ("window", n_rows)
    if key not in code._decoder_tables:
        code._decoder_tables[key] = _build_window_tables(code, n_rows)
    return code._decoder_tables[key]


def _build_window_tables(code: ConvCode, n_rows: int) -> _FloodTables:
    """Slots by check degree and checks per row: every window row with the
    same pair is one ``(degree, rows, checks)`` group, each row in its own
    layout, that of ``row_structure`` for a row before ``memory`` and its
    phase's full-band layout for a later one.  Each column lists its slots
    in the order of the pipeline's variable update (``_leaving_edges``).
    The tables stay cached, so they take the smallest unsigned type that
    holds their values (uint16 for a 64-block frame of the rate-5/6 code)."""
    p, m, c = code.period, code.memory, code.block_len
    full = _full_rows(code)
    parts = [(np.array([r]), code.row_structure(r), np.flatnonzero(full[r].edge_delta <= r))
             for r in range(min(m, n_rows))]
    parts += [(np.arange(m + (k - m) % p, n_rows, p), full[k], np.arange(full[k].n_edges))
              for k in range(p) if m + (k - m) % p < n_rows]
    pieces = {}  # (degree, checks per row) -> [(rows, layout, to_full, positions)]
    for rows, struct, to_full in parts:
        for deg, pos in struct.by_degree:
            pieces.setdefault((deg, len(pos)), []).append((rows, struct, to_full, pos))
    n_slots = sum(rows.size * struct.n_edges for rows, struct, _ in parts)
    dtype = np.min_scalar_type(max(n_slots, n_rows * c))
    # slot of each (row, full-layout position), flat; rows past the window
    # and positions no row uses read as the zero slot
    row_len = max(s.n_edges for s in full)
    where = np.full((n_rows + m) * row_len, n_slots, dtype=dtype)
    slot_col = np.empty(n_slots, dtype=dtype)
    groups, lo = [], 0
    for (deg, checks), group in pieces.items():
        rows = np.sort(np.concatenate([piece[0] for piece in group]))
        hi = lo + deg * rows.size * checks
        slots = np.arange(lo, hi).reshape(deg, rows.size, checks)
        cols = slot_col[lo:hi].reshape(deg, rows.size, checks)
        for part_rows, struct, to_full, pos in group:
            # a part's rows recur every period, so their ranks among the
            # group's rows are evenly spaced
            rank = np.searchsorted(rows, part_rows)
            at = slice(rank[0], rank[-1] + 1, rank[1] - rank[0] if rank.size > 1 else 1)
            e = pos.T[:, None, :]  # (degree, 1, checks), against rows (rows, 1)
            where[part_rows[:, None] * row_len + to_full[e]] = slots[:, at]
            cols[:, at] = (part_rows[:, None] - struct.edge_delta[e]) * c + struct.edge_col[e]
        groups.append((deg, lo, hi, rows))
        lo = hi
    leaving, pad = _leaving_edges(code)
    col_slots = np.full((max(len(e[3]) for e in leaving), n_rows, c), n_slots, dtype=dtype)
    for s, (rows, pos, _, table) in enumerate(leaving):
        first = (s - m) % p  # the blocks leaving at phase s are first, first + p, ...
        blocks = np.arange(first, n_rows, p)[:, None]
        slots = np.full((blocks.size, pad + 1), n_slots, dtype=dtype)
        where.take((blocks + rows) * row_len + pos, out=slots[:, :rows.size])
        col_slots[:len(table), first::p] = slots[:, table].transpose(1, 0, 2)
    return _FloodTables(tuple(groups), slot_col, col_slots.reshape(len(col_slots), -1))


# ---------------------------------------------------------------------------
# flooding decoder for the block-code baseline


class BlockDecoder:
    """Standard flooding decoder over an arbitrary parity-check matrix.

    Runs a fixed number of iterations of the flooding engine that also
    decodes stream frames, on tables built from the matrix; used to compare
    a block code against its unwrapped form.  A batch of frames is one
    array problem, ``frames_per_call`` frames at a time; each check degree
    is one group of slots, and each column sums in edge order.
    """

    def __init__(self, matrix: SparseBinaryMatrix, iterations: int,
                 quantizer: Quantizer | None = None, clamp: float = 25.0):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.matrix = matrix
        self.iterations = iterations
        self.quantizer = quantizer
        self.clamp = clamp
        edge_col = matrix.entries()[:, 1]  # edge order: by row, then by column
        n_edges = edge_col.size
        degrees = matrix.row_weights()
        starts = np.cumsum(degrees) - degrees
        groups = []
        slot_edge = []
        for deg in sorted(set(degrees.tolist()) - {0}):
            first = starts[degrees == deg]
            slot_edge.append((first + np.arange(deg)[:, None]).ravel())
            lo = groups[-1][2] if groups else 0
            groups.append((deg, lo, lo + slot_edge[-1].size, None))
        slot_edge = np.concatenate(slot_edge) if slot_edge else np.zeros(0, np.intp)
        edge_slot = np.empty(n_edges, dtype=np.intp)
        edge_slot[slot_edge] = np.arange(n_edges)
        self._tables = _FloodTables(tuple(groups), edge_col[slot_edge].astype(np.intp),
                                    _column_table(edge_col, edge_slot, matrix.cols, n_edges))
        self.frames_per_call = _frames_per_call(self._tables)
        self.lut = None if quantizer is None else build_pair_lut(quantizer)

    def decode(self, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hard decisions and soft a-posteriori values after all iterations.

        ``llrs`` holds one codeword ``(n,)`` or a batch ``(F, n)``; both
        outputs have its shape, and every frame decodes as it would alone.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        n = self.matrix.cols
        if llrs.ndim not in (1, 2) or llrs.shape[-1] != n:
            raise ValueError(f"expected {n} channel values per frame")
        soft = _decode_frames(self._tables, llrs.reshape(-1, n), self.iterations, self.lut,
                              self.clamp).reshape(llrs.shape)
        return (soft < 0).astype(np.uint8), soft
