"""Pipelined stream decoder, its flooding engine, and their kernels.

The decoder holds I serially connected processors, one flooding iteration
each.  At step t processor i checks block row t - i*period and passes on
the block leaving it, t - memory - i*period, whose memory + 1 rows it has
now checked: the block's column sums give the next processor its
variable-to-check values and, after the last processor, the decision.
Every check in processor i reads only values that processor i - 1
produced, so the pipeline computes exactly I flooding iterations per block.

One engine runs the pipeline on two schedules, with the same slot tables
(``_window_tables``), check update (``_cnp_rows``) and column sums; each
check lists its edges in row-structure order and each column sums in the
pipeline's order, so both give the same bits, float sums included.
``decode_stream`` and ``BlockDecoder`` flood a window per processor
(``_flood``): processor i depends only on processor i - 1, so over a frame
it is one flooding iteration on block rows 0 .. n_blocks + I*memory - 1,
with zero-LLR blocks past the frame.  ``decode_stream`` builds, budgets and
floods only the rows that the frame's decisions can read as non-zero
(``_window_rows``): n_blocks + max over i of min((I - i) * memory, (i + 1)
* J), where J <= memory is the code's zero reach (0 on the bundled codes,
so the frame's own rows).  Every row past them is either read by no
decision or outputs zero, so the bits are those of the whole window.
``StreamDecoder.step`` runs a processor-batched wavefront over a fixed
window: step t checks rows t, t - period, ... as one strided batch per
slot group and completes the leaving blocks as one column-sum batch.

``step`` keeps messages in dynamic storage, as the paper's RAM does: a
slot holds a variable-to-check value until its check runs and the
check-to-variable value after that.  ``_flood`` holds only
check-to-variable values and forms each check's variable-to-check values
from the last column sums just before the check runs.  Quantized
messages are integer values, which the check update saturates and folds
through the pair table's value-indexed form, offset by M, the largest
magnitude.  For quantizers of 2 to 4 bits an offset value is below 16, so
the uint8 offsets of two adjacent checks, read as one uint16 x, fold
together: a lookup of pairs x and y reads entry ``x * 16 + y`` (below
2**16) of ``PairLut.packed_table`` and returns both checks' results as one
such pair.  Wider quantizers fold one check a lookup.  Every decoder, and
the scalar ``vnp``/``app_decide``, sums columns through a padded slot
table, in float64 or, for codes, in the smallest signed type that holds
them.  Both check-update kernels take a degree-major ``(degree, n)``
block, row k holding input k of n checks: the layout in which the engine
stores its messages, so no call transposes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._settings import _count, _real
from .construction import ConvCode, SparseBinaryMatrix
from .construction import syndrome_check  # noqa: F401  (traced here by perfbench)
from .quantization import (
    PairLut,
    Quantizer,
    _checked_codes,
    _code_values,
    _fold_tables,
    _FoldTables,
    _nearest_codes,
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

# bytes of messages a decoder call holds at once, all frames together; it
# bounds the call's working set: 2**16 edges of 8-byte floats, and 8 or 4
# times the frames of 1-byte (int8) or 2-byte (int16) quantized sums, whose
# flooding is bound by per-call numpy overhead, not by data
_CALL_BYTES = 1 << 19
# messages one check-update call of the flooding engine holds, in bytes: a
# wider call runs out of cache (on a 2-core Xeon host the float kernel took
# 48 ns an edge on a (24, 2,728) block against 26-27 ns on (24, 682))
_KERNEL_BYTES = 1 << 17

_TANH_FLOOR = 1e-300
_TANH_CEIL = 1.0 - 1e-15


@dataclass(frozen=True)
class DecoderConfig:
    """The knobs of either decoder, checked here and nowhere else.  Only the
    float variant reads ``clamp``, and only qspa takes a quantizer."""

    iterations: int
    variant: str = VARIANT_FLOAT
    quantizer: Quantizer | None = None
    clamp: float = 25.0

    def __post_init__(self):
        object.__setattr__(self, "iterations", _count("iterations", self.iterations, 1))
        object.__setattr__(self, "clamp", _real("clamp", self.clamp, positive=True))
        if self.variant not in (VARIANT_FLOAT, VARIANT_QSPA):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == VARIANT_FLOAT and self.quantizer is not None:
            raise ValueError("the float variant takes no quantizer")
        if self.variant == VARIANT_QSPA and self.clamp != DecoderConfig.clamp:
            raise ValueError("clamp applies to the float variant only")
        if self.variant == VARIANT_QSPA and self.quantizer is None:
            object.__setattr__(self, "quantizer", Quantizer())


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
    lt.clip(_TANH_FLOOR, _TANH_CEIL, out=lt)  # the method skips np.clip's dispatch
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
    # negatives.  Negation is exactly a flip of the sign bit, so a zero
    # magnitude turns -0.0 as a product with -1.0 would; a shift and an xor
    # cost less than np.where's data-dependent select, which took about a
    # tenth of a rate-5/6 float frame
    flip = np.bitwise_xor(neg, np.bitwise_xor.reduce(neg, axis=0), out=neg)
    sign_bits = mag.view(np.uint64)
    sign_bits ^= np.left_shift(flip, 63, dtype=np.uint64)
    if any_zero:
        n_zero = zero.sum(axis=0)
        np.copyto(mag, 0.0, where=(n_zero == 1) & ~zero)
        np.copyto(mag, 0.0, where=n_zero >= 2)
    return mag


def cnp_float(values, clamp: float = DecoderConfig.clamp) -> np.ndarray:
    """Check-to-variable values for one check node (degree >= 2)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("check update needs at least two inputs")
    return _cnp_float_rows(values[:, None], clamp)[:, 0]


def _cnp_qspa_rows(codes: np.ndarray, table, max_pos_code: int) -> np.ndarray:
    """Table-driven check update on a (degree, n) block of unsigned indices.

    Row k holds input k of n checks, indices into ``table``: codes for the
    square ``PairLut.table``, offset values for ``PairLut.value_table``, or
    offset-value pairs, read as uint16, for ``PairLut.packed_table``; or the
    table's ``_FoldTables``, which are otherwise built here.
    ``max_pos_code`` is the index of +max, a degree-1 check's output; the
    output takes the input's dtype.  Output i combines a left fold of
    inputs before i with a right-to-left fold of inputs after i; a running
    prefix and the suffixes, kept in the output rows until they are
    overwritten, hold the lookup count at 3d - 6 without changing any fold
    order.  A lookup of (a, b) reads entry ``a * width + b``: the suffixes
    are kept times width, as ``scaled`` returns them, so they serve as left
    operands as they are; the prefix, the left operand of its lookups, is
    read as the right one of ``flipped``, against the inputs times width,
    all multiplied in one call.
    """
    d, n = codes.shape
    if d == 1:
        return np.full((1, n), max_pos_code, dtype=codes.dtype)
    width, flat, flipped, scaled = (table if isinstance(table, _FoldTables)
                                    else _fold_tables(table))
    wide = np.multiply(codes, width, dtype=scaled.dtype)
    idx = np.empty(n, dtype=scaled.dtype)

    def lookup(a, b, forms, out):
        """out = the combine that ``forms`` holds at a + b."""
        np.add(a, b, out=idx)
        forms.take(idx, out=out, mode="clip")  # every index is in range; no checking pass

    out = np.empty(codes.shape, dtype=scaled.dtype)
    out[d - 1] = wide[d - 1]  # suffix d - 1, times width
    for k in range(d - 2, 1, -1):
        lookup(out[k + 1], codes[k], scaled, out[k])  # suffix k, times width
    if d > 2:
        lookup(out[2], codes[1], flat, out[0])  # suffix 1, output 0
    else:
        out[0] = codes[1]
    prefix = codes[0].astype(scaled.dtype)
    for i in range(1, d - 1):
        lookup(out[i + 1], prefix, flipped, out[i])  # prefix i - 1 with suffix i + 1
        lookup(wide[i], prefix, flipped, prefix)
    out[d - 1] = prefix
    return out.astype(codes.dtype, copy=False)


def cnp_qspa(codes, lut: PairLut) -> np.ndarray:
    """Table-driven check update for one check node (degree >= 2)."""
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size < 2:
        raise ValueError("check update needs at least two inputs")
    q = lut.quantizer
    codes = _checked_codes(codes, q).astype(np.uint8)
    return _cnp_qspa_rows(codes[:, None], lut.table, q.max_magnitude_int)[:, 0]


def _cnp_rows(v2c: np.ndarray, out: np.ndarray, lut: PairLut | None, clamp: float):
    """The engine's check update: ``out``, of v2c's size in any shape, gets
    the check-to-variable values of the (degree, n) variable-to-check
    values ``v2c``, which may be a view of it.

    Floats go through ``_cnp_float_rows``.  Integers saturate in place at
    M = max_magnitude_int, fold offset by M through the lut's fold tables
    and lose the offset on the way back; a degree-2 check folds nothing,
    so each of its outputs is the other input, saturated.  Where the lut
    has a packed table (quantizers of 2 to 4 bits), adjacent checks fold
    in pairs through it, the uint8 offsets read as uint16 and an odd n
    padded by one check.
    """
    if lut is None:
        out[...] = _cnp_float_rows(v2c, clamp).reshape(out.shape)
        return
    m = lut.quantizer.max_magnitude_int
    bound = v2c.dtype.type(m)  # clip converts a Python int on every call
    v2c.clip(-bound, bound, out=v2c)  # the method skips np.clip's dispatch
    if len(v2c) == 2:
        out[...] = v2c[::-1].reshape(out.shape)
        return
    d, n = v2c.shape
    pairs = lut.packed_table is not None
    offset = np.empty((d, n + (n % 2 if pairs else 0)), dtype=np.uint8)
    offset[:, n:] = 0  # an odd n's pad check
    np.add(v2c, m, out=offset[:, :n], casting="unsafe")
    c2v = _cnp_qspa_rows(offset.view(np.uint16 if pairs else np.uint8), lut.fold_tables,
                         2 * m * (0x101 if pairs else 1))  # +max in each byte
    # a uint8 result less M would wrap before the cast
    np.subtract(c2v.view(np.uint8)[:, :n].reshape(out.shape), m, out=out, dtype=out.dtype)


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


def _variable_update(msg: np.ndarray, slots: np.ndarray,
                     channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column sums ``post`` of a slot table and, in the table's shape,
    each listed slot's outgoing message ``post - msg[slot]``."""
    post = _column_sums(msg, slots, channel)
    beta = msg.take(slots, axis=0)
    np.subtract(post, beta, out=beta)
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
    post, beta = _variable_update(alpha[:, None], np.arange(alpha.size)[:, None],
                                  np.reshape(numbers(channel), (1, 1)))
    return post[0, 0], beta[:, 0, 0]


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
class StreamResult:
    """``decode_stream``'s output; the syndrome flags are computed when
    first read, through the window the stream was decoded in."""

    bits: np.ndarray
    soft: np.ndarray
    _code: ConvCode = field(repr=False)
    _tables: _FloodTables = field(repr=False)

    @functools.cached_property
    def syndrome_ok(self) -> np.ndarray:
        return _block_syndromes(self._code, self.bits, self._tables)


class StreamDecoder:
    """Pipeline of I processors over an unterminated convolutional code.

    Decoding step t feeds variable block t; the decision for block w is
    available after step w + (iterations * period), i.e. the pipeline has an
    initial delay of (memory + 1) * iterations decoding steps.

    The first step builds the step state for its frame count: messages and
    channel values over a window of whole periods of block rows.  An edge's
    slot belongs to the processor holding the edge's block, and a leaving
    block's new variable-to-check values take the slots its
    check-to-variable values leave, so the blocks in flight hold, per
    processor, one slot per edge of the expanded base matrix and the channel
    values of a period of blocks: the model's RAM.  When the arriving
    block's rows reach the window's end, the rows in flight shift back by
    whole periods, so one cached table serves an unbounded stream.
    """

    def __init__(self, code: ConvCode, config: DecoderConfig):
        self.code = code
        self.config = config
        self.lut = None if config.quantizer is None else build_pair_lut(config.quantizer)
        self.output_delay = (code.memory + 1) * config.iterations
        self._t = 0
        self._pending: tuple | None = None
        self._frames: tuple | None = None  # leading shape of every step's input

    @property
    def steps_run(self) -> int:
        return self._t

    def _start(self, frames: tuple):
        """The step state, its window twice the rows in flight and the first rows."""
        code, n_proc = self.code, self.config.iterations
        p, m, c = code.period, code.memory, code.block_len
        # rows that hold edges of the blocks in flight and of the arriving one
        span = 2 * m + (n_proc - 1) * p + 1
        n_rows = -(-2 * (span + m) // p) * p
        tables = _window_tables(code, n_rows)
        f = (frames or (1,))[0]
        dtype = _message_dtype(tables, self.config.quantizer)
        self._msg = np.zeros((tables.slot_col.size + 1, f), dtype=dtype)
        self._lam = np.zeros((n_rows, c, f), dtype=dtype)
        self._col_slots = tables.col_slots.reshape(-1, n_rows, c)
        self._origin = 0  # stream index of window row and block 0
        # per group, a (degree, rows, checks, frames) view of its messages
        # and its rows per period: from `memory` on, a row's rank in the
        # group grows by that stride per period, so the rows of one step are
        # a strided slice; each row before `memory + period` lists its
        # (view, rank, stride) per group
        self._groups, self._ranks = [], [[] for _ in range(m + p)]
        for deg, lo, hi, rows in tables.groups:
            view = self._msg[lo:hi].reshape(deg, rows.size, -1, f)
            first = int(np.searchsorted(rows, m))
            stride = int(np.searchsorted(rows, m + p)) - first
            self._groups.append((view, stride))
            for k in range(first + stride):  # a group of first rows only slices one row
                self._ranks[rows[k]].append((view, k, max(stride, 1)))
        self._frames = frames

    def _shift(self):
        """Moves the rows in flight back by whole periods, the oldest to
        just past the first rows, whose layouts differ."""
        p, m = self.code.period, self.code.memory
        oldest = self._t - self._origin - m - (self.config.iterations - 1) * p
        periods = (oldest - m) // p
        for view, stride in self._groups:
            view[:, :view.shape[1] - periods * stride] = view[:, periods * stride:]
        self._lam[:len(self._lam) - periods * p] = self._lam[periods * p:]
        self._origin += periods * p

    def _check_rows(self, row: int, count: int):
        """Check update in place on window rows row, row - period, ... (count
        rows of one layout, all from `memory` on or one before it)."""
        p, m = self.code.period, self.code.memory
        first = row if row < m else m + (row - m) % p
        for view, rank, stride in self._ranks[first]:
            top = rank + (row - first) // p * stride
            part = view[:, top - (count - 1) * stride:top + 1:stride]
            _cnp_rows(part.reshape(len(part), -1), part, self.lut, self.config.clamp)

    def _validate(self, values: np.ndarray) -> np.ndarray:
        """Checks one step's input with one reduction for all its frames."""
        c = self.code.block_len
        if values.ndim not in (1, 2) or values.shape[-1] != c or values.size == 0:
            raise ValueError(f"expected {c} channel values in each of one or more "
                             f"frames, got shape {values.shape}")
        if self._frames is not None and values.shape[:-1] != self._frames:
            raise ValueError(f"frame count changed: the first step had shape "
                             f"{self._frames + (c,)}, this one {values.shape}")
        if self.lut is not None:
            return _checked_codes(values, self.config.quantizer)
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
            self._start(lam_new.shape[:-1])
        lam_new = lam_new.reshape(-1, lam_new.shape[-1]).T  # (block_len, frames)
        t, n_proc = self._t, self.config.iterations
        period, memory = self.code.period, self.code.memory
        msg, lam = self._msg, self._lam
        if t - self._origin + memory >= len(lam):
            self._shift()
        w = t - self._origin  # the arriving block and processor 0's row in the window

        # the arriving block's channel values are processor 0's
        # variable-to-check values; pad slots of its column table take
        # them too, so the zero slot is cleared after each such write
        if self.lut is not None:
            _code_values(lam_new.astype(np.uint8), self.config.quantizer, lam[w])
        else:
            lam[w] = lam_new
        msg[self._col_slots[:, w]] = lam[w]
        msg[-1] = 0
        # processors 0..n-1 are on full-band rows w, w - period, ...;
        # processor n may be on a first row (< memory, before any shift),
        # which has no leaving block yet
        n = min(n_proc, (t - memory) // period + 1)
        if n:
            self._check_rows(w, n)
        if n < n_proc and t >= n * period:
            self._check_rows(t - n * period, 1)

        # the leaving blocks w - memory - i*period, oldest first, become the
        # next processors' variable-to-check values in their own slots; the
        # last processor's go unread
        decision = None
        if n:
            blocks = slice(w - memory - (n - 1) * period, w - memory + 1, period)
            slots = self._col_slots[:, blocks].reshape(-1, n * self.code.block_len)
            post, msg[slots] = _variable_update(msg, slots, lam[blocks].reshape(-1, msg.shape[1]))
            msg[-1] = 0
            if n == n_proc:
                soft = post[:self.code.block_len].T.reshape(self._frames + (-1,))
                if self.lut is not None:
                    soft = soft.astype(np.int64)
                index = t - memory - (n_proc - 1) * period
                decision = (index, (soft < 0).astype(np.uint8), soft)

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
    bits that stepping the decoder through that flush would give.  Of the
    flush it floods only the rows that a decision can read as non-zero
    (``_window_rows``, the frame's own rows on the bundled codes), every
    row at every iteration, ``_frames_per_call`` frames of that window at
    a time.  One syndrome flag is returned per block, checking the block
    row that the block completes.
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
    frames = np.atleast_2d(llr_stream)
    tables = _window_tables(code, _window_rows(code, frames.shape[1] // c, cfg.iterations))
    soft = _decode_frames(tables, frames, cfg.iterations, decoder.lut,
                          cfg.clamp).reshape(llr_stream.shape)
    bits = (soft < 0).astype(np.uint8)
    return StreamResult(bits, soft, code, tables)


def _stream_frames_per_call(code: ConvCode, iterations: int, n_blocks: int,
                            quantizer: Quantizer | None) -> int:
    """Frames of ``n_blocks`` blocks that decode_stream takes at once within
    the byte budget, quantized with ``quantizer`` or, without one, floats."""
    tables = _window_tables(code, _window_rows(code, n_blocks, iterations))
    return _frames_per_call(tables, _message_dtype(tables, quantizer))


def _window_rows(code: ConvCode, n_blocks: int, iterations: int) -> int:
    """Block rows of the window that decode_stream floods for the decisions
    on blocks 0 .. n_blocks - 1 of a stream whose blocks from n_blocks on
    have zero LLRs: ``n_blocks + max_i min((iterations - i) * memory, (i +
    1) * J)`` over iterations i, J the zero reach (cached on the code), or
    ``n_blocks + iterations * memory`` without one.

    Block row r reads blocks r - memory .. r, so the sums of block b read
    rows b .. b + memory.  At iteration i, a row that the window leaves out
    is at or past one of two bounds, so leaving it out changes no decision:
    - the decisions read iteration i's rows below ``n_blocks + (iterations
      - i) * memory`` only, for every code;
    - before iteration i the sums of the blocks from ``n_blocks + i * J`` on
      are zero, and so are the messages of their rows: each check of a row
      from ``n_blocks + (i + 1) * J`` on reads two or more of those blocks
      (``_zero_reach``), so it outputs zero, as a row left out does.
      Without J (a degree-1 check) the first bound holds alone.
    A window row past one of iteration i's bounds floods at iteration i
    too: it reaches no decision or outputs zero, as in the whole window.
    """
    if "zero reach" not in code._decoder_tables:
        code._decoder_tables["zero reach"] = _zero_reach(code)
    reach, m = code._decoder_tables["zero reach"], code.memory
    if reach is None:
        return n_blocks + iterations * m
    return n_blocks + max(min((iterations - i) * m, (i + 1) * reach) for i in range(iterations))


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
    """(columns, F) a-posteriori sums after flooding iterations, each of
    which checks every row of the tables and sums every column.

    ``lam`` holds the channel values, (columns, F): floats, or the codes'
    integers in the sum's dtype with ``lut`` the quantized check update.
    One array holds the check-to-variable messages; a group's
    variable-to-check messages are formed from the last sums just before
    its check update writes over them, a run of checks at a time that
    holds at most ``_KERNEL_BYTES`` of messages, so beside the messages
    only one run's values are live.
    """
    groups, slot_col, col_slots = tables
    f = lam.shape[1]
    msg = np.zeros((slot_col.size + 1, f), dtype=lam.dtype)
    calls = []  # (degree, slots, messages) of each kernel call, in order
    for deg, lo, hi, _rows in groups:
        slots = slot_col[lo:hi].reshape(deg, -1)
        group = msg[lo:hi].reshape(deg, -1, f)
        run = max(1, _KERNEL_BYTES // (deg * f * msg.itemsize))  # checks per call
        calls += [(deg, slots[:, c:c + run], group[:, c:c + run].reshape(deg, -1))
                  for c in range(0, slots.shape[1], run)]
    post = lam  # the first variable-to-check messages are the channel values
    for i in range(iterations):
        for deg, slots, out in calls:
            v2c = post.take(slots, axis=0).reshape(deg, -1)
            if i:  # before the first iteration every message is 0
                v2c -= out
            _cnp_rows(v2c, out, lut, clamp)
        post = _column_sums(msg, col_slots, lam)
    return post


def _zero_reach(code: ConvCode) -> int | None:
    """J: each check of a full-band row r reads two or more blocks at or
    past block r - J, the largest second-smallest block offset
    (``edge_delta``) of a check, at most ``memory``.  So while the blocks
    from Z on are zero, every row from Z + J on outputs zero: a check with
    two zero inputs outputs zero.  None when a check has degree 1: it
    outputs +max whatever it reads.  A row before ``memory`` keeps its
    phase's offsets up to its own index, so the same holds for it.
    """
    reach = 0
    for k in range(code.period):
        struct = code.row_structure(code.memory + k)
        for deg, pos in struct.by_degree:
            if deg == 1:
                return None
            reach = max(reach, int(np.sort(struct.edge_delta[pos], axis=1)[:, 1].max()))
    return reach


def _message_dtype(tables: _FloodTables, quantizer: Quantizer | None) -> type:
    """The flooding engine's message and sum type: floats, or the smallest
    signed type that holds a column sum of ``quantizer``'s codes."""
    return np.float64 if quantizer is None else _sum_dtype(quantizer, len(tables.col_slots))


def _frames_per_call(tables: _FloodTables, dtype) -> int:
    """Frames a flooding call takes at once within the byte budget, its
    messages of type ``dtype``."""
    return max(1, _CALL_BYTES // (max(1, tables.slot_col.size) * np.dtype(dtype).itemsize))


def _decode_frames(tables: _FloodTables, llrs: np.ndarray, iterations: int,
                   lut: PairLut | None, clamp: float) -> np.ndarray:
    """(F, n) soft values of (F, n) finite channel LLRs, floats or, with
    ``lut``, integers; columns past n read zero LLRs.  ``_frames_per_call``
    frames at a time become channel values: floats, or the codes' integers,
    flooded over the whole of ``tables`` (``_flood``).
    """
    if not np.isfinite(llrs).all():
        raise ValueError("channel LLRs must be finite, not NaN or infinite")
    n = llrs.shape[1]
    q = None if lut is None else lut.quantizer
    dtype = _message_dtype(tables, q)
    soft = np.empty(llrs.shape, dtype=np.float64 if q is None else np.int64)
    per_call = _frames_per_call(tables, dtype)
    for lo in range(0, len(llrs), per_call):
        chunk = llrs[lo:lo + per_call]
        lam = np.zeros((tables.col_slots.shape[1], len(chunk)), dtype=dtype)
        if q is None:
            lam[:n] = chunk.T
        else:
            # codes in lam's layout; the scan above has ruled out NaN
            _code_values(_nearest_codes(chunk.T, q), q, lam[:n])
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
    in the pipeline's summation order: its block's newest row first, then
    its older rows from oldest to newest.  The tables stay cached, so they
    take the smallest unsigned type that holds their values (uint16 for a
    64-block frame of the rate-5/6 code).

    Both are derived per period: from ``memory`` on, a row's slots and
    columns are its phase's first full-band row's plus, per period, the
    group's rows per period times its checks and ``period`` blocks.  Rows
    before ``memory`` and rows past the window are handled apart.
    """
    p, m, c = code.period, code.memory, code.block_len
    phase, delta, col = code._period_edges
    n = phase.size
    delta = np.append(delta, 0)  # entry n pads
    full = [code.row_structure(m + (k - m) % p) for k in range(p)]
    start = np.searchsorted(phase, np.arange(p)).tolist()
    base = m + (phase - m) % p  # the first full-band row of the edge's phase
    parts = [(r, code.row_structure(r), start[r] + np.flatnonzero(full[r].edge_delta <= r))
             for r in range(min(m, n_rows))]
    parts += [(m + (k - m) % p, full[k], start[k] + np.arange(full[k].n_edges))
              for k in range(p) if m + (k - m) % p < n_rows]
    pieces = {}  # (degree, checks per row) -> [(first row, (degree, checks) edges)]
    for r, struct, edges in parts:
        for deg, pos in struct.by_degree:
            pieces.setdefault((deg, len(pos)), []).append((r, edges[pos.T]))
    n_slots = sum(s.n_edges * (1 if r < m else len(range(r, n_rows, p))) for r, s, _ in parts)
    dtype = np.min_scalar_type(max(n_slots, n_rows * c))
    slot_col = np.empty(n_slots, dtype=dtype)
    at = (base - delta[:n]) * c + col  # each edge's column in its phase's first full-band row
    # edge e's slot: in the row before memory `first[e]`, in the q-th
    # full-band row `tmpl[e] + q * step[e]`; entry n pads
    first, tmpl, step = np.zeros((3, n + 1), dtype=np.intp)
    first[n] = n_slots
    groups, lo = [], 0
    for (deg, checks), group in pieces.items():
        group.sort(key=lambda part: part[0])
        firsts = [r for r, _ in group]
        heads = sum(r < m for r in firsts)
        band = len(group) - heads  # the group's rows per period from memory on
        starts = np.array(firsts, dtype=np.intp)
        band_rows = (np.arange(0, n_rows, p)[:, None] + starts[heads:]).ravel()
        rows = np.concatenate((starts[:heads], band_rows[band_rows < n_rows]))
        # part j's row has rank j; input d of check i in the row of rank k
        # has slot lo + (d * rows + k) * checks + i
        edges = np.array([e for _, e in group]).transpose(1, 0, 2)
        slot = lo + np.arange(deg)[:, None, None] * (rows.size * checks) + np.arange(
            len(group) * checks).reshape(len(group), checks)
        first[edges[:, :heads]] = slot[:, :heads]
        tmpl[edges[:, heads:]] = slot[:, heads:]
        step[edges[:, heads:]] = band * checks
        cols = slot_col[lo:lo + slot.size // len(group) * rows.size].reshape(deg, rows.size, -1)
        cols[:, :heads] = at[edges[:, :heads]] - p * c  # r < memory: a period earlier
        if band:  # period q's rows: the template's columns plus q * period blocks
            n_q, rest = divmod(rows.size - heads, band)
            template = at[edges[:, heads:]]
            # in the table's type: every value fits, and a cast would cost more than the sum
            np.add(template.astype(dtype)[:, None],
                   (p * c * np.arange(n_q)).astype(dtype)[:, None, None],
                   out=cols[:, heads:heads + n_q * band].reshape(deg, n_q, band, -1))
            cols[:, rows.size - rest:] = template[:, :rest] + p * c * n_q
        groups.append((deg, lo, lo + cols.size, rows))
        lo += cols.size

    # the edges of each block phase b in summation order: column j of a
    # block of phase b lists its edges in column b * block_len + j of `table`
    block = (phase - delta[:n]) % p
    order = np.argsort(block * (m + 1) + (delta[:n] + 1) % (m + 1), kind="stable")
    table = _column_table(block[order] * c + col[order], order, p * c, n).reshape(-1, p, c)
    # block q * period + b reads slot a[e] + q * step[e]
    a = np.append(tmpl[:n] + (block + delta[:n] - base) // p * step[:n], n_slots)
    n_q = -(-n_rows // p)
    col_slots = np.empty((len(table), n_q, p, c), dtype=dtype)
    # in the table's type, whose wrap-around matches the cast's on the
    # entries past the window or before memory, which are replaced below
    np.multiply(np.arange(n_q, dtype=dtype)[:, None, None], step[table].astype(dtype)[:, None],
                out=col_slots)
    np.add(col_slots, a[table].astype(dtype)[:, None], out=col_slots)
    col_slots = col_slots.reshape(len(table), n_q * p, c)[:, :n_rows]
    # blocks with a row before memory or past the window's end
    b = np.array(sorted({*range(min(m, n_rows)), *range(max(0, n_rows - m), n_rows)}),
                 dtype=np.intp)  # empty in a window of no rows
    edges = table[:, b % p]
    r = b[:, None] + delta[edges]
    at_row = np.where(r < m, first[edges], a[edges] + (b // p)[:, None] * step[edges])
    col_slots[:, b] = np.where(r < n_rows, at_row, n_slots)
    return _FloodTables(tuple(groups), slot_col, col_slots.reshape(len(table), n_rows * c))


# ---------------------------------------------------------------------------
# flooding decoder for the block-code baseline


class BlockDecoder:
    """Standard flooding decoder over an arbitrary parity-check matrix.

    Runs a fixed number of iterations of the flooding engine that also
    decodes stream frames, on tables built from the matrix; used to compare
    a block code against its unwrapped form.  A batch of frames is one
    array problem, ``frames_per_call`` frames at a time; each check degree
    is one group of slots, and each column sums in edge order.  The knobs
    form a ``DecoderConfig``, qspa with a quantizer and float without.
    """

    def __init__(self, matrix: SparseBinaryMatrix, iterations: int,
                 quantizer: Quantizer | None = None, clamp: float = DecoderConfig.clamp):
        self.config = DecoderConfig(iterations, VARIANT_FLOAT if quantizer is None
                                    else VARIANT_QSPA, quantizer, clamp)
        self.matrix = matrix
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
        self.frames_per_call = _frames_per_call(self._tables,
                                                _message_dtype(self._tables, quantizer))
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
        soft = _decode_frames(self._tables, llrs.reshape(-1, n), self.config.iterations,
                              self.lut, self.config.clamp).reshape(llrs.shape)
        return (soft < 0).astype(np.uint8), soft
