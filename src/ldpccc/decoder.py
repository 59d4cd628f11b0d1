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
which is also why the hardware can stack their memories into one RAM word.
State lives in two fixed rings with a processor axis: edge messages
``(I + 1, 2*period, n_edges)``, where processor i keeps block row r in ring
row (r + i*period) mod 2*period in its phase's full-band edge layout, and
channel values ``(I, period, block_len)`` by block mod period.  Every
processor's entering row is then ring row t mod 2*period, so one set of
per-phase index tables, built once per code, drives a fixed set of array
operations for all processors; a leaving block enters the next plane at the
same edge positions, period ring rows on.  The float and 4-bit table-driven
variants share this machinery and differ only in the kernels.
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
    "decoding_step",
    "decode_stream",
    "BlockDecoder",
]

VARIANT_FLOAT = "float"
VARIANT_QSPA = "qspa"

_TANH_FLOOR = 1e-300
_TANH_CEIL = 1.0 - 1e-15


# ---------------------------------------------------------------------------
# kernels


def _cnp_float_rows(v: np.ndarray, clamp: float) -> np.ndarray:
    """Check update on a (n_checks, degree) block of variable-to-check values.

    Magnitudes are combined in the log-tanh domain; an exact zero input
    zeroes every other output of its check.
    """
    v = np.asarray(v, dtype=np.float64)
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
    """Table-driven check update on a (n_checks, degree) block of codes.

    Output i combines a left fold of inputs before i with a right-to-left
    fold of inputs after i; the shared prefix/suffix arrays keep the lookup
    count at 3d - 6 without changing any fold order.
    """
    n, d = codes.shape
    if d == 1:
        return np.full((n, 1), max_pos_code, dtype=np.uint8)
    prefix = np.empty((n, d - 1), dtype=np.uint8)
    prefix[:, 0] = codes[:, 0]
    for k in range(1, d - 1):
        prefix[:, k] = table[prefix[:, k - 1], codes[:, k]]
    suffix = np.empty((n, d), dtype=np.uint8)
    suffix[:, d - 1] = codes[:, d - 1]
    for k in range(d - 2, 0, -1):
        suffix[:, k] = table[suffix[:, k + 1], codes[:, k]]
    out = np.empty_like(codes)
    out[:, 0] = suffix[:, 1]
    out[:, d - 1] = prefix[:, d - 2]
    for i in range(1, d - 1):
        out[:, i] = table[prefix[:, i - 1], suffix[:, i + 1]]
    return out


def cnp_qspa(codes, lut: PairLut) -> np.ndarray:
    """Table-driven check update for one check node (degree >= 2)."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 1 or codes.size < 2:
        raise ValueError("check update needs at least two inputs")
    q = lut.quantizer
    return _cnp_qspa_rows(codes[None, :], lut.table, q.max_magnitude_int)[0]


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
    """Plane-local edge-ring indices for one step phase (t mod 2*period).

    Every processor uses the same indices in its own plane.  A block's
    edges are listed newest row first, then the older rows from oldest to
    newest, which is the variable update's summation order.
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
        n_proc = config.iterations
        self._tables = _pipeline_tables(code)
        planes = np.arange(n_proc + 1)[:, None]
        self._plane_base = planes * self._tables.plane
        self._col_base = planes[:-1] * code.block_len
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
            dtype = np.uint8
        else:
            self.quantizer = None
            dtype = np.float64
        # one extra plane takes the last processor's outgoing messages
        self._edges = np.zeros((n_proc + 1) * self._tables.plane, dtype=dtype)
        self._chan = np.zeros((n_proc, code.period, code.block_len), dtype=dtype)
        self.output_delay = (code.memory + 1) * n_proc
        self._t = 0
        self._pending: StepOutput | None = None

    @property
    def steps_run(self) -> int:
        return self._t

    @property
    def phase(self) -> int:
        """Current time instant modulo the code period."""
        return self._t % self.code.period

    def _check_update(self, groups):
        """Check update in place on the ring rows the index groups name."""
        edges = self._edges
        for idx in groups:
            values = edges[idx].reshape(-1, idx.shape[-1])
            if self.quantized:
                out = _cnp_qspa_rows(values, self._table, self._max_pos)
            else:
                out = _cnp_float_rows(values, self.config.clamp)
            edges[idx] = out.reshape(idx.shape)

    def _validate(self, values: np.ndarray) -> np.ndarray:
        if values.shape != (self.code.block_len,):
            raise ValueError(
                f"expected {self.code.block_len} channel values, got {values.shape}"
            )
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

        ``new_llrs`` must hold one block of channel values (codes for the
        quantized variant, floats otherwise).
        """
        lam_new = self._validate(np.asarray(new_llrs))
        t = self._t
        period, memory, c = self.code.period, self.code.memory, self.code.block_len
        n_proc = self.config.iterations
        tables = self._tables
        s = t % (2 * period)
        st = tables.steps[s]
        edges, chan, base = self._edges, self._chan, self._plane_base
        out_slot = (t + 1) % period  # channel slot of every leaving block

        chan[0, t % period] = lam_new
        edges[st.new] = lam_new[st.new_cols]
        # processors 0..n-1 are on full-band rows; processor n may be on a
        # first row (< memory), which has no leaving block yet
        n = min(n_proc, (t - memory) // period + 1)
        if n:
            self._check_update([base[:n, None] + idx for idx in st.cnp])
        row = t - n * period
        if n < n_proc and row >= 0:
            self._check_update([base[n:n + 1, None] + (s * tables.row_len + idx)
                                for idx in tables.warm[row]])

        # the variable update reads the entering row's check-to-variable
        # values just written back; no other slot a step reads is written
        # in that step, since the next plane's rows for the leaving block
        # are not yet resident there
        decision = None
        if n:
            cols = self._col_base[:n] + st.cols
            alpha = edges[base[:n] + st.vnp]
            lam = chan[:n, out_slot]
            if self.quantized:
                alpha = self._c2i[alpha]
                lam = self._c2i[lam]
            total = np.bincount(cols.ravel(), alpha.ravel(), n * c).reshape(n, c)
            post = lam + total
            beta = post.ravel()[cols] - alpha
            if self.quantized:
                beta = self._i2c[beta.astype(np.intp)]
            edges[base[1:n + 1] + st.nxt] = beta
            if n == n_proc:
                soft = post[-1].astype(np.int64) if self.quantized else post[-1]
                decision = StepOutput(block_index=t - memory - (n_proc - 1) * period,
                                      bits=(soft < 0).astype(np.uint8), soft=soft)
        chan[1:, out_slot] = chan[:-1, out_slot]

        self._t += 1
        out, self._pending = self._pending, decision
        return out


def decoding_step(decoder: StreamDecoder, new_llrs: np.ndarray) -> StepOutput | None:
    """Functional alias for ``StreamDecoder.step``."""
    return decoder.step(new_llrs)


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
    """Flag w is True iff every check of block row w has even parity."""
    c, p = code.block_len, code.period
    n = bits.size // c
    # blocks before block 0 read as zeros, so the first rows need no layout of their own
    padded = np.concatenate([np.zeros(code.memory * c, dtype=np.uint8), bits])
    flags = np.empty(n, dtype=bool)
    for k, (offset, starts) in enumerate(_syndrome_tables(code)):
        ones = padded[offset + (np.arange(k, n, p) * c)[:, None]]
        if starts.size:
            ones = np.bitwise_xor.reduceat(ones, starts, axis=1)
        flags[k::p] = ~ones.any(axis=1)
    return flags


def decode_stream(decoder: StreamDecoder, llr_stream: np.ndarray) -> StreamResult:
    """Decode a finite stream and drain the pipeline with zero-LLR padding.

    The stream length must be a multiple of the block length.  Unlike the
    hardware's continuous operation, the flush pads with erasures (zero
    LLRs) so every fed block is decided.  One syndrome flag is returned per
    block, checking the block row that the block completes.
    """
    llr_stream = np.asarray(llr_stream, dtype=np.float64)
    c = decoder.code.block_len
    if llr_stream.ndim != 1 or llr_stream.size % c != 0:
        raise ValueError(f"stream length must be a multiple of {c}")
    if decoder.steps_run != 0:
        raise ValueError("decode_stream needs a fresh decoder")
    n_blocks = llr_stream.size // c
    feed, pad = llr_stream, np.zeros(c)
    if decoder.quantized:
        feed, pad = decoder.quantizer.quantize(feed), decoder.quantizer.quantize(pad)
    bits = np.zeros(n_blocks * c, dtype=np.uint8)
    soft = np.zeros(n_blocks * c, dtype=np.int64 if decoder.quantized else np.float64)
    # outputs arrive in block order, exactly blocks 0..n_blocks-1
    for k in range(n_blocks + decoder.output_delay):
        out = decoder.step(feed[k * c:(k + 1) * c] if k < n_blocks else pad)
        if out is not None:
            sl = slice(out.block_index * c, (out.block_index + 1) * c)
            bits[sl], soft[sl] = out.bits, out.soft
    flags = _block_syndromes(decoder.code, bits)
    return StreamResult(bits=bits, soft=soft, syndrome_ok=flags)


# ---------------------------------------------------------------------------
# flooding decoder for the block-code baseline


class BlockDecoder:
    """Standard flooding decoder over an arbitrary parity-check matrix.

    Runs a fixed number of iterations with the same kernels as the stream
    decoder; used to compare a block code against its unwrapped form.
    """

    def __init__(self, matrix: SparseBinaryMatrix, iterations: int,
                 quantizer: Quantizer | None = None, clamp: float = 25.0):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.matrix = matrix
        self.iterations = iterations
        self.quantizer = quantizer
        self.clamp = clamp
        if quantizer is not None:
            self.lut = build_pair_lut(quantizer)
        ent = matrix.entries()
        order = np.lexsort((ent[:, 1], ent[:, 0]))
        self.edge_row = ent[order, 0]
        self.edge_col = ent[order, 1]
        degrees = np.bincount(self.edge_row, minlength=matrix.rows)
        self.by_degree = []
        positions = np.arange(self.edge_row.size)
        for deg in sorted(set(degrees.tolist())):
            if deg == 0:
                continue
            ids = np.flatnonzero(degrees == deg)
            mask = np.isin(self.edge_row, ids)
            self.by_degree.append((int(deg), positions[mask].reshape(ids.size, deg)))

    def decode(self, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hard decisions and soft a-posteriori values after all iterations."""
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.shape != (self.matrix.cols,):
            raise ValueError(f"expected {self.matrix.cols} channel values")
        q = self.quantizer
        if q is not None:
            lam = to_twos_complement(q.quantize(llrs), q)
            v2c = lam[self.edge_col].astype(np.int64)
            table = self.lut.table
            max_pos = q.max_magnitude_int
        else:
            lam = llrs
            v2c = lam[self.edge_col]
        alpha = None
        for _ in range(self.iterations):
            alpha = np.empty_like(v2c)
            for deg, pos in self.by_degree:
                if q is not None:
                    codes = from_twos_complement(v2c[pos], q)
                    out = _cnp_qspa_rows(codes, table, max_pos)
                    alpha[pos] = to_twos_complement(out, q)
                else:
                    alpha[pos] = _cnp_float_rows(v2c[pos], self.clamp)
            total = np.zeros(self.matrix.cols, dtype=alpha.dtype)
            np.add.at(total, self.edge_col, alpha)
            v2c = lam[self.edge_col] + total[self.edge_col] - alpha
            if q is not None:
                m = q.max_magnitude_int
                v2c = np.clip(v2c, -m, m)
        soft = lam + total
        return (soft < 0).astype(np.uint8), soft
