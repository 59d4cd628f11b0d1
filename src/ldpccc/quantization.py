"""Sign-magnitude LLR quantization and the pairwise check-combine table.

Messages are stored as codes: the top bit is the sign, the remaining bits
the magnitude, so a 4-bit quantizer has codes 0..15 with two zeros (+0 and
-0) that compare equal in value.  Levels are uniform multiples of the step.
The check-node combine of two values, 2*atanh(tanh(a/2)*tanh(b/2)) followed
by re-quantization, is tabulated once per (bits, step) pair; a check node of
any degree then reduces to chained table lookups.  The flooding engine keeps
its messages as integer values and folds them through the table's
value-indexed form, ``PairLut.value_table``, or, for quantizers of 2 to 4
bits, two checks a lookup through its pair-packed form,
``PairLut.packed_table``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._settings import _count, _real

__all__ = [
    "Quantizer",
    "PairLut",
    "build_pair_lut",
    "to_twos_complement",
    "from_twos_complement",
    "dump_lut",
    "parse_lut",
]

_ATANH_ARG_MAX = 1.0 - 1e-15


@dataclass(frozen=True)
class Quantizer:
    """Uniform sign-magnitude quantizer: codes <-> multiples of ``step``.

    The default step of 1.0 came out of a BER sweep on the bundled toy
    codes; smaller steps saturate the channel values at useful operating
    points and cost whole dB of performance.
    """

    bits: int = 4
    step: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "bits", _count("bits", self.bits))
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {self.bits}")
        object.__setattr__(self, "step", _real("step", self.step, positive=True))

    @property
    def n_codes(self) -> int:
        return 1 << self.bits

    @property
    def max_magnitude_int(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def max_magnitude(self) -> float:
        return self.max_magnitude_int * self.step

    @property
    def sign_bit(self) -> int:
        return 1 << (self.bits - 1)

    @property
    def levels(self) -> np.ndarray:
        """All representable values, sorted; the zero level appears twice."""
        return np.sort(self.value(np.arange(self.n_codes)))

    def quantize(self, x):
        """Code of the nearest level; ties round toward smaller magnitude.

        Infinities saturate; NaN has no nearest level and raises.
        """
        x = np.asarray(x, dtype=np.float64)
        if np.isnan(x).any():
            raise ValueError("cannot quantize NaN")
        code = _nearest_codes(x, self)
        return code if code.ndim else code[()]

    def value(self, code):
        """Level of each code; anything but integer codes in [0, n_codes) raises."""
        return to_twos_complement(code, self) * self.step

    def negate(self, code):
        """Flip the sign bit (value negation; +0 <-> -0)."""
        code = _checked_codes(code, self).astype(np.uint8)
        out = code ^ np.uint8(self.sign_bit)
        return out if out.ndim else out[()]


def _nearest_codes(x: np.ndarray, q: Quantizer) -> np.ndarray:
    """``Quantizer.quantize`` of a float64 array its caller has already
    checked for NaN, in x's shape."""
    # in place on one float temporary, so batches of frames stay cheap
    flat = x.reshape(-1)
    mag = np.abs(flat)
    mag /= q.step
    mag -= 0.5
    np.ceil(mag, out=mag)
    mag.clip(0, q.max_magnitude_int, out=mag)  # the method skips np.clip's dispatch
    code = mag.astype(np.uint8)
    neg = (flat < 0).view(np.uint8)
    code |= np.multiply(neg, q.sign_bit, out=neg)
    return code.reshape(x.shape)


def _checked_codes(code, q: Quantizer) -> np.ndarray:
    """``code`` as an array; anything but integers in [0, n_codes) raises."""
    codes = np.asarray(code)
    if codes.dtype.kind not in "iu":
        raise ValueError(f"codes must be integers, not {codes.dtype}")
    if codes.size and ((codes.dtype.kind == "i" and codes.min() < 0)
                       or codes.max() >= q.n_codes):
        raise ValueError(f"codes must lie in [0, {q.n_codes})")
    return codes


def _code_values(codes: np.ndarray, q: Quantizer, out: np.ndarray) -> None:
    """Signed integer value of each uint8 code into ``out`` (int8 or wider);
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
    """Code of each signed integer into the uint8 ``out``, saturating at the
    quantizer range; 0 -> +0.  ``values`` is overwritten."""
    m = q.max_magnitude_int
    np.clip(values, -m, m, out=values)
    sign = out.view(np.int8)
    np.right_shift(values, 8 * values.itemsize - 1, out=sign)  # -1 for a negative value
    values ^= sign  # magnitude, as in _code_values
    values -= sign
    out &= q.sign_bit
    np.bitwise_or(out, values, out=out, casting="unsafe")


def to_twos_complement(code, quantizer: Quantizer):
    """Signed integer value(code)/step; both zero codes map to 0."""
    codes = _checked_codes(code, quantizer).astype(np.uint8)
    out = np.empty(codes.shape, dtype=np.int64)
    _code_values(codes, quantizer, out)
    return out if out.ndim else int(out)


def from_twos_complement(v, quantizer: Quantizer):
    """Sign-magnitude code for a signed integer, saturating at +-max; 0 -> +0."""
    values = np.array(v, dtype=np.int64)  # a copy: the conversion overwrites it
    out = np.empty(values.shape, dtype=np.uint8)
    _saturated_codes(values, quantizer, out)
    return out if out.ndim else out[()]


@dataclass(frozen=True)
class PairLut:
    """Code-indexed table of the pairwise check-node combine."""

    quantizer: Quantizer
    table: np.ndarray  # (n_codes, n_codes) uint8

    def combine(self, a, b):
        """Combine two codes (or arrays of codes) through the table."""
        q = self.quantizer
        out = self.table[_checked_codes(a, q), _checked_codes(b, q)]
        return out if out.ndim else out[()]

    @functools.cached_property
    def value_table(self) -> np.ndarray:
        """The combine on integer values, offset by M = max_magnitude_int.

        Entry (a + M, b + M) is M + value(table[code(a), code(b)]) for
        integers a, b in [-M, M], with code(0) the +0 code, as uint8.  A fold
        of offset values through it equals the fold of codes through
        ``table``, read as values, only if the +0 and -0 rows and columns
        hold the same values: otherwise this raises ``ValueError``.
        """
        q, m = self.quantizer, self.quantizer.max_magnitude_int
        # M + value of each code, so that every lookup below stays in uint8
        offset = (to_twos_complement(np.arange(q.n_codes), q) + m).astype(np.uint8)
        zero, neg_zero = 0, q.sign_bit
        if not (np.array_equal(offset[self.table[zero]], offset[self.table[neg_zero]])
                and np.array_equal(offset[self.table[:, zero]],
                                   offset[self.table[:, neg_zero]])):
            raise ValueError("the table combines +0 and -0 differently, so it has "
                             "no value-indexed form")
        codes = from_twos_complement(np.arange(-m, m + 1), q)
        table = offset.take(self.table.take(codes, axis=0).take(codes, axis=1))
        table.setflags(write=False)
        return table

    @functools.cached_property
    def packed_table(self) -> np.ndarray | None:
        """``value_table`` on two checks per lookup, or None for quantizers
        of 5 bits or more, whose offset values need more than 4 bits.

        See ``_packed_pairs``: the flooding engine folds through it whenever
        it exists.
        """
        table = self.value_table
        return _packed_pairs(table) if len(table) <= 16 else None

    @functools.cached_property
    def fold_tables(self) -> _FoldTables:
        """The forms the flooding engine's check update folds through: of
        the packed table where there is one, else of the value table."""
        packed = self.packed_table
        return _fold_tables(self.value_table if packed is None else packed)


def _packed_pairs(table: np.ndarray) -> np.ndarray:
    """The (16, 16, 16, 16) uint16 pair-packed form of a square uint8 table
    of side at most 16.

    Two adjacent uint8 indices, read as one native uint16 ``x``, hold one
    check's index in the low byte and the next check's in the high byte;
    for two such pairs x and y, the flat entry ``x * 16 + y`` (below
    2**16, since every index is below 16) holds ``table[x_lo, y_lo]`` in its
    low byte and ``table[x_hi, y_hi]`` in its high byte, so one lookup
    combines two checks and its result is again such a pair.  Indexed
    ``[x_hi, y_hi, x_lo, y_lo]``; entries past the table's side hold 0.
    """
    side = np.zeros((16, 16), dtype=np.uint16)
    side[:len(table), :len(table)] = table
    packed = (side[:, :, None, None] << 8) | side
    packed.setflags(write=False)
    return packed


class _FoldTables(NamedTuple):
    """A pair table flattened for a fold that reads entry ``a * width + b``:
    ``table`` there holds the combine of (a, b), ``flipped`` that of (b, a)
    and ``scaled`` width times that of (a, b), all in the index's type."""

    width: int
    table: np.ndarray
    flipped: np.ndarray
    scaled: np.ndarray


def _fold_tables(table: np.ndarray) -> _FoldTables:
    """The fold forms of a square table or of a ``_packed_pairs`` table,
    whose width is its last side; an index is a uint8 where it can hold the
    table's last entry, else a uint16."""
    width = table.shape[-1]
    index = np.uint8 if table.size <= 256 else np.uint16
    # swapping the operands swaps the two axes of each pair: (1, 0) or (1, 0, 3, 2)
    swap = np.arange(table.ndim).reshape(-1, 2)[:, ::-1].ravel()
    forms = (table.astype(index, copy=False).ravel(),
             np.ascontiguousarray(table.transpose(swap), dtype=index).ravel(),
             np.multiply(table, width, dtype=index).ravel())
    for form in forms:
        form.setflags(write=False)
    return _FoldTables(width, *forms)


@functools.cache
def build_pair_lut(quantizer: Quantizer) -> PairLut:
    """The pair table of a quantizer, built once per quantizer value, so
    every decoder with an equal quantizer shares one read-only table."""
    v = quantizer.value(np.arange(quantizer.n_codes))
    prod = np.tanh(0.5 * v)[:, None] * np.tanh(0.5 * v)[None, :]
    prod = np.clip(prod, -_ATANH_ARG_MAX, _ATANH_ARG_MAX)
    table = quantizer.quantize(2.0 * np.arctanh(prod))
    table.setflags(write=False)
    return PairLut(quantizer=quantizer, table=table)


def dump_lut(lut: PairLut) -> str:
    """Text form: one line per first operand, codes space-separated."""
    return "\n".join(" ".join(str(int(c)) for c in row) for row in lut.table) + "\n"


def parse_lut(text: str, quantizer: Quantizer) -> PairLut:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            rows.append([int(x) for x in line.split()])
    n = quantizer.n_codes
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected a {n}x{n} code table")
    if any(not 0 <= c < n for row in rows for c in row):
        raise ValueError("table contains out-of-range codes")
    table = np.array(rows, dtype=np.uint8)
    table.setflags(write=False)
    return PairLut(quantizer=quantizer, table=table)
