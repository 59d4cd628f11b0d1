"""Sign-magnitude LLR quantization and the pairwise check-combine table.

Messages are stored as codes: the top bit is the sign, the remaining bits
the magnitude, so a 4-bit quantizer has codes 0..15 with two zeros (+0 and
-0) that compare equal in value.  Levels are uniform multiples of the step.
The check-node combine of two values, 2*atanh(tanh(a/2)*tanh(b/2)) followed
by re-quantization, is tabulated once per (bits, step) pair; a check node of
any degree then reduces to chained table lookups.  The flooding engine keeps
its messages as integer values and folds them through the table's
value-indexed form, ``PairLut.value_table``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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
        if not isinstance(self.bits, (int, np.integer)):
            raise ValueError(f"bits must be an integer, got {self.bits!r}")
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {self.bits}")
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")

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
        # in place on one float temporary, so batches of frames stay cheap
        flat = x.reshape(-1)
        mag = np.abs(flat)
        mag /= self.step
        mag -= 0.5
        np.ceil(mag, out=mag)
        np.clip(mag, 0, self.max_magnitude_int, out=mag)
        code = mag.astype(np.uint8)
        neg = (flat < 0).view(np.uint8)
        code |= np.multiply(neg, self.sign_bit, out=neg)
        code = code.reshape(x.shape)
        return code if code.ndim else code[()]

    def value(self, code):
        """Level of each code; anything but integer codes in [0, n_codes) raises."""
        code = _checked_codes(code, self).astype(np.int64)
        mag = code & (self.sign_bit - 1)
        val = np.where(code & self.sign_bit, -mag, mag) * self.step
        return val if val.ndim else float(val)

    def negate(self, code):
        """Flip the sign bit (value negation; +0 <-> -0)."""
        code = _checked_codes(code, self).astype(np.uint8)
        out = code ^ np.uint8(self.sign_bit)
        return out if out.ndim else out[()]


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
