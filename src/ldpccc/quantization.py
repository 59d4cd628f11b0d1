"""Sign-magnitude LLR quantization and the pairwise check-combine table.

Messages are stored as codes: the top bit is the sign, the remaining bits
the magnitude, so a 4-bit quantizer has codes 0..15 with two zeros (+0 and
-0) that compare equal in value.  Levels are uniform multiples of the step.
The check-node combine of two values, 2*atanh(tanh(a/2)*tanh(b/2)) followed
by re-quantization, is tabulated once per (bits, step) pair; a check node of
any degree then reduces to chained table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quantizer",
    "QuantizedMessage",
    "PairLut",
    "build_quantizer",
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
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {self.bits}")
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")

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
        mag = np.ceil(np.abs(x) / self.step - 0.5)
        mag = np.clip(mag, 0, self.max_magnitude_int).astype(np.uint8)
        code = np.where(x < 0, mag + self.sign_bit, mag).astype(np.uint8)
        return code if code.ndim else code[()]

    def value(self, code):
        code = np.asarray(code, dtype=np.int64)
        mag = code & (self.sign_bit - 1)
        val = np.where(code & self.sign_bit, -mag, mag) * self.step
        return val if val.ndim else float(val)

    def negate(self, code):
        """Flip the sign bit (value negation; +0 <-> -0)."""
        code = np.asarray(code, dtype=np.uint8)
        out = code ^ np.uint8(self.sign_bit)
        return out if out.ndim else out[()]


@dataclass(frozen=True)
class QuantizedMessage:
    """One quantized LLR: a code together with its quantizer."""

    code: int
    quantizer: Quantizer

    def __post_init__(self):
        if not 0 <= self.code < self.quantizer.n_codes:
            raise ValueError(f"code {self.code} out of range")

    @property
    def value(self) -> float:
        return self.quantizer.value(self.code)


def build_quantizer(bits: int = 4, step: float = 0.5) -> Quantizer:
    return Quantizer(bits=bits, step=step)


def to_twos_complement(code, quantizer: Quantizer):
    """Signed integer value(code)/step; both zero codes map to 0."""
    code = np.asarray(code, dtype=np.int64)
    mag = code & (quantizer.sign_bit - 1)
    out = np.where(code & quantizer.sign_bit, -mag, mag)
    return out if out.ndim else int(out)


def from_twos_complement(v, quantizer: Quantizer):
    """Sign-magnitude code for a signed integer, saturating at +-max; 0 -> +0."""
    v = np.asarray(v, dtype=np.int64)
    m = quantizer.max_magnitude_int
    v = np.clip(v, -m, m)
    code = np.where(v < 0, quantizer.sign_bit - v, v).astype(np.uint8)
    return code if code.ndim else code[()]


@dataclass(frozen=True)
class PairLut:
    """Code-indexed table of the pairwise check-node combine."""

    quantizer: Quantizer
    table: np.ndarray  # (n_codes, n_codes) uint8

    def combine(self, a, b):
        """Combine two codes (or arrays of codes) through the table."""
        out = self.table[np.asarray(a, np.int64), np.asarray(b, np.int64)]
        return out if out.ndim else out[()]


def build_pair_lut(quantizer: Quantizer) -> PairLut:
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
    table = np.array(rows, dtype=np.uint8)
    if table.max(initial=0) >= n:
        raise ValueError("table contains out-of-range codes")
    table.setflags(write=False)
    return PairLut(quantizer=quantizer, table=table)
