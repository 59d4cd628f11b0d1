"""BPSK over AWGN with all-zero-codeword transmission.

The code is linear and the channel output-symmetric, so error statistics
measured on the all-zero codeword match those of any transmitted codeword;
no encoder is needed.  Generators are Philox (counter-based), so streams
derived for different SNR points or frames never overlap.

A frame's stream is fixed by its Philox key, which numpy derives from the
frame's seed through two SeedSequence hashes.  ``transmit_all_zero`` draws
one frame from a generator built for it.  ``frame_llrs`` seeds a whole
batch of frames in one pass: it runs both hashes over all the batch's
frame indices at once, then fills each frame's row from one Philox set to
that frame's own key.  Each row is bit for bit the frame
``transmit_all_zero`` draws, so the batch size changes speed only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._settings import _count, _real

__all__ = [
    "ChannelConfig",
    "noise_sigma",
    "transmit_all_zero",
    "to_llr",
    "derive_seed",
    "frame_llrs",
]


@dataclass(frozen=True)
class ChannelConfig:
    ebno_db: float
    rate: float
    seed: int

    def __post_init__(self):
        # Python numbers, so that sigma, and with it every LLR byte, does not
        # depend on the numpy type a setting came in (float32 math)
        object.__setattr__(self, "ebno_db", _real("ebno_db", self.ebno_db))
        object.__setattr__(self, "rate", _real("rate", self.rate))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")


def noise_sigma(config: ChannelConfig) -> float:
    """Noise standard deviation for unit-energy BPSK at the configured Eb/N0."""
    return float(np.sqrt(1.0 / (2.0 * config.rate * 10.0 ** (config.ebno_db / 10.0))))


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed and indices."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(indices))
    return int(ss.generate_state(1, np.uint64)[0])


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))


def transmit_all_zero(n: int, config: ChannelConfig) -> np.ndarray:
    """Received samples +1 + sigma * g for the all-zero codeword (bit 0 -> +1).

    Deterministic given (config, n): the generator is rebuilt per call.
    """
    if n < 1:
        raise ValueError("need at least one symbol")
    sigma = noise_sigma(config)
    rng = _generator(config.seed)
    return 1.0 + sigma * rng.standard_normal(n)


def to_llr(received: np.ndarray, sigma: float) -> np.ndarray:
    """Channel LLRs 2 y / sigma^2; positive favors bit 0."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 2.0 * np.asarray(received, dtype=np.float64) / (sigma * sigma)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe).  Its pool is four
# uint32 words.  The k-th hashmix of a word x is xorshift((x ^ A(k)) *
# A(k + 1)), with A(k) = _INIT_A * _MULT_A**k mod 2**32; mix(x, y) is
# xorshift(_MIX_L * x - _MIX_R * y); output word i is xorshift((pool[i % 4]
# ^ B(i)) * B(i + 1)), with B from _INIT_B and _MULT_B alike.  Every step
# is uint32 arithmetic, so it runs over a batch of frames as array ops.
# Each constant is laid out as a row of F copies, so that every op pairs
# arrays of one shape, the cheapest case for small arrays.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _a(k: int) -> int:
    return _INIT_A * pow(_MULT_A, k, 1 << 32) & _M32


def _b(k: int) -> int:
    return _INIT_B * pow(_MULT_B, k, 1 << 32) & _M32


def _hashmix_int(x: int, k: int) -> int:
    v = (x ^ _a(k)) * _a(k + 1) & _M32
    return v ^ v >> 16


def _words(value) -> int:
    """Number of uint32 words numpy's SeedSequence reads from an integer."""
    return max(1, -(-int(value).bit_length() // 32))


def _rows(values: np.ndarray, frames: int) -> np.ndarray:
    """A (len(values), frames) block: row i holds ``frames`` copies of values[i]."""
    return values.repeat(frames).reshape(len(values), frames)


def _hashmix(x, xor, mul, shift, out, tmp) -> None:
    """out = hashmix(x): xorshift((x ^ xor) * mul)."""
    np.bitwise_xor(x, xor, out)
    out *= mul
    np.right_shift(out, shift, tmp)
    out ^= tmp


def _mix(dst, h, left, right, shift, tmp) -> None:
    """dst = mix(dst, h): xorshift(left * dst - right * h); clobbers h."""
    h *= right
    dst *= left
    dst -= h
    np.right_shift(dst, shift, tmp)
    dst ^= tmp


def _frozen(values) -> np.ndarray:
    a = np.array(values, np.uint32)
    a.flags.writeable = False
    return a


@functools.cache
def _seed_consts(k: int) -> np.ndarray:
    """The constants of the frame-word round that starts at hashmix step k:
    the xor and multiply constants of pool words 0 and 1 for the low word,
    then for the high word, the seed's output constants, mix's two factors
    and the shift.  k grows with the words of the master seed and the
    point index only, so the cache holds a handful of entries."""
    return _frozen([_a(k), _a(k + 1), _a(k + 1), _a(k + 2),
                    _a(k + 4), _a(k + 5), _a(k + 5), _a(k + 6),
                    _b(0), _b(1), _b(1), _b(2),
                    _MIX_L, _MIX_L, _MIX_R, _MIX_R, 16, 16])


def _frame_seeds(master_seed, point_idx: int, frame_lo: int, frame_hi: int) -> np.ndarray:
    """``derive_seed(master_seed, point_idx, f)`` for every frame f in
    ``frame_lo .. frame_hi - 1``, hashed in one pass: a (2, F) array of the
    seeds' low and high uint32 words.

    The SeedSequence behind a frame's seed hashes the words of the master
    seed (padded to four), of ``point_idx`` and of f into its pool, in that
    order, so all frames share the pool up to f: numpy's own
    ``SeedSequence(master_seed, spawn_key=(point_idx,))`` gives it.  Only
    f's low word is mixed in here, then, for the frames at 2**32 and above,
    its high word.  The seed is output words 0 and 1, read from pool words
    0 and 1, so only those two are kept.
    """
    prefix = np.random.SeedSequence(master_seed, spawn_key=(point_idx,))
    k = 16 + 4 * (max(4, _words(master_seed)) + _words(point_idx) - 4)
    frames = frame_hi - frame_lo
    c = _rows(_seed_consts(k), frames)
    left, right, shift = c[12:14], c[14:16], c[16:18]
    f = np.arange(frame_lo, frame_hi, dtype="<u8").view("<u4").reshape(frames, 2).T
    pool = _rows(prefix.pool[:2], frames)
    h, tmp = np.empty((2, 2, frames), np.uint32)
    _hashmix(f[0], c[0:2], c[2:4], shift, h, tmp)
    _mix(pool, h, left, right, shift, tmp)
    if frame_hi > 1 << 32:
        # the high word, for the frames at 2**32 and above: a suffix of the batch
        big = slice(max(0, (1 << 32) - frame_lo), None)
        cb, hb, tb = c[:, big], h[:, big], tmp[:, big]
        _hashmix(f[1, big], cb[4:6], cb[6:8], cb[16:18], hb, tb)
        _mix(pool[:, big], hb, cb[12:14], cb[14:16], cb[16:18], tb)
    _hashmix(pool, c[8:10], c[10:12], shift, h, tmp)
    return h


def _key_step(src: int, j: int) -> int:
    """The hashmix step at which pool word (src + 1 + j) % 4 takes word src."""
    dst = (src + 1 + j) % 4
    return 4 + 3 * src + dst - (dst > src)


@functools.cache
def _key_rows() -> np.ndarray:
    """The rows _philox_keys works in, each to be F copies of one value.
    SeedSequence(seed) for a 64-bit seed hashes the entropy (lo, hi, 0, 0).
    Rows 0-9 hold the pool (see there), rows 2 and 3 starting as pool words
    2 and 3 (a hashed zero); rows 10-12 are working space; then the hashmix
    constants of pool words 0 and 1, for each source word the xor and then
    the multiply constants of its three destinations, the output constants,
    mix's two factors and the shift."""
    return _frozen(
        [0, 0, _hashmix_int(0, 2), _hashmix_int(0, 3)] + [0] * 9
        + [_a(0), _a(1), _a(1), _a(2)]
        + [_a(_key_step(src, j) + m) for src in range(4) for m in (0, 1) for j in range(3)]
        + [_b(0), _b(1), _b(2), _b(3), _b(1), _b(2), _b(3), _b(4)]
        + [_MIX_L] * 3 + [_MIX_R] * 3 + [16] * 4)


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """The Philox key ``SeedSequence(seed).generate_state(2, np.uint64)`` of
    every seed in a (2, F) array of low and high uint32 seed words, hashed
    in one pass: an (F, 2) uint64 array.

    The pool's mixing takes each word in turn as the source and mixes it
    into the other three.  Rows 0-3 of the block start as pool words 0-3.
    Source word s goes into rows s+1 .. s+3, its three hashes sit in rows
    s+4 .. s+6 beside them, so that one multiply gives both of mix's
    products, and then a copy of word s moves to row s+4.  So the three
    destinations of word s are always rows s+1 .. s+3, and the final pool
    is rows 4-7.
    """
    frames = seeds.shape[1]
    c = _rows(_key_rows(), frames)
    tmp, shift = c[10:13], c[55:58]
    _hashmix(seeds, c[13:15], c[15:17], shift[:2], c[0:2], tmp[:2])
    for src in range(4):
        at = 17 + 6 * src
        h = c[src + 4:src + 7]
        _hashmix(c[src], c[at:at + 3], c[at + 3:at + 6], shift, h, tmp)
        c[src + 1:src + 7] *= c[49:55]
        dst = c[src + 1:src + 4]
        dst -= h
        np.right_shift(dst, shift, tmp)
        dst ^= tmp
        c[src + 4] = c[src]
    keys = np.empty((frames, 4), "<u4")
    _hashmix(c[4:8], c[41:45], c[45:49], c[55:59], keys.T, c[0:4])
    return keys.view("<u8")


@functools.cache
def _zero_key():
    """A seed sequence that gives a Philox key 0, for a caller that sets
    every key itself: a Philox built from an integer or a SeedSequence
    hashes a key first.  The class is made on first use, because naming
    ``np.random`` imports it, which ``import ldpccc`` leaves to the first
    seeding (about 18 ms)."""

    class ZeroKey(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return ZeroKey()


def frame_llrs(master_seed, point_idx: int, frame_lo: int, frame_hi: int,
               ebno_db: float, rate: float, n: int) -> np.ndarray:
    """Channel LLRs of frames ``frame_lo .. frame_hi - 1`` of SNR point
    ``point_idx``: an (F, n) float64 array, one row per frame.

    Row i is bit for bit ``to_llr(transmit_all_zero(n, config), sigma)``
    for ``config = ChannelConfig(ebno_db, rate, seed=derive_seed(
    master_seed, point_idx, frame_lo + i))``.  The seeds and Philox keys of
    all frames are hashed in one pass; one Philox, set to each frame's key
    in turn, fills the rows; the LLR transform runs once over the batch.
    """
    master_seed = _count("master_seed", master_seed, 0)
    if n < 1:
        raise ValueError("need at least one symbol")
    if not 0 <= frame_lo < frame_hi <= 1 << 64:
        raise ValueError(f"frames must satisfy 0 <= frame_lo < frame_hi <= 2**64, "
                         f"got {frame_lo} .. {frame_hi}")
    sigma = noise_sigma(ChannelConfig(ebno_db, rate, seed=master_seed))
    keys = _philox_keys(_frame_seeds(master_seed, point_idx, frame_lo, frame_hi))
    bit_gen = np.random.Philox(_zero_key())
    rng = np.random.Generator(bit_gen)
    # a frame's stream starts at counter 0 with its buffer empty
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(keys), n))
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        bit_gen.state = state
        rng.standard_normal(out=row)
    # 2 (1 + sigma g) / sigma^2, in transmit_all_zero's and to_llr's order
    out *= sigma
    out += 1.0
    out *= 2.0
    out /= sigma * sigma
    return out
