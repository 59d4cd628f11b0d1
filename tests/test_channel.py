import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ldpccc.channel
from ldpccc.channel import (
    ChannelConfig,
    _frame_seeds,
    _philox_keys,
    derive_seed,
    frame_llrs,
    noise_sigma,
    to_llr,
    transmit_all_zero,
)


def test_config_rejects_bad_rate():
    with pytest.raises(ValueError):
        ChannelConfig(ebno_db=1.0, rate=0.0, seed=0)
    with pytest.raises(ValueError):
        ChannelConfig(ebno_db=1.0, rate=1.0, seed=0)


def test_sigma_half_rate_zero_db():
    assert noise_sigma(ChannelConfig(0.0, 0.5, 0)) == pytest.approx(1.0)


def test_sigma_rate_five_sixths_operating_point():
    # frozen from a 40-digit evaluation of sqrt(1 / (2 R 10^(e/10)))
    cfg = ChannelConfig(3.55, 5.0 / 6.0, 0)
    assert noise_sigma(cfg) == pytest.approx(0.51472543012, abs=1e-9)


def test_sigma_vanishes_at_high_snr():
    assert noise_sigma(ChannelConfig(140.0, 0.5, 0)) < 1e-6


def test_transmit_deterministic():
    cfg = ChannelConfig(2.0, 0.5, seed=123)
    a = transmit_all_zero(4096, cfg)
    b = transmit_all_zero(4096, cfg)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [0, -1])
def test_transmit_rejects_fewer_than_one_symbol(n):
    with pytest.raises(ValueError, match="need at least one symbol"):
        transmit_all_zero(n, ChannelConfig(2.0, 0.5, seed=1))


def test_transmit_noiseless_limit():
    cfg = ChannelConfig(200.0, 0.5, seed=1)
    y = transmit_all_zero(100, cfg)
    assert np.allclose(y, 1.0, atol=1e-8)


def test_transmit_mean_matches_law_of_large_numbers():
    cfg = ChannelConfig(0.0, 0.5, seed=7)  # sigma == 1
    n = 1_000_000
    y = transmit_all_zero(n, cfg)
    assert abs(y.mean() - 1.0) < 4.0 / np.sqrt(n)
    assert abs(y.std() - 1.0) < 0.005


def test_distinct_seeds_uncorrelated():
    n = 1_000_000
    a = transmit_all_zero(n, ChannelConfig(0.0, 0.5, seed=1)) - 1.0
    b = transmit_all_zero(n, ChannelConfig(0.0, 0.5, seed=2)) - 1.0
    rho = float(np.corrcoef(a, b)[0, 1])
    assert abs(rho) < 0.01


def test_derive_seed_stable_and_distinct():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    seeds = {derive_seed(5, i, j) for i in range(4) for j in range(16)}
    assert len(seeds) == 64


def test_llr_basics():
    assert to_llr(np.array([0.0]), 1.0)[0] == 0.0
    assert to_llr(np.array([1.0]), 1.0)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        to_llr(np.array([1.0]), 0.0)


def test_llr_sign_majority_correct_at_high_snr():
    cfg = ChannelConfig(8.0, 0.5, seed=9)
    y = transmit_all_zero(100_000, cfg)
    llr = to_llr(y, noise_sigma(cfg))
    assert (llr > 0).mean() > 0.99


def per_frame_llrs(master, point, frame_lo, frame_hi, ebno_db, rate, n):
    """The slow reference: each frame from its own seed and generator."""
    rows = []
    for frame in range(frame_lo, frame_hi):
        cfg = ChannelConfig(ebno_db, rate, seed=derive_seed(master, point, frame))
        rows.append(to_llr(transmit_all_zero(n, cfg), noise_sigma(cfg)))
    return np.stack(rows)


_masters = st.one_of(
    st.integers(0, 2**260),                       # 1 to 9 words of entropy
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**31 - 1).map(np.int32),
)
_first_frames = st.one_of(
    st.integers(0, 300),
    st.integers(2**32 - 20, 2**32 + 20),          # ranges that cross 2**32
    st.integers(0, 2**64 - 20),
)


@settings(max_examples=60, deadline=None)
@given(master=_masters, point=st.one_of(st.integers(0, 6), st.integers(0, 2**40)),
       frame_lo=_first_frames, frames=st.integers(1, 12), n=st.integers(1, 40),
       ebno_db=st.floats(-5.0, 20.0), rate=st.floats(0.05, 0.95))
@example(master=2**63 + 11, point=0, frame_lo=2**32 - 3, frames=6, n=7, ebno_db=3.0,
         rate=5 / 6)
@example(master=0, point=1, frame_lo=2**32 - 1, frames=1, n=1, ebno_db=0.0, rate=0.5)
@example(master=np.uint64(2**64 - 1), point=2**33, frame_lo=2**64 - 2, frames=2, n=3,
         ebno_db=1.0, rate=0.5)
def test_frame_llrs_equals_the_per_frame_path_bit_for_bit(master, point, frame_lo, frames,
                                                           n, ebno_db, rate):
    frame_hi = frame_lo + frames
    got = frame_llrs(master, point, frame_lo, frame_hi, ebno_db, rate, n)
    want = per_frame_llrs(master, point, frame_lo, frame_hi, ebno_db, rate, n)
    assert got.dtype == np.float64 and got.shape == (frames, n)
    assert got.tobytes() == want.tobytes()
    # the seeds and Philox keys hashed in one pass are numpy's own
    seeds = _frame_seeds(master, point, frame_lo, frame_hi)
    want_seeds = [derive_seed(master, point, f) for f in range(frame_lo, frame_hi)]
    assert [int(lo) | int(hi) << 32 for lo, hi in seeds.T] == want_seeds
    for key, seed in zip(_philox_keys(seeds), want_seeds):
        assert np.array_equal(key, np.random.SeedSequence(seed).generate_state(2, np.uint64))


def test_frame_llrs_rows_do_not_depend_on_the_batch():
    whole = frame_llrs(7, 1, 10, 42, 2.0, 0.5, 64)
    for lo, hi in [(10, 11), (11, 13), (13, 42)]:
        assert np.array_equal(frame_llrs(7, 1, lo, hi, 2.0, 0.5, 64), whole[lo - 10:hi - 10])


@pytest.mark.parametrize("master", [-1, np.int64(-3), -(2**70)])
def test_frame_llrs_rejects_a_negative_master_seed(master):
    with pytest.raises(ValueError):
        frame_llrs(master, 0, 0, 2, 3.0, 0.5, 8)


@pytest.mark.parametrize("frame_lo, frame_hi", [(-1, 2), (3, 3), (5, 4), (0, 2**64 + 1)])
def test_frame_llrs_rejects_a_frame_range_it_cannot_seed(frame_lo, frame_hi):
    with pytest.raises(ValueError, match="frame_lo < frame_hi <= 2\\*\\*64"):
        frame_llrs(1, 0, frame_lo, frame_hi, 3.0, 0.5, 8)


@pytest.mark.parametrize("ebno_db", [math.nan, math.inf, -math.inf])
def test_a_non_finite_ebno_is_rejected_before_any_draw(ebno_db):
    # +inf gave sigma 0 and infinite LLRs with a divide-by-zero warning,
    # -inf and NaN gave NaN LLRs
    with pytest.raises(ValueError, match="ebno_db must be finite"):
        ChannelConfig(ebno_db, 0.5, seed=1)
    with pytest.raises(ValueError, match="ebno_db must be finite"):
        transmit_all_zero(8, ChannelConfig(ebno_db, 0.5, seed=1))
    with pytest.raises(ValueError, match="ebno_db must be finite"):
        frame_llrs(1, 0, 0, 1, ebno_db, 0.5, 8)


@pytest.mark.parametrize("ebno_db", [True, "3.0", None])
def test_an_ebno_that_is_not_a_real_number_is_rejected(ebno_db):
    with pytest.raises(ValueError, match=f"ebno_db must be a real number, got {ebno_db!r}"):
        ChannelConfig(ebno_db, 0.5, seed=1)
    assert noise_sigma(ChannelConfig(np.float64(3.0), 0.5, 1)) == noise_sigma(
        ChannelConfig(3.0, 0.5, 1))


@pytest.mark.parametrize("rate", [True, "0.5", None])
def test_a_rate_that_is_not_a_real_number_is_rejected(rate):
    # "0.5" raised a bare TypeError from the range comparison
    with pytest.raises(ValueError, match=f"rate must be a real number, got {rate!r}"):
        ChannelConfig(3.0, rate, seed=1)
    with pytest.raises(ValueError, match="rate must be in \\(0, 1\\), got 1.5"):
        ChannelConfig(3.0, 1.5, seed=1)
    assert noise_sigma(ChannelConfig(3.0, np.float64(0.5), 1)) == noise_sigma(
        ChannelConfig(3.0, 0.5, 1))


@pytest.mark.parametrize("kind", [np.float32, np.float64])
def test_numpy_settings_give_the_llr_bytes_of_python_floats(kind):
    # an np.float32 setting made sigma float32 arithmetic (0.70794582 against
    # 0.70794578 at 3 dB and rate 1/2), and frame_llrs moved by up to 3.8e-7;
    # a setting is now stored as the Python float of its value
    for ebno_db, rate in [(3.0, 0.5), (2.6, 5 / 6), (-1.3, 0.37)]:
        for numpy_settings in [(kind(ebno_db), kind(rate)), (kind(ebno_db), rate),
                               (ebno_db, kind(rate))]:
            settings = tuple(map(float, numpy_settings))
            cfg = ChannelConfig(*numpy_settings, seed=5)
            assert (type(cfg.ebno_db), type(cfg.rate)) == (float, float)
            assert (cfg.ebno_db, cfg.rate) == settings
            assert noise_sigma(cfg) == noise_sigma(ChannelConfig(*settings, seed=5))
            assert transmit_all_zero(16, cfg).tobytes() == transmit_all_zero(
                16, ChannelConfig(*settings, seed=5)).tobytes()
            assert frame_llrs(1, 0, 0, 3, *numpy_settings, 16).tobytes() == frame_llrs(
                1, 0, 0, 3, *settings, 16).tobytes()


def test_frame_llrs_rejects_what_transmit_all_zero_rejects():
    with pytest.raises(ValueError, match="need at least one symbol"):
        frame_llrs(1, 0, 0, 1, 3.0, 0.5, 0)
    with pytest.raises(ValueError, match="rate must be in"):
        frame_llrs(1, 0, 0, 1, 3.0, 1.0, 8)


def test_importing_the_package_leaves_numpy_random_unloaded():
    # importing numpy.random takes about 18 ms; the first seeding pays it,
    # before the pool forks, so set-up and workers that never seed do not
    src = str(Path(ldpccc.channel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, ldpccc; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
