import numpy as np
import pytest

from ldpccc.channel import (
    ChannelConfig,
    derive_seed,
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
