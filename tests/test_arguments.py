"""The argument contract of every public entry point.

Counts (antenna counts, rounds, trials, seeds, lanes, orders, indices) are
integers with a least value; reals (rates, SNRs, gains, x) are finite and
>= 0, or > 0. A bad argument raises ``DomainError``, a ``ValueError``,
whose message starts with the argument's name: never a ``TypeError``, an
``IndexError`` or an answer.
"""

import math

import numpy as np
import pytest

from keyhole_harq import (
    DomainError,
    SystemConfig,
    bessel_k_scaled,
    empirical_diversity_slope,
    gain_pdf,
    meijer_g_cdf,
    meijer_g_log_cdf,
    mutual_information_round,
    outage_curve,
    outage_threshold,
    sample_channel,
    sample_round_gains,
    simulate_outage,
)

CONFIG = SystemConfig.equal_snr(2, 2, 2, 1.0, 10.0)

CASES = {
    "draws-n_t-0": ("n_t", lambda: sample_round_gains(0, 2, 1, 3, seed=1)),
    "draws-n_t-float": ("n_t", lambda: sample_round_gains(1.5, 2, 1, 3, 1)),
    "draws-seed-float": ("seed", lambda: sample_round_gains(2, 2, 1, 3, 1.5)),
    "draws-first-trial": ("first_trial", lambda: sample_round_gains(
        2, 2, 1, 3, seed=1, first_trial=-1)),
    "simulate-trials-float": ("trials", lambda: simulate_outage(CONFIG, 1.5)),
    "simulate-lanes-float": ("lanes", lambda: simulate_outage(
        CONFIG, 100, lanes=2.0)),
    "slope-trials-float": ("trials", lambda: empirical_diversity_slope(
        CONFIG, [10.0, 20.0], method="simulation", trials=1.5)),
    "mi-n_t-float": ("n_t", lambda: mutual_information_round(1.0, 5.0, 2.5)),
    "channel-n_t-0": ("n_t", lambda: sample_channel(
        0, 2, np.random.default_rng(0))),
    "threshold-index-float": ("round_index", lambda: outage_threshold(
        CONFIG, 1.0)),
    "config-rate-none": ("rate", lambda: SystemConfig(2, 2, 1, None, (10.0,))),
    "draws-n_r-0": ("n_r", lambda: sample_round_gains(2, 0, 1, 3, 1)),
    "draws-rounds-0": ("rounds", lambda: sample_round_gains(2, 2, 0, 3, 1)),
    "draws-trials-negative": ("trials", lambda: sample_round_gains(
        2, 2, 1, -1, 1)),
    "simulate-trials-0": ("trials", lambda: simulate_outage(CONFIG, 0)),
    "simulate-seed-negative": ("seed", lambda: simulate_outage(
        CONFIG, 100, seed=-1)),
    "simulate-lanes-0": ("lanes", lambda: simulate_outage(
        CONFIG, 100, lanes=0)),
    "mi-x-gain-negative": ("x_gain", lambda: mutual_information_round(
        -1.0, 5.0, 2)),
    "mi-snr-0": ("snr", lambda: mutual_information_round(1.0, 0.0, 2)),
    "mi-snr-nan": ("snr", lambda: mutual_information_round(1.0, math.nan, 2)),
    "channel-n_r-float": ("n_r", lambda: sample_channel(
        2, 2.0, np.random.default_rng(0))),
    "threshold-index-0": ("round_index", lambda: outage_threshold(CONFIG, 0)),
    "threshold-index-past-k": ("round_index", lambda: outage_threshold(
        CONFIG, 3)),
    "config-n_t-0": ("n_t", lambda: SystemConfig(0, 2, 1, 1.0, (10.0,))),
    "config-k-float": ("k_rounds", lambda: SystemConfig(
        2, 2, 1.5, 1.0, (10.0,))),
    "config-rate-negative": ("rate", lambda: SystemConfig(
        2, 2, 1, -1, (10.0,))),
    "config-rate-inf": ("rate", lambda: SystemConfig(
        2, 2, 1, math.inf, (10.0,))),
    "config-snr-0": ("per-round SNR", lambda: SystemConfig(
        2, 2, 1, 1.0, (0.0,))),
    "curve-n_t-float": ("n_t", lambda: outage_curve(2.5, 2, 1, 1.0, (10.0,))),
    "curve-k-0": ("k_rounds", lambda: outage_curve(2, 2, 0, 1.0, ())),
    "cdf-n_t-float": ("n_t", lambda: meijer_g_log_cdf(2.0, 2, 1.0)),
    "cdf-n_r-0": ("n_r", lambda: meijer_g_log_cdf(2, 0, 1.0)),
    "cdf-x-negative": ("x", lambda: meijer_g_log_cdf(2, 2, -1.0)),
    "cdf-x-nan": ("x", lambda: meijer_g_cdf(2, 2, math.nan)),
    "pdf-n_t-0": ("n_t", lambda: gain_pdf(0, 2, 1.0)),
    "pdf-x-inf": ("x", lambda: gain_pdf(2, 2, math.inf)),
    "bessel-order-negative": ("order", lambda: bessel_k_scaled(-1, 1.0)),
    "bessel-order-float": ("order", lambda: bessel_k_scaled(1.5, 1.0)),
    "bessel-x-0": ("x", lambda: bessel_k_scaled(0, 0.0)),
}


@pytest.mark.parametrize("name,call", CASES.values(), ids=CASES.keys())
def test_bad_argument_named(name, call):
    with pytest.raises(DomainError) as got:
        call()
    assert str(got.value).startswith(f"{name} must be "), got.value


def test_messages_quote_the_value_as_given():
    with pytest.raises(DomainError, match=r"^rate must be finite and >= 0, "
                                          r"got -1$"):
        SystemConfig(2, 2, 1, -1, (10.0,))
    with pytest.raises(DomainError, match=r"^trials must be >= 1, got -5$"):
        simulate_outage(CONFIG, -5)
    with pytest.raises(DomainError, match=r"^seed must be an integer, "
                                          r"got 1\.5$"):
        sample_round_gains(2, 2, 1, 3, 1.5)


def test_empty_draw_is_an_answer():
    assert sample_round_gains(2, 2, 3, 0, seed=1, first_trial=5).shape == (0, 3)
