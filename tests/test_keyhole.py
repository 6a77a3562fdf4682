"""Channel model tests: configuration validation, rank-one structure,
distributional checks of the sampled gain, and the per-round mutual
information behind the outage threshold."""

import math

import numpy as np
import pytest

from keyhole_harq.analysis import outage_threshold
from keyhole_harq.keyhole import (
    SystemConfig,
    mutual_information_round,
    sample_channel,
)
from keyhole_harq.montecarlo import sample_round_gains
from keyhole_harq.specfun import meijer_g_cdf

# KS critical value at significance 0.001 for large n is 1.94947 / sqrt(n)
KS_CRIT_SCALE = 1.94947


class TestSystemConfig:
    def test_round_trip(self):
        c = SystemConfig(2, 3, 2, 1.5, (4.0, 9.0))
        assert (c.n_t, c.n_r, c.k_rounds, c.rate) == (2, 3, 2, 1.5)
        assert c.snr_per_round == (4.0, 9.0)
        assert c.tau == 1

    def test_equal_snr(self):
        c = SystemConfig.equal_snr(3, 3, 4, 2.0, 10.0)
        assert c.snr_per_round == (10.0, 10.0, 10.0, 10.0)
        assert c.tau == 0

    def test_snr_list_is_coerced_to_tuple(self):
        c = SystemConfig(1, 1, 2, 1.0, [1.0, 2.0])
        assert c.snr_per_round == (1.0, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_t=0, n_r=1, k_rounds=1, rate=1.0, snr_per_round=(1.0,)),
            dict(n_t=2.5, n_r=1, k_rounds=1, rate=1.0, snr_per_round=(1.0,)),
            dict(n_t=1, n_r=-1, k_rounds=1, rate=1.0, snr_per_round=(1.0,)),
            dict(n_t=1, n_r=1, k_rounds=0, rate=1.0, snr_per_round=()),
            dict(n_t=1, n_r=1, k_rounds=1, rate=-0.5, snr_per_round=(1.0,)),
            dict(n_t=1, n_r=1, k_rounds=1, rate=math.inf, snr_per_round=(1.0,)),
            dict(n_t=1, n_r=1, k_rounds=2, rate=1.0, snr_per_round=(1.0,)),
            dict(n_t=1, n_r=1, k_rounds=1, rate=1.0, snr_per_round=(0.0,)),
            dict(n_t=1, n_r=1, k_rounds=1, rate=1.0, snr_per_round=(-2.0,)),
            dict(n_t=1, n_r=1, k_rounds=1, rate=1.0, snr_per_round=(math.nan,)),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)


class TestSampleChannel:
    def test_shapes_and_gain(self):
        rng = np.random.default_rng(11)
        d = sample_channel(3, 2, rng)
        assert d.u.shape == (2,) and d.v.shape == (3,)
        assert np.iscomplexobj(d.u) and np.iscomplexobj(d.v)
        want = float(np.vdot(d.u, d.u).real * np.vdot(d.v, d.v).real)
        assert d.x_gain == pytest.approx(want, rel=1e-12)

    def test_deterministic_given_rng_state(self):
        a = sample_channel(2, 2, np.random.default_rng(5))
        b = sample_channel(2, 2, np.random.default_rng(5))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert a.x_gain == b.x_gain

    def test_rank_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = sample_channel(3, 4, rng)
            h = np.outer(d.u, d.v.conj())
            s = np.linalg.svd(h, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    def test_entry_variance(self):
        # CN(0,1) entries: Re and Im each N(0, 1/2)
        rng = np.random.default_rng(3)
        zs = np.concatenate(
            [sample_channel(4, 4, rng).u for _ in range(4000)]
        )
        assert np.var(zs.real) == pytest.approx(0.5, rel=0.05)
        assert np.var(zs.imag) == pytest.approx(0.5, rel=0.05)
        assert abs(np.mean(zs.real)) < 0.02


class TestGainDistribution:
    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 2), (2, 3)])
    def test_kolmogorov_smirnov(self, n_t, n_r):
        n = 100_000
        xs = np.sort(sample_round_gains(n_t, n_r, 1, n, seed=2026)[:, 0])
        cdf = np.array([meijer_g_cdf(n_t, n_r, float(x)) for x in xs])
        i = np.arange(1, n + 1)
        d_plus = float(np.max(i / n - cdf))
        d_minus = float(np.max(cdf - (i - 1) / n))
        d_stat = max(d_plus, d_minus)
        assert d_stat < KS_CRIT_SCALE / math.sqrt(n)

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 3), (4, 4)])
    def test_first_two_moments(self, n_t, n_r):
        n = 1_000_000
        xs = sample_round_gains(n_t, n_r, 1, n, seed=99)[:, 0]
        mean = n_t * n_r
        var = n_t * n_r * (n_t + n_r + 1)
        assert abs(float(np.mean(xs)) - mean) < 3.0 * math.sqrt(var / n)
        # E[X^2] with a 4-sigma budget from the fourth moment
        m2 = mean * mean + var
        m4 = (n_t * (n_t + 1) * (n_t + 2) * (n_t + 3)
              * n_r * (n_r + 1) * (n_r + 2) * (n_r + 3))
        assert abs(float(np.mean(xs * xs)) - m2) < 4.0 * math.sqrt((m4 - m2 * m2) / n)

    def test_vector_sampler_agrees_with_gain_matrix_marginal(self):
        # the vector-level sampler and the vectorized exponential-sum
        # sampler draw from the same distribution (KS at alpha = 0.001)
        n = 20_000
        rng = np.random.default_rng(17)
        a = np.sort([sample_channel(2, 2, rng).x_gain for _ in range(n)])
        cdf = np.array([meijer_g_cdf(2, 2, float(x)) for x in a])
        i = np.arange(1, n + 1)
        d_stat = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
        assert d_stat < KS_CRIT_SCALE / math.sqrt(n)


class TestMutualInformation:
    def test_scalar_collapse_matches_log_det(self):
        # log2 det(I + (snr/n_t) H H^H) must equal the rank-one closed form
        rng = np.random.default_rng(23)
        for n_t, n_r in ((2, 2), (3, 2), (2, 4)):
            d = sample_channel(n_t, n_r, rng)
            h = np.outer(d.u, d.v.conj())
            snr = 7.3
            m = np.eye(n_r) + (snr / n_t) * (h @ h.conj().T)
            sign, logdet = np.linalg.slogdet(m)
            assert sign == pytest.approx(1.0)
            want = logdet / math.log(2.0)
            got = mutual_information_round(d.x_gain, snr, n_t)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("config", [
        SystemConfig(2, 2, 3, 3.0, (3.1, 10.0, 47.0)),
        SystemConfig(2, 5, 2, 0.75, (0.7, 12.5)),
        SystemConfig(4, 1, 2, 5.0, (20.0, 300.0)),
    ])
    def test_threshold_is_where_round_reaches_rate(self, config):
        # exact_outage and the simulator's gain < threshold test both rest
        # on I_k(x) < R  <=>  x < outage_threshold(config, k)
        for k, snr in enumerate(config.snr_per_round, start=1):
            t = outage_threshold(config, k)
            at = mutual_information_round(t, snr, config.n_t)
            assert abs(at - config.rate) <= 1e-12 * config.rate
            below = mutual_information_round(t * (1.0 - 1e-9), snr, config.n_t)
            above = mutual_information_round(t * (1.0 + 1e-9), snr, config.n_t)
            assert below < config.rate < above

    def test_zero_gain(self):
        assert mutual_information_round(0.0, 5.0, 2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information_round(-1.0, 5.0, 2)
        with pytest.raises(ValueError):
            mutual_information_round(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            mutual_information_round(1.0, 5.0, 0)
        with pytest.raises(ValueError):
            mutual_information_round(math.nan, 5.0, 2)

