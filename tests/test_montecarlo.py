"""Simulator tests: statistical agreement with the closed form, bitwise
reproducibility across seeds and lane partitions, and feasibility guards."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from keyhole_harq import montecarlo
from keyhole_harq.analysis import exact_outage, outage_threshold
from keyhole_harq.errors import DomainError, SimulationInfeasibleError
from keyhole_harq.keyhole import SystemConfig
from keyhole_harq.montecarlo import (
    empirical_diversity_slope,
    sample_round_gains,
    simulate_outage,
)


class TestSampleRoundGains:
    def test_shape_and_positivity(self):
        g = sample_round_gains(2, 3, 4, 1000, seed=0)
        assert g.shape == (1000, 4)
        assert np.all(g > 0.0)

    def test_substream_by_trial_index(self):
        # trials [100, 200) drawn in one call must equal the tail of a
        # [0, 200) call: substreams depend only on the global trial index
        full = sample_round_gains(2, 2, 3, 200, seed=42)
        tail = sample_round_gains(2, 2, 3, 100, seed=42, first_trial=100)
        assert np.array_equal(full[100:], tail)

    def test_seed_separation(self):
        a = sample_round_gains(2, 2, 1, 100, seed=1)
        b = sample_round_gains(2, 2, 1, 100, seed=2)
        assert not np.array_equal(a, b)

    def test_round_columns_are_iid(self):
        # same marginal in every round column: compare column means loosely
        g = sample_round_gains(2, 2, 3, 200_000, seed=5)
        sigma = math.sqrt(4.0 * 5.0 / 200_000)
        for j in range(3):
            assert abs(float(g[:, j].mean()) - 4.0) < 4.0 * sigma

    def test_bitwise_equals_row_sums(self):
        # the gains keep the arithmetic of negated logs summed with
        # .sum(axis=2), written out here in full; 129 and 200 reach numpy's
        # recursive halving, 8..40 its eight accumulators
        shapes = list(range(1, 41)) + [129, 200]
        bad = []
        for n_t in shapes:
            for n_r in shapes:
                for k in range(1, 5):
                    got = sample_round_gains(n_t, n_r, k, 5, 17, 1001)
                    want = _row_sum_gains(n_t, n_r, k, 5, 17, 1001)
                    if got.tobytes() != want.tobytes():
                        bad.append((n_t, n_r, k))
        assert bad == []

    def test_fold_matches_numpy_grouping(self):
        # every branch of _sum, and the sizes around its 8 and 128 limits
        rng = np.random.default_rng(0)
        for n in [*range(1, 41), 64, 127, 128, 129, 130, 200, 257]:
            a = np.log1p(-rng.random((64, n)))
            got = montecarlo._sum([a[:, j] for j in range(n)])
            assert got.tobytes() == a.sum(axis=1).tobytes(), n


def _row_sum_gains(n_t, n_r, rounds, trials, seed, first_trial):
    """The gain arithmetic as first written: positive exponentials, one
    numpy reduction per round and side."""
    d = rounds * (n_t + n_r)
    pad = -4 * (-d // 4)
    bitgen = Philox(key=seed)
    bitgen.advance(first_trial * (pad // 4))
    u = Generator(bitgen).random((trials, pad))
    e = -np.log1p(-u[:, :d].reshape(trials, rounds, n_t + n_r))
    return e[:, :, :n_r].sum(axis=2) * e[:, :, n_r:].sum(axis=2)


class TestCountFailures:
    """The column-wise count against ``np.all(g < thresholds, axis=1)``."""

    def _check(self, n_t, n_r, thresholds, trials, first=0, seed=6):
        thresholds = np.array(thresholds, dtype=float)
        g = sample_round_gains(n_t, n_r, len(thresholds), trials, seed, first)
        want = int(np.count_nonzero(np.all(g < thresholds, axis=1)))
        got = montecarlo._count_failures(n_t, n_r, [thresholds], first,
                                         trials, seed)
        assert got == [want]
        return want

    def test_threshold_equal_to_a_drawn_gain(self):
        # strict comparison: the trial whose gain equals its threshold
        # does not fail, in the first round and in a later one
        g = sample_round_gains(2, 3, 2, 4000, 6, 50)
        for col in (0, 1):
            thr = [np.inf, np.inf]
            thr[col] = g[123, col]
            n = self._check(2, 3, thr, 4000, first=50)
            assert n == int(np.count_nonzero(g[:, col] < g[123, col]))
            thr[col] = np.nextafter(thr[col], np.inf)
            assert self._check(2, 3, thr, 4000, first=50) == n + 1

    def test_zero_and_infinite_thresholds(self):
        trials = 2 * montecarlo._BATCH + 5
        assert self._check(1, 2, [0.0], trials) == 0
        assert self._check(1, 2, [np.inf], trials) == trials
        assert self._check(2, 2, [np.inf, 0.0, np.inf], trials) == 0
        assert self._check(2, 2, [np.inf] * 4, trials) == trials

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mixed_round_thresholds(self, k):
        thr = [1.0, 6.0, 2.5, 4.0][:k]
        n = self._check(2, 2, thr, 3 * montecarlo._BATCH + 11, first=7)
        assert n > 0


    def test_every_row_on_one_draw(self):
        # one count per row, each the count of that row alone
        rows = [(1.0, 6.0, 2.5), (0.0, 1.0, 1.0), (np.inf,) * 3,
                (6.0, 2.5, 1.0)]
        trials = 2 * montecarlo._BATCH + 9
        got = montecarlo._count_failures(2, 2, rows, 3, trials, 6)
        assert got == [self._check(2, 2, row, trials, first=3) for row in rows]
        assert got[1] == 0 and got[2] == trials


class TestSimulateCurve:
    """``_simulate``: every point of a curve counted on shared trials."""

    @staticmethod
    def _configs():
        # distinct per-round SNRs at every point, and a rate-0 point whose
        # zero thresholds never fail
        return [SystemConfig(2, 3, 3, rate, (1.5 * j, 4.0 + j, 9.0 / j))
                for j, rate in enumerate([3.0, 0.0, 2.5, 4.0, 3.5], 1)]

    @pytest.mark.parametrize("lanes", [1, 2, 5, 100_000])
    def test_equals_each_point_alone(self, lanes):
        trials = 2 * montecarlo._BATCH + 17
        configs = self._configs()
        got = montecarlo._simulate(configs, trials, 11, lanes)
        want = [simulate_outage(c, trials, seed=11, lanes=1) for c in configs]
        assert got == want
        assert got[1].failures == 0
        assert len({r.failures for r in got}) == len(got)

    def test_first_failing_point_raises_before_any_draw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "sample_round_gains",
                            lambda *a: calls.append(a))
        configs = self._configs()
        configs[2] = replace(configs[2], rate=1023.9)
        configs[4] = replace(configs[4], snr_per_round=(1e-300,) * 3)
        with pytest.raises(DomainError) as got:
            montecarlo._simulate(configs, 1000, 1, 1)
        assert "rate 1023.9" in str(got.value)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            montecarlo._simulate(configs, 1000, -1, 1)
        assert calls == []


class TestSimulateOutage:
    def test_agrees_with_exact(self):
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 2.0)
        want = exact_outage(config).value
        r = simulate_outage(config, 100_000, seed=31)
        assert r.trials == 100_000
        assert r.failures == round(r.estimate * r.trials)
        assert abs(r.estimate - want) <= r.ci_halfwidth
        assert not r.low_confidence

    def test_zero_rate_never_fails(self):
        config = SystemConfig.equal_snr(2, 2, 2, 0.0, 5.0)
        r = simulate_outage(config, 1000, seed=0)
        assert r.failures == 0
        assert r.estimate == 0.0
        assert r.low_confidence

    def test_impossible_rate_always_fails(self):
        config = SystemConfig.equal_snr(1, 1, 1, 200.0, 1.0)
        r = simulate_outage(config, 1000, seed=0)
        assert r.failures == 1000
        assert r.estimate == 1.0

    def test_deterministic_in_seed(self):
        config = SystemConfig.equal_snr(2, 3, 2, 3.0, 5.0)
        a = simulate_outage(config, 50_000, seed=9)
        b = simulate_outage(config, 50_000, seed=9)
        assert a.failures == b.failures
        c = simulate_outage(config, 50_000, seed=10)
        assert c.failures != a.failures

    @pytest.mark.parametrize("lanes", [1, 3, 4, 8])
    def test_lane_invariance(self, lanes):
        # 112689 is deliberately not divisible by the lane counts, forcing
        # uneven partitions; the failure count must not move
        config = SystemConfig.equal_snr(2, 2, 2, 2.0, 4.0)
        r = simulate_outage(config, 112_689, seed=13, lanes=lanes)
        assert r.failures == simulate_outage(config, 112_689, seed=13).failures

    def test_pool_capped_at_usable_cores(self, monkeypatch):
        # a huge lane count keeps its count but runs at most one thread per
        # core, each on one range of the trials; the stub records the pool
        # size and the ranges mapped, and runs them serially, starting no
        # thread
        workers = []
        ranges = []

        class SerialExecutor:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                ranges.append(len(items))
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialExecutor)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 4)
        config = SystemConfig.equal_snr(2, 2, 2, 2.0, 4.0)
        want = simulate_outage(config, 3001, seed=13).failures
        assert want > 0
        r = simulate_outage(config, 3001, seed=13, lanes=100_000)
        assert r.failures == want
        simulate_outage(config, 3001, seed=13, lanes=3)
        assert workers == [1, 4, 3]
        assert ranges == [1, 4, 3]

    def test_batching_invariance(self):
        # several whole internal batches plus a remainder, split so that
        # every lane crosses batch boundaries: the count equals one
        # unbatched pass over the same trials
        config = SystemConfig.equal_snr(1, 1, 1, 1.0, 1.0)
        trials = 11 * montecarlo._BATCH + 17
        g = sample_round_gains(1, 1, 1, trials, seed=3)
        want = int(np.count_nonzero(np.all(g < outage_threshold(config, 1),
                                           axis=1)))
        assert 0 < want < trials
        for lanes in (1, 2, 5, 100_000):
            r = simulate_outage(config, trials, seed=3, lanes=lanes)
            assert r.failures == want, lanes

    def test_low_confidence_flag(self):
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 300.0)
        r = simulate_outage(config, 2000, seed=1)
        assert r.failures < 100
        assert r.low_confidence

    def test_validation(self):
        config = SystemConfig.equal_snr(1, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_outage(config, 0)
        with pytest.raises(ValueError):
            simulate_outage(config, 100, seed=-1)
        with pytest.raises(ValueError):
            simulate_outage(config, 100, lanes=0)


class TestCommonRandomNumbers:
    def test_more_rounds_never_hurt_on_shared_draws(self):
        # on one gain matrix, adding rounds can only rescue trials: the
        # per-trial outage indicator is monotone in the round budget
        config = SystemConfig.equal_snr(2, 2, 3, 3.0, 10.0)
        t = config.n_t * (2.0 ** config.rate - 1.0)
        g = sample_round_gains(2, 2, 3, 100_000, seed=8)
        thr = np.array([t / s for s in config.snr_per_round])
        fails = [
            int(np.count_nonzero(np.all(g[:, :k] < thr[:k], axis=1)))
            for k in (1, 2, 3)
        ]
        assert fails[0] >= fails[1] >= fails[2]
        assert fails[2] > 0


class TestEmpiricalDiversitySlope:
    def test_exact_asymmetric(self):
        config = SystemConfig.equal_snr(2, 3, 2, 3.0, 1.0)
        slope = empirical_diversity_slope(config, [50.0 + 2.0 * i for i in range(6)])
        assert abs(slope - 4.0) < 0.05 * 4.0

    def test_exact_scalar(self):
        config = SystemConfig.equal_snr(1, 1, 1, 3.0, 1.0)
        slope = empirical_diversity_slope(config, [60.0 + 2.0 * i for i in range(6)])
        assert 0.8 <= slope <= 1.2

    def test_simulation_route_runs(self):
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 1.0)
        slope = empirical_diversity_slope(
            config, [0.0, 2.0, 4.0, 6.0], method="simulation",
            trials=20_000, seed=4,
        )
        assert math.isfinite(slope)
        assert slope > 0.0

    def test_simulation_infeasible(self):
        config = SystemConfig.equal_snr(2, 3, 2, 3.0, 1.0)
        with pytest.raises(SimulationInfeasibleError) as exc_info:
            empirical_diversity_slope(
                config, [50.0, 55.0, 60.0], method="simulation", trials=10_000
            )
        need = exc_info.value.required_trials
        p_top = exact_outage(
            SystemConfig.equal_snr(2, 3, 2, 3.0, 1e6)
        ).value
        assert need == math.ceil(100.0 / p_top)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_simulation_rejects_trials_below_one(self, trials):
        # simulate_outage's check comes before the feasibility estimate
        config = SystemConfig.equal_snr(2, 3, 2, 3.0, 1.0)
        with pytest.raises(ValueError) as got:
            empirical_diversity_slope(config, [50.0, 55.0, 60.0],
                                      method="simulation", trials=trials)
        assert type(got.value) is DomainError
        assert str(got.value) == f"trials must be >= 1, got {trials}"

    def test_grid_validation(self):
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            empirical_diversity_slope(config, [50.0])
        with pytest.raises(ValueError):
            empirical_diversity_slope(config, [50.0, 50.0])
        with pytest.raises(ValueError):
            empirical_diversity_slope(config, [50.0, 60.0], method="bogus")
