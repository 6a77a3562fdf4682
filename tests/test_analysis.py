"""Tests for the closed-form outage machinery: thresholds, the exact
product form, the high-SNR asymptote, diversity order and coding gain."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyhole_harq import analysis
from keyhole_harq.analysis import (
    asymptotic_outage,
    coding_gain,
    diversity_order,
    exact_outage,
    outage_curve,
    outage_threshold,
)
from keyhole_harq.errors import DomainError, UnsupportedConfigError
from keyhole_harq.keyhole import SystemConfig
from keyhole_harq.specfun import meijer_g_log_cdf

from _reference import outage_exact, square_bracket

# frozen single-round CDF value F(x=1) for n_t = n_r = 2 (50-digit oracle)
CDF_22_AT_1 = 0.21274872723484341956
SQRT2_OVER_14 = 0.10101525445522107491


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class TestOutageThreshold:
    def test_hand_value(self):
        config = SystemConfig.equal_snr(2, 3, 1, 3.0, 10.0)
        # n_t (2^R - 1) / snr = 2 * 7 / 10
        assert outage_threshold(config, 1) == pytest.approx(1.4, rel=1e-15)

    def test_per_round_snrs(self):
        config = SystemConfig(1, 1, 2, 1.0, (2.0, 8.0))
        assert outage_threshold(config, 1) == pytest.approx(0.5, rel=1e-15)
        assert outage_threshold(config, 2) == pytest.approx(0.125, rel=1e-15)

    def test_round_index_bounds(self):
        config = SystemConfig.equal_snr(2, 2, 2, 1.0, 1.0)
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                outage_threshold(config, bad)

    def test_overflow_in_product_raises(self):
        # 2^R - 1 is finite at R = 1023.9 but n_t times it is not
        config = SystemConfig.equal_snr(16, 3, 1, 1023.9, 10.0)
        with pytest.raises(DomainError, match="outage threshold"):
            outage_threshold(config, 1)
        with pytest.raises(DomainError, match="outage threshold"):
            asymptotic_outage(config)


class TestExactOutage:
    def test_single_round_frozen_value(self):
        # threshold 2 (2^1 - 1) / 2 = 1
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 2.0)
        assert rel_err(exact_outage(config).value, CDF_22_AT_1) < 1e-13

    def test_equal_rounds_power(self):
        config = SystemConfig.equal_snr(2, 2, 3, 1.0, 2.0)
        assert rel_err(exact_outage(config).value, CDF_22_AT_1 ** 3) < 1e-12

    def test_product_structure(self):
        config = SystemConfig(2, 3, 2, 2.5, (3.0, 11.0))
        want = sum(
            meijer_g_log_cdf(2, 3, outage_threshold(config, k)) for k in (1, 2)
        )
        assert exact_outage(config).log_value == pytest.approx(want, rel=1e-14)

    @pytest.fixture
    def cdf_calls(self, monkeypatch):
        calls = []

        def counted(n_t, n_r, x):
            calls.append(x)
            return meijer_g_log_cdf(n_t, n_r, x)

        monkeypatch.setattr(analysis, "meijer_g_log_cdf", counted)
        return calls

    @pytest.mark.parametrize("n_t,n_r,snrs", [
        (2, 2, (10.0,) * 4),
        (16, 9, (3.0,) * 4),
        (2, 2, (2.0, 10.0, 31.6, 1e3)),
        (3, 5, (1.5, 7.0, 40.0, 1e4)),
    ])
    def test_one_cdf_per_distinct_threshold(self, cdf_calls, n_t, n_r, snrs):
        config = SystemConfig(n_t, n_r, len(snrs), 3.0, snrs)
        got = exact_outage(config).log_value
        assert len(cdf_calls) == len(set(snrs))
        want = 0.0
        for k in range(1, len(snrs) + 1):
            want += meijer_g_log_cdf(n_t, n_r, outage_threshold(config, k))
        assert got == want  # bitwise: same values, same round order

    def test_repeated_threshold_keeps_round_order(self, cdf_calls):
        config = SystemConfig(2, 3, 3, 2.5, (3.0, 11.0, 3.0))
        v1, v2 = (meijer_g_log_cdf(2, 3, outage_threshold(config, k))
                  for k in (1, 2))
        assert exact_outage(config).log_value == 0.0 + v1 + v2 + v1
        assert len(cdf_calls) == 2

    def test_against_independent_oracle(self):
        config = SystemConfig(2, 3, 2, 3.0, (3.1622776601683795, 3.1622776601683795))
        want = outage_exact(2, 3, [(3.0, g) for g in config.snr_per_round])
        assert rel_err(exact_outage(config).value, want) < 1e-10

    def test_zero_rate(self):
        config = SystemConfig.equal_snr(2, 2, 2, 0.0, 5.0)
        p = exact_outage(config)
        assert p.value == 0.0 and p.log_value == -math.inf

    def test_log_carrier_survives_underflow(self):
        # 3 rounds deep in the high-SNR regime: the linear value underflows
        # float64 but the log field keeps the full information
        config = SystemConfig.equal_snr(4, 4, 3, 1.0, 1e30)
        p = exact_outage(config)
        assert p.value == 0.0
        assert math.isfinite(p.log_value)
        assert p.log_value < -700.0


def _bits(v):
    return None if v is None else struct.pack("<d", v)


def _one_point_logs(n_t, n_r, k, rate, snrs):
    config = SystemConfig(n_t, n_r, k, rate, snrs)
    exact = exact_outage(config).log_value
    try:
        asy = asymptotic_outage(config).log_value
    except DomainError:
        asy = None
    return _bits(exact), _bits(asy)


def _assert_curve_matches_one_point(n_t, n_r, k, points):
    got = [(_bits(e), _bits(a)) for e, a in outage_curve(n_t, n_r, k, points)]
    want = [_one_point_logs(n_t, n_r, k, rate, snrs) for rate, snrs in points]
    assert got == want, (n_t, n_r, k)


def _assert_same_error(n_t, n_r, k, points):
    """outage_curve raises what the one-point calls in axis order raise."""
    with pytest.raises(ValueError) as want:
        for rate, snrs in points:
            exact_outage(SystemConfig(n_t, n_r, k, rate, snrs))
    with pytest.raises(ValueError) as got:
        list(outage_curve(n_t, n_r, k, points))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# -3 dB and 0 dB give square arrays a blank asymptote
SNR_DB = [-3.0] + [0.5 * i for i in range(141)]


class TestOutageCurve:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_snr_axis_equals_one_point_calls(self, k):
        for n_t in range(1, 17):
            for n_r in range(1, 17):
                rate = 0.5 * ((3 * n_t + 5 * n_r + k) % 12)  # 0 included
                points = [(rate, (10.0 ** (db / 10.0),) * k) for db in SNR_DB]
                _assert_curve_matches_one_point(n_t, n_r, k, points)

    @pytest.mark.parametrize("n_t,n_r,gammas_db", [
        (2, 2, (3.0, 9.0)),
        (2, 2, (-1.0, 7.5, 7.5, 12.0)),
        (3, 5, (0.0, 4.0, 11.0)),
        (16, 9, (2.0, 6.0, 2.0, 20.0)),
        (1, 1, (30.0,)),
    ])
    def test_rate_axis_with_mixed_snrs(self, n_t, n_r, gammas_db):
        # as sweep-rate passes them: the rate changes at every point, the
        # per-round SNRs stay fixed
        snrs = tuple(10.0 ** (g / 10.0) for g in gammas_db)
        points = [(0.25 * i, snrs) for i in range(25)]
        _assert_curve_matches_one_point(n_t, n_r, len(snrs), points)

    @pytest.mark.parametrize("n,rate", [(2, 515.0), (2, 683.0), (4, 259.0)])
    def test_overflowing_asymptote_is_none(self, n, rate):
        points = [(rate, (10.0,))]
        (_, asy), = outage_curve(n, n, 1, points)
        assert asy is None
        _assert_curve_matches_one_point(n, n, 1, points)

    @pytest.mark.parametrize("n_t,n_r,k,points", [
        (0, 2, 1, [(3.0, (10.0,))]),
        (2, 2.5, 1, [(3.0, (10.0,))]),
        (2, 2, 0, [(3.0, ())]),
        (2, 2, 2, [(3.0, (10.0,))]),
        (2, 2, 1, [(-1.0, (10.0,))]),
        (2, 2, 1, [(3.0, (10.0,)), (math.nan, (10.0,))]),
        (2, 2, 1, [(3.0, (10.0,)), (3.0, (0.0,))]),
        (2, 2, 1, [(3.0, (10.0,)), (3.0, (math.inf,))]),
    ])
    def test_rejects_with_system_config_messages(self, n_t, n_r, k, points):
        with pytest.raises(ValueError) as want:
            for rate, snrs in points:
                SystemConfig(n_t, n_r, k, rate, snrs)
        with pytest.raises(ValueError) as got:
            list(outage_curve(n_t, n_r, k, points))
        assert str(got.value) == str(want.value)

    def test_asymptote_keeps_one_point_grouping(self):
        # the pre-curve per-point expressions, evaluated in full at each
        # point: hoisting the shape constants must not move a bit
        for n_t in range(1, 17):
            for n_r in range(1, 17):
                tau, m = abs(n_t - n_r), min(n_t, n_r)
                for snr in (1.5, 10.0, 1e3, 1e7):
                    t = n_t * (2.0 ** 2.5 - 1.0) / snr
                    if tau == 0:
                        want = (n_t * math.log(t) + math.log(math.log(snr))
                                - math.log(n_t) - 2.0 * math.lgamma(n_t))
                    else:
                        want = (math.lgamma(tau) - math.lgamma(n_t)
                                - math.lgamma(n_r) + m * math.log(t)
                                - math.log(m))
                    config = SystemConfig.equal_snr(n_t, n_r, 1, 2.5, snr)
                    got = asymptotic_outage(config).log_value
                    assert _bits(got) == _bits(0.0 + want), (n_t, n_r, snr)

    def test_exact_errors_propagate(self):
        # an outage threshold past float64 is an error of the exact column
        with pytest.raises(DomainError, match="outage threshold"):
            list(outage_curve(2, 2, 1, [(3.0, (10.0,)), (1024.0, (10.0,))]))

    # point 3 (0-based) and point 5 each fail; the one-point loop in axis
    # order meets point 3 first, whichever kind of error it is
    CDF_EDGE = (68.0, (10.0,))            # 16x16: gain CDF beyond float64
    THRESHOLD_EDGE = (1024.0, (10.0,))    # 2^R overflows
    BAD_SNR = (3.0, (0.0,))
    BAD_RATE = (-1.0, (10.0,))

    @pytest.mark.parametrize("third,fifth", [
        (CDF_EDGE, BAD_SNR), (BAD_SNR, CDF_EDGE),
        (THRESHOLD_EDGE, BAD_RATE), (BAD_RATE, THRESHOLD_EDGE),
        (CDF_EDGE, THRESHOLD_EDGE), (BAD_SNR, BAD_RATE),
    ])
    def test_first_failing_point_wins(self, third, fifth):
        ok = (3.0, (10.0,))
        points = [ok, ok, ok, third, ok, fifth, ok]
        _assert_same_error(16, 16, 1, points)

    @pytest.mark.parametrize("snrs", [(10.0, 0.5), (0.5, 10.0), (0.5, 0.5)])
    def test_first_failing_round_wins(self, snrs):
        # at 16x16, rate 1019 the threshold overflows at snr 0.5 and the
        # CDF is beyond float64 at snr 10
        _assert_same_error(16, 16, 2, [(3.0, (10.0, 10.0)), (1019.0, snrs)])

    def test_points_iterator_error_after_a_domain_error(self):
        def points():
            yield 68.0, (10.0,)
            raise DomainError("SNR 4000.0 dB overflows float64")

        with pytest.raises(DomainError, match="gain CDF"):
            list(outage_curve(16, 16, 1, points()))

    def test_shape_past_lgamma_reach(self):
        # lgamma(tau) overflows exp for tau = 199: every x > 0 is refused
        _assert_same_error(200, 1, 1, [(3.0, (10.0,))])
        (exact, asy), = outage_curve(200, 1, 1, [(0.0, (10.0,))])
        assert exact == -math.inf

    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (2, 2)])
    def test_underflowed_threshold(self, n_t, n_r):
        # 2^R - 1 rounds to 0 for R = 1e-17: every threshold is 0, as at
        # rate 0, so both logs are -inf
        config = SystemConfig(n_t, n_r, 2, 1e-17, (10.0, 100.0))
        assert asymptotic_outage(config).log_value == -math.inf
        assert exact_outage(config).log_value == -math.inf
        points = [(1e-17, (10.0, 100.0)), (1e-17, (1e300, 1e300))]
        _assert_curve_matches_one_point(n_t, n_r, 2, points)


class TestAsymptoticOutage:
    def test_hand_value_asymmetric(self):
        # t = 2(2-1)/100 per round; tau=1, m=2:
        # per round Gamma(1) t^2 / (Gamma(2) Gamma(3) 2) = 1e-4
        config = SystemConfig.equal_snr(2, 3, 2, 1.0, 100.0)
        assert rel_err(asymptotic_outage(config).value, 1e-8) < 1e-12

    def test_shape_swap_invariance(self):
        a = SystemConfig.equal_snr(2, 3, 1, 3.0, 50.0)
        b = SystemConfig.equal_snr(3, 2, 1, 3.0, 50.0)
        # t changes with n_t, so compare the configurations where both m
        # and the threshold agree: tau and the Gamma product are symmetric
        got_a = asymptotic_outage(a).value
        want_a = math.exp(
            0.0 - math.lgamma(2) - math.lgamma(3)
            + 2.0 * math.log(2.0 * 7.0 / 50.0) - math.log(2.0)
        )
        assert rel_err(got_a, want_a) < 1e-12
        want_b = math.exp(
            0.0 - math.lgamma(2) - math.lgamma(3)
            + 2.0 * math.log(3.0 * 7.0 / 50.0) - math.log(2.0)
        )
        assert rel_err(asymptotic_outage(b).value, want_b) < 1e-12

    def test_hand_value_square(self):
        # t = 0.02, n = 2: t^2 ln(100) / (2 Gamma(2)^2)
        config = SystemConfig.equal_snr(2, 2, 1, 1.0, 100.0)
        want = 0.02**2 * math.log(100.0) / 2.0
        assert rel_err(asymptotic_outage(config).value, want) < 1e-12

    def test_square_needs_snr_above_one(self):
        for g in (1.0, 0.5):
            config = SystemConfig.equal_snr(2, 2, 1, 1.0, g)
            with pytest.raises(DomainError):
                asymptotic_outage(config)

    def test_square_snr_check_precedes_rate_zero(self):
        config = SystemConfig.equal_snr(2, 2, 1, 0.0, 0.5)
        with pytest.raises(DomainError):
            asymptotic_outage(config)

    def test_zero_rate_asymmetric(self):
        config = SystemConfig.equal_snr(2, 3, 2, 0.0, 10.0)
        assert asymptotic_outage(config).value == 0.0

    def test_ratio_approaches_one(self):
        # the defining property of the leading term
        ratios = []
        for db in (30.0, 45.0, 60.0):
            c = SystemConfig.equal_snr(2, 3, 1, 3.0, 10.0 ** (db / 10.0))
            ratios.append(exact_outage(c).value / asymptotic_outage(c).value)
        assert abs(ratios[-1] - 1.0) < 0.01
        assert abs(ratios[0] - 1.0) > abs(ratios[1] - 1.0) > abs(ratios[2] - 1.0)

    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (3, 3)])
    def test_per_round_terms_add_in_round_order(self, n_t, n_r):
        # one-round configurations give each round's term alone (0.0 + v)
        snrs = (30.0, 500.0, 30.0, 30.0)
        v = {g: asymptotic_outage(SystemConfig.equal_snr(n_t, n_r, 1, 3.0, g))
             .log_value for g in set(snrs)}
        want = 0.0
        for g in snrs:
            want += v[g]
        config = SystemConfig(n_t, n_r, len(snrs), 3.0, snrs)
        assert asymptotic_outage(config).log_value == want

    def test_log_slope_is_exact_for_asymmetric_arrays(self):
        # the tau > 0 asymptote is a pure power law: decade-per-decade slope
        # equals K * min(n_t, n_r) to roundoff
        k, m = 2, 2
        c50 = SystemConfig.equal_snr(2, 3, k, 3.0, 1e5)
        c60 = SystemConfig.equal_snr(2, 3, k, 3.0, 1e6)
        drop = (asymptotic_outage(c50).log_value - asymptotic_outage(c60).log_value)
        assert drop / math.log(10.0) == pytest.approx(k * m, rel=1e-12)


class TestDiversityAndCodingGain:
    def test_diversity_order(self):
        assert diversity_order(SystemConfig.equal_snr(2, 3, 2, 3.0, 1.0)) == 4
        assert diversity_order(SystemConfig.equal_snr(2, 2, 3, 3.0, 1.0)) == 6
        assert diversity_order(SystemConfig.equal_snr(4, 1, 5, 3.0, 1.0)) == 5

    def test_square_reference_value(self):
        config = SystemConfig.equal_snr(2, 2, 1, 3.0, 1.0)
        assert rel_err(coding_gain(config), SQRT2_OVER_14) < 1e-12

    def test_scalar_array_closed_form(self):
        # n = 1 collapses to 1 / (2^R - 1)
        config = SystemConfig.equal_snr(1, 1, 1, 1.0, 1.0)
        assert coding_gain(config) == pytest.approx(1.0, rel=1e-14)

    def test_strictly_decreasing_in_rate(self):
        rates = [0.5 + 0.25 * i for i in range(23)]
        gains = [
            coding_gain(SystemConfig.equal_snr(3, 3, 1, r, 1.0)) for r in rates
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rectangular_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            coding_gain(SystemConfig.equal_snr(2, 3, 1, 3.0, 1.0))

    def test_zero_rate_rejected(self):
        with pytest.raises(DomainError):
            coding_gain(SystemConfig.equal_snr(2, 2, 1, 0.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        rate=st.floats(min_value=0.05, max_value=12.0),
        snr_db=st.floats(min_value=3.0, max_value=80.0),
    )
    def test_coding_gain_consistent_with_asymptote(self, n, rate, snr_db):
        # for square arrays the asymptote factors as
        # (C(R) gamma)^(-n K) (ln gamma)^K with K = 1 here
        snr = 10.0 ** (snr_db / 10.0)
        config = SystemConfig.equal_snr(n, n, 1, rate, snr)
        c = coding_gain(config)
        want = (c * snr) ** (-n) * math.log(snr)
        got = asymptotic_outage(config).value
        assert got == pytest.approx(want, rel=1e-10)


class TestRateProbe:
    def test_increasing_and_convex_at_high_snr(self):
        # the asymptote at 30 dB over R in [0.5, 8]: forward first
        # differences positive, second differences non-negative
        probs = [
            asymptotic_outage(
                SystemConfig.equal_snr(2, 2, 3, 0.5 + 0.25 * i, 1000.0)
            ).value
            for i in range(31)
        ]
        assert all(b - a > 0.0 for a, b in zip(probs, probs[1:]))
        assert all(
            probs[i + 2] - 2.0 * probs[i + 1] + probs[i] >= 0.0
            for i in range(len(probs) - 2)
        )


class TestShapeSwap:
    """The gain CDF is symmetric in the antenna counts but outage is not:
    the threshold carries the transmit count as a multiplicative factor."""

    def test_swap_moves_outage_but_not_cdf(self):
        a = SystemConfig.equal_snr(2, 3, 1, 3.0, 10.0)
        b = SystemConfig.equal_snr(3, 2, 1, 3.0, 10.0)
        assert exact_outage(a).value != exact_outage(b).value
        ta = outage_threshold(a, 1)
        tb = outage_threshold(b, 1)
        assert ta == 2.0 * 7.0 / 10.0
        assert tb == 3.0 * 7.0 / 10.0
        # each division rounds once, so in floats the 3/2 factor holds to
        # one ulp rather than bitwise here
        assert tb == pytest.approx(1.5 * ta, rel=1e-15)
        # equalize the thresholds and the per-round CDFs agree exactly
        assert meijer_g_log_cdf(2, 3, tb) == meijer_g_log_cdf(3, 2, tb)

    def test_threshold_ratio_is_exactly_three_halves(self):
        # a power-of-two SNR keeps both divisions exact and the factor
        # survives floating point untouched
        a = SystemConfig.equal_snr(2, 3, 1, 3.0, 4.0)
        b = SystemConfig.equal_snr(3, 2, 1, 3.0, 4.0)
        assert outage_threshold(b, 1) == 1.5 * outage_threshold(a, 1)


class TestAsymptoticStructure:
    def test_exponent_identity(self):
        # half the shape sum minus half the shape gap collapses to the
        # smaller count; storing the min avoids subtracting half-integers
        for n_t in range(1, 7):
            for n_r in range(1, 7):
                config = SystemConfig.equal_snr(n_t, n_r, 2, 1.0, 50.0)
                assert (n_t + n_r - config.tau) / 2 == min(n_t, n_r)
                assert diversity_order(config) == 2 * min(n_t, n_r)

    def test_rate_axis_slope_equals_diversity_order(self):
        # tau > 0: against log(2^R - 1) the asymptote is a straight line
        # of slope d, for any fixed SNR
        def config(rate):
            return SystemConfig.equal_snr(2, 3, 2, rate, 1000.0)

        rates = [1.0, 2.0, 3.0, 4.0, 5.0]
        logs = [asymptotic_outage(config(r)).log_value for r in rates]
        xs = [math.log(2.0 ** r - 1.0) for r in rates]
        d = diversity_order(config(1.0))
        for i in range(len(rates) - 1):
            slope = (logs[i + 1] - logs[i]) / (xs[i + 1] - xs[i])
            assert slope == pytest.approx(d, rel=1e-12)


class TestAsymptoticConvergence:
    """Ratio of exact to asymptotic outage as the SNR grows."""

    CELLS = [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)]

    @pytest.mark.parametrize("n_t,n_r,k", CELLS)
    def test_ratio_within_five_percent_at_50db(self, n_t, n_r, k):
        config = SystemConfig.equal_snr(n_t, n_r, k, 3.0, 1e5)
        ratio = math.exp(
            exact_outage(config).log_value - asymptotic_outage(config).log_value
        )
        assert 0.95 <= ratio <= 1.05

    @pytest.mark.parametrize("n_t,n_r,k", CELLS)
    def test_ratio_gap_shrinks_with_snr(self, n_t, n_r, k):
        gaps = []
        for db in (30.0, 40.0, 50.0, 60.0):
            config = SystemConfig.equal_snr(n_t, n_r, k, 3.0, 10.0 ** (db / 10.0))
            ratio = math.exp(
                exact_outage(config).log_value - asymptotic_outage(config).log_value
            )
            gaps.append(abs(ratio - 1.0))
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("snr_db", [60.0, 90.0, 120.0])
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 1)])
    def test_tau_zero_ratio_follows_bracket(self, n, k, snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        config = SystemConfig.equal_snr(n, n, k, 3.0, snr)
        ratio = math.exp(
            exact_outage(config).log_value - asymptotic_outage(config).log_value
        )
        want = (1.0 - square_bracket(n, 3.0) / math.log(snr)) ** k
        assert ratio == pytest.approx(want, rel=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="the square-array asymptote replaces -ln(threshold) by "
        "ln(snr); the leftover ln(n_t(2^R-1))/ln(snr) is still ~19% at "
        "60 dB, measured ratio 0.7616",
    )
    def test_tau_zero_ratio_within_fifteen_percent_at_60db(self):
        config = SystemConfig.equal_snr(2, 2, 1, 3.0, 1e6)
        ratio = math.exp(
            exact_outage(config).log_value - asymptotic_outage(config).log_value
        )
        assert 0.85 <= ratio <= 1.15

    @pytest.mark.xfail(
        strict=True,
        reason="d(ln P)/d(ln snr) = -d + K/ln(snr) for square arrays, and "
        "K/ln(snr) ~= 0.2004 on the 60-70 dB grid: the 0.2 window is "
        "exhausted by the log correction itself, measured slope -5.79924",
    )
    def test_tau_zero_asymptote_slope_window(self):
        dbs = [60.0 + 2.0 * i for i in range(6)]
        xs = [db / 10.0 for db in dbs]
        ys = []
        for db in dbs:
            config = SystemConfig.equal_snr(2, 2, 3, 3.0, 10.0 ** (db / 10.0))
            ys.append(asymptotic_outage(config).log_value / math.log(10.0))
        x_bar = sum(xs) / len(xs)
        y_bar = sum(ys) / len(ys)
        slope = sum(
            (x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)
        ) / sum((x - x_bar) ** 2 for x in xs)
        assert -6.0 - 0.2 <= slope <= -6.0 + 0.2
