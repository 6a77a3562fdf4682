"""Unit tests for the scalar special-function kernel.

Reference values come from two independent sources: constants frozen from
high-precision evaluation of defining integrals/series (inline below), and
the live mpmath oracles in ``_reference`` that never touch the code paths
under test. The density checks integrate the package's own ``gain_pdf``
with mpmath (``package_pdf_integral``).
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyhole_harq import specfun
from keyhole_harq.errors import DomainError
from keyhole_harq.specfun import (
    bessel_k_scaled,
    gain_pdf,
    meijer_g_cdf,
    meijer_g_log_cdf,
)

from _reference import (
    bessel_k_integral,
    gain_cdf_quadrature,
    gain_log_cdf_quadrature,
    package_pdf_integral,
)

# 40+ digit evaluations of the defining integrals, frozen as float64.
K1_AT_2 = 0.13986588181652242728        # K_1(2)
K2_AT_1 = 1.6248388986351774828         # K_2(1)
K1_SCALED_AT_2 = 1.0334768470686885732  # e^2 K_1(2)
K0_SCALED_AT_100 = 0.12517562165912658  # e^100 K_0(100)
CDF_11_AT_1 = 0.72026823636695514543    # F(x=1), n_t = n_r = 1
CDF_22_AT_1 = 0.21274872723484341956    # F(x=1), n_t = n_r = 2
PDF_11_MASS_TO_50 = 0.99999651182759992374  # integral of the (1,1) pdf over [0, 50]


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def k_unscaled(order: int, x: float) -> float:
    """K_order(x), recovered from the scaled kernel."""
    return bessel_k_scaled(order, x) * math.exp(-x)


class TestBesselK:
    def test_frozen_values(self):
        assert rel_err(k_unscaled(1, 2.0), K1_AT_2) < 1e-12
        assert rel_err(k_unscaled(2, 1.0), K2_AT_1) < 1e-12
        assert rel_err(bessel_k_scaled(1, 2.0), K1_SCALED_AT_2) < 1e-12
        assert rel_err(bessel_k_scaled(0, 100.0), K0_SCALED_AT_100) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 9, 16])
    @pytest.mark.parametrize("x", [0.5, 2.0, 7.5, 30.0])
    def test_against_cosh_integral(self, order, x):
        assert rel_err(k_unscaled(order, x), bessel_k_integral(order, x)) < 1e-12

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_small_argument_limit(self, order):
        # K_nu(x) -> Gamma(nu) (2/x)^nu / 2 as x -> 0, relative correction
        # O(x^2 / (nu - 1)); at x = 1e-5 that is below 1e-10 for nu >= 2.
        x = 1e-5
        limit = 0.5 * math.exp(math.lgamma(order)) * (2.0 / x) ** order
        assert rel_err(k_unscaled(order, x), limit) < 1e-9

    @pytest.mark.parametrize("x", [0.7, 3.3, 11.0])
    def test_recurrence_residual(self, x):
        for nu in range(1, 13):
            lhs = bessel_k_scaled(nu + 1, x)
            rhs = bessel_k_scaled(nu - 1, x) + (2.0 * nu / x) * bessel_k_scaled(nu, x)
            assert rel_err(lhs, rhs) < 1e-10

    def test_chebyshev_seam(self):
        # the x = 2 crossover between series and Chebyshev fits must be smooth
        below = bessel_k_scaled(1, 2.0 - 1e-9)
        above = bessel_k_scaled(1, 2.0 + 1e-9)
        assert abs(below - above) / above < 1e-8

    @pytest.mark.parametrize("bad_x", [0.0, -1.0, math.inf, math.nan])
    def test_argument_domain(self, bad_x):
        with pytest.raises(DomainError):
            bessel_k_scaled(0, bad_x)

    @pytest.mark.parametrize("bad_order", [-1, 1.5, "2"])
    def test_order_domain(self, bad_order):
        with pytest.raises(DomainError):
            bessel_k_scaled(bad_order, 1.0)

    @pytest.mark.parametrize("x", [1e-6, 0.3, 1.0, 1.999999, 2.0, 2.000001,
                                   2.5, 7.0, 30.0, 448.0])
    def test_one_recurrence_serves_every_order(self, x):
        # the survival series reads all its orders from one upward walk
        ks = list(itertools.islice(specfun._k_scaled_upward(x), 17))
        assert ks == [bessel_k_scaled(n, x) for n in range(17)]

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=10),
        x1=st.floats(min_value=1e-6, max_value=30.0),
        x2=st.floats(min_value=1e-6, max_value=30.0),
    )
    def test_scaled_decreasing_in_x(self, order, x1, x2):
        # e^x K_nu(x) is strictly decreasing (Turan inequality), with
        # -x d/dx ln(e^x K_nu(x)) >= 0.07 over orders 0..10 and x in
        # [1e-6, 30] (smallest for order 0 at x = 1e-6). Arguments more than
        # 1e-10 apart in relative terms therefore have exact values more
        # than 7e-12 apart, beyond twice the kernel's 1e-12 accuracy, and
        # their order must be kept. Closer pairs, down to adjacent floats,
        # may tie or swap by rounding, but only within that accuracy.
        if x1 == x2:
            return
        lo, hi = min(x1, x2), max(x1, x2)
        at_lo, at_hi = bessel_k_scaled(order, lo), bessel_k_scaled(order, hi)
        if hi > lo * (1.0 + 1e-10):
            assert at_lo > at_hi
        else:
            assert at_hi - at_lo < 2e-12 * at_lo

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=12),
        x=st.floats(min_value=1e-6, max_value=30.0),
    )
    def test_increasing_in_order(self, order, x):
        assert bessel_k_scaled(order + 1, x) > bessel_k_scaled(order, x) > 0.0


class TestGainPdf:
    def test_zero_limits(self):
        assert gain_pdf(1, 1, 0.0) == math.inf
        assert gain_pdf(1, 2, 0.0) == 1.0
        assert gain_pdf(2, 1, 0.0) == 1.0
        assert gain_pdf(3, 1, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert gain_pdf(2, 2, 0.0) == 0.0
        assert gain_pdf(3, 4, 0.0) == 0.0

    def test_normalization_1x1_truncated(self):
        # mass of the (1,1) density on [0, 50]; the truncation tail is
        # ~3.5e-6, so this checks the integrand, not just "close to 1"
        got = package_pdf_integral(gain_pdf, 1, 1, 50.0)
        assert abs(got - PDF_11_MASS_TO_50) < 1e-8
        assert abs(got - 1.0) < 1e-5

    @pytest.mark.parametrize("n_t,n_r,upper", [(2, 3, 200.0), (4, 4, 300.0),
                                               (1, 3, 160.0)])
    def test_normalization(self, n_t, n_r, upper):
        # the cut point keeps the truncated tail below 2e-8 in each case
        got = package_pdf_integral(gain_pdf, n_t, n_r, upper)
        assert abs(got - 1.0) < 1e-6

    def test_mean(self):
        # E[X] = n_t * n_r for the product of the two Erlang factors
        got = package_pdf_integral(gain_pdf, 2, 2, 150.0, moment=1)
        assert rel_err(got, 4.0) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            gain_pdf(2, 2, -0.1)
        with pytest.raises(DomainError):
            gain_pdf(0, 2, 1.0)
        with pytest.raises(DomainError):
            gain_pdf(2.5, 2, 1.0)


class TestGainCdf:
    def test_frozen_values(self):
        assert rel_err(meijer_g_cdf(1, 1, 1.0), CDF_11_AT_1) < 1e-12
        assert rel_err(meijer_g_cdf(2, 2, 1.0), CDF_22_AT_1) < 1e-12

    def test_boundaries(self):
        assert meijer_g_cdf(2, 3, 0.0) == 0.0
        assert meijer_g_log_cdf(2, 3, 0.0) == -math.inf
        assert meijer_g_cdf(1, 1, 400.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_t", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_r", [1, 2, 3, 4])
    def test_upper_limit(self, n_t, n_r):
        assert meijer_g_cdf(n_t, n_r, 200.0) >= 1.0 - 1e-6

    @pytest.mark.parametrize("n_t", [1, 2, 3])
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    @pytest.mark.parametrize("x", [1e-3, 0.3, 4.0])
    def test_against_nested_quadrature_oracle(self, n_t, n_r, x):
        assert rel_err(meijer_g_cdf(n_t, n_r, x), gain_cdf_quadrature(n_t, n_r, x)) < 1e-11

    def test_deep_tail_log_against_oracle(self):
        # F ~ 2.6e-10 here; the linear-domain oracle would lose precision,
        # so compare logs directly
        got = meijer_g_log_cdf(4, 4, 0.01)
        want = gain_log_cdf_quadrature(4, 4, 0.01)
        assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 2), (2, 3), (4, 1)])
    @pytest.mark.parametrize("x", [0.04, 1.0, 9.0])
    def test_dual_path(self, n_t, n_r, x):
        series = meijer_g_cdf(n_t, n_r, x)
        quad = package_pdf_integral(gain_pdf, n_t, n_r, x)
        assert rel_err(series, quad) < 1e-9

    @pytest.mark.parametrize("n_t,n_r,x", [(2, 1, 1e-4), (3, 2, 1e-4)])
    def test_small_x_leading_term_asymmetric(self, n_t, n_r, x):
        tau = abs(n_t - n_r)
        m = min(n_t, n_r)
        lead = math.exp(
            math.lgamma(tau) - math.lgamma(n_t) - math.lgamma(n_r) + m * math.log(x)
        ) / m
        assert rel_err(meijer_g_cdf(n_t, n_r, x), lead) < 1e-3

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_x_leading_term_square(self, n):
        # first series term of the tau = 0 expansion; EULER enters through
        # psi(1) = psi(tau+1) = -EULER at k = 0
        x = 1e-6
        euler = 0.57721566490153286
        lead = (
            x ** n * (-2.0 * euler + 1.0 / n - math.log(x))
            / (n * math.exp(2.0 * math.lgamma(n)))
        )
        assert rel_err(meijer_g_cdf(n, n, x), lead) < 1e-5

    @pytest.mark.parametrize("n_t,n_r,x", [
        (2, 2, 1.4), (2, 1, 0.5), (5, 3, 30.0), (16, 9, 112.0), (16, 16, 40.0),
    ])
    def test_survival_equals_term_by_term_series(self, n_t, n_r, x):
        # the old form: one bessel_k_scaled call (own K_0/K_1) per term
        r = 2.0 * math.sqrt(x)
        acc = 0.0
        for m in range(n_r):
            acc += math.exp(0.5 * (n_t + m) * math.log(x) - math.lgamma(m + 1)) \
                * bessel_k_scaled(abs(n_t - m), r)
        want = 2.0 * math.exp(-r - math.lgamma(n_t)) * acc
        assert specfun._survival(n_t, n_r, x) == want

    @pytest.mark.parametrize("x", [1e-9, 1e-4, 0.03, 0.7, 5.0, 40.0])
    def test_ascending_equals_untabled_series(self, x):
        # the series as it was before the per-shape tables: every factor
        # recomputed at each x
        def untabled(n_t, n_r, x):
            tau, m, big = n_t - n_r, n_r, n_t
            logx = math.log(x)
            g, fk = 0.0, 1.0
            for k in range(tau):
                g += (math.exp(math.lgamma(tau - k) - math.lgamma(k + 1))
                      / (m + k) * fk)
                fk *= -x
            sgn = 1.0 if tau % 2 == 0 else -1.0
            xt = x ** tau
            pa = -0.5772156649015328606
            pb = -0.5772156649015328606
            for j in range(1, tau + 1):
                pb += 1.0 / j
            fact = math.exp(-math.lgamma(tau + 1))
            for k in range(400):
                term = xt * fact / (big + k) * (pa + pb + 1.0 / (big + k)
                                                - logx)
                g += sgn * term
                if k >= 2 and abs(term) < 1e-17 * abs(g):
                    break
                xt *= x
                fact /= (k + 1.0) * (tau + k + 1.0)
                pa += 1.0 / (k + 1.0)
                pb += 1.0 / (tau + k + 1.0)
            return m * logx + math.log(g) - math.lgamma(n_t) - math.lgamma(n_r)

        for n_t in range(1, 21):
            for n_r in range(1, n_t + 1):
                got = specfun._cdf_ascending(n_t, n_r, x)
                want = untabled(n_t, n_r, x)
                assert struct.pack("<d", got) == struct.pack("<d", want), \
                    (n_t, n_r)

    def test_survival_cdf_evaluates_k0_k1_once(self, monkeypatch):
        calls = []
        original = specfun._clenshaw

        def counted(coefs, s):
            calls.append(coefs)
            return original(coefs, s)

        monkeypatch.setattr(specfun, "_clenshaw", counted)
        # x = 112 is on the survival branch; r = 2 sqrt(x) > 2 uses the fits
        assert not specfun._use_ascending(16, 9, 112.0)
        meijer_g_log_cdf(16, 9, 112.0)
        assert calls == [specfun._K0E_CHEB, specfun._K1E_CHEB]

    def test_switchover_continuity(self):
        # the survival/ascending handover must not leave a jump
        for n_t, n_r, x in ((2, 1, 1e-4), (1, 1, 1e-4), (2, 2, 1e-4)):
            below = meijer_g_cdf(n_t, n_r, x * (1.0 - 1e-9))
            above = meijer_g_cdf(n_t, n_r, x * (1.0 + 1e-9))
            assert abs(below - above) / above < 1e-7

    def test_log_linear_consistency(self):
        for n_t, n_r, x in ((1, 1, 0.5), (2, 3, 2.0), (4, 4, 0.01), (3, 1, 1e-5)):
            log_f = meijer_g_log_cdf(n_t, n_r, x)
            assert rel_err(math.exp(log_f), meijer_g_cdf(n_t, n_r, x)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            meijer_g_cdf(2, 2, -1e-9)
        with pytest.raises(DomainError):
            meijer_g_log_cdf(2, 2, math.nan)
        with pytest.raises(DomainError):
            meijer_g_cdf(2, 0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n_t=st.integers(min_value=1, max_value=6),
        n_r=st.integers(min_value=1, max_value=6),
        x=st.floats(min_value=1e-8, max_value=50.0),
    )
    def test_symmetry_in_shapes(self, n_t, n_r, x):
        # X is a product of two Erlang factors, so swapping the antenna
        # counts leaves its distribution unchanged; the implementation
        # canonicalizes the argument order, making this exact
        assert meijer_g_cdf(n_t, n_r, x) == meijer_g_cdf(n_r, n_t, x)
        assert meijer_g_log_cdf(n_t, n_r, x) == meijer_g_log_cdf(n_r, n_t, x)

    @settings(max_examples=200, deadline=None)
    @given(
        n_t=st.integers(min_value=1, max_value=5),
        n_r=st.integers(min_value=1, max_value=5),
        x1=st.floats(min_value=1e-8, max_value=40.0),
        x2=st.floats(min_value=1e-8, max_value=40.0),
    )
    def test_monotone_and_bounded(self, n_t, n_r, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        f_lo = meijer_g_cdf(n_t, n_r, lo)
        f_hi = meijer_g_cdf(n_t, n_r, hi)
        assert 0.0 <= f_lo <= f_hi <= 1.0


def _one_point_log_cdf(n_t, n_r, x):
    """meijer_g_log_cdf, with nan standing for its DomainError."""
    try:
        return meijer_g_log_cdf(n_t, n_r, x)
    except DomainError:
        return math.nan


def _switch_neighbours(n_t, n_r, lo, hi):
    """The two adjacent floats in [lo, hi] where ``_use_ascending`` flips;
    it must differ at lo and hi."""
    big, small = max(n_t, n_r), min(n_t, n_r)
    side = specfun._use_ascending(big, small, lo)
    assert specfun._use_ascending(big, small, hi) != side
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if specfun._use_ascending(big, small, mid) == side:
            lo = mid
        else:
            hi = mid
    return [lo, hi]


class TestArrayLogCdf:
    # The array form that evaluates a whole curve: every value is bitwise
    # the one-point value, and nan exactly where the one-point call raises.

    @staticmethod
    def _assert_matches(n_t, n_r, xs):
        got = specfun._log_cdf_many(n_t, n_r, np.array(xs, dtype=float))
        assert got.shape == (len(xs),)
        for x, g in zip(xs, got.tolist()):
            want = _one_point_log_cdf(n_t, n_r, x)
            if math.isnan(want):
                assert math.isnan(g), (n_t, n_r, x)
            else:
                assert struct.pack("<d", g) == struct.pack("<d", want), \
                    (n_t, n_r, x, g, want)

    # the CLI's 0-70 dB grid at two rates, and a wide log grid
    GRID = ([n * (2.0 ** rate - 1.0) / 10.0 ** (0.025 * i)
             for n in (1, 8) for rate in (0.5, 6.0) for i in range(0, 281, 4)]
            + [10.0 ** (0.25 * i) for i in range(-36, 12)] + [0.0, 5e-324])

    @pytest.mark.parametrize("n_t", range(1, 21))
    def test_shapes_1_to_20(self, n_t):
        for n_r in range(1, 21):
            self._assert_matches(n_t, n_r, self.GRID)

    @pytest.mark.parametrize("n_t", range(1, 21))
    def test_random_x(self, n_t):
        # many distinct x, so that a transcendental that is off in the last
        # bit at one input in a thousand still shows
        rng = np.random.default_rng(n_t)
        for n_r in range(1, 21):
            xs = (10.0 ** rng.uniform(-9.0, 2.8, 100)).tolist()
            self._assert_matches(n_t, n_r, xs)

    @pytest.mark.parametrize("n_t,n_r", [(3, 40), (40, 3)])
    def test_lopsided_shape(self, n_t, n_r):
        self._assert_matches(n_t, n_r, self.GRID)

    def test_ascending_x_neighbours(self):
        x = specfun._ASCENDING_X
        xs = [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
        for n_t, n_r in itertools.product(range(1, 21), repeat=2):
            self._assert_matches(n_t, n_r, xs)

    @pytest.mark.parametrize("n_t,n_r", [
        (1, 1), (2, 1), (2, 2), (5, 3), (9, 16), (12, 12), (16, 16), (20, 7),
    ])
    def test_branch_switch_neighbours(self, n_t, n_r):
        # the two floats on either side of the ascending/survival switch
        xs = _switch_neighbours(n_t, n_r, 1e-4, 60.0)
        self._assert_matches(n_t, n_r, xs)

    @pytest.mark.parametrize("n,lo,hi", [(48, 309.0, 390.0),
                                         (60, 489.0, 700.0)])
    def test_survival_fallback(self, n, lo, hi):
        # where 1 - S rounds past 0, the survival branch hands the point to
        # the ascending series
        xs = [lo + (hi - lo) * i / 40 for i in range(41)]
        took = [x for x in xs if not specfun._use_ascending(n, n, x)
                and specfun._survival(n, n, x) >= 1.0]
        assert len(took) >= 3
        self._assert_matches(n, n, xs)

    @pytest.mark.parametrize("n_t,n_r,xs", [
        # the gain CDF edges of TestDomainEdges: 16x16 from rate 68 and
        # 2x2 from rate 686 at 10 dB, 200x200 at 0 and 1 dB
        (16, 16, [16 * (2.0 ** r - 1.0) / 10.0 for r in (66, 67, 68, 69)]),
        (2, 2, [2 * (2.0 ** r - 1.0) / 10.0 for r in (683, 685, 686, 700)]),
        (200, 200, [200 * 7.0, 200 * 7.0 / 10.0 ** 0.1, 0.5, 1e-3]),
        # lgamma(tau) past exp's reach (tau >= 172): no point but 0 has a
        # value; at tau = 171 only the large x are refused
        (200, 1, [0.0, 1e-6, 1e-4, 3.0, 1e3]),
        (1, 173, [0.0, 1e-6, 3.0, 40.0, 1e3]),
        (1, 172, [0.0, 1e-6, 3.0, 40.0, 1e3]),
        (2, 2, [1e300, 1.7e308, 5e-324]),
    ])
    def test_domain_errors_at_the_same_points(self, n_t, n_r, xs):
        nan = [math.isnan(_one_point_log_cdf(n_t, n_r, x)) for x in xs]
        assert any(nan)
        self._assert_matches(n_t, n_r, xs)

    def test_empty(self):
        assert specfun._log_cdf_many(2, 3, np.array([])).shape == (0,)

    def test_bessel_orders_match_one_point_walk(self):
        # K_0..K_16 from the array walk against the scalar walk, on both
        # sides of the x = 2 switch of the K_0/K_1 evaluation
        rng = np.random.default_rng(7)
        xs = np.concatenate([10.0 ** rng.uniform(-8.0, 0.301, 2000),
                             rng.uniform(2.0, 700.0, 500),
                             [1e-6, 1.999999, 2.0, 2.000001, 448.0]])
        got = list(itertools.islice(specfun._k_scaled_upward_many(xs), 17))
        for i, x in enumerate(xs.tolist()):
            want = list(itertools.islice(specfun._k_scaled_upward(x), 17))
            assert [float(k[i]) for k in got] == want, x
