"""Unit tests for the scalar special-function kernel.

Reference values come from two independent sources: constants frozen from
high-precision evaluation of defining integrals/series (inline below), and
the live mpmath oracles in ``_reference`` that never touch the code paths
under test. The density checks integrate the package's own ``gain_pdf``
with mpmath (``package_pdf_integral``).
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyhole_harq import _array_path, specfun
from keyhole_harq.errors import DomainError
from keyhole_harq.specfun import (
    bessel_k_scaled,
    gain_pdf,
    meijer_g_cdf,
    meijer_g_log_cdf,
)

from _reference import (
    bessel_k_integral,
    gain_cdf_oracle,
    gain_log_cdf_oracle,
    gain_log_cdf_series,
    package_pdf_integral,
    use_ascending,
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
        assert specfun._orders(x, 16) == [bessel_k_scaled(n, x)
                                          for n in range(17)]

    # float.hex of e^x K_0(x) and e^x K_1(x) from the Chebyshev fits, as
    # the two fits gave them walked one at a time; walking them together
    # must keep every bit
    K01_FITS_HEX = [
        (2.0000000000000004, '0x1.aee207722a037p-1', '0x1.0891f04b554d5p+0'),
        (2.000001, '0x1.aee20101ae9d6p-1', '0x1.0891ead83353dp+0'),
        (2.1, '0x1.a5628114574ffp-1', '0x1.009b315513741p+0'),
        (2.5, '0x1.84e390e15b8e4p-1', '0x1.cce3a97ec28c6p-1'),
        (3.0, '0x1.65410218018eap-1', '0x1.9cf5e3729a27fp-1'),
        (3.7, '0x1.43b215e065fb6p-1', '0x1.6d0f3027afc78p-1'),
        (4.0, '0x1.37f5dd35f91a9p-1', '0x1.5cf785b4a0203p-1'),
        (5.5, '0x1.0bf1381e69450p-1', '0x1.235a418fb6482p-1'),
        (7.0, '0x1.dd067f32e2cbcp-2', '0x1.fe06799868bbfp-2'),
        (10.0, '0x1.9107f639e5cb1p-2', '0x1.a49ffdebfef6bp-2'),
        (13.25, '0x1.5d6161c1f84ebp-2', '0x1.6a55291d0b297p-2'),
        (20.0, '0x1.1d3ade3ed803ap-2', '0x1.244694db38499p-2'),
        (30.0, '0x1.d2b63e8021608p-3', '0x1.da6d7aed48f5cp-3'),
        (47.9, '0x1.71e9e62a6ce0dp-3', '0x1.75c1570f1d6dbp-3'),
        (64.0, '0x1.403a289da43f7p-3', '0x1.42b8263fc88f9p-3'),
        (100.0, '0x1.005c138a42646p-3', '0x1.01a367892f886p-3'),
        (176.5, '0x1.8222efcdf881fp-4', '0x1.833a92c3ec0e2p-4'),
        (250.0, '0x1.4483884564229p-4', '0x1.45298493f8a66p-4'),
        (448.0, '0x1.e4f1297779f1dp-5', '0x1.e57ba3c37222dp-5'),
        (512.75, '0x1.c54e48f9b891ap-5', '0x1.c5bf6403b954cp-5'),
        (699.9, '0x1.84052e475ebd0p-5', '0x1.844c1e2d0ac55p-5'),
        (700.0, '0x1.83fe167bcbdafp-5', '0x1.8445027da8a84p-5'),
    ]

    @pytest.mark.parametrize("x,k0,k1", K01_FITS_HEX)
    def test_chebyshev_fits_bits(self, x, k0, k1):
        assert [v.hex() for v in specfun._k01_scaled(x)] == [k0, k1]

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
        assert rel_err(meijer_g_cdf(n_t, n_r, x), gain_cdf_oracle(n_t, n_r, x)) < 1e-11

    def test_deep_tail_log_against_oracle(self):
        # F ~ 2.6e-10 here; the linear-domain oracle would lose precision,
        # so compare logs directly
        got = meijer_g_log_cdf(4, 4, 0.01)
        want = gain_log_cdf_oracle(4, 4, 0.01)
        assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("n_t,n_r,x", [
        (4, 4, 0.01), (16, 16, 40.0), (64, 64, 64.0)])
    def test_oracle_against_positive_series(self, n_t, n_r, x):
        # two independent routes to ln F at high precision; a nested
        # quadrature of the Erlang CDFs gave -156.616 at (64, 64, 64), where
        # both give -156.3472695881
        want = gain_log_cdf_series(n_t, n_r, x)
        assert gain_log_cdf_oracle(n_t, n_r, x) == pytest.approx(want,
                                                                 rel=1e-15)

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
        original = specfun._k01_scaled

        def counted(r):
            calls.append(r)
            return original(r)

        monkeypatch.setattr(specfun, "_k01_scaled", counted)
        # x = 112 is on the survival branch; r = 2 sqrt(x) > 2 uses the fits
        assert 112.0 >= specfun._shape_table(16, 9).switch
        meijer_g_log_cdf(16, 9, 112.0)
        assert calls == [2.0 * math.sqrt(112.0)]
        # a curve evaluates them once per survival point, on both sides of
        # r = 2, and never at an ascending point
        calls.clear()
        xs = [1e-5, 0.5, 3.0, 112.0]
        surv = [x for x in xs if x >= specfun._shape_table(2, 2).switch]
        assert surv == [0.5, 3.0, 112.0]
        x = np.array(xs)
        _array_path._log_cdf_many(2, 2, x, _log_many(x))
        assert calls == [2.0 * math.sqrt(v) for v in surv]

    def test_switchover_continuity(self):
        # both series are accurate at the handover: the float below the
        # switch takes the ascending series, the switch itself 1 - S(x).
        # Measured worst: 1.7e-12 (8x8 below, x = 8.19), 1.4e-12 (8x7 at)
        for n_t in range(1, 9):
            for n_r in range(1, n_t + 1):
                switch = specfun._shape_table(n_t, n_r).switch
                for x in (math.nextafter(switch, 0.0), switch):
                    got = meijer_g_log_cdf(n_t, n_r, x)
                    want = gain_log_cdf_oracle(n_t, n_r, x)
                    assert abs(math.expm1(got - want)) < 3e-12, (n_t, n_r, x)

    # Measured gaps of the CDF, for the third, positive branch to close
    # (relative error in F against the oracle; the target is 1e-12).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ascending series cancels: 2.4e-7 at 16x16")
    def test_below_switch_16x16_within_target(self):
        # the float just below the 16x16 switch; the same spot at 12x9
        # reads 8.3e-10
        x = 33.67595731005808
        got = meijer_g_log_cdf(16, 16, x)
        want = gain_log_cdf_oracle(16, 16, x)
        assert abs(math.expm1(got - want)) < 1e-12

    @pytest.mark.xfail(strict=True, raises=DomainError,
                       reason="the ascending series cancels (it read ln F = "
                              "-10.47, oracle -58.36); the guard refuses it")
    def test_64x64_at_448_within_target(self):
        got = meijer_g_log_cdf(64, 64, 448.0)
        want = gain_log_cdf_oracle(64, 64, 448.0)
        assert abs(math.expm1(got - want)) < 1e-12

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


def _switch_neighbours(n_t, n_r):
    """The shape's switch and the float below it: the two adjacent floats
    where the ascending series hands over to 1 - S(x)."""
    switch = specfun._shape_table(max(n_t, n_r), min(n_t, n_r)).switch
    return [math.nextafter(switch, 0.0), switch]


class TestSwitch:
    # The per-shape switch makes the choice the point-by-point test made
    # (``_reference.use_ascending``) at every x.

    @staticmethod
    def _assert_parent_choice(big, small):
        switch = specfun._shape_table(big, small).switch
        xs = [math.nextafter(switch, 0.0), switch,
              math.nextafter(switch, math.inf),
              math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0)]
        xs += [10.0 ** (0.05 * i) for i in range(-160, 121)]
        for x in xs:
            assert (x < switch) == use_ascending(big, small, x), \
                (big, small, x)

    @pytest.mark.parametrize("big", range(1, 33))
    def test_shapes_to_32(self, big):
        for small in range(1, big + 1):
            self._assert_parent_choice(big, small)

    @pytest.mark.parametrize("n_t,n_r", [(64, 64), (200, 200), (3, 40),
                                         (171, 1)])
    def test_large_shapes(self, n_t, n_r):
        self._assert_parent_choice(max(n_t, n_r), min(n_t, n_r))

    def test_no_switch_past_lgamma_reach(self):
        # tau >= 172: the shape has no table, so every x > 0 is refused on
        # both paths
        xs = [1e-6, 1e-4, 1.0, 40.0]
        for x in xs:
            with pytest.raises(DomainError):
                meijer_g_log_cdf(173, 1, x)
        x = np.array(xs)
        got = _array_path._log_cdf_many(173, 1, x, _log_many(x))
        assert np.isnan(got).all()


def _log_many(x):
    """math.log of each element of x; -inf at 0."""
    return np.array([math.log(v) if v else -math.inf for v in x.tolist()])


class TestArrayLogCdf:
    # The array form that evaluates a whole curve: every value is bitwise
    # the one-point value, and nan exactly where the one-point call raises.

    @staticmethod
    def _assert_matches(n_t, n_r, xs):
        x = np.array(xs, dtype=float)
        got = _array_path._log_cdf_many(n_t, n_r, x, _log_many(x))
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

    @pytest.mark.parametrize("n_t,n_r", [
        (1, 1), (2, 1), (2, 2), (5, 3), (9, 16), (12, 12), (16, 16), (20, 7),
    ])
    def test_branch_switch_neighbours(self, n_t, n_r):
        # the two floats on either side of the ascending/survival switch
        xs = _switch_neighbours(n_t, n_r)
        self._assert_matches(n_t, n_r, xs)

    @pytest.mark.parametrize("n,lo,hi", [(48, 309.0, 390.0),
                                         (60, 489.0, 700.0)])
    def test_survival_fallback(self, n, lo, hi):
        # where 1 - S rounds past 0, the survival branch hands the point to
        # the ascending series
        xs = [lo + (hi - lo) * i / 40 for i in range(41)]
        switch = specfun._shape_table(n, n).switch
        took = [x for x in xs
                if x >= switch and specfun._survival(n, n, x) >= 1.0]
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
        # the cancellation guard: 32x32 refuses x from about 51 up to its
        # switch (136.6), 64x64 refuses 448 (ascending) and 1024 (survival)
        (32, 32, [16.0, 50.0, 52.0, 64.0, 136.0, 137.0, 200.0]),
        (64, 64, [100.0, 448.0, 1024.0, 4096.0]),
    ])
    def test_domain_errors_at_the_same_points(self, n_t, n_r, xs):
        nan = [math.isnan(_one_point_log_cdf(n_t, n_r, x)) for x in xs]
        assert any(nan)
        self._assert_matches(n_t, n_r, xs)

    def test_empty(self):
        x = np.array([])
        assert _array_path._log_cdf_many(2, 3, x, x).shape == (0,)


class TestCancellationGuard:
    # Where the rounding-error estimate of the series taken, u sum|t| /
    # |sum t| or u S / (1 - S) with u = 2^-53, passes specfun._CANCEL, the
    # gain CDF is refused with DomainError instead of returned as garbage.

    @pytest.mark.parametrize("n_t,n_r,x,series", [
        (64, 64, 448.0, "ascending"),    # read ln F = -10.47, oracle -58.36
        (32, 32, 64.0, "ascending"),     # relative error 6.3e-3
        (64, 64, 1024.0, "survival"),    # relative error 2.5e-2
    ])
    def test_refuses_cancelled_values(self, n_t, n_r, x, series):
        with pytest.raises(DomainError) as got:
            meijer_g_log_cdf(n_t, n_r, x)
        assert str(got.value) == (
            f"gain CDF for shapes ({n_t}, {n_r}) at x = {x!r} is refused: "
            f"cancellation in the {series} series may leave a relative "
            "error above 1e-05")

    @pytest.mark.parametrize("big", range(1, 17))
    def test_no_refusal_up_to_16x16(self, big):
        # the low side of the bound: the largest estimate at these points
        # is 1.2e-7 (16x14 at 0.9 of its switch, ascending) and 1.1e-10 on
        # the survival branch
        for small in range(1, big + 1):
            switch = specfun._shape_table(big, small).switch
            xs = [math.nextafter(switch, 0.0), 0.1 * switch, 0.5 * switch,
                  0.9 * switch, switch, 1.1 * switch, 2.0 * switch]
            for x in xs:
                assert math.isfinite(meijer_g_log_cdf(big, small, x))

    @staticmethod
    def _flip(monkeypatch, n_t, n_r, x):
        """The least bound at which the one-point guard answers at x, to the
        bit: bisection over the bit patterns of the floats in [0, 1]."""
        lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1.0))[0]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bound = struct.unpack("<d", struct.pack("<q", mid))[0]
            monkeypatch.setattr(specfun, "_CANCEL", bound)
            if math.isnan(_one_point_log_cdf(n_t, n_r, x)):
                lo = mid
            else:
                hi = mid
        return struct.unpack("<d", struct.pack("<q", hi))[0]

    @pytest.mark.parametrize("n_t,n_r", [(5, 3), (9, 2), (12, 12), (16, 9),
                                         (16, 16)])
    def test_array_decides_as_the_scalar_at_each_flip(self, monkeypatch,
                                                      n_t, n_r):
        # at each x the bound where the scalar guard turns from refusing to
        # answering is found to the bit; given that bound and the float
        # below it, the array path decides as the scalar does only if its
        # sums of magnitudes (head terms included) are the scalar's
        switch = specfun._shape_table(n_t, n_r).switch
        xs = [1e-3 * switch, 0.1 * switch, 0.5 * switch, 0.9 * switch,
              math.nextafter(switch, 0.0), switch, 2.0 * switch]
        for x in xs:
            flip = self._flip(monkeypatch, n_t, n_r, x)
            for bound in (math.nextafter(flip, 0.0), flip):
                monkeypatch.setattr(specfun, "_CANCEL", bound)
                monkeypatch.setattr(_array_path, "_CANCEL", bound)
                TestArrayLogCdf._assert_matches(n_t, n_r, [x])
