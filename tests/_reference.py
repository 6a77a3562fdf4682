"""Independent high-precision oracles used only by the tests.

Everything here except ``package_pdf_integral`` is computed with mpmath
from first principles (integral representations and the defining density),
deliberately avoiding the code paths under test so that agreement is
evidence rather than tautology.
"""

import math

import mpmath as mp


def bessel_k_integral(order: int, x: float, dps: int = 40) -> float:
    """K_nu(x) via the cosh integral representation, not mpmath.besselk.

    The interval is split around the integrand's interior peak (near
    ln(2 nu / x) when 2 nu > x) and truncated at t = 40: the tail is below
    exp(-x cosh 40 / 2) relative, i.e. zero at any realistic dps for
    x >= 0.01. An infinite endpoint is not usable here because tanh-sinh
    tail nodes make cosh(t) doubly exponential, which mpmath's exp cannot
    digest.
    """
    if x < 0.01:
        raise ValueError(f"truncation bound assumes x >= 0.01, got {x}")
    with mp.workdps(dps):
        xm = mp.mpf(x)
        f = lambda t: mp.exp(-xm * mp.cosh(t)) * mp.cosh(order * t)
        val = mp.quad(f, [0, 1, 5, 40])
        return float(val)


def _erlang_product_cdf(n_t: int, n_r: int, xm):
    """P(AB <= x) = E_B[P(A <= x/B)] at the caller's working precision.

    Integrates the conditional Erlang CDF of A against the density of B.
    """

    def integrand(b):
        return (mp.gammainc(n_t, 0, xm / b, regularized=True)
                * b ** (n_r - 1) * mp.e ** (-b) / mp.gamma(n_r))

    return mp.quad(integrand, [0, xm, mp.inf])


def gain_cdf_quadrature(n_t: int, n_r: int, x: float, dps: int = 50) -> float:
    """CDF of the product of two unit-mean-scale Erlang variables."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        if xm <= 0:
            return 0.0
        return float(_erlang_product_cdf(n_t, n_r, xm))


def gain_log_cdf_quadrature(n_t: int, n_r: int, x: float,
                            dps: int = 60) -> float:
    """ln of gain_cdf_quadrature, stable far into the lower tail."""
    with mp.workdps(dps):
        return float(mp.log(_erlang_product_cdf(n_t, n_r, mp.mpf(x))))


def package_pdf_integral(pdf, n_t: int, n_r: int, upper: float,
                         moment: int = 0) -> float:
    """Integral of t^moment pdf(n_t, n_r, t) over [0, upper].

    Unlike the oracles above, this integrates a package callable (the
    float64 ``gain_pdf``), so agreement with the series CDF ties two package
    paths together rather than the package to first principles. mpmath's
    tanh-sinh rule never evaluates the endpoints, so the logarithmic
    singularity of the (1, 1) density at 0 costs nothing; since the
    integrand is float64, more than 15 working digits buy nothing.
    """
    with mp.workdps(15):
        val = mp.quad(lambda t: t ** moment * pdf(n_t, n_r, float(t)),
                      [0, upper])
        return float(val)


def outage_exact(n_t: int, n_r: int, rates_snrs, dps: int = 50) -> float:
    """Product of per-round CDF values; rates_snrs = [(rate, snr), ...]."""
    with mp.workdps(dps):
        total = mp.mpf(1)
        for rate, snr in rates_snrs:
            thr = n_t * (mp.mpf(2) ** rate - 1) / snr
            total *= mp.mpf(gain_cdf_quadrature(n_t, n_r, float(thr), dps))
        return float(total)


def square_bracket(n: int, rate: float) -> float:
    """Constant a in the square-array (n_t = n_r = n) per-round CDF.

    Integrating the ascending K_0 series of the gain density gives
    F(t) = t^n (ln snr - a) / (n Gamma(n)^2) (1 + O(t)) at the threshold
    t = n (2^R - 1) / snr, with a = ln(n (2^R - 1)) + 2 gamma - 1/n. The
    paper's leading-order law keeps only ln snr, so exact/asymptotic is
    prod_k (1 - a / ln snr_k).
    """
    return math.log(n * (2.0 ** rate - 1.0)) + 2.0 * float(mp.euler) - 1.0 / n
