"""Independent high-precision oracles used only by the tests.

Everything here except ``package_pdf_integral`` is computed with mpmath
(integral representations, the Meijer-G function and a positive Bessel
series), deliberately avoiding the code paths under test so that agreement
is evidence rather than tautology.
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


def _meijerg_log_cdf(n_t: int, n_r: int, x: float):
    """ln F(x) of the product of two unit-scale Erlang variables, as an mpf.

    F = G^{2,1}_{1,3}(x | 1; n_t, n_r, 0) / (Gamma(n_t) Gamma(n_r)) through
    ``mpmath.meijerg``, at doubling precision until two precisions agree to
    1e-20 relative.
    """
    prev = None
    dps = 30
    while dps <= 480:
        with mp.workdps(dps):
            g = mp.meijerg([[1], []], [[n_t, n_r], [0]], mp.mpf(x))
            v = mp.log(g) - mp.loggamma(n_t) - mp.loggamma(n_r)
        if prev is not None and abs(v - prev) <= 1e-20 * max(1.0, abs(v)):
            return v
        prev = v
        dps *= 2
    raise ArithmeticError(f"meijerg did not settle at ({n_t}, {n_r}, {x!r})")


def gain_cdf_oracle(n_t: int, n_r: int, x: float) -> float:
    """CDF of the product of two unit-scale Erlang variables."""
    if x <= 0:
        return 0.0
    return float(mp.exp(_meijerg_log_cdf(n_t, n_r, x)))


def gain_log_cdf_oracle(n_t: int, n_r: int, x: float) -> float:
    """ln of gain_cdf_oracle, stable far into the lower tail."""
    return float(_meijerg_log_cdf(n_t, n_r, x))


def gain_log_cdf_series(n_t: int, n_r: int, x: float,
                        dps: int = 80) -> float:
    """ln F(x) from a series of positive terms, independent of Meijer-G.

    Conditioning on the variable B of the larger shape M, with m the
    smaller one, E_B[B^{-j} e^{-x/B}] = (2/Gamma(M)) x^{(M-j)/2}
    K_{M-j}(2 sqrt x) (DLMF 10.32.10) gives

      F(x) = (2/Gamma(M)) sum_{j>=m} x^{(j+M)/2} K_{j-M}(2 sqrt x) / j!.

    The orders come from mpmath's K_0 and K_1 and the upward recurrence.
    Once nu = j - M >> x the term ratio tends to (j - M)/(j + 1), so the
    terms fall like j^{-M-1} and the tail past term j is t_j (j - M)/M up to
    a relative O(x / nu); the sum stops where that error is below 1e-20 of
    it and adds the tail.
    """
    m, big = min(n_t, n_r), max(n_t, n_r)
    with mp.workdps(dps):
        xm = mp.mpf(x)
        z = 2 * mp.sqrt(xm)
        ks = [mp.besselk(0, z), mp.besselk(1, z)]
        p = xm ** (mp.mpf(m + big) / 2) / mp.factorial(m)
        total = mp.mpf(0)
        j = m
        while True:
            nu = j - big
            while len(ks) <= abs(nu):
                n = len(ks) - 1
                ks.append(ks[n - 1] + 2 * n / z * ks[n])
            t = p * ks[abs(nu)]
            total += t
            if nu > 2 * xm and t * j / big * xm / nu < 1e-20 * total:
                total += t * nu / big
                break
            p = p * mp.sqrt(xm) / (j + 1)
            j += 1
        return float(mp.log(2 * total) - mp.loggamma(big))


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
            total *= mp.mpf(gain_cdf_oracle(n_t, n_r, float(thr)))
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


def use_ascending(n_t: int, n_r: int, x: float) -> bool:
    """The gain CDF's series choice as it was once made at every x (n_t >=
    n_r): the ascending series below x = 1e-4, or where the series' leading
    term is below 0.1.

    A frozen copy, with each lgamma computed here, of the point-by-point
    test that the per-shape switch of ``specfun`` replaced; the tests pin
    the switch to it.
    """
    if x < 1e-4:
        return True
    m = n_r
    lgg = math.lgamma(n_t) + math.lgamma(n_r)
    try:
        if n_t > n_r:
            lead = math.exp(math.lgamma(n_t - n_r) + m * math.log(x) - lgg) / m
        else:
            lead = math.exp(m * math.log(x) - lgg) * max(-math.log(x), 1.0) / m
    except OverflowError:
        return False
    return lead < 0.1
