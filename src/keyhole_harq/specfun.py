"""Special-function kernel used by the outage calculators.

The public functions are plain float64 arithmetic on the standard library's
``math`` module, one point per call, with explicit accuracy targets:

* ``bessel_k_scaled``: exponentially scaled modified Bessel function of the
  second kind for integer orders, relative error <= 1e-12 for x in
  [1e-8, 30] and orders up to 16. Orders 0 and 1 come from an ascending
  series (x <= 2) or Chebyshev fits of sqrt(x) e^x K_nu(x) (x > 2), both
  fits in one Clenshaw walk; higher orders use the upward recurrence, which
  is stable for this function.
  ``bessel_k_scaled`` and the survival series read their orders from one
  list (``_orders``), so a survival CDF evaluates K_0 and K_1 once, at
  r = 2 sqrt(x), and walks the recurrence once up to order n_t.
* ``gain_pdf`` / ``meijer_g_cdf``: density and distribution function of the
  product of two unit-scale Erlang variables with integer shapes. The CDF is
  a Meijer-G function that reduces, for integer shapes, to a finite Bessel-K
  survival series; an ascending power series around zero takes over where
  1 - S(x) would cancel. Where neither series can be evaluated in float64
  (an overflowing term, or cancellation that leaves no valid logarithm),
  ``meijer_g_log_cdf`` raises ``DomainError`` instead of returning NaN. It
  raises one too where the series taken cancels so far that the rounding
  error estimate u sum|t| / |sum t| (u S / (1 - S) for 1 - S) passes
  ``_CANCEL``: a value that would be garbage is refused.
  The factors of both series that depend only on the shapes (lgamma
  values, the ascending series' coefficients for every term) are computed
  once per shape and kept in a bounded LRU table, so an evaluation at x does
  only the x-dependent arithmetic, in the same grouping as before. The
  table also holds the shape's switch: x below it takes the ascending
  series, x at or above it 1 - S(x). That choice, the fallback where S
  rounds to 1 or past it and the nan beyond float64 reach live in one
  one-point function, ``_log_cdf``.

A long curve takes the array form ``_log_cdf_many`` over a float64 array
of x: the ascending series runs on the array (``_cdf_ascending_many``), and
the points from the switch on map ``_log_cdf``, so 1 - S(x), its fallback,
its float64-reach decision and its guard exist once. Each value is bitwise
the one-point value: numpy does only IEEE-exact elementwise arithmetic
(``+ - * /``, ``abs``, comparisons) in the one-point grouping, every exp,
log and ``**`` goes through ``math`` one element at a time (``_each``), and
no sum is a numpy reduction: a term is added only to the points still live,
and a point stops at the term where the one-point loop stops. numpy is
imported inside these functions, and ``meijer_g_log_cdf`` stays scalar,
because a one-element array call costs far more than a one-point call.

The density is not integrated here: the tests check the CDF against an
mpmath quadrature of ``gain_pdf``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, check_count, check_real

EULER = 0.5772156649015328606

__all__ = [
    "bessel_k_scaled",
    "gain_pdf",
    "meijer_g_cdf",
    "meijer_g_log_cdf",
]


# Chebyshev coefficients of sqrt(x) e^x K_nu(x) in s = 4/x - 1, x in [2, inf).
# Generated from 45-digit samples at 48 Chebyshev nodes and trimmed at 1e-18;
# together with the ascending series below this gives ~6e-15 worst relative
# error for orders up to 16 on x in [1e-8, 30].
_K0E_CHEB = (
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533,
    -0.00012849549581627802, 1.39498137188765e-05, -1.8317555227191195e-06,
    2.766813639445015e-07, -4.660489897687948e-08, 8.574034017414225e-09,
    -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12,
    -2.9800969231481784e-13, 8.032890775068375e-14, -2.2275133267462965e-14,
    6.340076476276646e-15, -1.848593377920907e-15, 5.5120559994043335e-16,
    -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
    5.3004337711773354e-18, -1.7331712005821001e-18,
)
_K1E_CHEB = (
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12,
    3.348419666052243e-13, -8.976705182010146e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.038703166239861e-15, -6.057047270643018e-16,
    1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
    -5.7567444820733025e-18, 1.8778651901623268e-18,
)
# Both fits as coefficient pairs, highest term first, for one Clenshaw walk
# that gives e^x K_0 and e^x K_1 together.
_K01E_PAIRS = tuple(zip(_K0E_CHEB[:0:-1], _K1E_CHEB[:0:-1]))


def _k01_scaled(x: float) -> tuple:
    """e^x K_0(x), e^x K_1(x) for x > 0: the ascending series times e^x for
    x <= 2, the two Chebyshev fits above."""
    if x > 2.0:
        rs = 1.0 / math.sqrt(x)
        s = 4.0 / x - 1.0
        s2 = 2.0 * s  # 2.0 * s * b1 groups as (2.0 * s) * b1: same bits
        b1 = b2 = c1 = c2 = 0.0
        for a, c in _K01E_PAIRS:
            b1, b2 = s2 * b1 - b2 + a, b1
            c1, c2 = s2 * c1 - c2 + c, c1
        return ((s * b1 - b2 + _K0E_CHEB[0]) * rs,
                (s * c1 - c2 + _K1E_CHEB[0]) * rs)
    u = 0.25 * x * x
    half = 0.5 * x  # rounds to 0 at the least subnormal
    lh = math.log(half) if half else math.log(x) - math.log(2.0)
    i0 = 1.0          # I_0(x)
    i1s = 1.0         # I_1(x) / (x/2)
    s0 = 0.0          # sum H_k u^k / (k!)^2
    psum = 1.0 - 2.0 * EULER       # psi(1) + psi(2)
    s1 = psum                      # sum (psi(k+1)+psi(k+2)) u^k / (k!(k+1)!)
    t0 = 1.0
    t1 = 1.0
    h = 0.0
    for k in range(1, 64):
        t0 *= u / (k * k)
        t1 *= u / (k * (k + 1))
        h += 1.0 / k
        psum += 1.0 / k + 1.0 / (k + 1)
        i0 += t0
        i1s += t1
        s0 += t0 * h
        s1 += t1 * psum
        if t0 < 1e-18 * i0:
            break
    k0 = -(lh + EULER) * i0 + s0
    k1 = 1.0 / x + (0.5 * x) * (lh * i1s - 0.5 * s1)
    e = math.exp(x)
    return k0 * e, k1 * e


def _orders(x: float, n: int) -> list:
    """[e^x K_0(x), ..., e^x K_n(x)] for x > 0 and n >= 0.

    K_0 and K_1 come from ``_k01_scaled``, every higher order from the
    upward recurrence K_{nu+1} = K_{nu-1} + (2 nu/x) K_nu: all terms
    positive, so no cancellation; K is the dominant solution in this
    direction.
    """
    ks = list(_k01_scaled(x))
    for nu in range(1, n):
        ks.append(ks[nu - 1] + (2.0 * nu / x) * ks[nu])
    return ks[:n + 1]


def bessel_k_scaled(order, x: float) -> float:
    """e^x K_order(x) for integer order >= 0 and x > 0.

    The scaled form stays O(1/sqrt(x)) for large x and is finite throughout
    x <= 700, where the unscaled value has long since underflowed. It raises
    ``DomainError`` where the value overflows, as at order 200 and x = 0.1.
    """
    order = check_count("order", order, least=0)
    x = check_real("x", x, positive=True)
    k = _orders(x, order)[order]
    if not math.isfinite(k):
        raise DomainError(
            f"e^x K_{order}(x) at x = {x!r} overflows float64")
    return k


def gain_pdf(n_t, n_r, x: float) -> float:
    """Density of the equivalent channel gain X = |u|^2 |v|^2.

    f(x) = 2 x^{(n_t+n_r)/2 - 1} K_tau(2 sqrt x) / (Gamma(n_t) Gamma(n_r))
    with tau = |n_t - n_r|. At x = 0 the density limit is returned: it is
    finite when min(n_t, n_r) = 1 and tau > 0, infinite for n_t = n_r = 1
    (logarithmic divergence), and 0 otherwise. At x > 0 it raises
    ``DomainError`` where its scaled factors multiply to inf or nan, as for
    large tau at small x, where e^r K_tau(r) overflows.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    x = check_real("x", x)
    tau = abs(n_t - n_r)
    if x == 0.0:
        if min(n_t, n_r) > 1:
            return 0.0
        if tau == 0:
            return math.inf
        return math.exp(math.lgamma(tau) - math.lgamma(n_t) - math.lgamma(n_r))
    r = 2.0 * math.sqrt(x)
    lg = (
        (0.5 * (n_t + n_r) - 1.0) * math.log(x) - r
        - math.lgamma(n_t) - math.lgamma(n_r)
    )
    pdf = 2.0 * math.exp(lg) * _orders(r, tau)[tau]
    if not math.isfinite(pdf):
        raise DomainError(
            f"gain density for shapes ({n_t}, {n_r}) at x = {x!r} is beyond "
            "float64 reach of its scaled Bessel form")
    return pdf


# Term cap of the ascending series; it converges far sooner wherever the
# branch choice sends it.
_ASCENDING_TERMS = 400
# From its third term on, the ascending series stops after a term below
# _STOP times the sum so far.
_STOP = 1e-17


class _ShapeTable(NamedTuple):
    """The x-independent factors of the CDF series for one (n_t >= n_r).

    Each is computed by the expression the series used to evaluate at every
    x, so reading it from here leaves every result bitwise unchanged.
    """

    lg_t: float          # lgamma(n_t)
    lg_r: float          # lgamma(n_r)
    head: tuple          # (tau-k-1)! / (k! (m+k)), k < tau
    fact: tuple          # (-1)^tau / (k! (tau+k)!), k < _ASCENDING_TERMS
    big_k: tuple         # M + k
    psi: tuple           # psi(k+1) + psi(tau+k+1) + 1/(M+k)
    surv: tuple          # (0.5 (n_t+m), lgamma(m+1)), m < n_r
    switch: float        # least x > 0 that 1 - S(x) serves


@functools.lru_cache(maxsize=256)
def _shape_table(n_t: int, n_r: int) -> _ShapeTable:
    tau = n_t - n_r
    m = n_r
    head = tuple(math.exp(math.lgamma(tau - k) - math.lgamma(k + 1)) / (m + k)
                 for k in range(tau))
    pa = _digamma_int(1)
    pb = _digamma_int(tau + 1)
    fact = math.exp(-math.lgamma(tau + 1))
    sgn = 1.0 if tau % 2 == 0 else -1.0
    facts, big_k, psi = [], [], []
    for k in range(_ASCENDING_TERMS):
        # negating a factor negates the product bit for bit, so the series
        # adds (-1)^tau times its term by adding its term
        facts.append(sgn * fact)
        big_k.append(n_t + k)
        psi.append(pa + pb + 1.0 / (n_t + k))
        fact /= (k + 1.0) * (tau + k + 1.0)
        pa += 1.0 / (k + 1.0)
        pb += 1.0 / (tau + k + 1.0)
    return _ShapeTable(
        lg_t=math.lgamma(n_t),
        lg_r=math.lgamma(n_r),
        head=head,
        fact=tuple(facts),
        big_k=tuple(big_k),
        psi=tuple(psi),
        surv=tuple((0.5 * (n_t + j), math.lgamma(j + 1)) for j in range(n_r)),
        switch=_switch(n_t, n_r),
    )


def _survival(n_t: int, n_r: int, x: float) -> float:
    """P(X > x) as the finite Bessel series, evaluated in scaled form.

    Orders n_t - n_r + 1 .. n_t all come from one K_0/K_1 evaluation at
    r = 2 sqrt(x) and one upward recurrence (n_t >= n_r here).
    """
    tab = _shape_table(n_t, n_r)
    r = 2.0 * math.sqrt(x)
    logx = math.log(x)
    ks = _orders(r, n_t)
    acc = 0.0
    for m, (half, lg_fact) in enumerate(tab.surv):
        acc += math.exp(half * logx - lg_fact) * ks[n_t - m]
    return 2.0 * math.exp(-r - tab.lg_t) * acc


def _digamma_int(n: int) -> float:
    v = -EULER
    for j in range(1, n):
        v += 1.0 / j
    return v


def _cdf_ascending(n_t: int, n_r: int, x: float) -> float:
    """ln F(x) from the ascending series around x = 0 (n_t >= n_r).

    With m = min, M = max and tau = M - m, the CDF expands as

      F(x) Gamma(n_t) Gamma(n_r) =
          sum_{k<tau} (tau-k-1)! (-x)^k x^m / (k! (m+k))
        + (-1)^tau sum_{k>=0} x^{M+k} (psi(k+1) + psi(tau+k+1)
                                       + 1/(M+k) - ln x) / (k! (tau+k)! (M+k)).

    x^m is factored out so the result is formed in the log domain without
    underflow; all remaining factors are O(|ln x|) or smaller. Every factor
    that does not depend on x comes from the shape's table. Raises
    ``DomainError`` where the sum cancels past _CANCEL.
    """
    tab = _shape_table(n_t, n_r)
    logx = math.log(x)
    g = mag = 0.0  # the sum and the sum of its terms' magnitudes
    fk = 1.0
    for h in tab.head:
        t = h * fk
        g += t
        mag += abs(t)
        fk *= -x
    xt = x ** (n_t - n_r)
    for k, (fact, bk, c) in enumerate(zip(tab.fact, tab.big_k, tab.psi)):
        term = xt * fact / bk * (c - logx)
        g += term
        a = abs(term)
        mag += a
        if k >= 2 and a < _STOP * abs(g):
            break
        xt *= x
    if 2.0 ** -53 * mag > _CANCEL * abs(g):
        raise _cancelled("ascending", n_t, n_r, x)
    return n_r * logx + math.log(g) - tab.lg_t - tab.lg_r


def _cdf_ascending_many(n_t: int, n_r: int, x, logx):
    """``_cdf_ascending`` at each element of the float64 array x, with logx
    its ln x; nan where it raises.

    A term is added only to the live points, and a point stops being live
    at the term where the scalar loop breaks, so its sum, and the sum of
    its terms' magnitudes that the cancellation guard reads, have exactly
    the scalar's terms.
    """
    import numpy as np

    tab = _shape_table(n_t, n_r)
    # one row each for the sum and its magnitudes, so one add updates both
    acc = np.zeros((2, x.size))
    g, mag = acc
    fk = np.ones_like(x)
    negx = -x
    for h in tab.head:
        t = h * fk
        g += t
        mag += np.abs(t)
        fk = fk * negx
    # x ** 0 is 1.0 for every float, so square shapes take no pow
    xt = (_each(functools.partial(pow, exp=n_t - n_r), x) if n_t > n_r
          else np.ones_like(x))
    live = np.ones(x.shape, dtype=bool)
    step = np.empty_like(acc)
    term, a = step  # the term and its magnitude
    buf = np.empty_like(x)
    for k, (fact, bk, c) in enumerate(zip(tab.fact, tab.big_k, tab.psi)):
        np.multiply(xt, fact, out=term)
        np.divide(term, bk, out=term)
        np.multiply(term, np.subtract(c, logx, out=buf), out=term)
        np.abs(term, out=a)
        np.add(acc, step, out=acc, where=live)
        if k >= 2:
            np.multiply(np.abs(g, out=buf), _STOP, out=buf)
            live &= ~(a < buf)
            if not np.count_nonzero(live):
                break
        np.multiply(xt, x, out=xt)
    out = n_r * logx + _each(math.log, g) - tab.lg_t - tab.lg_r
    out[2.0 ** -53 * mag > _CANCEL * np.abs(g)] = math.nan
    return out


# The cancellation guard (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, 4.2): a sum whose terms' magnitudes add to mag may lose
# u mag / |sum| of its relative accuracy to rounding (u = 2^-53), and 1 - S
# may lose u S / (1 - S). Past _CANCEL the CDF is refused, not returned.
_CANCEL = 1e-5


def _cancelled(series: str, n_t: int, n_r: int, x: float) -> DomainError:
    return DomainError(
        f"gain CDF for shapes ({n_t}, {n_r}) at x = {x!r} is refused: "
        f"cancellation in the {series} series may leave a relative error "
        f"above {_CANCEL:g}")


# Each shape switches from the ascending series to 1 - S(x) where the
# ascending series' leading term, an estimate of F, reaches _ASCENDING_F:
# below that, 1 - S(x) would lose most of its digits to cancellation. The
# leading term overestimates F by up to ~2 orders for large equal shapes, so
# the cut sits well above the accuracy target. Against the mpmath oracle at
# each shape's switch and its lower neighbour, up to 8x8, the relative error
# in F is at most 1.7e-12 on the ascending side (8x8, x = 8.19) and 1.4e-12
# on the survival side (8x7, x = 8.22). It grows with the shapes: 8.3e-10 at
# 12x9 and 2.4e-7 at 16x16, both just below the switch.
_ASCENDING_F = 0.1


def _switch(n_t: int, n_r: int) -> float:
    """The least float x > 0 whose leading ascending term is not below
    _ASCENDING_F (n_t >= n_r).

    The term, x^m Gamma(tau) / (m Gamma(n_t) Gamma(n_r)) for tau > 0 and
    x^m max(-ln x, 1) / (m Gamma(m)^2) for tau = 0, grows with x, so the
    test ``lead < _ASCENDING_F`` flips once. Bisection over all positive
    floats, by geometric means down to a factor of 2 and then by arithmetic
    means, finds the flip to two adjacent floats.
    """
    m = n_r
    lgg = math.lgamma(n_t) + math.lgamma(n_r)
    lg_tau = math.lgamma(n_t - n_r) if n_t > n_r else math.nan
    lo, hi = math.ulp(0.0), math.nextafter(math.inf, 0.0)
    while math.nextafter(lo, hi) != hi:
        x = (math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo
             else 0.5 * (lo + hi))
        try:
            if n_t > n_r:
                lead = math.exp(lg_tau + m * math.log(x) - lgg) / m
            else:
                lead = (math.exp(m * math.log(x) - lgg)
                        * max(-math.log(x), 1.0) / m)
        except OverflowError:
            lead = math.inf  # past float range: far above the cut
        if lead < _ASCENDING_F:
            lo = x
        else:
            hi = x
    return hi


def meijer_g_log_cdf(n_t, n_r, x: float) -> float:
    """ln F(x) for the equivalent-gain CDF; -inf at x = 0.

    This is the log-domain carrier used by the outage product: K rounds of
    small per-round probabilities stay representable as a sum of logs.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    x = check_real("x", x)
    if x == 0.0:
        return -math.inf
    # the distribution is symmetric in the two shapes; fixing the order
    # makes that exact bitwise and keeps the survival sum short
    big, small = (n_r, n_t) if n_r > n_t else (n_t, n_r)
    log_f = _log_cdf(big, small, x)
    if math.isnan(log_f):
        raise DomainError(
            f"gain CDF for shapes ({n_t}, {n_r}) at x = {x!r} is beyond "
            "float64 reach of both the ascending and the survival series"
        )
    return log_f


def _log_cdf(n_t: int, n_r: int, x: float) -> float:
    """ln F(x) for checked shapes n_t >= n_r and x > 0; nan where neither
    series can be evaluated in float64, and ``DomainError`` where the
    series taken cancels past _CANCEL.

    x below the shape's switch takes the ascending series, x from it on
    1 - S(x). ``meijer_g_log_cdf`` calls this, and ``_log_cdf_many`` maps
    it over a curve's survival points.
    """
    try:
        if x < _shape_table(n_t, n_r).switch:
            return _cdf_ascending(n_t, n_r, x)
        s = _survival(n_t, n_r, x)
        if s >= 1.0:
            # roundoff can push S marginally past 1 when F is at the
            # switch edge
            return _cdf_ascending(n_t, n_r, x)
        if 2.0 ** -53 * s > _CANCEL * (1.0 - s):
            raise _cancelled("survival", n_t, n_r, x)
        return math.log1p(-s)
    except DomainError:
        raise
    except (OverflowError, ValueError):
        return math.nan


def _log_cdf_many(n_t: int, n_r: int, x, logx):
    """``meijer_g_log_cdf`` at each element of the 1-D float64 array x.

    The shapes are checked integers >= 1, every x is finite and >= 0, and
    logx holds math.log of each x > 0, so the caller that also needs ln x
    takes it once. Each value is bitwise the one-point value; it is nan
    exactly where ``meijer_g_log_cdf`` raises ``DomainError``.
    """
    import numpy as np

    big, small = (n_r, n_t) if n_r > n_t else (n_t, n_r)
    out = np.full(x.shape, -math.inf)
    pos = x > 0.0
    try:
        switch = _shape_table(big, small).switch
    except OverflowError:  # no series applies: _log_cdf gives nan at each x
        switch = 0.0
    with np.errstate(all="ignore"):
        asc = np.flatnonzero(pos & (x < switch))
        if asc.size:
            out[asc] = _cdf_ascending_many(big, small, x[asc], logx[asc])
        surv = np.flatnonzero(pos & (x >= switch))
        out[surv] = _each(functools.partial(_log_cdf, big, small), x[surv])
    return out


def _each(fn, a):
    """fn, a ``math`` function of one float, at each element of the float64
    array a, one element at a time.

    numpy's own exp, log, log1p and power may differ from ``math`` in the
    last bit, so the array forms take every transcendental from here. An
    element where fn raises gets nan.
    """
    import numpy as np

    vals = a.ravel().tolist()
    try:
        out = np.fromiter(map(fn, vals), float, len(vals))
    except (OverflowError, ValueError):
        out = np.array([_or(fn, v) for v in vals], dtype=float)
    return out.reshape(a.shape)


def _or(fn, v: float) -> float:
    try:
        return fn(v)
    except (OverflowError, ValueError):
        return math.nan


def meijer_g_cdf(n_t, n_r, x: float) -> float:
    """CDF of the equivalent channel gain X = |u|^2 |v|^2.

    Equals the Meijer-G form G^{2,1}_{1,3}(x | 1; n_t, n_r, 0) normalized by
    Gamma(n_t) Gamma(n_r), which for integer shapes reduces to
    1 - (2/Gamma(n_t)) sum_{m<n_r} x^{(n_t+m)/2} K_{n_t-m}(2 sqrt x) / m!.
    The linear view of ``meijer_g_log_cdf``, so it shares that function's
    validation, branch choice and exact symmetry in (n_t, n_r).
    """
    return math.exp(meijer_g_log_cdf(n_t, n_r, x))
