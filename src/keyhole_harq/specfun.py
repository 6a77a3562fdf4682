"""Special-function kernel used by the outage calculators.

The public functions are plain float64 arithmetic on the standard library's
``math`` module, one point per call, with explicit accuracy targets:

* ``bessel_k_scaled``: exponentially scaled modified Bessel function of the
  second kind for integer orders, relative error <= 1e-12 for x in
  [1e-8, 30] and orders up to 16. Orders 0 and 1 come from an ascending
  series (x <= 2) or Chebyshev fits of sqrt(x) e^x K_nu(x) (x > 2); higher
  orders use the upward recurrence, which is stable for this function.
  ``bessel_k_scaled`` and the survival series share one walk of the
  orders, so a survival CDF evaluates K_0 and K_1 once, at r = 2 sqrt(x),
  and walks the recurrence once up to order n_t.
* ``gain_pdf`` / ``meijer_g_cdf``: density and distribution function of the
  product of two unit-scale Erlang variables with integer shapes. The CDF is
  a Meijer-G function that reduces, for integer shapes, to a finite Bessel-K
  survival series; an ascending power series around zero takes over where
  1 - S(x) would cancel. Where neither series can be evaluated in float64
  (an overflowing term, or cancellation that leaves no valid logarithm),
  ``meijer_g_log_cdf`` raises ``DomainError`` instead of returning NaN.
  The factors of both series that depend only on the shapes (lgamma
  values, the ascending series' coefficients for every term) are computed
  once per shape and kept in a bounded LRU table, so an evaluation at x does
  only the x-dependent arithmetic, in the same grouping as before.

A whole curve evaluates through the private array forms (``_log_cdf_many``
and the ``*_many`` helpers it calls): the branch choice, both series and the
K_0/K_1 evaluation over a float64 array of x. Each value is bitwise the
one-point value. Only IEEE-exact operations run in numpy (``+ - * /``,
``sqrt``, ``abs``, comparisons, ``maximum``), elementwise and in the
one-point code's left-to-right grouping; every exp, log, log1p and ``**``
goes through ``math`` one element at a time (``_each``), because numpy's
vectorised ones may differ in the last bit. No series sum uses a numpy
reduction: a term loop adds one term per step to every live point, and a
point leaves the live set at the very term where the one-point loop stops.
``_clenshaw`` and the upward recurrence are written once and take floats or
arrays. A one-element array call costs far more than a one-point call, so
``meijer_g_log_cdf`` stays scalar.

The density is not integrated here: the tests check the CDF against an
mpmath quadrature of ``gain_pdf``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import DomainError

EULER = 0.5772156649015328606

__all__ = [
    "bessel_k_scaled",
    "gain_pdf",
    "meijer_g_cdf",
    "meijer_g_log_cdf",
]


def _each(fn, a, on_error: float = math.nan):
    """fn, a ``math`` function of one float, at each element of the float64
    array a, one element at a time.

    numpy's own exp, log, log1p and power may differ from ``math`` in the
    last bit, so the array path takes every transcendental from here. An
    element where fn raises gets on_error.
    """
    vals = a.ravel().tolist()
    try:
        out = np.fromiter(map(fn, vals), float, len(vals))
    except (OverflowError, ValueError):
        out = np.array([_or(fn, v, on_error) for v in vals], dtype=float)
    return out.reshape(a.shape)


def _or(fn, v: float, on_error: float) -> float:
    try:
        return fn(v)
    except (OverflowError, ValueError):
        return on_error


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
# Both fits as one column pair per term: one Clenshaw walk over a
# (2, n) array gives e^x K_0 and e^x K_1 at n arguments.
_K01E_CHEB = tuple(np.array([[a], [b]]) for a, b in zip(_K0E_CHEB, _K1E_CHEB))


def _clenshaw(coefs: tuple, s):
    """Chebyshev sum at s, a float or an array."""
    s2 = 2.0 * s  # 2.0 * s * b1 groups as (2.0 * s) * b1: same bits
    b1 = 0.0
    b2 = 0.0
    for a in coefs[:0:-1]:
        b1, b2 = s2 * b1 - b2 + a, b1
    return s * b1 - b2 + coefs[0]


def _k01_small(x: float) -> tuple:
    """Unscaled K_0(x), K_1(x) for 0 < x <= 2 via the ascending series."""
    u = 0.25 * x * x
    lh = math.log(0.5 * x)
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
    return k0, k1


def _k01_small_steps() -> tuple:
    """Per term k of ``_k01_small``: the divisors (k^2, k (k+1)) of u and
    the weights (H_k, psum_k) of its two sums, each as a column pair, in
    the scalar loop's arithmetic."""
    steps = []
    h = 0.0
    psum = 1.0 - 2.0 * EULER
    for k in range(1, 64):
        h += 1.0 / k
        psum += 1.0 / k + 1.0 / (k + 1)
        steps.append((np.array([[k * k], [k * (k + 1)]], dtype=float),
                      np.array([[h], [psum]])))
    return tuple(steps)


_K01_SMALL_STEPS = _k01_small_steps()


def _k01_small_many(x):
    """``_k01_small`` at each element of the array x.

    The series pairs (t0, t1), (i0, i1s) and (s0, s1) step as one array
    each. An element leaves the live set at the term where the scalar loop
    breaks, so every sum has exactly the scalar's terms.
    """
    u = 0.25 * x * x
    lh = _each(math.log, 0.5 * x)
    # live rows: t0, t1, i0, i1s, s0, s1, u
    live = np.ones((7, x.size))
    live[4] = 0.0
    live[5] = 1.0 - 2.0 * EULER
    live[6] = u
    idx = np.arange(x.size)
    sums = np.empty((4, x.size))
    for div, weight in _K01_SMALL_STEPS:
        t, i, s = live[0:2], live[2:4], live[4:6]
        t *= live[6] / div
        i += t
        s += t * weight
        done = t[0] < 1e-18 * i[0]
        if np.count_nonzero(done):
            sums[:, idx[done]] = live[2:6, done]
            keep = ~done
            live, idx = live[:, keep], idx[keep]
            if not idx.size:
                break
    else:
        sums[:, idx] = live[2:6]
    i0, i1s, s0, s1 = sums
    k0 = -(lh + EULER) * i0 + s0
    k1 = 1.0 / x + (0.5 * x) * (lh * i1s - 0.5 * s1)
    return k0, k1


def _upward(k0, k1, x):
    """Yield k0, k1 = e^x K_0(x), e^x K_1(x), then e^x K_2(x), ...

    Every higher order comes from the upward recurrence
    K_{n+1} = K_{n-1} + (2n/x) K_n: all terms positive, so no cancellation;
    K is the dominant solution in this direction. x, k0 and k1 are floats
    or arrays of one shape.
    """
    yield k0
    km, kc = k0, k1
    nu = 1
    while True:
        yield kc
        km, kc = kc, km + (2.0 * nu / x) * kc
        nu += 1


def _k_scaled_upward(x: float):
    """Yield e^x K_0(x), e^x K_1(x), e^x K_2(x), ... for x > 0.

    K_0 and K_1 are evaluated once; ``_upward`` walks the higher orders.
    """
    if x <= 2.0:
        k0, k1 = _k01_small(x)
        e = math.exp(x)
        k0 *= e
        k1 *= e
    else:
        rs = 1.0 / math.sqrt(x)
        s = 4.0 / x - 1.0
        k0 = _clenshaw(_K0E_CHEB, s) * rs
        k1 = _clenshaw(_K1E_CHEB, s) * rs
    return _upward(k0, k1, x)


def _k_scaled_upward_many(x):
    """``_k_scaled_upward`` at each element of the array x."""
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    small = x <= 2.0
    xs = x[small]
    if xs.size:
        a, b = _k01_small_many(xs)
        e = _each(math.exp, xs)
        k0[small] = a * e
        k1[small] = b * e
    large = ~small
    xl = x[large]
    if xl.size:
        rs = 1.0 / np.sqrt(xl)
        s = 4.0 / xl - 1.0
        k0[large], k1[large] = _clenshaw(_K01E_CHEB, s) * rs
    return _upward(k0, k1, x)


def bessel_k_scaled(order, x: float) -> float:
    """e^x K_order(x) for integer order >= 0 and x > 0.

    The scaled form stays O(1/sqrt(x)) for large x and is finite throughout
    x <= 700, where the unscaled value has long since underflowed.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise DomainError(f"order must be an integer, got {order!r}") from None
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"argument must be finite and > 0, got {x}")
    return next(itertools.islice(_k_scaled_upward(x), order, None))


def _validate_shapes(n_t, n_r) -> tuple:
    try:
        n_t = operator.index(n_t)
        n_r = operator.index(n_r)
    except TypeError:
        raise DomainError(
            f"antenna counts must be integers, got {n_t!r}, {n_r!r}"
        ) from None
    if n_t < 1 or n_r < 1:
        raise DomainError(f"antenna counts must be >= 1, got {n_t}, {n_r}")
    return n_t, n_r


def gain_pdf(n_t, n_r, x: float) -> float:
    """Density of the equivalent channel gain X = |u|^2 |v|^2.

    f(x) = 2 x^{(n_t+n_r)/2 - 1} K_tau(2 sqrt x) / (Gamma(n_t) Gamma(n_r))
    with tau = |n_t - n_r|. At x = 0 the density limit is returned: it is
    finite when min(n_t, n_r) = 1 and tau > 0, infinite for n_t = n_r = 1
    (logarithmic divergence), and 0 otherwise.
    """
    n_t, n_r = _validate_shapes(n_t, n_r)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x}")
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
    return 2.0 * math.exp(lg) * bessel_k_scaled(tau, r)


# Term cap of the ascending series; it converges far sooner wherever the
# branch choice sends it.
_ASCENDING_TERMS = 400


class _ShapeTable(NamedTuple):
    """The x-independent factors of the CDF series for one (n_t >= n_r).

    Each is computed by the expression the series used to evaluate at every
    x, so reading it from here leaves every result bitwise unchanged.
    """

    lg_t: float          # lgamma(n_t)
    lg_r: float          # lgamma(n_r)
    lg_tau: float        # lgamma(tau), tau > 0 only
    sgn: float           # (-1)^tau
    head: tuple          # (tau-k-1)! / (k! (m+k)), k < tau
    fact: tuple          # 1 / (k! (tau+k)!), k < _ASCENDING_TERMS
    big_k: tuple         # M + k
    psi: tuple           # psi(k+1) + psi(tau+k+1) + 1/(M+k)
    surv: tuple          # (0.5 (n_t+m), lgamma(m+1)), m < n_r


@functools.lru_cache(maxsize=256)
def _shape_table(n_t: int, n_r: int) -> _ShapeTable:
    tau = n_t - n_r
    m = n_r
    head = tuple(math.exp(math.lgamma(tau - k) - math.lgamma(k + 1)) / (m + k)
                 for k in range(tau))
    pa = _digamma_int(1)
    pb = _digamma_int(tau + 1)
    fact = math.exp(-math.lgamma(tau + 1))
    facts, big_k, psi = [], [], []
    for k in range(_ASCENDING_TERMS):
        facts.append(fact)
        big_k.append(n_t + k)
        psi.append(pa + pb + 1.0 / (n_t + k))
        fact /= (k + 1.0) * (tau + k + 1.0)
        pa += 1.0 / (k + 1.0)
        pb += 1.0 / (tau + k + 1.0)
    return _ShapeTable(
        lg_t=math.lgamma(n_t),
        lg_r=math.lgamma(n_r),
        lg_tau=math.lgamma(tau) if tau else math.nan,
        sgn=1.0 if tau % 2 == 0 else -1.0,
        head=head,
        fact=tuple(facts),
        big_k=tuple(big_k),
        psi=tuple(psi),
        surv=tuple((0.5 * (n_t + j), math.lgamma(j + 1)) for j in range(n_r)),
    )


def _survival(n_t: int, n_r: int, x: float) -> float:
    """P(X > x) as the finite Bessel series, evaluated in scaled form.

    Orders n_t - n_r + 1 .. n_t all come from one K_0/K_1 evaluation at
    r = 2 sqrt(x) and one upward recurrence (n_t >= n_r here).
    """
    tab = _shape_table(n_t, n_r)
    r = 2.0 * math.sqrt(x)
    logx = math.log(x)
    ks = list(itertools.islice(_k_scaled_upward(r), n_t + 1))
    acc = 0.0
    for m, (half, lg_fact) in enumerate(tab.surv):
        acc += math.exp(half * logx - lg_fact) * ks[n_t - m]
    return 2.0 * math.exp(-r - tab.lg_t) * acc


def _survival_many(n_t: int, n_r: int, x, logx):
    """``_survival`` at each element of the array x; nan where it raises."""
    tab = _shape_table(n_t, n_r)
    r = 2.0 * np.sqrt(x)
    ks = list(itertools.islice(_k_scaled_upward_many(r), n_t + 1))
    half, lg_fact = np.array(tab.surv).T[:, :, None]
    # every exp of the series in one pass: the n_r terms, then the prefactor
    e = _each(math.exp, np.vstack([half * logx - lg_fact, -r - tab.lg_t]))
    acc = 0.0
    for m in range(n_r):
        acc = acc + e[m] * ks[n_t - m]
    return 2.0 * e[n_r] * acc


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
    that does not depend on x comes from the shape's table.
    """
    tab = _shape_table(n_t, n_r)
    logx = math.log(x)
    g = 0.0
    fk = 1.0
    for h in tab.head:
        g += h * fk
        fk *= -x
    sgn = tab.sgn
    xt = x ** (n_t - n_r)
    for k, (fact, bk, c) in enumerate(zip(tab.fact, tab.big_k, tab.psi)):
        term = xt * fact / bk * (c - logx)
        g += sgn * term
        if k >= 2 and abs(term) < 1e-17 * abs(g):
            break
        xt *= x
    return n_r * logx + math.log(g) - tab.lg_t - tab.lg_r


def _cdf_ascending_many(n_t: int, n_r: int, x, logx):
    """``_cdf_ascending`` at each element of the array x; nan where it
    raises.

    An element leaves the live set at the term where the scalar loop
    breaks, so its sum has exactly the scalar's terms.
    """
    tab = _shape_table(n_t, n_r)
    g = np.zeros_like(x)
    fk = np.ones_like(x)
    negx = -x
    for h in tab.head:
        g = g + h * fk
        fk = fk * negx
    # (-1)^tau: adding -term is subtracting term, bit for bit
    add = np.add if tab.sgn > 0.0 else np.subtract
    xt = _each(functools.partial(pow, exp=n_t - n_r), x)
    xl, lx = x, logx
    idx = np.arange(x.size)
    out = np.empty_like(x)
    for k, (fact, bk, c) in enumerate(zip(tab.fact, tab.big_k, tab.psi)):
        term = xt * fact / bk * (c - lx)
        g = add(g, term)
        if k >= 2:
            done = np.abs(term) < 1e-17 * np.abs(g)
            hit = done.nonzero()[0]
            if hit.size:
                out[idx[hit]] = g[hit]
                keep = ~done
                idx, g, xt, xl, lx = (idx[keep], g[keep], xt[keep], xl[keep],
                                      lx[keep])
                if not idx.size:
                    break
        xt = xt * xl
    else:
        out[idx] = g
    return n_r * logx + _each(math.log, out) - tab.lg_t - tab.lg_r


# Switch away from 1 - S(x) when the result would be dominated by
# cancellation. The x threshold guards tiny arguments outright; the leading
# term estimate guards configurations whose CDF is small even at moderate x
# (larger min(n_t, n_r)), where 1 - S(x) would lose most of its digits. The
# leading term overestimates F by up to ~2 orders for large equal shapes, so
# the cut sits well above the accuracy target: the ascending series is good
# to ~1e-13 everywhere below it (checked against 60-digit quadrature for
# shapes up to 8), while 1 - S keeps >= 12 digits above it.
_ASCENDING_X = 1e-4
_ASCENDING_F = 0.1


def _use_ascending(n_t: int, n_r: int, x: float) -> bool:
    if x < _ASCENDING_X:
        return True
    tab = _shape_table(n_t, n_r)
    m = n_r
    lgg = tab.lg_t + tab.lg_r
    try:
        if n_t > n_r:
            lead = math.exp(tab.lg_tau + m * math.log(x) - lgg) / m
        else:
            lead = math.exp(m * math.log(x) - lgg) * max(-math.log(x), 1.0) / m
    except OverflowError:
        return False  # a leading term past float range is far above the cut
    return lead < _ASCENDING_F


def _use_ascending_many(n_t: int, n_r: int, x, logx):
    """``_use_ascending`` at each element of the array x.

    A leading term whose exp overflows is nan here, and nan < _ASCENDING_F
    is False, as the scalar's overflow branch returns.
    """
    tab = _shape_table(n_t, n_r)
    m = n_r
    lgg = tab.lg_t + tab.lg_r
    if n_t > n_r:
        lead = _each(math.exp, tab.lg_tau + m * logx - lgg) / m
    else:
        lead = (_each(math.exp, m * logx - lgg) * np.maximum(-logx, 1.0)
                / m)
    return (x < _ASCENDING_X) | (lead < _ASCENDING_F)


def _log_cdf_many(n_t: int, n_r: int, x):
    """``meijer_g_log_cdf`` at each element of the 1-D float64 array x.

    The shapes are checked integers >= 1 and every x is finite and >= 0.
    Each value is bitwise the one-point value; it is nan exactly where
    ``meijer_g_log_cdf`` raises ``DomainError`` (see ``_cdf_domain_error``).
    Only IEEE-exact arithmetic runs in numpy, in the scalar code's grouping;
    every exp and log goes through ``math`` (``_each``).
    """
    big, small = (n_r, n_t) if n_r > n_t else (n_t, n_r)
    out = np.full(x.shape, -math.inf)
    pos = np.flatnonzero(x > 0.0)
    try:
        _shape_table(big, small)
    except OverflowError:  # exp(lgamma(tau)) overflows: no series applies
        out[pos] = math.nan
        return out
    with np.errstate(all="ignore"):
        xp = x[pos]
        logx = _each(math.log, xp)
        asc = _use_ascending_many(big, small, xp, logx)
        surv = np.flatnonzero(~asc)
        if surv.size:
            s = _survival_many(big, small, xp[surv], logx[surv])
            # roundoff can push S marginally past 1 when F is at the
            # switch edge
            fallback = s >= 1.0
            asc[surv[fallback]] = True
            keep = ~fallback
            out[pos[surv[keep]]] = _each(math.log1p, -s[keep])
        sel = np.flatnonzero(asc)
        if sel.size:
            out[pos[sel]] = _cdf_ascending_many(big, small, xp[sel],
                                                logx[sel])
    return out


def _cdf_domain_error(n_t, n_r, x: float) -> DomainError:
    """The error of a gain CDF that neither series can evaluate at x."""
    return DomainError(
        f"gain CDF for shapes ({n_t}, {n_r}) at x = {x!r} is beyond "
        "float64 reach of both the ascending and the survival series"
    )


def meijer_g_log_cdf(n_t, n_r, x: float) -> float:
    """ln F(x) for the equivalent-gain CDF; -inf at x = 0.

    This is the log-domain carrier used by the outage product: K rounds of
    small per-round probabilities stay representable as a sum of logs.
    """
    n_t, n_r = _validate_shapes(n_t, n_r)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return -math.inf
    # the distribution is symmetric in the two shapes; fixing the order
    # makes that exact bitwise and keeps the survival sum short
    big, small = (n_r, n_t) if n_r > n_t else (n_t, n_r)
    try:
        if _use_ascending(big, small, x):
            log_f = _cdf_ascending(big, small, x)
        else:
            s = _survival(big, small, x)
            if s >= 1.0:
                # roundoff can push S marginally past 1 when F is at the
                # switch edge
                log_f = _cdf_ascending(big, small, x)
            else:
                log_f = math.log1p(-s)
    except (OverflowError, ValueError):
        log_f = math.nan
    if math.isnan(log_f):
        raise _cdf_domain_error(n_t, n_r, x)
    return log_f


def meijer_g_cdf(n_t, n_r, x: float) -> float:
    """CDF of the equivalent channel gain X = |u|^2 |v|^2.

    Equals the Meijer-G form G^{2,1}_{1,3}(x | 1; n_t, n_r, 0) normalized by
    Gamma(n_t) Gamma(n_r), which for integer shapes reduces to
    1 - (2/Gamma(n_t)) sum_{m<n_r} x^{(n_t+m)/2} K_{n_t-m}(2 sqrt x) / m!.
    The linear view of ``meijer_g_log_cdf``, so it shares that function's
    validation, branch choice and exact symmetry in (n_t, n_r).
    """
    return math.exp(meijer_g_log_cdf(n_t, n_r, x))
