"""The array path of the closed form: a whole curve as float64 columns.

This is the only closed-form module that imports numpy when it is imported;
``outage_curve`` imports it only for a curve that takes the array path.

``curve`` takes the columns that ``analysis._columns`` parsed, marks the
invalid inputs with one array test per column and computes the threshold
prefix n_t (2^R - 1) once per rate. Each distinct round column
goes through the array CDF ``_log_cdf_many`` once, and the columns add in
round order through ``analysis._per_round``. The ln t of each threshold is
taken once and feeds both the CDF and the asymptote; ln ln snr is taken
only where a square array's asymptote is not blank.

Each value is bitwise the one-point value. Only IEEE-exact operations run in
numpy (``+ - * /``, ``abs``, comparisons), elementwise and in the one-point
code's left-to-right grouping; every exp, log, log1p and ``**``
goes through ``math`` one element at a time (``_each``), because numpy's
vectorised ones may differ in the last bit. No series sum uses a numpy
reduction: a term loop adds one term per step to every live point, under a
mask, and a point stops being live at the very term where the one-point
loop stops. Only the ascending series runs on arrays, for the points below
the shape's ``_shape_table`` switch; every point from the switch on maps
the one-point ``specfun._log_cdf``, so 1 - S(x), its fallback and its
float64-reach decision exist once.

The array path only computes, and it computes every point: an invalid input
gets a nan threshold prefix, so its exact log is nan, as is the exact log
of a point where the one-point path would raise. The first point with a nan
exact log is replayed: ``exact_outage`` of its ``SystemConfig`` raises the
error the one-point calls in axis order would raise first, and within that
point its first failing round's.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .analysis import (
    _blank,
    _gain,
    _log_log,
    _per_round,
    _term,
    exact_outage,
)
from .specfun import _log_cdf, _shape_table


def _each(fn, a):
    """fn, a ``math`` function of one float, at each element of the float64
    array a, one element at a time.

    numpy's own exp, log, log1p and power may differ from ``math`` in the
    last bit, so the array path takes every transcendental from here. An
    element where fn raises gets nan.
    """
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


def _cdf_ascending_many(n_t: int, n_r: int, x, logx):
    """``specfun._cdf_ascending`` at each element of the array x; nan where
    it raises.

    A term is added only to the live points, and a point stops being live
    at the term where the scalar loop breaks, so its sum has exactly the
    scalar's terms.
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
    # x ** 0 is 1.0 for every float, so square shapes take no pow
    xt = (_each(functools.partial(pow, exp=n_t - n_r), x) if n_t > n_r
          else np.ones_like(x))
    live = np.ones(x.shape, dtype=bool)
    for k, (fact, bk, c) in enumerate(zip(tab.fact, tab.big_k, tab.psi)):
        term = xt * fact / bk * (c - logx)
        add(g, term, out=g, where=live)
        if k >= 2:
            live &= ~(np.abs(term) < 1e-17 * np.abs(g))
            if not live.any():
                break
        xt = xt * x
    return n_r * logx + _each(math.log, g) - tab.lg_t - tab.lg_r


def _log_cdf_many(n_t: int, n_r: int, x, logx):
    """``meijer_g_log_cdf`` at each element of the 1-D float64 array x.

    The shapes are checked integers >= 1, every x is finite and >= 0, and
    logx holds math.log of each x > 0, so the caller that also needs ln x
    takes it once. Each value is bitwise the one-point value; it is nan
    exactly where ``meijer_g_log_cdf`` raises ``DomainError``. Only
    IEEE-exact arithmetic runs in numpy, in the scalar code's grouping;
    every exp and log goes through ``math`` (``_each``).
    """
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


def _log_log_each(snr):
    """``analysis._log_log`` at each element of the array snr where
    snr > 1; nan elsewhere, where a square array's asymptote is blank."""
    out = np.full(snr.shape, math.nan)
    up = np.flatnonzero(snr > 1.0)
    out[up] = _each(_log_log, snr[up])
    return out


def curve(n_t: int, n_r: int, rate, snrs: list, col: list, n: int,
          configs) -> tuple:
    """``outage_curve`` on the array path, all points at once.

    ``rate`` and the distinct round columns ``snrs`` are as
    ``analysis._columns`` parses them, and round j is snrs[col[j]].
    ``configs`` yields each point's ``SystemConfig``, for the replay of the
    first failing point.
    """
    gains = (np.full(n, _gain(n_t, rate)) if isinstance(rate, float) else
             np.fromiter(map(functools.partial(_gain, n_t), rate), float, n))
    rate, *snrs = [np.full(n, c) if isinstance(c, float)
                   else np.array(c, dtype=float) for c in (rate, *snrs)]
    # an invalid input gets a nan gain, so its exact log is nan
    ok = np.isfinite(rate) & (rate >= 0.0)
    for s in snrs:
        ok &= np.isfinite(s) & (s > 0.0)
    gains[~ok] = math.nan
    with np.errstate(all="ignore"):
        # thresholds: one row per distinct round column
        t = np.vstack([gains / s for s in snrs])
        # ln t; -inf at 0 (rate 0, or an underflowed threshold)
        log_t = np.full(t.shape, -math.inf)
        pos = t > 0.0
        log_t[pos] = _each(math.log, t[pos])
        finite = np.isfinite(t)
        log_cdf = np.full(t.shape, math.nan)
        log_cdf[finite] = _log_cdf_many(n_t, n_r, t[finite], log_t[finite])
        # 0.0 + the first row is a new array, so no row is written
        log_exact = _per_round(col, log_cdf.__getitem__)
        log_asy = _per_round(col, lambda d: _term(
            n_t, n_r, log_t[d], snrs[d], _log_log_each))
    failed = np.flatnonzero(np.isnan(log_exact))
    if failed.size:  # the one-point path raises the first failing point's
        first = int(failed[0])
        v = exact_outage(next(itertools.islice(configs, first, None)))
        raise RuntimeError(f"curve point {first} is nan in the array path "
                           f"only; its one-point log is {v.log_value!r}")
    # at rate 0 every threshold is 0, so log_asy is -inf as in
    # ``asymptotic_outage``. It is nan where a square array's SNR is <= 1
    # (no ln ln snr was taken); below exp(709) nothing overflows.
    asy = log_asy.tolist()
    for i in np.flatnonzero(~(log_asy <= 709.0)).tolist():
        asy[i] = _blank(asy[i])
    return log_exact.tolist(), asy
