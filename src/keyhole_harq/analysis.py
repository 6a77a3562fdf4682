"""Closed-form outage probability and its high-SNR behaviour.

An outage happens when every round misses the target rate R. Because the
rounds are independent and each per-round mutual information is monotone in
the scalar gain, the outage probability factors exactly:

    P_out = prod_k F_X( n_t (2^R - 1) / snr_k )

with F_X the equivalent-gain CDF from ``specfun``. Everything downstream of
that product (asymptote, diversity order, coding gain) follows the same
per-round threshold.

All probabilities are carried as natural logs; K rounds of ~1e-8 factors are
routine operating points and would underflow a linear carrier. Rounds with
the same per-round SNR (as in the paper's curves) share one per-round
evaluation, and the logs are still added in round order, so the sum is
bitwise the round-by-round one. One helper, ``_per_round``, makes that sum
for the exact product, for the asymptote and for each curve's columns. The
threshold and the asymptote's leading term are plain functions of the shape,
written once over floats or arrays; no per-shape object or cache holds
their constants.

``outage_curve`` evaluates a whole curve (one shape and K, many rates or
SNRs) eagerly, as float64 columns: it takes ``SystemConfig``'s arguments,
with the rate and each round's SNR a float or a sequence of n values. It
checks the shape and K once and each column with one array test, and
computes the threshold prefix n_t (2^R - 1) once per rate. Rounds given as
one object, or as equal floats, share one column of thresholds; each
distinct column goes through the array CDF of ``specfun`` once, and the
columns add in round order. The ln t of each threshold is taken once and
feeds both the CDF and the asymptote; ln ln snr is taken only where a
square array's asymptote is not blank. Every exp and log goes through
``math``, so a curve point is bitwise the ``exact_outage`` /
``asymptotic_outage`` value. The curve path only computes, and it computes
every point: an invalid input gets a nan threshold prefix, so its exact log
is nan, as is the exact log of a point where the one-point path would raise.
The first point with a nan exact log is replayed through ``SystemConfig``
and the one-point evaluation, which raises the error the one-point calls in
axis order would raise first, and within that point its first failing
round's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedConfigError
from .keyhole import SystemConfig, check_count
from .specfun import _each, _log_cdf_many, _or, meijer_g_log_cdf

__all__ = [
    "OutageProbability",
    "outage_threshold",
    "outage_curve",
    "exact_outage",
    "asymptotic_outage",
    "diversity_order",
    "coding_gain",
]


@dataclass(frozen=True)
class OutageProbability:
    """A probability carried in the log domain.

    ``value`` is exp(log_value); it underflows to 0.0 silently for
    log_value < ~-745, which is why ``log_value`` is the primary field.
    """

    log_value: float
    value: float

    @classmethod
    def from_log(cls, log_value: float) -> "OutageProbability":
        try:
            value = math.exp(log_value)
        except OverflowError:
            raise DomainError(
                f"probability exp({log_value!r}) overflows float64"
            ) from None
        return cls(log_value=log_value, value=value)


def _log_log(snr: float) -> float:
    return math.log(math.log(snr))


def _log_log_each(snr):
    """``_log_log`` at each element of the array snr where snr > 1; nan
    elsewhere, where a square array's asymptote is blank."""
    out = np.full(snr.shape, math.nan)
    up = np.flatnonzero(snr > 1.0)
    out[up] = _each(_log_log, snr[up])
    return out


def _gain(n_t: int, rate: float) -> float:
    """The threshold prefix n_t (2^R - 1); inf past float64."""
    try:
        return n_t * (2.0 ** rate - 1.0)
    except OverflowError:
        return math.inf


def _threshold(n_t: int, rate: float, snr: float) -> float:
    t = _gain(n_t, rate) / snr
    if not math.isfinite(t):
        raise DomainError(
            f"outage threshold n_t (2^R - 1) / snr overflows float64 at "
            f"n_t {n_t}, rate {rate!r}, snr {snr!r}"
        )
    return t


def _term(n_t: int, n_r: int, log_t, snr, log_log=_log_log):
    """Log of one round's leading high-SNR term from ln t: floats, or
    arrays with ``log_log`` the array form of ``_log_log``. The grouping is
    the one-point form's, so a curve point is bitwise the one-point value."""
    tau = abs(n_t - n_r)
    if tau == 0:
        return (n_t * log_t + log_log(snr) - math.log(n_t)
                - 2.0 * math.lgamma(n_t))
    m = min(n_t, n_r)
    return (math.lgamma(tau) - math.lgamma(n_t) - math.lgamma(n_r)
            + m * log_t - math.log(m))


def _per_round(snrs, log_term):
    """The sum of log_term(s) over the rounds' keys s, in round order, with
    one log_term call per distinct key; floats or float64 arrays."""
    memo = {}
    log_p = 0.0
    for s in snrs:
        v = memo.get(s)
        if v is None:
            v = memo[s] = log_term(s)
        log_p += v
    return log_p


def _curve(n_t: int, n_r: int, gains, snrs: list, col: list) -> tuple:
    """``exact_outage`` and ``asymptotic_outage`` logs at every point of a
    curve at once.

    Point i has the ``_gain`` gains[i] of its rate, nan at an invalid
    input, and in round j the SNR snrs[col[j]][i]: snrs holds the distinct
    round columns, float64 arrays like gains. Returns the float64 array of
    exact logs, nan exactly where the one-point path raises, and the list
    of asymptotic logs, None where ``asymptotic_outage`` raises or its exp
    overflows at a point with an exact log.
    """
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
    # at rate 0 every threshold is 0, so log_asy is -inf as in
    # ``asymptotic_outage``. It is nan where a square array's SNR is <= 1
    # (no ln ln snr was taken), and, at a point that raises for its
    # overflowed threshold, inf or nan; below exp(709) nothing overflows.
    asy = log_asy.tolist()
    for i in np.flatnonzero(~(log_asy <= 709.0)).tolist():
        if math.isnan(_or(math.exp, asy[i])):
            asy[i] = None
    return log_exact, asy


def outage_curve(n_t, n_r, k_rounds, rate, snr_per_round) -> tuple:
    """Exact and asymptotic log outage along a curve of n operating points.

    Takes ``SystemConfig``'s arguments, with columns allowed: ``rate`` is a
    float or a sequence of n rates, and each of the K entries of
    ``snr_per_round`` a float or a sequence of n linear SNRs. Rounds given
    as the same object, or as equal floats, share one CDF column. Returns
    two lists, ``log_exact`` and ``log_asymptotic``: at each point the
    ``log_value`` fields of ``exact_outage`` and ``asymptotic_outage``,
    bitwise; ``log_asymptotic`` is None where ``asymptotic_outage`` raises
    ``DomainError``. The shape and K are checked once and each column with
    one array test. The first point with an invalid input or a nan exact
    log is replayed through ``SystemConfig`` and the one-point evaluation,
    so a curve raises what the one-point calls in axis order raise first.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    k_rounds = check_count("k_rounds", k_rounds)
    index = {}
    distinct, col = [], []
    for s in snr_per_round:
        d = index.setdefault(s if isinstance(s, float) else (id(s),),
                             len(distinct))
        if d == len(distinct):
            distinct.append(s)
        col.append(d)
    cols = [np.array(c, dtype=float) for c in (rate, *distinct)]
    scalar = [not c.shape for c in cols]
    shapes = {c.shape for c in cols} - {()}
    if len(shapes) > 1 or any(len(shape) > 1 for shape in shapes):
        raise ValueError(
            "rate and each per-round SNR must be a float or a sequence of "
            f"one common length; got shapes {sorted(shapes)}")
    (n,) = shapes.pop() if shapes else (1,)
    if scalar[0]:
        gains = np.full(n, _gain(n_t, cols[0].item()))
    else:
        gains = np.fromiter(map(functools.partial(_gain, n_t),
                                cols[0].tolist()), float, n)
    cols = [np.full(n, c) if one else c for c, one in zip(cols, scalar)]
    ok = np.isfinite(cols[0]) & (cols[0] >= 0.0)
    for c in cols[1:]:
        ok &= np.isfinite(c) & (c > 0.0)
    gains[~ok] = math.nan
    if len(col) == k_rounds:
        log_exact, log_asy = _curve(n_t, n_r, gains, cols[1:], col)
    else:  # SystemConfig's SNR count check fails at every point
        log_exact, log_asy = np.full(n, math.nan), []
    failed = np.flatnonzero(np.isnan(log_exact))
    if failed.size:  # the one-point path raises the first failing point's
        first = int(failed[0])
        v = exact_outage(SystemConfig(
            n_t, n_r, k_rounds, rate if scalar[0] else rate[first],
            [s if scalar[1 + d] else s[first]
             for s, d in zip(snr_per_round, col)]))
        raise RuntimeError(f"curve point {first} is nan in the array path "
                           f"only; its one-point log is {v.log_value!r}")
    return log_exact.tolist(), log_asy


def outage_threshold(config: SystemConfig, round_index: int) -> float:
    """Per-round gain threshold n_t (2^R - 1) / snr_k; rounds are 1-based."""
    if not 1 <= round_index <= config.k_rounds:
        raise ValueError(
            f"round_index must be in 1..{config.k_rounds}, got {round_index}"
        )
    return _threshold(config.n_t, config.rate,
                      config.snr_per_round[round_index - 1])


def exact_outage(config: SystemConfig) -> OutageProbability:
    """Exact outage probability at any SNR.

    Product of the per-round CDF values, accumulated as a sum of logs in
    round order. Rounds sharing an SNR share one CDF evaluation.
    rate = 0 gives zero thresholds and outage probability 0.
    """
    n_t, n_r, rate = config.n_t, config.n_r, config.rate
    return OutageProbability.from_log(_per_round(
        config.snr_per_round,
        lambda snr: meijer_g_log_cdf(n_t, n_r, _threshold(n_t, rate, snr))))


def asymptotic_outage(config: SystemConfig) -> OutageProbability:
    """Leading high-SNR term of the outage probability.

    With t_k the per-round threshold, m = min(n_t, n_r) and tau = |n_t - n_r|:

      tau > 0:  prod_k Gamma(tau) t_k^m / (Gamma(n_t) Gamma(n_r) m)
      tau = 0:  prod_k t_k^{n_t} ln(snr_k) / (n_t Gamma(n_t)^2)

    The tau = 0 branch needs ln(snr_k) > 0, so every per-round SNR must
    exceed one (0 dB); below that the leading term is meaningless.
    """
    n_t, n_r, rate = config.n_t, config.n_r, config.rate
    if n_t == n_r:
        for g in config.snr_per_round:
            if g <= 1.0:
                raise DomainError(
                    "asymptotic outage for n_t == n_r needs every "
                    f"per-round SNR > 1 (0 dB); got {g}"
                )

    def log_term(snr: float) -> float:
        # rate 0, or a threshold that underflowed, gives t = 0 and -inf
        t = _threshold(n_t, rate, snr)
        return _term(n_t, n_r, math.log(t), snr) if t else -math.inf

    return OutageProbability.from_log(
        _per_round(config.snr_per_round, log_term))


def diversity_order(config: SystemConfig) -> int:
    """K * min(n_t, n_r): the slope of the outage curve on a log-log plot."""
    return config.k_rounds * min(config.n_t, config.n_r)


def coding_gain(config: SystemConfig) -> float:
    """SNR scale C(R) of the square-array asymptote P ~ (C gamma)^{-d} (ln gamma)^K.

    C(R) = (n (2^R - 1))^{-1} * (n Gamma(n)^2)^{1/n}  for n = n_t = n_r.

    Only square arrays admit this normalization; the rectangular asymptote
    has no ln term and a different constant structure.
    """
    if config.n_t != config.n_r:
        raise UnsupportedConfigError(
            f"coding gain is defined only for n_t == n_r, got "
            f"({config.n_t}, {config.n_r})"
        )
    if config.rate == 0.0:
        raise DomainError("coding gain is undefined at rate 0")
    n = config.n_t
    return math.exp(
        (math.log(n) + 2.0 * math.lgamma(n)) / n
    ) / (n * (2.0 ** config.rate - 1.0))
