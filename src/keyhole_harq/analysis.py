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
bitwise the round-by-round one.

``outage_curve`` evaluates a whole curve (one shape and K, many rates or
SNRs) eagerly, as float64 arrays. It checks the shape and K once, a rate
only when it changes (computing the threshold prefix n_t (2^R - 1) there),
and all SNRs as one array. Each distinct round column of thresholds goes
through the array CDF of ``specfun`` once, and the columns add in round
order. The threshold and asymptote expressions are written once and take
floats or arrays, with every exp and log through ``math``, so a curve point
is bitwise the ``exact_outage`` / ``asymptotic_outage`` value. An invalid
curve raises what the one-point calls would raise first: the error of the
first failing point in axis order, and within it of its first failing
round, whether a validation error or a ``DomainError``.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, UnsupportedConfigError
from .keyhole import SystemConfig, check_count, check_rate, check_snrs
from .specfun import _cdf_domain_error, _each, _log_cdf_many, meijer_g_log_cdf

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
        return cls(log_value=log_value, value=_exp(log_value))


def _exp(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(
            f"probability exp({log_value!r}) overflows float64"
        ) from None


# math.log at each element of an array; -inf at 0, where a threshold
# underflowed and math.log raises
_log_each = functools.partial(_each, math.log, on_error=-math.inf)


@functools.lru_cache(maxsize=256)
def _rounds(n_t: int, n_r: int) -> "_Rounds":
    return _Rounds(n_t, n_r)


class _Rounds:
    """Per-round outage logs for one checked shape; holds no other state,
    so ``_rounds`` keeps one per shape.

    Holds what the points of a curve share: the shape constants of the
    asymptote. The threshold and asymptote expressions are written once and
    take floats or arrays alike; every one keeps the left-to-right grouping
    of its one-point form, so a curve point is bitwise the one-point value.
    """

    __slots__ = ("n_t", "n_r", "tau", "m", "lead", "log_m", "log_n", "lg2")

    def __init__(self, n_t: int, n_r: int):
        self.n_t = n_t
        self.n_r = n_r
        self.tau = tau = abs(n_t - n_r)
        self.m = m = min(n_t, n_r)
        if tau:
            self.lead = math.lgamma(tau) - math.lgamma(n_t) - math.lgamma(n_r)
            self.log_m = math.log(m)
        else:
            self.log_n = math.log(n_t)
            self.lg2 = 2.0 * math.lgamma(n_t)

    def gain(self, rate: float) -> float:
        """The threshold prefix n_t (2^R - 1); inf past float64."""
        try:
            return self.n_t * (2.0 ** rate - 1.0)
        except OverflowError:
            return math.inf

    def threshold_error(self, rate: float, snr: float) -> DomainError:
        return DomainError(
            f"outage threshold n_t (2^R - 1) / snr overflows float64 at "
            f"n_t {self.n_t}, rate {rate!r}, snr {snr!r}"
        )

    def threshold(self, rate: float, snr: float) -> float:
        t = self.gain(rate) / snr
        if not math.isfinite(t):
            raise self.threshold_error(rate, snr)
        return t

    def term(self, t, snr, log=math.log):
        """Log of one round's leading high-SNR term at threshold t: a float
        t > 0, or an array with log ``_log_each`` (-inf where t is 0)."""
        if self.tau == 0:
            return self.n_t * log(t) + log(log(snr)) - self.log_n - self.lg2
        return self.lead + self.m * log(t) - self.log_m

    def exact(self, rate: float, snrs: tuple) -> float:
        log_cdf = {}
        log_p = 0.0
        for snr in snrs:
            v = log_cdf.get(snr)
            if v is None:
                v = log_cdf[snr] = meijer_g_log_cdf(
                    self.n_t, self.n_r, self.threshold(rate, snr))
            log_p += v
        return log_p

    def asymptotic(self, rate: float, snrs: tuple) -> float:
        if self.tau == 0:
            for g in snrs:
                if g <= 1.0:
                    raise DomainError(
                        "asymptotic outage for n_t == n_r needs every "
                        f"per-round SNR > 1 (0 dB); got {g}"
                    )
        if rate == 0.0:
            return -math.inf
        terms = {}
        log_p = 0.0
        for snr in snrs:
            v = terms.get(snr)
            if v is None:
                # a threshold that underflowed to 0 gives -inf, as rate 0
                t = self.threshold(rate, snr)
                v = terms[snr] = self.term(t, snr) if t else -math.inf
            log_p += v
        return log_p

    def curve(self, runs: list, snrs) -> tuple:
        """``exact`` and ``asymptotic`` at every point of a curve at once.

        Point i has the checked SNRs snrs[i] (a points x rounds float64
        array); runs lists (first point, checked rate, its ``gain``) for
        every point where the rate changes. Returns the list of exact logs
        and the list of asymptotic logs, None where ``asymptotic`` raises or
        its exp overflows. Raises the error of the first point, and within
        it of the first round, where ``exact`` raises.
        """
        n, k = snrs.shape
        runs = [run for run in runs if run[0] < n]
        starts = [run[0] for run in runs]
        gains = np.repeat([run[2] for run in runs], np.diff(starts + [n]))
        # rounds with the same SNR at every point share one column, as the
        # one-point memo shares their values; columns add in round order
        first = [next(u for u in range(j + 1)
                      if np.array_equal(snrs[:, u], snrs[:, j]))
                 for j in range(k)]
        distinct = sorted(set(first))
        col = [distinct.index(u) for u in first]
        with np.errstate(all="ignore"):
            snr = snrs[:, distinct]
            t = gains[:, None] / snr
            finite = np.isfinite(t)
            log_cdf = np.full(t.shape, math.nan)
            log_cdf[finite] = _log_cdf_many(self.n_t, self.n_r, t[finite])
            failed = np.isnan(log_cdf[:, col])
            if failed.any():
                i, j = divmod(int(np.flatnonzero(failed)[0]), k)
                if not finite[i, col[j]]:
                    rate = runs[bisect.bisect_right(starts, i) - 1][1]
                    raise self.threshold_error(rate, float(snrs[i, j]))
                raise _cdf_domain_error(self.n_t, self.n_r,
                                        float(t[i, col[j]]))
            terms = [self.term(t[:, d], snr[:, d], _log_each)
                     for d in range(len(distinct))]
            log_exact = log_asy = 0.0
            for d in col:
                log_exact = log_exact + log_cdf[:, d]
                log_asy = log_asy + terms[d]
        # at rate 0 every threshold is 0, so log_asy is -inf as in
        # ``asymptotic``; below exp(709) nothing overflows
        if self.tau == 0:
            blank = (snrs <= 1.0).any(axis=1)
        else:
            blank = np.zeros(n, dtype=bool)
        big = np.flatnonzero(log_asy > 709.0)
        log_asy = log_asy.tolist()
        for i in big:
            try:
                _exp(log_asy[i])
            except DomainError:
                blank[i] = True
        for i in np.flatnonzero(blank):
            log_asy[i] = None
        return log_exact.tolist(), log_asy


_UNSET = object()
# what an invalid point raises: a failed check (DomainError included, as
# from an SNR in dB past float64), a non-number, or a malformed point
_INVALID = (ValueError, TypeError, ArithmeticError)


def _checked_snrs(rows: list, k_rounds: int, invalid):
    """The SNR rows as a (points, rounds) float64 array, cut before the
    first invalid row, and the error of the first invalid point.

    invalid is the error of the point after the last row, or None. One
    array check passes a curve whose rows are all valid; otherwise
    ``check_snrs`` runs row by row, so an invalid row gets its one-point
    error.
    """
    try:
        snrs = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        snrs = None
    if (snrs is not None and snrs.shape == (len(rows), k_rounds)
            and (np.isfinite(snrs) & (snrs > 0.0)).all()):
        return snrs, invalid
    checked = []
    for row in rows:
        try:
            checked.append(check_snrs(row, k_rounds))
        except _INVALID as exc:
            invalid = exc
            break
    return np.array(checked, dtype=float).reshape(len(checked), k_rounds), \
        invalid


def outage_curve(n_t, n_r, k_rounds, points: Iterable) -> Iterator[tuple]:
    """Exact and asymptotic log outage along a curve of operating points.

    ``points`` yields ``(rate, snr_per_round)`` pairs. Returns an iterator
    that yields, per point, ``(log_exact, log_asymptotic)``, the
    ``log_value`` fields of ``exact_outage`` and ``asymptotic_outage`` for
    that point, bitwise; ``log_asymptotic`` is None where
    ``asymptotic_outage`` raises ``DomainError``. The whole curve is
    evaluated by the call: the shape and K are checked once, the rate
    whenever it changes and all SNRs as one array, with ``SystemConfig``'s
    messages. An invalid point raises, from the call, the error the
    one-point calls in axis order would raise first: the first failing
    point's, and within it its first round's.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    k_rounds = check_count("k_rounds", k_rounds)
    rounds = _rounds(n_t, n_r)
    runs, rows = [], []
    rate = _UNSET
    invalid = None
    try:
        for r, snrs in points:
            if rate is _UNSET or r != rate:
                rate = check_rate(r)
                runs.append((len(rows), rate, rounds.gain(rate)))
            rows.append(snrs)
    except _INVALID as exc:  # raised once the points before it are done
        invalid = exc
    snrs, invalid = _checked_snrs(rows, k_rounds, invalid)
    log_exact, log_asy = rounds.curve(runs, snrs)
    if invalid is not None:
        raise invalid
    return zip(log_exact, log_asy)


def outage_threshold(config: SystemConfig, round_index: int) -> float:
    """Per-round gain threshold n_t (2^R - 1) / snr_k; rounds are 1-based."""
    if not 1 <= round_index <= config.k_rounds:
        raise ValueError(
            f"round_index must be in 1..{config.k_rounds}, got {round_index}"
        )
    return _rounds(config.n_t, config.n_r).threshold(
        config.rate, config.snr_per_round[round_index - 1])


def exact_outage(config: SystemConfig) -> OutageProbability:
    """Exact outage probability at any SNR.

    Product of the per-round CDF values, accumulated as a sum of logs in
    round order. Rounds sharing an SNR share one CDF evaluation.
    rate = 0 gives zero thresholds and outage probability 0.
    """
    rounds = _rounds(config.n_t, config.n_r)
    return OutageProbability.from_log(
        rounds.exact(config.rate, config.snr_per_round))


def asymptotic_outage(config: SystemConfig) -> OutageProbability:
    """Leading high-SNR term of the outage probability.

    With t_k the per-round threshold, m = min(n_t, n_r) and tau = |n_t - n_r|:

      tau > 0:  prod_k Gamma(tau) t_k^m / (Gamma(n_t) Gamma(n_r) m)
      tau = 0:  prod_k t_k^{n_t} ln(snr_k) / (n_t Gamma(n_t)^2)

    The tau = 0 branch needs ln(snr_k) > 0, so every per-round SNR must
    exceed one (0 dB); below that the leading term is meaningless.
    """
    rounds = _rounds(config.n_t, config.n_r)
    return OutageProbability.from_log(
        rounds.asymptotic(config.rate, config.snr_per_round))


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
