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
SNRs) eagerly, as float64 columns: it takes ``SystemConfig``'s arguments,
with the rate and each round's SNR a float or a sequence of n values. It
checks the shape and K once and each column with one array test, and
computes the threshold prefix n_t (2^R - 1) once per rate. Rounds given as
one object, or as equal floats, share one column of thresholds; each
distinct column goes through the array CDF of ``specfun`` once, and the
columns add in round order. The ln t of each threshold is taken once and
feeds both the CDF and the asymptote; ln ln snr is taken only where a
square array's asymptote is not blank. The threshold and asymptote
expressions are written once and take floats or arrays, with every exp and
log through ``math``, so a curve point is bitwise the ``exact_outage`` /
``asymptotic_outage`` value. The curve path only computes: where the
one-point path would raise, its exact log is nan. The first point with such
a nan or an invalid input is replayed through ``SystemConfig`` and the
one-point evaluation, which raises the error the one-point calls in axis
order would raise first, and within that point its first failing round's.
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
        return cls(log_value=log_value, value=_exp(log_value))


def _exp(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(
            f"probability exp({log_value!r}) overflows float64"
        ) from None


def _log_log(snr: float) -> float:
    return math.log(math.log(snr))


def _log_log_each(snr):
    """``_log_log`` at each element of the array snr where snr > 1; nan
    elsewhere, where a square array's asymptote is blank."""
    out = np.full(snr.shape, math.nan)
    up = np.flatnonzero(snr > 1.0)
    out[up] = _each(_log_log, snr[up])
    return out


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

    def threshold(self, rate: float, snr: float) -> float:
        t = self.gain(rate) / snr
        if not math.isfinite(t):
            raise DomainError(
                f"outage threshold n_t (2^R - 1) / snr overflows float64 at "
                f"n_t {self.n_t}, rate {rate!r}, snr {snr!r}"
            )
        return t

    def term(self, log_t, snr, log_log=_log_log):
        """Log of one round's leading high-SNR term from ln t: floats, or
        arrays with ``log_log`` the array form of ``_log_log``."""
        if self.tau == 0:
            return self.n_t * log_t + log_log(snr) - self.log_n - self.lg2
        return self.lead + self.m * log_t - self.log_m

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
                v = terms[snr] = (self.term(math.log(t), snr) if t
                                  else -math.inf)
            log_p += v
        return log_p

    def curve(self, gains, snrs: list, col: list) -> tuple:
        """``exact`` and ``asymptotic`` at every point of a curve at once.

        Point i has the ``gain`` gains[i] of a checked rate, and in round j
        the checked SNR snrs[col[j]][i]: snrs holds the distinct round
        columns, float64 arrays like gains. Returns the float64 array of
        exact logs, nan exactly where ``exact`` raises, and the list of
        asymptotic logs, None where ``asymptotic`` raises or its exp
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
            log_cdf[finite] = _log_cdf_many(self.n_t, self.n_r, t[finite],
                                            log_t[finite])
            terms = [self.term(log_t[d], s, _log_log_each)
                     for d, s in enumerate(snrs)]
            log_exact = log_asy = 0.0
            for d in col:
                log_exact = log_exact + log_cdf[d]
                log_asy = log_asy + terms[d]
        # at rate 0 every threshold is 0, so log_asy is -inf as in
        # ``asymptotic``. It is nan where a square array's SNR is <= 1 (no
        # ln ln snr was taken), and, at a point that raises for its
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
    cols = [np.full(n, c) if one else c for c, one in zip(cols, scalar)]
    ok = np.isfinite(cols[0]) & (cols[0] >= 0.0)
    for c in cols[1:]:
        ok &= np.isfinite(c) & (c > 0.0)
    if len(col) != k_rounds:
        ok[:] = False  # SystemConfig's SNR count check fails at every point
    stop = n if ok.all() else int(np.flatnonzero(~ok)[0])
    log_exact, log_asy = np.empty(0), []
    if stop:
        rounds = _rounds(n_t, n_r)
        if scalar[0]:
            gains = np.full(stop, rounds.gain(cols[0].item(0)))
        else:
            gains = np.fromiter(map(rounds.gain, cols[0][:stop].tolist()),
                                float, stop)
        log_exact, log_asy = rounds.curve(
            gains, [c[:stop] for c in cols[1:]], col)
    failed = np.flatnonzero(np.isnan(log_exact))
    first = int(failed[0]) if failed.size else stop
    if first < n:  # the one-point path raises the first failing point's error
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
