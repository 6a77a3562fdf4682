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
SNRs) in one pass: it checks the shape and K once, and computes the shape
constants of the asymptote and the threshold prefix n_t (2^R - 1) once per
rate. ``exact_outage`` and ``asymptotic_outage`` are one-point views of the
same per-round code, so a curve point is bitwise the one-point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError, UnsupportedConfigError
from .keyhole import SystemConfig, check_count, check_rate, check_snrs
from .specfun import meijer_g_log_cdf

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


class _Rounds:
    """Per-round outage logs for one checked shape and rate.

    Holds what the points of a curve share: the shape constants of the
    asymptote and the threshold prefix n_t (2^R - 1). Every expression keeps
    the left-to-right grouping of its one-point form, so a curve point is
    bitwise the one-point value.
    """

    __slots__ = ("n_t", "n_r", "tau", "m", "rate", "gain", "lead", "log_m",
                 "log_n", "lg2")

    def __init__(self, n_t: int, n_r: int, rate: float):
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
        self.set_rate(rate)

    def set_rate(self, rate: float) -> None:
        self.rate = rate
        try:
            self.gain = self.n_t * (2.0 ** rate - 1.0)
        except OverflowError:
            self.gain = math.inf

    def threshold(self, snr: float) -> float:
        t = self.gain / snr
        if not math.isfinite(t):
            raise DomainError(
                f"outage threshold n_t (2^R - 1) / snr overflows float64 at "
                f"n_t {self.n_t}, rate {self.rate!r}, snr {snr!r}"
            )
        return t

    def exact(self, snrs: tuple) -> float:
        log_cdf = {}
        log_p = 0.0
        for snr in snrs:
            v = log_cdf.get(snr)
            if v is None:
                v = log_cdf[snr] = meijer_g_log_cdf(
                    self.n_t, self.n_r, self.threshold(snr))
            log_p += v
        return log_p

    def asymptotic(self, snrs: tuple) -> float:
        tau = self.tau
        if tau == 0:
            for g in snrs:
                if g <= 1.0:
                    raise DomainError(
                        "asymptotic outage for n_t == n_r needs every "
                        f"per-round SNR > 1 (0 dB); got {g}"
                    )
        if self.rate == 0.0:
            return -math.inf
        terms = {}
        log_p = 0.0
        for snr in snrs:
            v = terms.get(snr)
            if v is None:
                t = self.threshold(snr)
                if tau == 0:
                    v = (self.n_t * math.log(t) + math.log(math.log(snr))
                         - self.log_n - self.lg2)
                else:
                    v = self.lead + self.m * math.log(t) - self.log_m
                terms[snr] = v
            log_p += v
        return log_p


def outage_curve(n_t, n_r, k_rounds, points: Iterable) -> Iterator[tuple]:
    """Exact and asymptotic log outage along a curve of operating points.

    ``points`` yields ``(rate, snr_per_round)`` pairs. Yields, per point,
    ``(log_exact, log_asymptotic)``, the ``log_value`` fields of
    ``exact_outage`` and ``asymptotic_outage`` for that point, bitwise;
    ``log_asymptotic`` is None where ``asymptotic_outage`` raises
    ``DomainError``. The shape and K are checked once, the rate whenever it
    changes and the SNRs at every point, with ``SystemConfig``'s messages.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    k_rounds = check_count("k_rounds", k_rounds)
    rounds = None
    for rate, snrs in points:
        if rounds is None:
            rounds = _Rounds(n_t, n_r, check_rate(rate))
        elif rate != rounds.rate:
            rounds.set_rate(check_rate(rate))
        snrs = check_snrs(snrs, k_rounds)
        log_exact = rounds.exact(snrs)
        try:
            log_asy = rounds.asymptotic(snrs)
            _exp(log_asy)
        except DomainError:
            log_asy = None
        yield log_exact, log_asy


def outage_threshold(config: SystemConfig, round_index: int) -> float:
    """Per-round gain threshold n_t (2^R - 1) / snr_k; rounds are 1-based."""
    if not 1 <= round_index <= config.k_rounds:
        raise ValueError(
            f"round_index must be in 1..{config.k_rounds}, got {round_index}"
        )
    return _Rounds(config.n_t, config.n_r, config.rate).threshold(
        config.snr_per_round[round_index - 1])


def exact_outage(config: SystemConfig) -> OutageProbability:
    """Exact outage probability at any SNR.

    Product of the per-round CDF values, accumulated as a sum of logs in
    round order. Rounds sharing an SNR share one CDF evaluation.
    rate = 0 gives zero thresholds and outage probability 0.
    """
    rounds = _Rounds(config.n_t, config.n_r, config.rate)
    return OutageProbability.from_log(rounds.exact(config.snr_per_round))


def asymptotic_outage(config: SystemConfig) -> OutageProbability:
    """Leading high-SNR term of the outage probability.

    With t_k the per-round threshold, m = min(n_t, n_r) and tau = |n_t - n_r|:

      tau > 0:  prod_k Gamma(tau) t_k^m / (Gamma(n_t) Gamma(n_r) m)
      tau = 0:  prod_k t_k^{n_t} ln(snr_k) / (n_t Gamma(n_t)^2)

    The tau = 0 branch needs ln(snr_k) > 0, so every per-round SNR must
    exceed one (0 dB); below that the leading term is meaningless.
    """
    rounds = _Rounds(config.n_t, config.n_r, config.rate)
    return OutageProbability.from_log(rounds.asymptotic(config.snr_per_round))


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
