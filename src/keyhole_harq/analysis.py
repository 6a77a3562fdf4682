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
the same threshold (equal per-round SNRs, as in the paper's curves) share
one per-round evaluation, and the logs are still added in round order, so
the sum is bitwise the round-by-round one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UnsupportedConfigError
from .keyhole import SystemConfig
from .specfun import meijer_g_log_cdf

__all__ = [
    "OutageProbability",
    "outage_threshold",
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
            return cls(log_value=log_value, value=math.exp(log_value))
        except OverflowError:
            raise DomainError(
                f"probability exp({log_value!r}) overflows float64"
            ) from None


def outage_threshold(config: SystemConfig, round_index: int) -> float:
    """Per-round gain threshold n_t (2^R - 1) / snr_k; rounds are 1-based."""
    if not 1 <= round_index <= config.k_rounds:
        raise ValueError(
            f"round_index must be in 1..{config.k_rounds}, got {round_index}"
        )
    snr = config.snr_per_round[round_index - 1]
    try:
        t = config.n_t * (2.0 ** config.rate - 1.0) / snr
    except OverflowError:
        t = math.inf
    if not math.isfinite(t):
        raise DomainError(
            f"outage threshold n_t (2^R - 1) / snr overflows float64 at "
            f"n_t {config.n_t}, rate {config.rate!r}, snr {snr!r}"
        )
    return t


def exact_outage(config: SystemConfig) -> OutageProbability:
    """Exact outage probability at any SNR.

    Product of the per-round CDF values, accumulated as a sum of logs in
    round order. Rounds sharing a threshold share one CDF evaluation.
    rate = 0 gives zero thresholds and outage probability 0.
    """
    log_cdf = {}
    log_p = 0.0
    for k in range(1, config.k_rounds + 1):
        t = outage_threshold(config, k)
        v = log_cdf.get(t)
        if v is None:
            v = log_cdf[t] = meijer_g_log_cdf(config.n_t, config.n_r, t)
        log_p += v
    return OutageProbability.from_log(log_p)


def asymptotic_outage(config: SystemConfig) -> OutageProbability:
    """Leading high-SNR term of the outage probability.

    With t_k the per-round threshold, m = min(n_t, n_r) and tau = |n_t - n_r|:

      tau > 0:  prod_k Gamma(tau) t_k^m / (Gamma(n_t) Gamma(n_r) m)
      tau = 0:  prod_k t_k^{n_t} ln(snr_k) / (n_t Gamma(n_t)^2)

    The tau = 0 branch needs ln(snr_k) > 0, so every per-round SNR must
    exceed one (0 dB); below that the leading term is meaningless.
    """
    tau = config.tau
    m = min(config.n_t, config.n_r)
    if tau == 0:
        for g in config.snr_per_round:
            if g <= 1.0:
                raise DomainError(
                    "asymptotic outage for n_t == n_r needs every per-round "
                    f"SNR > 1 (0 dB); got {g}"
                )
    if config.rate == 0.0:
        return OutageProbability.from_log(-math.inf)
    terms = {}
    log_p = 0.0
    for k in range(1, config.k_rounds + 1):
        snr = config.snr_per_round[k - 1]
        v = terms.get(snr)
        if v is None:
            t = outage_threshold(config, k)
            if tau == 0:
                v = (
                    config.n_t * math.log(t)
                    + math.log(math.log(snr))
                    - math.log(config.n_t)
                    - 2.0 * math.lgamma(config.n_t)
                )
            else:
                v = (
                    math.lgamma(tau)
                    - math.lgamma(config.n_t)
                    - math.lgamma(config.n_r)
                    + m * math.log(t)
                    - math.log(m)
                )
            terms[snr] = v
        log_p += v
    return OutageProbability.from_log(log_p)


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
