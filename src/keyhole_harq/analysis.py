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
SNRs). ``_columns`` parses its columns once for both paths, and
``_configs`` builds each point's ``SystemConfig`` for both. A curve of
fewer than ``_ARRAY_THRESHOLDS`` distinct thresholds (points x distinct SNR
columns) calls the one-point functions point by point, which is faster
there than any array set-up (about 0.2-0.4 ms; the ``tools/ab.py`` curve
rows measure the crossover, 26 to 57 thresholds on a 2-vCPU box). A longer
curve takes ``_curve``, which evaluates it as float64 columns by the
``specfun`` rules for the array CDF ``specfun._log_cdf_many``, each point
bitwise the one-point value. It marks invalid inputs with one array test
per column, takes n_t (2^R - 1) once per rate and ln t once per threshold,
for the CDF and the asymptote alike, and adds the distinct round columns
through ``_per_round``. It only computes: an invalid input gets a nan
threshold prefix, so its exact log is nan, as is that of a point where the
one-point path raises, and ``_log_log`` is nan where a square array's
asymptote is blank. ``outage_curve`` decides what a nan means for both
paths: it replays the first point with a nan exact log through
``exact_outage``, which raises the error the one-point calls in axis order
raise first, and blanks (None) every nan or overflowing asymptote. numpy
is imported inside the functions that use it, so importing this module
does not load it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .errors import DomainError, UnsupportedConfigError, check_count
from .keyhole import SystemConfig
from .specfun import _each, _log_cdf_many, meijer_g_log_cdf

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
    """ln ln snr; nan at snr <= 1, where a square array's leading term has
    no value."""
    return math.log(math.log(snr)) if snr > 1.0 else math.nan


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


# the array-path size (module docstring; the tools/ab.py curve rows)
_ARRAY_THRESHOLDS = 64


def _column(c, lengths: set):
    """The column c as a float or a list of floats, adding a list's length
    to ``lengths``; raises where ``float`` refuses c or one of its values."""
    if type(c) is float:
        return c
    if type(c) is not list:
        if getattr(c, "ndim", 0) > 1:  # numpy names its shape
            raise TypeError
        if hasattr(c, "tolist"):  # a numpy array or scalar
            c = c.tolist()
        if isinstance(c, (str, bytes)) or not isinstance(c, Sequence):
            return float(c)
    c = [*map(float, c)]
    lengths.add(len(c))
    return c


def _columns(rate, snr_per_round) -> tuple:
    """A curve's columns, parsed once for both paths.

    Returns the rate column and the distinct round columns, each a float or
    a list of n floats; each round's index into the distinct columns; and
    n, 1 when every column is a float. Rounds given as the same object, or
    as equal floats, share a distinct column.
    """
    snr_per_round = tuple(snr_per_round)
    keys, distinct, index, lengths = {}, [], [], set()
    try:
        for s in snr_per_round:
            d = keys.setdefault(s if isinstance(s, float) else (id(s),),
                                len(distinct))
            if d == len(distinct):
                distinct.append(_column(s, lengths))
            index.append(d)
        rate = _column(rate, lengths)
        n, = lengths or [1]
    except (TypeError, ValueError):
        # numpy names the shapes, or raises for a value it cannot read
        import numpy as np

        shapes = {np.array(c, dtype=float).shape
                  for c in (rate, *snr_per_round)} - {()}
        if len(shapes) > 1 or any(len(shape) > 1 for shape in shapes):
            raise ValueError(
                "rate and each per-round SNR must be a float or a sequence "
                f"of one common length; got shapes {sorted(shapes)}"
            ) from None
        raise
    return rate, distinct, index, n


def _configs(n_t, n_r, k_rounds, rate, rounds, n: int):
    """Each point's ``SystemConfig``, in axis order: ``rate`` and each of
    the K ``rounds`` is a float or a sequence of n values."""
    rate, *rounds = [[c] * n if type(c) is float else c
                     for c in (rate, *rounds)]
    # with no rounds each point gets no SNRs, which SystemConfig refuses
    return map(partial(SystemConfig, n_t, n_r, k_rounds), rate,
               zip(*rounds) if rounds else [()] * n)


def _blank(log_asy: float):
    """``log_asy``, or None where ``asymptotic_outage`` has no value: where
    it is nan (no leading term) or its exp overflows."""
    try:
        return None if math.isnan(math.exp(log_asy)) else log_asy
    except OverflowError:
        return None


def outage_curve(n_t, n_r, k_rounds, rate, snr_per_round) -> tuple:
    """Exact and asymptotic log outage along a curve of n operating points.

    Takes ``SystemConfig``'s arguments, with columns allowed: ``rate`` and
    each of the K entries of ``snr_per_round`` is a float or a sequence of
    n values (a list, a tuple or a numpy array of values ``float`` takes).
    Rounds given as the same object, or as equal floats, share one CDF
    column. Returns two lists, ``log_exact`` and ``log_asymptotic``: at each
    point the ``log_value`` fields of ``exact_outage`` and
    ``asymptotic_outage``, bitwise; ``log_asymptotic`` is None where
    ``asymptotic_outage`` raises ``DomainError``. A curve of fewer than
    ``_ARRAY_THRESHOLDS`` distinct thresholds calls the one-point functions
    at each point in axis order; a longer one takes the array path,
    ``_curve``. Either way a curve raises what the one-point calls in axis
    order raise first, after any error of the columns.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    k_rounds = check_count("k_rounds", k_rounds)
    rates, distinct, index, n = _columns(rate, snr_per_round)
    # SystemConfig quotes a refused rate as given
    configs = _configs(n_t, n_r, k_rounds,
                       [rate] * n if type(rates) is float else rate,
                       map(distinct.__getitem__, index), n)
    # with the wrong SNR count every point fails, so point 0 raises first
    if n * len(distinct) >= _ARRAY_THRESHOLDS and len(index) == k_rounds:
        log_exact, log_asy = _curve(n_t, n_r, rates, distinct, index, n)
        nan = [*map(math.isnan, log_exact)]
        if True in nan:  # the one-point path raises the first failing point's
            first = nan.index(True)
            v = exact_outage(next(islice(configs, first, None)))
            raise RuntimeError(f"curve point {first} is nan in the array path "
                               f"only; its one-point log is {v.log_value!r}")
    else:
        log_exact, log_asy = [], []
        for config in configs:
            log_exact.append(_log_exact(config))
            try:
                log_asy.append(_log_asymptotic(config))
            except DomainError:
                log_asy.append(math.nan)
    # only above 709 can asymptotic_outage's exp overflow
    return log_exact, [v if v <= 709.0 else _blank(v) for v in log_asy]


def outage_threshold(config: SystemConfig, round_index: int) -> float:
    """Per-round gain threshold n_t (2^R - 1) / snr_k; rounds are 1-based."""
    round_index = check_count("round_index", round_index)
    if round_index > config.k_rounds:
        raise DomainError(
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
    return OutageProbability.from_log(_log_exact(config))


def _log_exact(config: SystemConfig) -> float:
    """The ``log_value`` of ``exact_outage``: a sum of log CDFs, whose exp
    cannot overflow."""
    n_t, n_r, rate = config.n_t, config.n_r, config.rate
    return _per_round(
        config.snr_per_round,
        lambda snr: meijer_g_log_cdf(n_t, n_r, _threshold(n_t, rate, snr)))


def asymptotic_outage(config: SystemConfig) -> OutageProbability:
    """Leading high-SNR term of the outage probability.

    With t_k the per-round threshold, m = min(n_t, n_r) and tau = |n_t - n_r|:

      tau > 0:  prod_k Gamma(tau) t_k^m / (Gamma(n_t) Gamma(n_r) m)
      tau = 0:  prod_k t_k^{n_t} ln(snr_k) / (n_t Gamma(n_t)^2)

    The tau = 0 branch needs ln(snr_k) > 0, so every per-round SNR must
    exceed one (0 dB); below that the leading term is meaningless.
    """
    return OutageProbability.from_log(_log_asymptotic(config))


def _log_asymptotic(config: SystemConfig) -> float:
    """The log that ``asymptotic_outage`` takes the exp of."""
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

    return _per_round(config.snr_per_round, log_term)


def _curve(n_t: int, n_r: int, rate, snrs: list, col: list, n: int) -> tuple:
    """The raw exact and asymptotic logs of a curve, as two lists.

    ``rate`` and the distinct round columns ``snrs`` are as ``_columns``
    parses them, and round j is snrs[col[j]]. The exact log is nan exactly
    where the one-point path raises. The asymptote is nan where a square
    array's SNR is at most 1, and it is not blanked where its exp
    overflows.
    """
    import numpy as np

    gains = (np.full(n, _gain(n_t, rate)) if isinstance(rate, float) else
             np.fromiter(map(partial(_gain, n_t), rate), float, n))
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
            n_t, n_r, log_t[d], snrs[d], partial(_each, _log_log)))
    return log_exact.tolist(), log_asy.tolist()


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
