"""Output checks, run outside the timed region.

An op fails when the CLI exits non-zero or raises, when an output is
malformed, non-finite or a probability outside [0, 1], when a Monte Carlo
estimate is further from ``exact_outage`` than a 5-sigma two-sided test
allows, or when a one-lane rerun of a simulation does not reproduce the
failure count bitwise.

Separately, a seed-drawn sample of closed-form points is audited against an
mpmath oracle (``mpmath.meijerg``, the paper's Meijer-G form of the gain
CDF, evaluated with mpmath's own cancellation control): a point whose
outage probability is off by more than 1e-12 relative is an oracle miss.
Half the sample is drawn from points with both shapes above 12, where the
CDF is known to lose accuracy.
"""

from __future__ import annotations

import csv
import json
import math
import random

CSV_HEADER = ["axis", "exact", "asymptotic", "simulated", "ci_low", "ci_high",
              "log10_exact"]
ORACLE_REL_TOL = 1e-12
LARGE_SHAPE = 13
ORACLE_PER_STRATUM = 40
# Two-sided tail mass beyond 5 sigma of a normal distribution.
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))
_LN10 = math.log(10.0)


class CheckError(Exception):
    """An op's output failed a check."""


def parse_range(text: str) -> list:
    """The CLI's start:step:stop grid, stop included when on the grid."""
    start, step, stop = (float(p) for p in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _cell(text: str):
    return None if text == "" else float(text)


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise CheckError(f"unexpected CSV header {rows[:1]!r}")
    out = []
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise CheckError(f"malformed CSV row {row!r}")
        out.append(dict(zip(CSV_HEADER, (_cell(c) for c in row))))
    return out


def _probability(name: str, v) -> float:
    if v is None or not math.isfinite(v) or not 0.0 <= v <= 1.0:
        raise CheckError(f"{name} = {v!r} is not a probability")
    return v


def _log10_consistent(row: dict) -> None:
    l10 = row["log10_exact"]
    if l10 is None or not math.isfinite(l10) or l10 > 0.0:
        raise CheckError(f"log10_exact = {l10!r}")
    expect = 10.0 ** l10
    if expect > 1e-290 and abs(row["exact"] - expect) > 1e-9 * expect:
        raise CheckError(f"exact {row['exact']!r} disagrees with "
                         f"log10 {l10!r}")


def binomial_outlier(failures: int, trials: int, p: float) -> bool:
    """True when ``failures`` lies beyond the 5-sigma two-sided band.

    Large counts use the normal approximation with continuity correction;
    small expected counts, where it fails, use exact binomial tails.
    """
    mean = trials * p
    var = mean * (1.0 - p)
    if var >= 100.0:
        return abs(failures - mean) - 0.5 > 5.0 * math.sqrt(var)
    if p <= 0.0 or p >= 1.0:
        return failures != round(mean)
    logc = math.lgamma(trials + 1)
    lp, lq = math.log(p), math.log1p(-p)

    def term(k):
        return math.exp(logc - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                        + k * lp + (trials - k) * lq)

    step = 1 if failures >= mean else -1
    far = 50 + 20 * math.sqrt(var)  # past this, an all-zero tail stays zero
    tail = 0.0
    k = failures
    while 0 <= k <= trials:
        t = term(k)
        tail += t
        if t < 1e-20 * tail or (tail == 0.0 and abs(k - mean) > far):
            break
        k += step
    return 2.0 * tail < FIVE_SIGMA_TAIL


def check_curve(op, rows: list, axis: list) -> None:
    if len(rows) != len(axis):
        raise CheckError(f"{len(rows)} rows for {len(axis)} axis points")
    for row, a in zip(rows, axis):
        got = row["axis"]
        if got is None or abs(got - a) > 1e-9 * max(1.0, abs(a)):
            raise CheckError(f"axis {got!r}, expected {a!r}")
        if op.kind == "coding-gain":
            c = row["exact"]
            if c is None or not math.isfinite(c) or c <= 0.0:
                raise CheckError(f"coding gain {c!r}")
            continue
        _probability("exact", row["exact"])
        _log10_consistent(row)
        asy = row["asymptotic"]
        if asy is not None and not (math.isfinite(asy) and asy >= 0.0):
            raise CheckError(f"asymptotic = {asy!r}")
        if op.trials == 0:
            if row["simulated"] is not None:
                raise CheckError("simulated column filled with --trials 0")
            continue
        sim = _probability("simulated", row["simulated"])
        lo = _probability("ci_low", row["ci_low"])
        hi = _probability("ci_high", row["ci_high"])
        if not lo <= sim <= hi:
            raise CheckError(f"interval [{lo}, {hi}] misses estimate {sim}")
        failures = round(sim * op.trials)
        if binomial_outlier(failures, op.trials, row["exact"]):
            raise CheckError(f"{failures}/{op.trials} failures is beyond 5 "
                             f"sigma of exact p = {row['exact']!r}")


def check_diversity(op, path) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc["analytic_diversity_order"] != op.k * min(op.n_t, op.n_r):
        raise CheckError(f"diversity order {doc['analytic_diversity_order']}")
    for key in ("fitted_slope", "relative_gap"):
        if not math.isfinite(doc[key]):
            raise CheckError(f"{key} = {doc[key]!r}")


def check_simulation(op, doc: dict, exact_p: float) -> None:
    failures = doc["failures"]
    if doc["trials"] != op.trials or not 0 <= failures <= op.trials:
        raise CheckError(f"{failures} failures of {doc['trials']} trials")
    est = _probability("estimate", doc["estimate"])
    if est != failures / op.trials:
        raise CheckError(f"estimate {est!r} != failures / trials")
    if binomial_outlier(failures, op.trials, exact_p):
        raise CheckError(f"{failures}/{op.trials} failures is beyond 5 sigma "
                         f"of exact p = {exact_p!r}")


class OracleAudit:
    """Reservoir sample of closed-form points, checked against mpmath."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"oracle:{seed}")
        self._seen = {False: 0, True: 0}
        self._sample = {False: [], True: []}

    def offer(self, n_t: int, n_r: int, thresholds: list,
              log10_p: float) -> None:
        large = min(n_t, n_r) >= LARGE_SHAPE
        self._seen[large] += 1
        item = (n_t, n_r, tuple(thresholds), log10_p)
        bucket = self._sample[large]
        if len(bucket) < ORACLE_PER_STRATUM:
            bucket.append(item)
        else:
            j = self._rng.randrange(self._seen[large])
            if j < ORACLE_PER_STRATUM:
                bucket[j] = item

    def run(self) -> dict:
        import mpmath

        out = {"checked": 0, "misses": 0, "large_checked": 0,
               "large_misses": 0, "max_rel_err": 0.0, "unresolved": 0}
        for large, bucket in self._sample.items():
            for n_t, n_r, thresholds, log10_p in bucket:
                try:
                    ref = sum(_oracle_log_cdf(mpmath, n_t, n_r, x)
                              for x in thresholds)
                except (ArithmeticError, mpmath.libmp.NoConvergence):
                    out["unresolved"] += 1
                    continue
                err = abs(math.expm1(log10_p * _LN10 - ref))
                miss = err > ORACLE_REL_TOL
                out["checked"] += 1
                out["misses"] += miss
                out["large_checked"] += large
                out["large_misses"] += large and miss
                out["max_rel_err"] = max(out["max_rel_err"], err)
        return out


def _oracle_log_cdf(mp, n_t: int, n_r: int, x: float) -> float:
    """ln F(x) for the gain CDF F = G / (Gamma(n_t) Gamma(n_r)).

    G = G^{2,1}_{1,3}(x | 1; n_t, n_r, 0) is the Meijer-G function.
    """
    prev = None
    dps = 30
    while dps <= 480:
        with mp.workdps(dps):
            g = mp.meijerg([[1], []], [[n_t, n_r], [0]], mp.mpf(x))
            v = mp.log(g) - mp.loggamma(n_t) - mp.loggamma(n_r)
        if prev is not None and abs(v - prev) <= 1e-20 * max(1.0, abs(v)):
            return float(v)
        prev = v
        dps *= 2
    raise ArithmeticError(f"oracle did not settle for ({n_t}, {n_r}, {x!r})")


def threshold(n_t: int, rate: float, snr_db: float) -> float:
    return n_t * (2.0 ** rate - 1.0) / 10.0 ** (snr_db / 10.0)
