"""Monte Carlo validation of the closed-form outage results.

The simulator never materializes channel vectors: |u|^2 and |v|^2 are sums
of n_r (resp. n_t) unit exponentials, so each trial consumes a fixed number
of uniforms. Substreams are assigned by global trial index with a
counter-based generator (Philox), which makes the failure count a pure
function of (seed, trials, config): any partition of the trial range across
threads, and any batching within a thread, reproduces the same draws.
``lanes`` sets the worker threads, at most the usable cores; each takes one
contiguous range of the trials.

The points of a simulated curve share (n_t, n_r, K, trials, seed), so
``_simulate`` draws each batch once and counts it against every point's
thresholds; ``simulate_outage`` is its one-point case. A count is a sum over
trials, so each point's equals the count that point gets alone.

Philox's ``advance`` unit is one 128-bit counter tick = 4 doubles, so the
per-trial draw budget is padded up to a multiple of 4 and trial i starts at
counter offset i * pad / 4.

The arithmetic on the draws is fixed bit for bit, so that seed -> failure
count never moves when the code does. The logs are taken in place as
log1p(-u) <= 0 and stay negative: round-to-nearest is symmetric under
negation, so each negated sum, and the product of the two, equals the
positive arithmetic exactly. Each round's two sums fold columns of the draw
matrix with the grouping numpy's ``add.reduce`` gives a row of that length
(see ``_sum``), which keeps every gain equal to a row ``.sum()`` of the
exponentials. The batch size only sets the working set, sized to stay in a
core's cache; it cannot change a gain or a count.

numpy is imported inside the functions that draw and count, so a process
that never simulates never imports numpy; the closed-form modules load it
only for a curve long enough to take the array path.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .analysis import exact_outage, outage_curve, outage_threshold
from .errors import SimulationInfeasibleError, check_count
from .keyhole import SystemConfig, db_to_linear

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SimulationResult",
    "sample_round_gains",
    "simulate_outage",
    "empirical_diversity_slope",
]

_BATCH = 1 << 13  # trials; at 4x4, K=4 the draws take 2 MiB
_MIN_FAILURES = 100  # below this the normal CI is not trustworthy


@dataclass(frozen=True)
class SimulationResult:
    """Failure count and 3-sigma normal-approximation interval.

    ``low_confidence`` flags runs with fewer than 100 observed failures,
    where the interval half-width is itself noisy.
    """

    trials: int
    failures: int
    estimate: float
    ci_halfwidth: float
    seed: int
    low_confidence: bool


def _padded_draws(n_t: int, n_r: int, rounds: int) -> int:
    d = rounds * (n_t + n_r)
    return -4 * (-d // 4)


def sample_round_gains(
    n_t: int,
    n_r: int,
    rounds: int,
    trials: int,
    seed: int,
    first_trial: int = 0,
) -> np.ndarray:
    """Equivalent gains for trials [first_trial, first_trial + trials).

    Returns shape (trials, rounds). Draw order per trial is fixed: rounds in
    sequence, n_r receive exponentials then n_t transmit exponentials each.
    Because the substream of trial i depends only on i and the seed, prefix
    columns of this matrix are the natural common-random-number stream for
    comparing different round budgets.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    rounds = check_count("rounds", rounds)
    trials = check_count("trials", trials, least=0)  # an empty draw is an answer
    seed = check_count("seed", seed, least=0)
    first_trial = check_count("first_trial", first_trial, least=0)
    import numpy as np

    pad = _padded_draws(n_t, n_r, rounds)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(first_trial * (pad // 4))
    u = np.random.Generator(bitgen).random((trials, pad))
    e = np.log1p(np.negative(u, out=u), out=u)  # negated exponentials
    m = n_t + n_r
    g = np.empty((trials, rounds))
    for k in range(rounds):
        cols = [e[:, j] for j in range(k * m, (k + 1) * m)]
        np.multiply(_sum(cols[:n_r]), _sum(cols[n_r:]), out=g[:, k])
    return g


def _sum(cols: list) -> np.ndarray:
    """Elementwise sum of equal-length columns, bitwise equal to summing
    each row of ``np.stack(cols, axis=1)`` with ``.sum(axis=1)``.

    It mirrors numpy's pairwise ``add.reduce`` over a row of n terms: a left
    fold below 8 terms; up to 128, eight interleaved accumulators combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the n % 8 tail in order;
    above 128, the halves split at a multiple of 8 summed recursively. The
    inputs are never written.
    """
    n = len(cols)
    if n > 128:
        half = n // 2 - n // 2 % 8
        acc = _sum(cols[:half])
        acc += _sum(cols[half:])
        return acc
    if n == 1:
        return cols[0]
    if n < 8:
        acc = cols[0] + cols[1]
        rest = cols[2:]
    else:
        stop = n - n % 8
        r = [c.copy() for c in cols[:8]]
        for i in range(8, stop, 8):
            for a, c in zip(r, cols[i:i + 8]):
                a += c
        for a, b in zip(r[::2], r[1::2]):
            a += b
        r[0] += r[2]
        r[4] += r[6]
        acc = r[0]
        acc += r[4]
        rest = cols[stop:]
    for c in rest:
        acc += c
    return acc


def _count_failures(
    n_t: int,
    n_r: int,
    rows: Sequence[tuple],
    first_trial: int,
    count: int,
    seed: int,
) -> list:
    """Failures among trials [first_trial, first_trial + count), one count
    per row of per-round thresholds; each batch is drawn once for all rows."""
    import numpy as np

    fails = [0] * len(rows)
    done = 0
    while done < count:
        c = min(_BATCH, count - done)
        g = sample_round_gains(n_t, n_r, len(rows[0]), c, seed,
                               first_trial + done)
        for i, thresholds in enumerate(rows):
            # column by column, the same strict test as np.all(g < t, axis=1)
            out = g[:, 0] < thresholds[0]
            for k in range(1, len(thresholds)):
                out &= g[:, k] < thresholds[k]
            fails[i] += int(np.count_nonzero(out))
        done += c
    return fails


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_outage(
    config: SystemConfig, trials: int, seed: int = 0, lanes: int = 1
) -> SimulationResult:
    """Estimate the outage probability by direct trial counting.

    A trial is an outage when every round's gain falls below its threshold.
    The result is bitwise reproducible for a given (config, trials, seed)
    regardless of ``lanes``, the number of worker threads, capped at the
    trials and at the usable cores. Each thread counts one contiguous range
    of the trials.
    """
    return _simulate([config], trials, seed, lanes)[0]


def _simulate(configs: Sequence[SystemConfig], trials: int, seed: int,
              lanes: int) -> list:
    """``simulate_outage`` at each of ``configs`` (one n_t, n_r and K), on
    one draw of the trials, made after every point's thresholds."""
    trials = check_count("trials", trials)
    seed = check_count("seed", seed, least=0)
    lanes = check_count("lanes", lanes)
    lanes = min(lanes, trials, _usable_cores())
    rows = [tuple(outage_threshold(c, k) for k in range(1, c.k_rounds + 1))
            for c in configs]
    n_t, n_r = configs[0].n_t, configs[0].n_r
    bounds = [trials * i // lanes for i in range(lanes + 1)]
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        counts = [sum(c) for c in zip(*pool.map(
            lambda r: _count_failures(n_t, n_r, rows, r[0], r[1] - r[0], seed),
            zip(bounds, bounds[1:])))]
    results = []
    for failures in counts:
        p = failures / trials
        results.append(SimulationResult(
            trials=trials, failures=failures, estimate=p,
            ci_halfwidth=3.0 * math.sqrt(p * (1.0 - p) / trials), seed=seed,
            low_confidence=failures < _MIN_FAILURES))
    return results


def empirical_diversity_slope(
    config: SystemConfig,
    snr_grid_db: Sequence[float],
    method: str = "exact",
    trials: int = 10**6,
    seed: int = 0,
    lanes: int = 1,
) -> float:
    """Negated least-squares slope of log10 P versus log10 SNR.

    At high SNR this estimates the diversity order. ``method`` selects the
    per-point probability: "exact" evaluates the grid as one
    ``outage_curve``, "simulation" counts every grid point on one draw of
    the trials, each count the one ``simulate_outage`` gives there.
    Simulation requires at least 100 expected failures at the top of the
    grid (where outage is rarest); otherwise the fit would be driven by
    counting noise and the call fails with the trial count that would fix
    it.
    """
    grid = [float(db) for db in snr_grid_db]
    if len(grid) < 2:
        raise ValueError("snr_grid_db needs at least two points")
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("snr_grid_db must be strictly increasing")
    if method not in ("exact", "simulation"):
        raise ValueError(f"method must be 'exact' or 'simulation', got {method!r}")
    configs = [
        replace(config, snr_per_round=(db_to_linear(db),) * config.k_rounds)
        for db in grid
    ]
    if method == "exact":
        snrs = [c.snr_per_round[0] for c in configs]
        log_exact, _ = outage_curve(config.n_t, config.n_r, config.k_rounds,
                                    config.rate, (snrs,) * config.k_rounds)
        logs = [v / math.log(10.0) for v in log_exact]
        for v in logs:
            if not math.isfinite(v):
                raise ValueError("exact outage is 0 or 1 on the grid; cannot fit")
    else:
        trials = check_count("trials", trials)
        p_top = exact_outage(configs[-1]).value
        expected = trials * p_top
        if expected < _MIN_FAILURES:
            need = -1 if p_top == 0.0 else math.ceil(_MIN_FAILURES / p_top)
            raise SimulationInfeasibleError(
                f"expected only {expected:.1f} failures at "
                f"{grid[-1]:g} dB; need >= {_MIN_FAILURES}, i.e. at least "
                f"{need} trials",
                required_trials=need,
            )
        logs = []
        for r in _simulate(configs, trials, seed, lanes):
            if r.failures == 0:
                raise SimulationInfeasibleError(
                    f"no failures observed at one grid point with {trials} trials",
                    required_trials=-1,
                )
            logs.append(math.log10(r.estimate))
    xs = [db / 10.0 for db in grid]  # log10 of linear SNR
    return -_slope(xs, logs)


def _slope(xs: list, ys: list) -> float:
    """Least-squares slope of ys against xs, from the centred sums, each
    sum correctly rounded (``math.fsum``)."""
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    return (math.fsum(d * (y - my) for d, y in zip(dx, ys))
            / math.fsum(d * d for d in dx))
