"""Per-call timing of the curve layer, ``analysis.outage_curve``, against
the one-point loop.

    python3 tools/curve_timing.py --root .

Imports the package from the checkout at ``--root`` and times two ways of
computing the same logs of a K=3 curve:

* ``outage_curve`` over the columns;
* the one-point loop: per point a ``SystemConfig``, ``exact_outage`` and
  ``asymptotic_outage`` (None where it raises ``DomainError``), as
  ``outage_curve`` maps them below its array-path size.

The cases are two kinds of curve:

* an SNR sweep at rate 3 whose n points are evenly spaced over 0-70 dB and
  shared by the three rounds (as ``sweep-snr`` evaluates them), at n = 1,
  8, 23, 64, 65 and 281 points and the shapes 2x2, 8x5 and 16x16;
* a rate sweep from 0.5 in steps of 0.25 with three distinct per-round
  SNRs of 5, 10 and 15 dB (as ``sweep-rate --gamma-db 5,10,15`` evaluates
  them, "3 SNRs"), at n = 21 to 24 points and the shapes 2x2 and 16x16.

``outage_curve`` takes the array path from 64 distinct thresholds (points x
distinct SNR columns): at 64 and 65 points of an SNR sweep and at 22 to 24
points of a rate sweep, the first lengths past that size. The 7 repeats of
50 calls go round-robin over every case and both ways, the two ways of a
case back to back, and which of them goes first alternates from repeat to
repeat. Each timing row is the minimum of its repeats; each ratio row is
the median over the repeats of outage_curve/one-point, two timings taken
moments apart, so a slow or fast phase of the machine cancels out of it.
Rows are printed in ``perfbench/crosscheck.py``'s row format, so
``tools/bench_pairs.py`` records them with the crosscheck rows.
"""

from __future__ import annotations

import argparse
import functools
import math
import statistics
import sys
import timeit
from pathlib import Path

SHAPES = ((2, 2), (8, 5), (16, 16))
POINTS = (1, 8, 23, 64, 65, 281)
K_ROUNDS = 3
RATE = 3.0
RATE_SHAPES = ((2, 2), (16, 16))
RATE_POINTS = (21, 22, 23, 24)
GAMMAS = tuple(10.0 ** (db / 10.0) for db in (5.0, 10.0, 15.0))
NUMBER = 50  # calls per repeat
REPEAT = 7


def import_package(root: Path):
    """``keyhole_harq`` from ``root``'s ``src/`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import keyhole_harq

    if not Path(keyhole_harq.__file__).resolve().is_relative_to(src):
        raise ImportError(f"keyhole_harq imported from {keyhole_harq.__file__}")
    return keyhole_harq


def one_point_loop(pkg, n_t: int, n_r: int, points: list) -> tuple:
    """The exact and asymptotic logs of the curve, point by point, over its
    (rate, per-round SNRs) points."""
    log_exact, log_asy = [], []
    for rate, snrs in points:
        config = pkg.SystemConfig(n_t, n_r, K_ROUNDS, rate, snrs)
        log_exact.append(pkg.exact_outage(config).log_value)
        try:
            log_asy.append(pkg.asymptotic_outage(config).log_value)
        except pkg.DomainError:
            log_asy.append(None)
    return log_exact, log_asy


def rows(pkg) -> list:
    """(name, value, unit) for every shape and curve length: the minimum
    us per call of each way, and the median outage_curve/one-point ratio."""
    cases = {}
    for n_t, n_r in SHAPES:
        for n in POINTS:
            snr = [10.0 ** (7.0 * i / max(n - 1, 1)) for i in range(n)]
            cases[f"{n_t}x{n_r} K={K_ROUNDS} {n} points"] = (
                functools.partial(pkg.outage_curve, n_t, n_r, K_ROUNDS, RATE,
                                  (snr,) * K_ROUNDS),
                functools.partial(one_point_loop, pkg, n_t, n_r,
                                  [(RATE, (g,) * K_ROUNDS) for g in snr]))
    for n_t, n_r in RATE_SHAPES:
        for n in RATE_POINTS:
            rates = [0.5 + 0.25 * i for i in range(n)]
            cases[f"{n_t}x{n_r} K={K_ROUNDS} 3 SNRs {n} points"] = (
                functools.partial(pkg.outage_curve, n_t, n_r, K_ROUNDS, rates,
                                  GAMMAS),
                functools.partial(one_point_loop, pkg, n_t, n_r,
                                  [(r, GAMMAS) for r in rates]))
    for curve, loop in cases.values():
        # fills the shape tables before timing, and checks the two ways agree
        if curve() != loop():
            raise AssertionError("outage_curve differs from the one-point loop")
    best = {case: [math.inf, math.inf] for case in cases}
    ratios = {case: [] for case in cases}
    # round-robin, so a slow spell of the machine hits every case alike
    for rep in range(REPEAT):
        for case, calls in cases.items():
            # the way that goes first alternates, so neither gains from it
            step = 1 if rep % 2 == 0 else -1
            t = [timeit.timeit(call, number=NUMBER) for call in calls[::step]]
            t = t[::step]
            best[case] = [min(b, v) for b, v in zip(best[case], t)]
            ratios[case].append(t[0] / t[1])
    out = []
    for case in cases:
        curve, loop = best[case]
        out += [(f"outage_curve {case}", 1e6 * curve / NUMBER, "us/call"),
                (f"one-point loop {case}", 1e6 * loop / NUMBER, "us/call"),
                (f"curve/one-point {case}",
                 statistics.median(ratios[case]), "ratio")]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True,
                    help="checkout whose src/ is timed")
    args = ap.parse_args(argv)
    for name, value, unit in rows(import_package(args.root.resolve())):
        print(f"{name:44s} {value:9.3f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
