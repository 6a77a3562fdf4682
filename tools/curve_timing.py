"""Per-call timing of the curve layer, ``analysis.outage_curve``.

    python3 tools/curve_timing.py --root .

Imports the package from the checkout at ``--root`` and times
``outage_curve`` on a K=3 SNR sweep at rate 3, its n points evenly spaced
over 0-70 dB and shared by the three rounds (as ``sweep-snr`` evaluates
them), for n = 1, 8, 23 and 281 at the shapes 2x2, 8x5 and 16x16. The 7
repeats of 50 calls go round-robin over the 12 cases, and each row is the
minimum of its case's repeats, printed in ``perfbench/crosscheck.py``'s row
format, so ``tools/bench_pairs.py`` records it with the crosscheck rows.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import timeit
from pathlib import Path

SHAPES = ((2, 2), (8, 5), (16, 16))
POINTS = (1, 8, 23, 281)
K_ROUNDS = 3
RATE = 3.0
NUMBER = 50  # calls per repeat
REPEAT = 7


def import_analysis(root: Path):
    """``keyhole_harq.analysis`` from ``root``'s ``src/`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    from keyhole_harq import analysis

    if not Path(analysis.__file__).resolve().is_relative_to(src):
        raise ImportError(f"keyhole_harq imported from {analysis.__file__}")
    return analysis


def rows(analysis) -> list:
    """(name, min us per call) for every shape and curve length."""
    calls = {}
    for n_t, n_r in SHAPES:
        for n in POINTS:
            snr = [10.0 ** (7.0 * i / max(n - 1, 1)) for i in range(n)]
            name = f"outage_curve {n_t}x{n_r} K={K_ROUNDS} {n} points"
            calls[name] = functools.partial(
                analysis.outage_curve, n_t, n_r, K_ROUNDS, RATE,
                (snr,) * K_ROUNDS)
    for call in calls.values():
        call()  # fill the shape tables before timing
    best = dict.fromkeys(calls, math.inf)
    # round-robin, so a slow spell of the machine hits every case alike
    for _ in range(REPEAT):
        for name, call in calls.items():
            best[name] = min(best[name], timeit.timeit(call, number=NUMBER))
    return [(name, 1e6 * t / NUMBER) for name, t in best.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True,
                    help="checkout whose src/ is timed")
    args = ap.parse_args(argv)
    for name, us in rows(import_analysis(args.root.resolve())):
        print(f"{name:44s} {us:9.2f} us/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
