"""Print every metric of every workload: one ``run.py`` per workload.

    python3 perfbench/report.py --seed 1 --seconds 50 [--trace 1]

Runs the workloads one after another, each in its own process (so each
reports its own peak memory), ``rate_sims`` included although
``BENCHMARK.json`` does not list it, and prints their human-readable reports:
every metric by name with its unit and sample count, the output-check
failures (``failed_ops_ratio``) and the oracle audit.
"""

import argparse
import subprocess
import sys
from pathlib import Path

import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    run = Path(__file__).resolve().parent / "run.py"
    status = 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run), "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
