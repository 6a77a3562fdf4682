"""keyhole-harq benchmark: seeded CLI workloads, checked outputs, tracing.

    python3 perfbench/run.py --workload snr_curves --seed 1 --seconds 50 \
        --trace 0

One closed-loop client calls ``keyhole_harq.cli.main(argv)`` in-process,
waits for each invocation, and has it write its output to a scratch file in
``.perfbench_out/`` of the checkout. The loop runs until the invocations have
taken ``--seconds`` of wall time in total. Lanes are the usable core count.
Every output is checked after its invocation returns, outside the timed
region (see ``verify.py``).

``--trace 0`` installs no wrappers and reports the end-to-end metrics.
``--trace 1`` traces the first half of the time budget (see ``tracing.py``),
then replays the same invocations untraced to measure the tracing overhead,
and reports the per-layer metrics.

A human-readable report, stamped with the Python and numpy versions, usable
cores and lanes, comes first on stdout; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
_LN10 = math.log(10.0)


def import_package():
    """Import the package from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "keyhole_harq" / "__init__.py").is_file():
        raise ImportError(f"no keyhole_harq package under {SRC}")
    sys.path.insert(0, str(SRC))
    from keyhole_harq import analysis, cli, montecarlo, specfun

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"keyhole_harq imported from {cli.__file__}")
    return cli, analysis, specfun, montecarlo


def _percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


class Loop:
    """The closed-loop client and the per-op output checks."""

    def __init__(self, pkg, workdir: Path, seed: int):
        self.cli, self.analysis = pkg[0], pkg[1]
        self.out = workdir / "op.out"
        self.rng = random.Random(f"rows:{seed}")
        self.audit = verify.OracleAudit(seed)
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []   # (argv, reason) of the first few failures
        self.points = 0
        self.mc_trials = 0
        self.mc_time = 0.0
        self.one_lane_trials = 0
        self.one_lane_time = 0.0
        self.sims = []       # (op, doc) of simulate calls, checked at the end
        self._last_sim = None

    def run(self, blocks, seconds: float = math.inf) -> list:
        """Run whole blocks until they have taken ``seconds``.

        One-lane reruns count towards the time but not towards the latency
        and throughput figures, which describe lanes = cores invocations.
        Returns the blocks run.
        """
        done = []
        busy = 0.0
        for block in blocks:
            if busy >= seconds:
                break
            for op in block:
                dt = self._one(op)
                busy += dt
                if not op.rerun:
                    self.latencies.append(dt)
            done.append(block)
        return done

    def _one(self, op) -> float:
        argv = list(op.argv) + ["--out", str(self.out)]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        try:
            if rc != 0:
                raise verify.CheckError(f"exit {rc}")
            self._check(op, dt)
        except (verify.CheckError, OSError, ValueError, KeyError,
                TypeError) as exc:
            self._fail(op, exc)
        return dt

    def _fail(self, op, exc: Exception) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append((" ".join(op.argv), str(exc)))

    def _check(self, op, dt: float) -> None:
        if op.kind == "diversity":
            verify.check_diversity(op, self.out)
            return
        if op.kind == "simulate":
            prev, self._last_sim = self._last_sim, None
            with open(self.out) as fh:
                doc = json.load(fh)
            if op.rerun:
                if prev is None:
                    raise verify.CheckError("no lanes=cores result to compare")
                if doc["failures"] != prev["failures"]:
                    raise verify.CheckError(
                        f"lanes=1 gave {doc['failures']} failures, lanes="
                        f"{prev['metadata']['lanes']} gave {prev['failures']}")
                self.one_lane_trials += op.trials
                self.one_lane_time += dt
            else:
                self._last_sim = doc
                self.mc_trials += op.trials
                self.mc_time += dt
                self.points += 1
            self.sims.append((op, doc))
            return
        args = _flags(op.argv)
        axis = verify.parse_range(args["--snr-db"] if op.kind == "sweep-snr"
                                  else args["--rate"])
        rows = verify.read_rows(self.out)
        verify.check_curve(op, rows, axis)
        self.points += len(rows)
        if op.trials:
            self.mc_trials += op.trials * len(rows)
            self.mc_time += dt
        if op.kind == "coding-gain":
            return
        row = rows[self.rng.randrange(len(rows))]
        rate = float(args["--rate"]) if op.kind == "sweep-snr" else row["axis"]
        snrs_db = ([row["axis"]] * op.k if op.kind == "sweep-snr"
                   else [float(g) for g in args["--gamma-db"].split(",")])
        self.audit.offer(op.n_t, op.n_r,
                         [verify.threshold(op.n_t, rate, g) for g in snrs_db],
                         row["log10_exact"])

    def check_simulations(self) -> None:
        """5-sigma check of every simulate estimate against exact_outage."""
        from keyhole_harq.keyhole import SystemConfig

        for op, doc in self.sims:
            args = _flags(op.argv)
            rate, g = float(args["--rate"]), float(args["--gamma-db"])
            config = SystemConfig.equal_snr(op.n_t, op.n_r, op.k, rate,
                                            10.0 ** (g / 10.0))
            exact = self.analysis.exact_outage(config)
            if not op.rerun:
                self.audit.offer(op.n_t, op.n_r,
                                 [verify.threshold(op.n_t, rate, g)] * op.k,
                                 exact.log_value / _LN10)
            try:
                verify.check_simulation(op, doc, exact.value)
            except verify.CheckError as exc:
                self._fail(op, exc)

    def points_per_s(self) -> float:
        return self.points / sum(self.latencies)

    def mc_trials_per_s(self) -> float:
        return self.mc_trials / self.mc_time if self.mc_time else 0.0

    def one_lane_trials_per_s(self) -> float:
        if not self.one_lane_time:
            return 0.0
        return self.one_lane_trials / self.one_lane_time


def _flags(argv) -> dict:
    return {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}


def measure_setup(workload: str, lanes: int, workdir: Path) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(lanes), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(loop: Loop, setup: list) -> list:
    """(name, value, unit, samples) rows; the JSON keeps the gated ones."""
    lat = sorted(v * 1e3 for v in loop.latencies)
    n = len(lat)
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("op_p50_ms", _percentile(lat, 0.5), "ms", n),
        ("op_p90_ms", _percentile(lat, 0.9), "ms", n),
        ("points_per_s", loop.points_per_s(), "1/s", loop.points),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        ("mc_trials_per_s", loop.mc_trials_per_s(), "1/s", loop.mc_trials),
        ("mc_trials_per_s_1lane", loop.one_lane_trials_per_s(), "1/s",
         loop.one_lane_trials),
        ("failed_ops_ratio", loop.failed / loop.attempted, "ratio",
         loop.attempted),
    ]
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        pkg = import_package()
    except ImportError as exc:
        print(f"error: cannot import keyhole_harq: {exc}", file=sys.stderr)
        return 2
    import numpy

    lanes = len(os.sched_getaffinity(0))
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args.workload, lanes,
                                                     workdir)
        loop = Loop(pkg, workdir, args.seed)
        for i, warm in enumerate(workloads.warmup_argvs(args.workload, lanes)):
            if pkg[0].main(warm + ["--out", str(workdir / f"warm-{i}.out")]):
                raise RuntimeError(f"warm-up {warm} failed")
        stream = workloads.blocks(args.workload, args.seed, lanes)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(*pkg)
            try:
                ran = loop.run(stream, args.seconds / 2)
            finally:
                tracer.uninstall()
            replay = Loop(pkg, workdir, args.seed)
            replay.run(ran)
            loop.check_simulations()
            replay.check_simulations()
            loop.failed += replay.failed
            loop.attempted += replay.attempted
            loop.failures += replay.failures
            rows = tracing.per_layer(tracer, loop, replay)
            tracer.write_spans(
                OUT_DIR / f"spans-{args.workload}-{args.seed}.csv",
                f"workload {args.workload} seed {args.seed}")
        else:
            loop.run(stream, args.seconds)
            loop.check_simulations()
            rows = end_to_end(loop, setup)
        audit = loop.audit.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} | "
          f"python {platform.python_version()} numpy {numpy.__version__} "
          f"cores {lanes} lanes {lanes} | {loop.attempted} invocations, "
          f"{loop.failed} failed")
    for name, value, unit, n in rows:
        print(f"  {name:44s} {value:16.6g} {unit:6s} n={n}")
    if not args.trace and len(loop.latencies) < 100:
        print(f"  note: only {len(loop.latencies)} invocations, so p90 has "
              "fewer than 10 samples beyond it")
    print(f"  oracle audit: {audit['misses']} of {audit['checked']} "
          f"closed-form points off by more than {verify.ORACLE_REL_TOL:g} "
          f"relative ({audit['large_misses']} of {audit['large_checked']} "
          f"with both shapes >= {verify.LARGE_SHAPE}); worst "
          f"{audit['max_rel_err']:.3g}; {audit['unresolved']} unresolved")
    for cmd, reason in loop.failures:
        print(f"  FAILED: {cmd}: {reason}")
    keep = _benchmark_metrics()["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name in keep},
    }
    print(json.dumps(result))
    return 0


def _benchmark_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {key: {m["name"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


if __name__ == "__main__":
    sys.exit(main())
