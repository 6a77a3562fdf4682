"""In-process A/B of a parent commit against this checkout, with an A/A row.

    python3 tools/ab.py --parent HEAD~1 --workload snr_curves --seed 1 \
        --ops 72 --pairs 30

The ``src/keyhole_harq`` of ``--parent`` (by ``git archive``) is loaded
twice, as ``kh_parent`` and ``kh_aa``, and this checkout's (uncommitted
edits too) as ``kh_change``, in one process. Each side runs the same cases:

* the first ``--ops`` ops of the workload's seeded stream, at lanes = usable
  cores as ``perfbench/run.py`` runs them, through ``cli.main``;
* layer cases, each one call repeated a fixed number of times a round: the
  ``perfbench/crosscheck.py`` rows, and ``outage_curve`` at K=3 over 0-70 dB
  SNR sweeps of 1 to 281 points and rate sweeps at 5, 10 and 15 dB ("3
  SNRs"). Where a curve takes the array path (from 64 thresholds, points x
  distinct SNR columns) the one-point loop is timed beside it, so the
  crossover stays measurable.

An untimed pass warms every cache and keeps each op's exit code (or
exception) and output bytes, and each layer case's ``repr``. If the change
and the second parent copy match the parent it prints ``outputs: N of N ops
byte-identical``, else it names the first case that differs and exits 1.
``--ops 0`` runs the layer cases alone, for commits whose CLI bytes differ.

Then ``--pairs`` timed rounds run every case on parent, change and the
second parent copy, in reverse order every other round, so a drift of the
machine's speed hits the sides alike. Each row (the ops' p50 and total,
each op kind, each layer case) prints the parent's median us per call and
the quartiles of the change/parent and A/A (second copy/parent) ratios. A
ratio below 1 is faster; a change/parent spread inside the A/A spread shows
no difference. ``tools/bench_pairs.py`` measures ``setup_s``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import itertools
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, extract

SIDES = ("parent", "change", "aa")
K_ROUNDS, RATE = 3, 3.0
SHAPES = ((2, 2), (8, 5), (16, 16))
POINTS = (1, 8, 23, 64, 65, 281)
RATE_SHAPES = ((2, 2), (16, 16))
RATE_POINTS = (21, 22, 23, 24)
GAMMAS = tuple(10.0 ** (db / 10.0) for db in (5.0, 10.0, 15.0))
KERNEL_CALLS = 500   # per round, of each kernel, CDF and exact_outage case
CURVE_CALLS = 10     # per round, of each curve and one-point loop case
SIM_TRIALS = 200_000


def _import(name: str, path: Path):
    """The module file, or the package directory, at ``path`` as ``name``."""
    pkg = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if pkg else path,
        submodule_search_locations=[str(path)] if pkg else None)
    module = importlib.util.module_from_spec(spec)
    for stale in [k for k in sys.modules if k.startswith(f"{name}.")]:
        del sys.modules[stale]
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workload_ops(workload: str, seed: int, n: int) -> list:
    """The first n ``Op``s of the workload's stream at lanes = usable cores."""
    workloads = _import("workloads", ROOT / "perfbench" / "workloads.py")
    stream = itertools.chain.from_iterable(workloads.blocks(
        workload, seed, len(os.sched_getaffinity(0))))
    return list(itertools.islice(stream, n))


def outcome(fn):
    """fn(), or the type and message of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # a crash is part of the output
        return f"{type(exc).__name__}: {exc}"


def op_output(cli, argv, out: Path) -> tuple:
    """``cli.main`` of argv with ``--out`` naming ``out``: its outcome and
    the bytes it wrote there (None for no file)."""
    out.unlink(missing_ok=True)
    rc = outcome(lambda: cli.main([*argv, "--out", str(out)]))
    return rc, out.read_bytes() if out.exists() else None


def one_point_loop(pkg, n_t: int, n_r: int, points: list) -> tuple:
    """The exact and asymptotic logs of a curve over its (rate, per-round
    SNRs) points, as ``outage_curve`` maps them below its array-path size."""
    log_exact, log_asy = [], []
    for rate, snrs in points:
        config = pkg.SystemConfig(n_t, n_r, K_ROUNDS, rate, snrs)
        log_exact.append(pkg.exact_outage(config).log_value)
        try:
            log_asy.append(pkg.asymptotic_outage(config).log_value)
        except pkg.DomainError:
            log_asy.append(None)
    return log_exact, log_asy


def layer_cases(pkg) -> list:
    """(name, calls per round, call) of every layer case of ``pkg``."""
    part = functools.partial
    config = pkg.SystemConfig.equal_snr(2, 2, 3, 3.0, 10.0)
    x_surv = pkg.outage_threshold(config, 1)                    # 1.4
    x_asc = pkg.outage_threshold(
        pkg.SystemConfig.equal_snr(2, 2, 3, 3.0, 1e4), 1)       # 1.4e-3
    cases = [(name, KERNEL_CALLS, call) for name, call in [
        *((f"bessel_k_scaled({n}, {x})", part(pkg.bessel_k_scaled, n, x))
          for n, x in ((0, 1.0), (2, 3.0), (8, 10.0))),
        (f"meijer_g_log_cdf(2, 2, {x_surv:g}) survival",
         part(pkg.meijer_g_log_cdf, 2, 2, x_surv)),
        (f"meijer_g_log_cdf(2, 2, {x_asc:g}) ascending",
         part(pkg.meijer_g_log_cdf, 2, 2, x_asc)),
        ("exact_outage 2x2 K=3 R=3 10 dB", part(pkg.exact_outage, config))]]
    cases.append((f"simulate_outage 2x2 K=3 lanes=1 {SIM_TRIALS // 1000}k "
                  "trials", 1, part(pkg.simulate_outage, config, SIM_TRIALS,
                                    seed=1, lanes=1)))

    def curve(name, thresholds, n_t, n_r, rate, snrs, points):
        cases.append((f"outage_curve {n_t}x{n_r} K={K_ROUNDS} {name}",
                      CURVE_CALLS, part(pkg.outage_curve, n_t, n_r,
                                        K_ROUNDS, rate, snrs)))
        if thresholds >= 64:  # analysis._ARRAY_THRESHOLDS: the array path
            cases.append((f"one-point loop {n_t}x{n_r} K={K_ROUNDS} {name}",
                          CURVE_CALLS,
                          part(one_point_loop, pkg, n_t, n_r, points)))

    for (n_t, n_r), n in itertools.product(SHAPES, POINTS):
        snr = [10.0 ** (7.0 * i / max(n - 1, 1)) for i in range(n)]
        curve(f"{n} points", n, n_t, n_r, RATE, (snr,) * K_ROUNDS,
              [(RATE, (g,) * K_ROUNDS) for g in snr])
    for (n_t, n_r), n in itertools.product(RATE_SHAPES, RATE_POINTS):
        rates = [0.5 + 0.25 * i for i in range(n)]
        curve(f"3 SNRs {n} points", n * len(GAMMAS), n_t, n_r, rates,
              GAMMAS, [(r, GAMMAS) for r in rates])
    return cases


def load_and_compare(parent: Path, change: Path, ops: list,
                     out: Path) -> dict | None:
    """Loads the package directory ``parent`` twice and ``change`` once, and
    runs each side's cases (kind, name, calls per round, call) once. Prints
    the outputs line; returns each side's cases, or None if an output of the
    change or the second parent copy differs from the parent's."""
    cases, warm = {}, {}
    for side in SIDES:
        pkg = _import(f"kh_{side}", change if side == "change" else parent)
        cli = importlib.import_module(f"kh_{side}.cli")
        cases[side] = [(op.kind, f"op {i} ({' '.join(op.argv)})", 1,
                        functools.partial(op_output, cli, op.argv, out))
                       for i, op in enumerate(ops)]
        cases[side] += [(name, name, number, call)
                        for name, number, call in layer_cases(pkg)]
        warm[side] = [repr(outcome(case[3])) for case in cases[side]]
    for side in ("change", "aa"):
        for case, want, got in zip(cases["parent"], warm["parent"],
                                   warm[side]):
            if want != got:
                print(f"outputs: {case[1]} differs between parent and {side}")
                return None
    n = len(warm["parent"])
    print(f"outputs: {n} of {n} ops byte-identical")
    return cases


def _per_call(call, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        outcome(call)
    return (time.perf_counter() - t0) / number


def ab(parent: Path, change: Path, ops: list, pairs: int, out: Path) -> int:
    """``load_and_compare``, then ``pairs`` timed rounds and their rows;
    returns the exit code."""
    cases = load_and_compare(parent, change, ops, out)
    if cases is None:
        return 1
    rows = {side: {} for side in SIDES}  # row: each round's us per call
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            times = [_per_call(case[3], case[2]) for case in cases[side]]
            kinds = {}
            for case, t in zip(cases[side], times):
                kinds.setdefault(case[0], []).append(t)
            figures = {"op p50": statistics.median(times[:len(ops)]),
                       "total": sum(times[:len(ops)])} if ops else {}
            figures.update((k, statistics.fmean(t)) for k, t in kinds.items())
            for row, t in figures.items():
                rows[side].setdefault(row, []).append(1e6 * t)
    for row, base in rows["parent"].items():
        spread = [" ".join(f"{q:.3f}" for q in statistics.quantiles(
            [s / p for s, p in zip(rows[side][row], base)], n=4,
            method="inclusive")) for side in ("change", "aa")]
        print(f"{row:44} {statistics.median(base):10.1f} us  "
              f"change/parent {spread[0]}  A/A {spread[1]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--workload", default="snr_curves")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=72)
    ap.add_argument("--pairs", type=int, default=30)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    ops = workload_ops(args.workload, args.seed, args.ops)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        sha = extract(args.parent, tmp / "parent")
        print(f"parent {args.parent} ({sha[:12]}) against this checkout: "
              f"{args.workload} seed {args.seed}, {len(ops)} ops, "
              f"{args.pairs} rounds")
        return ab(tmp / "parent" / "src" / "keyhole_harq",
                  ROOT / "src" / "keyhole_harq", ops, args.pairs,
                  tmp / "op.out")


if __name__ == "__main__":
    sys.exit(main())
