"""In-process A/B of a parent commit against this checkout, with an A/A row.

    python3 tools/ab.py --parent HEAD~1 --workload snr_curves --seed 1 \
        --ops 72 --pairs 30

The committed files of ``--parent`` are extracted with ``git archive`` into
a temporary directory. Its ``src/keyhole_harq`` is loaded twice, as the
packages ``kh_parent`` and ``kh_aa``, and this checkout's (with any
uncommitted edits) as ``kh_change``, so all three live in one process. The
first ``--ops`` invocations of the workload's seeded op stream
(``perfbench/workloads.py`` of this checkout, at one lane) then run through
each package's ``cli.main``, with ``--out`` naming a scratch file: once
untimed to warm every cache, then ``--pairs`` timed rounds. A round runs
parent, change and the second parent copy in that order, and the next round
in the reverse order, so a drift of the machine's speed hits the sides alike.

The warm pass also keeps each op's exit code (or the type and message of
its exception) and output bytes on each side, and compares the change and
the second parent copy with the parent. If every op matches it prints
``outputs: N of N ops byte-identical``; otherwise it names the first op
that differs and exits 1 before any timing.

For each round and each of the per-run op p50 and the total time, it takes
the ratios change/parent and A/A (second parent copy/parent), and prints the
median and quartiles of each. A ratio below 1 means faster than the parent;
a change/parent spread that the A/A spread covers shows no difference.
``setup_s`` is a process-start cost and stays with ``tools/bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, extract
from output_hash import op_output

SIDES = ("parent", "change", "aa")


def load(name: str, pkg_dir: Path):
    """The package at ``pkg_dir`` imported as ``name``; returns its cli."""
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_ops(cli, argvs: list, out: Path) -> list:
    """The wall time of each argv through ``cli.main``, in seconds."""
    times = []
    for argv in argvs:
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        cli.main([*argv, "--out", str(out)])
        times.append(time.perf_counter() - t0)
    return times


def _summary(ratios: list) -> str:
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return f"median {q2:.3f}  quartiles {q1:.3f} {q3:.3f}"


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

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    stream = itertools.chain.from_iterable(
        workloads.blocks(args.workload, args.seed, 1))
    argvs = [op.argv for op in itertools.islice(stream, args.ops)]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        sha = extract(args.parent, tmp / "parent")
        parent_pkg = tmp / "parent" / "src" / "keyhole_harq"
        clis = {"parent": load("kh_parent", parent_pkg),
                "change": load("kh_change", ROOT / "src" / "keyhole_harq"),
                "aa": load("kh_aa", parent_pkg)}
        print(f"parent {args.parent} ({sha[:12]}) against this checkout: "
              f"{args.workload} seed {args.seed}, {len(argvs)} ops, "
              f"{args.pairs} rounds")
        out = tmp / "op.out"
        warm = {side: [op_output(clis[side], argv, out) for argv in argvs]
                for side in SIDES}
        for side in ("change", "aa"):
            pairs = zip(warm["parent"], warm[side])
            differ = [i for i, (want, got) in enumerate(pairs) if want != got]
            if differ:
                i = differ[0]
                print(f"outputs: op {i} differs between parent and {side}: "
                      f"{' '.join(argvs[i])}")
                return 1
        print(f"outputs: {len(argvs)} of {len(argvs)} ops byte-identical")
        p50 = {side: [] for side in SIDES}
        total = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                times = run_ops(clis[side], argvs, out)
                p50[side].append(statistics.median(times))
                total[side].append(sum(times))

    for metric, runs in (("op p50", p50), ("total", total)):
        for side, label in (("change", "change/parent"), ("aa", "A/A")):
            ratios = [s / p for s, p in zip(runs[side], runs["parent"])]
            print(f"{metric:7} {label:14} {_summary(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
