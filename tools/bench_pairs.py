"""Before/after benchmark: a parent commit against HEAD, in pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --workloads snr_curves \
        mc_long --seeds 1 2 --pairs 5 --seconds 50 --out BENCH.json

The committed files of both sides, the parent and HEAD, are extracted with
``git archive`` into sibling directories ``parent/`` and ``change/`` of a
scratch directory (``--workdir``, a new temporary directory by default), so
the two sides differ only in their code, not in where or how they were
written, and the repository's own worktrees and index are left alone. A
checkout with uncommitted changes to tracked files is refused: HEAD would
not be what it runs. For every workload and seed, ``perfbench/run.py`` then
runs from each side's directory, one side after the other, ``--pairs``
times; the side that goes first alternates from pair to pair, so a drift of
the machine's speed hits both sides alike.

After the pairs of each workload and seed, this checkout's ``tools/ab.py``
runs once against the parent, with as many rounds as pairs.

The output JSON records, for each workload, seed and end-to-end metric of
``BENCHMARK.json``: both sides' medians and interquartile ranges
(inclusive quartiles), each pair's ratio, the median ratio, and how many
pairs each side won. A ratio above 1 means the change is better:
change/parent for a metric where higher is better, parent/change where
lower is. Failed operations are recorded per run as well, and ``ab.py``'s
printed lines under ``ab``. Every run's own values go to
``.perfbench_out/<out stem>.runs.json``, which git ignores, so the
committed record stays small.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract(ref: str, dest: Path) -> str:
    """The committed files of ``ref`` under ``dest``; returns its hash."""
    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from the checkout at ``root``; its
    result is the JSON object on the last line of its stdout."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ab_lines(parent: str, workload: str, seed: int, pairs: int) -> list:
    """``tools/ab.py``'s printed lines, which a differing output ends, then
    the last line of its stderr: the exception, if it failed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", parent,
         "--workload", workload, "--seed", str(seed), "--pairs", str(pairs)],
        cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.splitlines() + proc.stderr.splitlines()[-1:]


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _g(v: float) -> float:
    """v to 4 significant digits, finer than any spread the pairs show."""
    return float(f"{v:.4g}")


def _dump(obj, depth: int = 0) -> str:
    """obj as JSON, indented down to the metric entries and the lines of a
    list of strings, each on one line."""
    if isinstance(obj, dict) and "unit" not in obj:
        items, ends = [f"{json.dumps(k)}: {_dump(v, depth + 1)}"
                       for k, v in obj.items()], "{}"
    elif isinstance(obj, list) and obj and isinstance(obj[0], str):
        items, ends = [json.dumps(v) for v in obj], "[]"
    else:
        return json.dumps(obj)
    pad = "\n" + " " * (depth + 1)
    return ends[0] + ",".join(pad + i for i in items) + pad[:-1] + ends[1]


def summarize(runs: dict, metrics: list) -> dict:
    """Per metric: the medians, IQRs, pair ratios and wins."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        ratios = [(c / p if higher else p / c) if p and c else None
                  for p, c in zip(sides["parent"], sides["change"])]
        known = [r for r in ratios if r is not None]
        entry = {"unit": m["unit"], "better": m["better"]}
        for side, vals in sides.items():
            q1, q2, q3 = _quartiles(vals)
            entry[side] = {"median": _g(q2), "iqr": _g(q3 - q1)}
        entry["pair_ratios"] = [r if r is None else _g(r) for r in ratios]
        entry["median_ratio"] = (_g(statistics.median(known)) if known
                                 else None)
        entry["pairs_won"] = {"change": sum(r > 1.0 for r in known),
                              "parent": sum(r < 1.0 for r in known)}
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--workloads", nargs="+",
                    default=["snr_curves", "mc_long"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--workdir", type=Path, default=None,
                    help="scratch directory for both sides' files")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    if _git("status", "--porcelain", "--untracked-files=no").strip():
        ap.error("the checkout has uncommitted changes to tracked files; "
                 "commit them first, the change side is HEAD")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    roots, shas = {}, {}
    for side, ref in (("parent", args.parent), ("change", "HEAD")):
        roots[side] = workdir / side
        roots[side].mkdir(parents=True)
        shas[side] = extract(ref, roots[side])
    raw_out = ROOT / ".perfbench_out" / f"{args.out.stem}.runs.json"
    raw_out.parent.mkdir(exist_ok=True)
    raw = {}
    doc = {
        "parent": {"ref": args.parent, "commit": shas["parent"]},
        "change": {"ref": "HEAD", "commit": shas["change"]},
        "command": f"perfbench/run.py --seconds {args.seconds:g}, then "
                   "tools/ab.py",
        "pairs": args.pairs,
        "python": platform.python_version(),
        "ratio": "above 1 means the change is better (change/parent where "
                 "higher is better, parent/change where lower is)",
        "runs": str(raw_out.relative_to(ROOT)),
        "results": {},
    }
    for workload in args.workloads:
        for seed in args.seeds:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    runs[side].append(run_once(roots[side], workload, seed,
                                               args.seconds))
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"{runs[side][-1]['metrics']}", flush=True)
            result = summarize(runs, spec["end_to_end"])
            result["failed_ops"] = {
                side: [[r["failed"], r["attempted"]] for r in runs[side]]
                for side in runs}
            result["ab"] = ab_lines(shas["parent"], workload, seed,
                                    max(2, args.pairs))
            doc["results"].setdefault(workload, {})[str(seed)] = result
            args.out.write_text(_dump(doc) + "\n")
            raw.setdefault(workload, {})[str(seed)] = runs
            raw_out.write_text(json.dumps(raw) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
