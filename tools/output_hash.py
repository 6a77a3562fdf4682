"""One SHA-256 over a workload's exit codes and output files, op by op.

    python3 tools/output_hash.py --root . --workload snr_curves --seed 1 \
        --ops 612

Takes the first ``--ops`` invocations of the workload's seeded op stream
(``perfbench/workloads.py`` of the checkout at ``--root``, at one lane),
runs each in-process through that checkout's ``keyhole_harq.cli.main``
with ``--out`` naming a scratch file, and hashes, in op order, every argv,
exit code (or the type and message of an exception) and output file.
Two checkouts that print the same hash wrote the same bytes for every op.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path


def op_output(cli, argv, out: Path) -> tuple:
    """``cli.main`` of argv with ``--out`` naming ``out``: its exit code (or
    the type and message of its exception) and the bytes it wrote there
    (None for no file)."""
    out.unlink(missing_ok=True)
    try:
        rc = cli.main([*argv, "--out", str(out)])
    except Exception as exc:  # a crash is part of the output
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.read_bytes() if out.exists() else None


def output_hash(root: Path, workload: str, seed: int, ops: int) -> str:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from keyhole_harq import cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"keyhole_harq imported from {cli.__file__}")
    digest = hashlib.sha256()
    stream = itertools.chain.from_iterable(workloads.blocks(workload, seed, 1))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "op.out"
        for op in itertools.islice(stream, ops):
            rc, data = op_output(cli, op.argv, out)
            digest.update(repr((op.argv, rc)).encode())
            digest.update(b"<none>" if data is None else data)
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True,
                    help="checkout whose src/ and perfbench/ are used")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    print(output_hash(root, args.workload, args.seed, args.ops),
          args.workload, f"seed {args.seed}", f"ops {args.ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
