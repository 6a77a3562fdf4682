"""The in-process A/B tool, ``tools/ab.py``, on this checkout's ``src/``
against itself and against a copy with one CSV format changed (no git)."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "keyhole_harq"
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402


def test_same_source_is_byte_identical(tmp_path, capsys):
    ops = ab.workload_ops("snr_curves", 1, 4)
    cases = ab.load_and_compare(PKG, PKG, ops, tmp_path / "op.out")
    n = len(cases["parent"])
    assert capsys.readouterr().out == (
        f"outputs: {n} of {n} ops byte-identical\n")
    # 4 ops, 7 crosscheck rows, 26 curves and 15 array-path one-point loops
    assert n == 4 + 7 + 26 + 15
    names = [case[1] for case in cases["change"]]
    assert "outage_curve 16x16 K=3 3 SNRs 24 points" in names
    assert "one-point loop 2x2 K=3 64 points" in names
    assert "one-point loop 2x2 K=3 23 points" not in names


def test_changed_csv_format_is_reported_at_first_differing_op(tmp_path,
                                                              capsys):
    changed = tmp_path / "keyhole_harq"
    shutil.copytree(PKG, changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "cli.py"
    text = cli.read_text()
    assert text.count('cells.append("%.17g")') == 1
    cli.write_text(text.replace('cells.append("%.17g")',
                                'cells.append("%.16g")'))
    ops = ab.workload_ops("snr_curves", 1, 4)
    first = [op.kind for op in ops].index("sweep-snr")
    assert ab.ab(PKG, changed, ops, 2, tmp_path / "op.out") == 1
    assert capsys.readouterr().out == (
        f"outputs: op {first} ({' '.join(ops[first].argv)}) differs "
        "between parent and change\n")
