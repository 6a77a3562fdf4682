"""Golden-bytes check of the CLI's output contract.

The files under ``tests/data/`` were written by ``cli.main`` on the Linux/glibc
box that runs the Tier-1 suite; code removal and refactoring must leave them
byte for byte unchanged. A platform whose libm rounds ``exp``/``log``
differently in the last place may legitimately differ. To regenerate after a
deliberate output change, run the listed argv with ``--out`` into
``tests/data/`` and say why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from keyhole_harq.cli import main

DATA = Path(__file__).parent / "data"

CURVES = [
    ("sweep_snr_2x2_k3.csv",
     ["sweep-snr", "--nt", "2", "--nr", "2", "--k", "3", "--rate", "3",
      "--snr-db", "0:0.25:70"]),
    ("sweep_snr_3x5_k2.csv",
     ["sweep-snr", "--nt", "3", "--nr", "5", "--k", "2", "--rate", "3",
      "--snr-db", "0:0.25:70"]),
    # pins Bessel orders up to 16 on the survival branch
    ("sweep_snr_16x9_k4.csv",
     ["sweep-snr", "--nt", "16", "--nr", "9", "--k", "4", "--rate", "3",
      "--snr-db", "0:0.25:70"]),
    ("sweep_rate_2x2_k2.csv",
     ["sweep-rate", "--nt", "2", "--nr", "2", "--k", "2", "--gamma-db", "3,9"]),
    ("coding_gain_2x2.csv", ["coding-gain", "--nt", "2", "--nr", "2"]),
]


def assert_same_bytes(got: bytes, want: bytes, name: str) -> None:
    if got == want:
        return
    got_rows = got.splitlines(keepends=True)
    want_rows = want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        if g != w:
            pytest.fail(f"{name} row {i} differs:\n  got  {g!r}\n  want {w!r}")
    pytest.fail(f"{name}: {len(got_rows)} rows, golden file has "
                f"{len(want_rows)}")


@pytest.mark.parametrize("name,argv", CURVES, ids=[c[0] for c in CURVES])
def test_curve_csv_bytes(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert_same_bytes(out.read_bytes(), (DATA / name).read_bytes(), name)


@pytest.mark.parametrize("lanes", [1, 2])
def test_simulate_seed_7(tmp_path, lanes):
    # default config (2x2, K=3, rate 3, 10 dB, 1e6 trials): 26818 failures
    out = tmp_path / "simulate.txt"
    assert main(["simulate", "--seed", "7", "--lanes", str(lanes),
                 "--out", str(out)]) == 0
    assert_same_bytes(out.read_bytes(),
                      (DATA / "simulate_seed7.txt").read_bytes(),
                      f"simulate --seed 7 --lanes {lanes}")


@pytest.mark.parametrize("lanes", [1, 2])
def test_simulated_columns(tmp_path, lanes):
    # pins the simulated, ci_low and ci_high cells of a curve
    out = tmp_path / "sim.csv"
    assert main(["sweep-snr", "--nt", "2", "--nr", "3", "--k", "2",
                 "--snr-db", "0:5:30", "--trials", "2000", "--seed", "5",
                 "--lanes", str(lanes), "--out", str(out)]) == 0
    assert_same_bytes(out.read_bytes(),
                      (DATA / "sweep_snr_2x3_k2_sim.csv").read_bytes(),
                      f"sweep-snr --trials 2000 --lanes {lanes}")


@pytest.mark.parametrize("lanes", [1, 2])
def test_simulated_rate_columns(tmp_path, lanes):
    # a simulated curve whose rounds have distinct SNRs, so every point
    # counts against K distinct thresholds
    out = tmp_path / "sim.csv"
    assert main(["sweep-rate", "--nt", "2", "--nr", "3", "--k", "3",
                 "--gamma-db", "1,6,11", "--trials", "3000", "--seed", "9",
                 "--lanes", str(lanes), "--out", str(out)]) == 0
    assert_same_bytes(out.read_bytes(),
                      (DATA / "sweep_rate_2x3_k3_sim.csv").read_bytes(),
                      f"sweep-rate --trials 3000 --lanes {lanes}")


@pytest.mark.parametrize("lanes", [1, 2])
def test_diversity_simulation_json(tmp_path, lanes):
    # the golden was written at one lane; the metadata records the lanes,
    # and every other byte must not depend on them
    out = tmp_path / "diversity.json"
    assert main(["diversity", "--nt", "2", "--nr", "2", "--k", "1",
                 "--rate", "1", "--snr-db", "0:2:6", "--method",
                 "simulation", "--trials", "20000", "--seed", "4", "--json",
                 "--lanes", str(lanes), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["lanes"] == lanes
    doc["metadata"]["lanes"] = 1
    assert_same_bytes((json.dumps(doc, indent=2) + "\n").encode(),
                      (DATA / "diversity_sim_2x2_k1.json").read_bytes(),
                      f"diversity --method simulation --lanes {lanes}")


def test_json_mirror(tmp_path):
    # the 0 dB point of this square array carries a null asymptote
    out = tmp_path / "curve.csv"
    assert main(["sweep-snr", "--nt", "4", "--nr", "4", "--k", "2",
                 "--snr-db", "0:5:30", "--lanes", "1", "--out", str(out),
                 "--json"]) == 0
    assert_same_bytes(out.with_suffix(".json").read_bytes(),
                      (DATA / "sweep_snr_4x4_k2.json").read_bytes(),
                      "sweep-snr --json mirror")


def test_json_mirror_ignores_unused_run_flags(tmp_path):
    # without simulated columns, seed and lanes are written as null, so the
    # mirror's bytes do not depend on them or on the machine's core count
    out = tmp_path / "curve.csv"
    assert main(["sweep-snr", "--nt", "4", "--nr", "4", "--k", "2",
                 "--snr-db", "0:5:30", "--seed", "99", "--lanes", "3",
                 "--out", str(out), "--json"]) == 0
    assert main(["sweep-snr", "--nt", "4", "--nr", "4", "--k", "2",
                 "--snr-db", "0:5:30", "--out", str(tmp_path / "d.csv"),
                 "--json"]) == 0
    want = (DATA / "sweep_snr_4x4_k2.json").read_bytes()
    assert_same_bytes(out.with_suffix(".json").read_bytes(), want,
                      "sweep-snr --json --seed 99 --lanes 3")
    assert_same_bytes((tmp_path / "d.json").read_bytes(), want,
                      "sweep-snr --json, default run flags")


def test_sweep_rate_json_mirror(tmp_path):
    # pins the mirror's key order for the rate axis: gamma_db before rate
    out = tmp_path / "curve.csv"
    assert main(["sweep-rate", "--nt", "2", "--nr", "2", "--k", "2",
                 "--rate", "1:1:3", "--gamma-db", "5", "--out", str(out),
                 "--json"]) == 0
    assert_same_bytes(out.with_suffix(".json").read_bytes(),
                      (DATA / "sweep_rate_2x2_k2_r1-3.json").read_bytes(),
                      "sweep-rate --json mirror")


def test_diversity_exact_text(tmp_path, capsys):
    # the text report rounds the fitted slope to 6 significant digits
    out = tmp_path / "diversity.txt"
    assert main(["diversity", "--method", "exact", "--out", str(out)]) == 0
    want = (DATA / "diversity_exact_2x2_k3.txt").read_bytes()
    assert_same_bytes(out.read_bytes(), want, "diversity --method exact")
    assert main(["diversity", "--method", "exact"]) == 0
    assert capsys.readouterr().out.encode() == want


def test_diversity_json_layout(tmp_path, capsys):
    # only the layout and key order are pinned here; the text report above
    # pins the fitted slope to 6 significant digits
    out = tmp_path / "diversity.json"
    assert main(["diversity", "--json", "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert list(doc) == ["analytic_diversity_order", "fitted_slope",
                         "relative_gap", "metadata"]
    assert list(doc["metadata"]) == [
        "command", "method", "n_t", "n_r", "k_rounds", "rate", "snr_db",
        "trials", "seed", "lanes", "tool_version"]
    assert main(["diversity", "--json"]) == 0
    assert capsys.readouterr().out == text
