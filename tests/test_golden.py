"""Golden-bytes check of the CLI's output contract.

The files under ``tests/data/`` were written by ``cli.main`` on the Linux/glibc
box that runs the Tier-1 suite; code removal and refactoring must leave them
byte for byte unchanged. A platform whose libm rounds ``exp``/``log``
differently in the last place may legitimately differ. To regenerate after a
deliberate output change, run the listed argv with ``--out`` into
``tests/data/`` and say why in CHANGES.md.
"""

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


def test_json_mirror(tmp_path):
    # --lanes is fixed because the metadata records it; the 0 dB point of
    # this square array carries a null asymptote
    out = tmp_path / "curve.csv"
    assert main(["sweep-snr", "--nt", "4", "--nr", "4", "--k", "2",
                 "--snr-db", "0:5:30", "--lanes", "1", "--out", str(out),
                 "--json"]) == 0
    assert_same_bytes(out.with_suffix(".json").read_bytes(),
                      (DATA / "sweep_snr_4x4_k2.json").read_bytes(),
                      "sweep-snr --json mirror")
