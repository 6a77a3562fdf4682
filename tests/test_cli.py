"""CLI tests: range parsing, the fixed CSV schema, JSON mirrors, exit codes,
and agreement between emitted files and direct library calls."""

import ast
import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from keyhole_harq import __version__, analysis, cli, montecarlo, specfun
from keyhole_harq.analysis import asymptotic_outage, coding_gain, exact_outage
from keyhole_harq.cli import (
    CSV_HEADER,
    CurvePoint,
    CurveResult,
    db_to_linear,
    main,
    parse_gamma_db,
    parse_range,
    write_curve_csv,
)
from keyhole_harq.keyhole import SystemConfig
from keyhole_harq.montecarlo import simulate_outage

EXPECTED_HEADER = "axis,exact,asymptotic,simulated,ci_low,ci_high,log10_exact"


def read_curve_csv(path, axis_name: str = "axis") -> CurveResult:
    """Parse a file produced by ``write_curve_csv``.

    The fixed CSV header cannot carry the axis name, so it is supplied by
    the caller (the JSON mirror records it in metadata).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError(f"unexpected header in {path}: {rows[:1]!r}")
    points = []
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"malformed row {row!r}")
        vals = [None if cell == "" else float(cell) for cell in row]
        points.append(CurvePoint(*vals))
    return CurveResult(axis_name=axis_name, columns=_columns(points))


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports the package from
    this checkout's src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=str(src))


def _columns(points) -> tuple:
    """The CSV columns of a list of ``CurvePoint`` rows."""
    return tuple(zip(*points)) or ((),) * len(CSV_HEADER)


class TestParsing:
    def test_range_includes_stop_on_grid(self):
        got = parse_range("0:2:30")
        assert len(got) == 16
        assert got[0] == 0.0 and got[-1] == 30.0

    def test_range_fractional_step(self):
        got = parse_range("1:0.25:2")
        assert got == pytest.approx([1.0, 1.25, 1.5, 1.75, 2.0])

    def test_range_stop_off_grid(self):
        assert parse_range("0:2:5")[-1] == 4.0

    def test_single_point(self):
        assert parse_range("7:1:7") == [7.0]

    @pytest.mark.parametrize(
        "bad", ["1:2", "1:2:3:4", "a:1:2", "1:0:2", "1:-1:2", "5:1:2", "1:inf:2"]
    )
    def test_range_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_range(bad)

    @pytest.mark.parametrize("text", [
        "0:1:1000000",     # 1,000,001 points
        "0:1e-300:1",      # ~1e300 points
        "0:1e-320:1",      # the point count overflows to inf
        "-1e308:1:1e308",  # so does the span
    ])
    def test_range_rejects_more_than_a_million_points(self, text):
        # the count is checked before any point is built
        with pytest.raises(ValueError, match="more than 1000000 points"):
            parse_range(text)

    def test_db_conversion(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(-3.0) == pytest.approx(0.5011872336272722, rel=1e-14)

    def test_gamma_db_broadcast(self):
        assert parse_gamma_db("10", 3) == pytest.approx((10.0, 10.0, 10.0))

    def test_gamma_db_per_round(self):
        got = parse_gamma_db("0,10", 2)
        assert got == pytest.approx((1.0, 10.0))

    def test_gamma_db_length_mismatch(self):
        with pytest.raises(ValueError):
            parse_gamma_db("0,10", 3)


class TestCurveIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        pts = (
            CurvePoint(axis=1.0, exact=math.pi * 1e-7, asymptotic=None,
                       simulated=0.125, ci_low=0.1, ci_high=0.15,
                       log10_exact=-6.5028501311175625),
            CurvePoint(axis=2.0, exact=3.0e-300, asymptotic=1.0 / 3.0,
                       simulated=None, ci_low=None, ci_high=None,
                       log10_exact=-math.inf),
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(path, CurveResult(axis_name="rate",
                                          columns=_columns(pts)))
        back = read_curve_csv(path, axis_name="rate")
        assert back.axis_name == "rate"
        assert back.points == pts

    def test_header_is_fixed(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_csv(path, CurveResult(axis_name="x", columns=_columns(())))
        assert path.read_text().splitlines()[0] == EXPECTED_HEADER

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_curve_csv(path)


class TestSweepSnr:
    def test_matches_library(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep-snr", "--nt", "2", "--nr", "3", "--k", "2", "--rate", "3",
            "--snr-db", "0:10:20", "--out", str(out),
        ])
        assert rc == 0
        curve = read_curve_csv(out, axis_name="snr_db")
        assert len(curve.points) == 3
        for p in curve.points:
            config = SystemConfig.equal_snr(2, 3, 2, 3.0, db_to_linear(p.axis))
            want = exact_outage(config)
            assert p.exact == want.value
            assert p.log10_exact == want.log_value / math.log(10.0)
            assert p.asymptotic == asymptotic_outage(config).value
            assert p.simulated is None and p.ci_low is None and p.ci_high is None

    def test_simulation_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep-snr", "--nt", "2", "--nr", "2", "--k", "1", "--rate", "1",
            "--snr-db", "3:3:6", "--trials", "20000", "--seed", "5",
            "--out", str(out),
        ])
        assert rc == 0
        for p in read_curve_csv(out).points:
            config = SystemConfig.equal_snr(2, 2, 1, 1.0, db_to_linear(p.axis))
            r = simulate_outage(config, 20000, seed=5)
            assert p.simulated == r.estimate
            assert p.ci_low == max(r.estimate - r.ci_halfwidth, 0.0)
            assert p.ci_high == min(r.estimate + r.ci_halfwidth, 1.0)

    def test_square_low_snr_leaves_asymptote_blank(self, tmp_path):
        # at 0 dB the square-array leading term is undefined (ln 1 = 0);
        # the sweep must emit the point with an empty asymptotic cell
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep-snr", "--nt", "2", "--nr", "2", "--k", "1", "--rate", "1",
            "--snr-db", "0:5:10", "--out", str(out),
        ])
        assert rc == 0
        pts = read_curve_csv(out).points
        assert pts[0].asymptotic is None
        assert pts[1].asymptotic is not None
        assert pts[0].exact is not None

    def test_stdout_header(self, capsys):
        rc = main(["sweep-snr", "--snr-db", "10:10:10"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 2

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main([
            "sweep-snr", "--snr-db", "10:5:20", "--out", str(out), "--json",
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        meta = doc["metadata"]
        assert meta["command"] == "sweep-snr"
        assert meta["axis_name"] == "snr_db"
        assert meta["tool_version"] == __version__
        assert meta["n_t"] == 2 and meta["n_r"] == 2 and meta["k_rounds"] == 3
        csv_pts = read_curve_csv(out).points
        assert len(doc["points"]) == len(csv_pts) == 3
        assert doc["points"][0]["exact"] == csv_pts[0].exact

    def test_json_requires_out(self, capsys):
        rc = main(["sweep-snr", "--snr-db", "10:5:20", "--json"])
        assert rc == 2


class TestSweepRate:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main([
            "sweep-rate", "--nt", "2", "--nr", "2", "--k", "2",
            "--rate", "1:1:3", "--gamma-db", "5,8", "--out", str(out),
        ])
        assert rc == 0
        pts = read_curve_csv(out, axis_name="rate").points
        snrs = (db_to_linear(5.0), db_to_linear(8.0))
        for p in pts:
            config = SystemConfig(2, 2, 2, p.axis, snrs)
            assert p.exact == exact_outage(config).value

    def test_exact_column_increases_with_rate(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["sweep-rate", "--rate", "0.5:0.5:4", "--gamma-db", "5",
                     "--out", str(out)]) == 0
        ex = [p.exact for p in read_curve_csv(out).points]
        assert all(a < b for a, b in zip(ex, ex[1:]))

    def test_zero_rate_row(self, tmp_path):
        # rate 0 is never in outage; the log column keeps the -inf marker
        out = tmp_path / "r.csv"
        assert main(["sweep-rate", "--rate", "0:1:2", "--gamma-db", "5",
                     "--out", str(out)]) == 0
        first = read_curve_csv(out, axis_name="rate").points[0]
        assert first.axis == 0.0
        assert first.exact == 0.0
        assert first.asymptotic == 0.0
        assert first.log10_exact == float("-inf")


class TestCodingGain:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "cg.csv"
        rc = main(["coding-gain", "--nt", "2", "--nr", "2",
                   "--rate", "1:1:4", "--out", str(out)])
        assert rc == 0
        pts = read_curve_csv(out, axis_name="rate").points
        for p in pts:
            config = SystemConfig.equal_snr(2, 2, 1, p.axis, 1.0)
            assert p.exact == coding_gain(config)
            assert p.asymptotic is None and p.simulated is None

    def test_rectangular_exits_2(self, capsys):
        rc = main(["coding-gain", "--nt", "2", "--nr", "3", "--rate", "1:1:2"])
        assert rc == 2
        assert "n_t == n_r" in capsys.readouterr().err


class TestDiversity:
    def test_text_report(self, capsys):
        rc = main([
            "diversity", "--nt", "2", "--nr", "3", "--k", "2", "--rate", "3",
            "--snr-db", "50:2:60",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "analytic diversity order: 4" in out
        assert "fitted slope" in out

    def test_json_report(self, capsys):
        rc = main([
            "diversity", "--nt", "2", "--nr", "3", "--k", "2", "--rate", "3",
            "--snr-db", "50:2:60", "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analytic_diversity_order"] == 4
        assert abs(doc["fitted_slope"] - 4.0) < 0.2
        assert doc["metadata"]["method"] == "exact"

    def test_single_point_grid_exits_2(self, capsys):
        rc = main(["diversity", "--snr-db", "50:1:50"])
        assert rc == 2


class TestRunFlags:
    def test_lanes_default_is_usable_cores(self):
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        parser = cli.build_parser()
        for command in ("sweep-snr", "sweep-rate", "diversity", "simulate"):
            assert parser.parse_args([command]).lanes == cores

    def test_curve_json_records_seed_and_lanes_only_when_simulating(
            self, tmp_path):
        base = ["sweep-rate", "--rate", "1:1:2", "--seed", "4", "--lanes", "2",
                "--json"]
        assert main(base + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(base + ["--trials", "1000",
                            "--out", str(tmp_path / "b.csv")]) == 0
        analytic = json.loads((tmp_path / "a.json").read_text())["metadata"]
        simulated = json.loads((tmp_path / "b.json").read_text())["metadata"]
        assert (analytic["trials"], analytic["seed"], analytic["lanes"]) == (
            0, None, None)
        assert (simulated["trials"], simulated["seed"],
                simulated["lanes"]) == (1000, 4, 2)

    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-rate"])
    def test_negative_trials_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "curve.csv"
        assert main([command, "--trials", "-5", "--json",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: trials must be >= 0, got -5\n")
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_diversity_simulation_needs_a_trial(self, capsys):
        # the simulator's own check, not a feasibility estimate from a
        # negative trial count
        assert main(["diversity", "--method", "simulation",
                     "--trials", "-5"]) == 2
        assert capsys.readouterr().err == (
            "error: trials must be >= 1, got -5\n")


class TestOutputPath:
    # --out in a directory that does not exist is a usage error: exit 2,
    # one error line, nothing on stdout
    @pytest.mark.parametrize("argv", [
        ["sweep-snr", "--snr-db", "0:10:20"],
        ["sweep-snr", "--snr-db", "0:10:20", "--json"],
        ["sweep-rate", "--rate", "1:1:2"],
        ["coding-gain", "--rate", "1:1:2"],
        ["diversity", "--snr-db", "50:2:54"],
        ["diversity", "--snr-db", "50:2:54", "--json"],
        ["simulate", "--trials", "10"],
    ])
    def test_missing_directory_exits_2(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out.csv"
        assert main(argv + ["--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {str(target)!r}")
        assert not target.parent.exists()

    # a curve's --json without --out is refused before any point is
    # evaluated or simulated, on one error line
    @pytest.mark.parametrize("argv", [
        ["sweep-snr", "--snr-db", "0:1:10", "--trials", "20000000"],
        ["sweep-rate", "--rate", "1:1:3", "--trials", "20000000"],
        ["coding-gain", "--rate", "1:1:3"],
    ])
    def test_json_without_out_refused_before_any_work(
            self, monkeypatch, capsys, argv):
        calls = []
        for name in ("outage_curve", "_simulate", "coding_gain"):
            monkeypatch.setattr(cli, name,
                                lambda *a, _name=name, **k: calls.append(_name))
        assert main(argv + ["--json"]) == 2
        out, err = capsys.readouterr()
        assert calls == []
        assert out == ""
        assert err == "error: --json needs --out to place the mirror\n"


def _readme_commands() -> list:
    """The ``keyhole-harq`` lines of README's "Command line" sh block, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Command line"):]
    block = section[section.index("```sh\n"):].split("```")[1]
    return [line.strip() for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("keyhole-harq ")]


class TestReadmeCommands:
    def test_every_subcommand_shown(self):
        assert {line.split()[1] for line in _readme_commands()} == {
            "sweep-snr", "sweep-rate", "coding-gain", "diversity", "simulate"}

    # every command the README shows runs as written, in process
    @pytest.mark.parametrize("line", _readme_commands(),
                             ids=lambda line: line.split()[1])
    def test_runs(self, tmp_path, monkeypatch, capsys, line):
        monkeypatch.chdir(tmp_path)
        assert main(shlex.split(line)[1:]) == 0


class TestDiversityMetadata:
    ARGV = ["diversity", "--nt", "1", "--nr", "1", "--k", "1", "--rate", "1",
            "--snr-db", "0:2:4", "--seed", "3", "--json"]

    def _doc(self, tmp_path, extra, name):
        out = tmp_path / name
        assert main(self.ARGV + extra + ["--out", str(out)]) == 0
        return out.read_bytes()

    def test_exact_report_ignores_run_flags(self, tmp_path):
        one = self._doc(tmp_path, ["--lanes", "1"], "a.json")
        two = self._doc(tmp_path, ["--lanes", "2", "--seed", "9"], "b.json")
        assert one == two
        meta = json.loads(one)["metadata"]
        assert (meta["trials"], meta["seed"], meta["lanes"]) == (
            None, None, None)

    def test_simulation_report_records_run_flags(self, tmp_path):
        doc = self._doc(tmp_path, ["--method", "simulation", "--trials",
                                   "2000", "--lanes", "2"], "s.json")
        meta = json.loads(doc)["metadata"]
        assert (meta["trials"], meta["seed"], meta["lanes"]) == (2000, 3, 2)


class TestOneDrawPerCurve:
    """Every point of a simulated curve counts the same batches, drawn once
    in one thread pool."""

    TRIALS = 2 * montecarlo._BATCH + 5

    def _spy(self, monkeypatch, argv) -> tuple:
        draws, pools = [], []
        draw = montecarlo.sample_round_gains
        pool = montecarlo.ThreadPoolExecutor

        def spy_draw(*args):
            draws.append(args[3])
            return draw(*args)

        def spy_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return pool(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "sample_round_gains", spy_draw)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", spy_pool)
        rc = main(argv + ["--trials", str(self.TRIALS), "--lanes", "1"])
        return rc, draws, pools

    def test_sweep_rate(self, monkeypatch, capsys):
        rc, draws, pools = self._spy(monkeypatch, [
            "sweep-rate", "--nt", "2", "--nr", "3", "--k", "3",
            "--rate", "1:0.5:4.5", "--gamma-db", "1,6,11"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 8
        assert len(draws) == -(-self.TRIALS // montecarlo._BATCH) == 3
        assert sum(draws) == self.TRIALS
        assert pools == [1]

    def test_diversity(self, monkeypatch, capsys):
        rc, draws, pools = self._spy(monkeypatch, [
            "diversity", "--nt", "2", "--nr", "2", "--k", "1", "--rate", "1",
            "--snr-db", "0:2:6", "--method", "simulation"])
        assert rc == 0
        assert len(draws) == 3 and sum(draws) == self.TRIALS
        assert pools == [1]

    def test_infeasible_diversity_draws_nothing(self, monkeypatch, capsys):
        rc, draws, pools = self._spy(monkeypatch, [
            "diversity", "--method", "simulation"])
        assert rc == 2
        assert "failures" in capsys.readouterr().err
        assert draws == [] and pools == []


class TestSimulate:
    def test_deterministic_json(self, capsys):
        argv = [
            "simulate", "--nt", "2", "--nr", "2", "--k", "1", "--rate", "1",
            "--gamma-db", "3", "--trials", "30000", "--seed", "12", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["trials"] == 30000
        assert first["failures"] == round(first["estimate"] * 30000)
        assert first["metadata"]["config"]["n_t"] == 2

    def test_text_fields(self, capsys):
        rc = main(["simulate", "--trials", "1000", "--seed", "3",
                   "--gamma-db", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("trials:", "failures:", "estimate:", "ci_halfwidth_3sigma:",
                    "low_confidence:"):
            assert key in out

    def test_zero_trials_exits_2(self, capsys):
        assert main(["simulate", "--trials", "0"]) == 2

    def test_python_m_matches_main(self, capsys):
        argv = ["simulate", "--trials", "1000", "--seed", "7", "--lanes", "1"]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "keyhole_harq.cli", *argv],
                              capture_output=True, text=True, env=env)
        rc = main(argv)
        assert proc.stdout == capsys.readouterr().out != ""
        assert proc.returncode == rc == 0

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["simulate", "--trials", "1000", "--seed", "7", "--lanes", "1"],
    ])
    def test_python_m_package_matches_main(self, capsys, argv):
        proc = subprocess.run([sys.executable, "-m", "keyhole_harq", *argv],
                              capture_output=True, text=True, env=_src_env())
        try:
            rc = main(argv)
        except SystemExit as exc:  # --version exits from argparse
            rc = exc.code
        assert proc.stdout == capsys.readouterr().out != ""
        assert proc.returncode == rc == 0

    def test_curves_do_not_import_numpy_random(self, tmp_path):
        # only the simulator draws; a curve-only process never imports it
        code = ("import sys\n"
                "from keyhole_harq.cli import main\n"
                f"assert main(['sweep-snr', '--out', {str(tmp_path / 'c.csv')!r}]"
                ") == 0\n"
                "print('numpy.random' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_src_env())
        assert proc.stdout == "False\n", proc.stderr

    # Every module besides keyhole_harq.* that a fresh CPython 3.11 loads to
    # import the CLI and run the four default closed-form commands: the
    # CLI's argparse, json, dataclasses, concurrent.futures and logging with
    # their dependencies, and locale from the first command. Each process
    # pays for these imports, so a new one is a change to review here.
    COLD_START = frozenset("""
        __future__ _ast _heapq _json _locale _opcode _queue _string argparse
        ast concurrent concurrent.futures concurrent.futures._base
        concurrent.futures.thread copy dataclasses dis gettext heapq
        importlib.machinery inspect json json.decoder json.encoder
        json.scanner linecache locale logging opcode queue string textwrap
        token tokenize traceback
    """.split())

    def test_closed_form_start_imports_no_numpy(self, tmp_path):
        # the package, the CLI and the default closed-form commands run
        # without numpy, whose import would cost every process ~0.1 s, and
        # load no module beyond COLD_START
        commands = [["sweep-snr"], ["sweep-rate"], ["coding-gain"],
                    ["diversity", "--method", "exact"]]
        out = str(tmp_path / "o")
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "from keyhole_harq.cli import main\n"
                f"for argv in {commands!r}:\n"
                f"    assert main(argv + ['--out', {out!r}]) == 0\n"
                "print(sorted(set(sys.modules) - before))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        loaded = {m for m in ast.literal_eval(proc.stdout)
                  if m.split(".")[0] != "keyhole_harq"}
        assert "numpy" not in loaded
        assert sorted(loaded - self.COLD_START) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "1000", "--lanes", "1"],
        ["sweep-snr", "--snr-db", "0:0.25:70"],
    ], ids=["simulate", "sweep-snr-281"])
    def test_simulation_and_long_curves_load_numpy(self, tmp_path, argv):
        # a 281-point curve takes the array path; numpy is deferred, not gone
        assert 281 >= analysis._ARRAY_THRESHOLDS
        code = ("import sys\n"
                "from keyhole_harq.cli import main\n"
                f"assert main({argv!r} + ['--out', "
                f"{str(tmp_path / 'o')!r}]) == 0\n"
                "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_src_env())
        assert proc.stdout == "True\n", proc.stderr


class TestDomainEdges:
    # Points past float64 reach: each either answers with no nan cell or
    # exits 2 with one error line naming the quantity, never a traceback.
    # 10^(dB/10) leaves float64 from ~3083 dB.
    # The asymptote overflows at 4x4 rate 259 and 2x2 rate 515/683, so its
    # cell is blank there.
    @pytest.mark.parametrize("argv,code,quantity", [
        (["sweep-rate", "--nt", "16", "--nr", "16", "--k", "1",
          "--gamma-db", "10", "--rate", "68:1:68"], 2, "gain CDF"),
        (["sweep-rate", "--nt", "4", "--nr", "4", "--k", "1",
          "--gamma-db", "10", "--rate", "259:1:259"], 0, None),
        (["sweep-rate", "--nt", "2", "--nr", "2", "--k", "1",
          "--gamma-db", "10", "--rate", "515:1:515"], 0, None),
        (["sweep-rate", "--nt", "2", "--nr", "2", "--k", "1",
          "--gamma-db", "10", "--rate", "683:1:683"], 0, None),
        (["sweep-rate", "--nt", "2", "--nr", "2", "--k", "1",
          "--gamma-db", "10", "--rate", "686:1:686"], 2, "gain CDF"),
        (["sweep-rate", "--nt", "2", "--nr", "2", "--k", "1",
          "--gamma-db", "10", "--rate", "1024:1:1024"], 2, "outage threshold"),
        (["sweep-snr", "--nt", "200", "--nr", "200", "--k", "1",
          "--snr-db", "0:1:0"], 2, "gain CDF"),
        (["sweep-snr", "--nt", "200", "--nr", "200", "--k", "1",
          "--snr-db", "1:1:1"], 2, "gain CDF"),
        (["sweep-snr", "--snr-db", "3090:1:3090"], 2, "SNR"),
        (["simulate", "--gamma-db", "4000", "--trials", "10"], 2, "SNR"),
        (["diversity", "--snr-db", "3000:100:3100", "--method", "exact"],
         2, "SNR"),
        # refused from its point count, before a point is built
        (["sweep-snr", "--snr-db", "0:1e-300:1"], 2, "range"),
    ])
    def test_typed_outcome(self, capsys, argv, code, quantity):
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code == 0:
            rows = out.splitlines()
            assert rows[0] == EXPECTED_HEADER and len(rows) == 2
            cells = rows[1].split(",")
            assert "nan" not in cells
            assert float(cells[1]) == 1.0 and cells[2] == ""
            assert err == ""
        else:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error: " + quantity)


    def test_overflow_mid_grid_writes_nothing(self, tmp_path, capsys):
        # 3000 and 3050 dB convert, 3100 dB does not: the whole command fails
        out = tmp_path / "s.csv"
        assert main(["sweep-snr", "--snr-db", "3000:50:3100",
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: SNR")
        assert not out.exists()

    @pytest.mark.parametrize("n,quantity", [
        # point 0 (10 dB) is beyond the 16x16 gain CDF's reach, point 1
        # (4010 dB) beyond float64: the earlier point's error wins
        ("16", "gain CDF for shapes (16, 16)"),
        # at 2x2 point 0 answers, so the dB overflow of point 1 is the error
        ("2", "SNR 4010.0 dB overflows float64"),
    ])
    def test_earlier_point_error_beats_db_overflow(self, capsys, n, quantity):
        assert main(["sweep-snr", "--nt", n, "--nr", n, "--k", "1",
                     "--rate", "68", "--snr-db", "10:4000:4010"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: " + quantity)


class TestParserReuse:
    # each step: argv, then the files it writes, relative to its --out
    STEPS = [
        (["sweep-snr", "--nt", "2", "--nr", "3", "--k", "2",
          "--snr-db", "0:10:30", "--json"], [".csv", ".json"]),
        (["sweep-snr", "--nt", "2", "--nr", "3", "--k", "2",
          "--snr-db", "0:10:30"], [".csv"]),
        (["sweep-rate", "--k", "2", "--rate", "1:1:3", "--gamma-db", "3,9",
          "--trials", "1000", "--seed", "4", "--lanes", "1"], [".csv"]),
        (["sweep-rate", "--k", "2", "--rate", "1:1:3", "--gamma-db", "3,9"],
         [".csv"]),
        (["simulate", "--trials", "2000", "--seed", "3", "--json",
          "--lanes", "1"], [".csv"]),
        (["coding-gain", "--rate", "1:1:3"], [".csv"]),
        (["sweep-snr", "--snr-db", "5:5:15"], [".csv"]),
    ]

    def _run(self, tmp_path, fresh: bool) -> tuple:
        got = []
        for i, (argv, suffixes) in enumerate(self.STEPS):
            if fresh:
                cli._parser.cache_clear()
            out = tmp_path / f"step{i}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            got.append([out.with_suffix(sfx).read_bytes() for sfx in suffixes])
        written = sorted(p.name for p in tmp_path.iterdir())
        return got, written

    def test_back_to_back_calls_match_fresh_parsers(self, tmp_path):
        (tmp_path / "fresh").mkdir()
        (tmp_path / "reused").mkdir()
        want = self._run(tmp_path / "fresh", fresh=True)
        cli._parser.cache_clear()
        assert self._run(tmp_path / "reused", fresh=False) == want

    def test_parser_built_once(self, monkeypatch, tmp_path):
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or original())
        cli._parser.cache_clear()
        for argv, _ in self.STEPS[:3]:
            assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0
        assert len(built) == 1

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        argv = ["sweep-snr", "--snr-db", "5:5:15"]
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep-snr", "--bogus"])
        assert exc_info.value.code == 2
        with pytest.raises(SystemExit):
            main(["sweep-rate", "--rate"])
        assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())


class TestBenchmarkTracer:
    @staticmethod
    def _traced(monkeypatch, argv):
        """Run ``main(argv)`` under an unedited perfbench/tracing.py Tracer;
        the package's module attributes must come back unchanged."""
        # perfbench/tracing.py rebinds module attributes of the package;
        # a rename there would surface as an AttributeError at install
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        for name in ("tracing", "workloads"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        import tracing

        modules = (cli, analysis, specfun, montecarlo)
        before = [dict(vars(m)) for m in modules]
        tracer = tracing.Tracer()
        tracer.install(*modules)
        try:
            assert main(argv) == 0
        finally:
            tracer.uninstall()
        assert [dict(vars(m)) for m in modules] == before
        return tracer

    def test_tracer_counts_one_sweep(self, monkeypatch, tmp_path):
        tracer = self._traced(monkeypatch, [
            "sweep-snr", "--snr-db", "0:0.25:70",
            "--out", str(tmp_path / "c.csv")])
        assert tracer.stats["cli.write_curve_csv"].work == 281
        # a curve of at least the array-path size (281 thresholds: the K=3
        # rounds share one column) evaluates its CDFs as arrays, never point
        # by point
        assert 281 >= analysis._ARRAY_THRESHOLDS
        assert "specfun.meijer_g_log_cdf" not in tracer.stats

    def test_tracer_sees_short_sweep_point_by_point(self, monkeypatch,
                                                    tmp_path):
        tracer = self._traced(monkeypatch, [
            "sweep-snr", "--snr-db", "0:2.5:70",
            "--out", str(tmp_path / "c.csv")])
        assert tracer.stats["cli.write_curve_csv"].work == 29
        # below the array-path size the curve calls the one-point CDF, once
        # per point: its K=3 rounds share one SNR
        assert 29 < analysis._ARRAY_THRESHOLDS
        assert tracer.stats["specfun.meijer_g_log_cdf"].calls == 29

    def test_tracer_sees_every_simulator_batch(self, monkeypatch, tmp_path):
        # the simulator's lanes must keep calling the module-level
        # sample_round_gains, or the traced draw metrics go blind
        trials = 5 * montecarlo._BATCH + 3
        tracer = self._traced(monkeypatch, [
            "simulate", "--trials", str(trials), "--lanes", "2",
            "--out", str(tmp_path / "s.txt")])
        draws = tracer.stats["montecarlo.sample_round_gains"]
        assert draws.work == trials
        lane = -(-trials // 2)
        assert draws.calls == 2 * -(-lane // montecarlo._BATCH)
        assert tracer.stats["montecarlo.simulate_outage"].calls == 1
        assert 0.0 < tracer.lane_busy_s <= tracer.lane_capacity_s


class TestArgparseBehavior:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep-snr", "--bogus"])
        assert exc_info.value.code == 2

    def test_bad_range_exits_2(self, capsys):
        assert main(["sweep-snr", "--snr-db", "10:0:20"]) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert __version__ in capsys.readouterr().out
