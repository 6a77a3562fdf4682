"""Command line front end.

Subcommands: sweep-snr, sweep-rate, coding-gain, diversity, simulate.
Curve commands emit CSV with the fixed header
``axis,exact,asymptotic,simulated,ci_low,ci_high,log10_exact`` (17
significant digits, empty cells where a column does not apply) and, with
--json, a JSON mirror carrying run metadata. sweep-snr and sweep-rate
evaluate their analytic columns with one eager ``outage_curve`` call over
the axis, build the rows from its lists of Python floats, and build a
``SystemConfig`` per point only for the simulated columns. Each CSV row is
one %-template chosen by the curve's blank cells, the same bytes as
formatting cell by cell. The argument parser is built once per process and
reused by every ``main`` call. Exit codes: 0 success, 2 usage or validation
error, including an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__
# exact_outage and asymptotic_outage are not called here: the curve
# commands evaluate through outage_curve. They stay module attributes
# because perfbench/tracing.py rebinds them to time those layers.
from .analysis import (
    asymptotic_outage,
    coding_gain,
    diversity_order,
    exact_outage,
    outage_curve,
)
from .keyhole import SystemConfig, db_to_linear
from .montecarlo import empirical_diversity_slope, simulate_outage

CSV_HEADER = ("axis", "exact", "asymptotic", "simulated", "ci_low", "ci_high",
              "log10_exact")

_LN10 = math.log(10.0)


class CurvePoint(NamedTuple):
    """One CSV row; None is a blank cell."""

    axis: float
    exact: Optional[float] = None
    asymptotic: Optional[float] = None
    simulated: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    log10_exact: Optional[float] = None


@dataclass(frozen=True)
class CurveResult:
    axis_name: str
    points: tuple


def parse_range(text: str) -> list:
    """start:step:stop, stop included when it lands on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric range {text!r}") from None
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ValueError(f"range bounds must be finite: {text!r}")
    if step <= 0.0:
        raise ValueError(f"range step must be > 0: {text!r}")
    if stop < start:
        raise ValueError(f"range stop is below start: {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def parse_gamma_db(text: str, k_rounds: int) -> tuple:
    """Scalar dB value, or one comma-separated dB value per round."""
    vals = [float(p) for p in text.split(",")]
    if len(vals) == 1:
        vals = vals * k_rounds
    if len(vals) != k_rounds:
        raise ValueError(
            f"--gamma-db has {len(vals)} entries for {k_rounds} rounds"
        )
    return tuple(db_to_linear(v) for v in vals)


def _open_out(path, newline=None):
    """--out opened for writing; a path that cannot be written is a usage
    error, so the command exits 2 with one line instead of a traceback."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ValueError(
            f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def write_curve_csv(path, curve: CurveResult) -> None:
    if path is None:
        _write_csv_rows(sys.stdout, curve)
        return
    with _open_out(path, newline="") as fh:
        _write_csv_rows(fh, curve)


def _write_csv_rows(fh, curve: CurveResult) -> None:
    # csv.writer's dialect: CRLF rows; no cell ever needs quoting. Every row
    # is one %-template chosen by the blank cells: a column blank in every
    # row is an empty cell, a column blank in none a %.17g cell, and a column
    # blank in some rows is formatted cell by cell and inserted with %s.
    cells, columns = [], []
    for col in zip(*curve.points):
        blanks = col.count(None)
        if blanks == len(col):
            cells.append("")
        elif blanks:
            cells.append("%s")
            columns.append(["" if v is None else "%.17g" % v for v in col])
        else:
            cells.append("%.17g")
            columns.append(col)
    template = ",".join(cells)
    lines = [",".join(CSV_HEADER)]
    lines += [template % row for row in zip(*columns)]
    lines.append("")
    fh.write("\r\n".join(lines))


def write_curve_json(path, curve: CurveResult, metadata: dict) -> None:
    doc = {
        "metadata": dict(metadata, axis_name=curve.axis_name,
                         tool_version=__version__),
        "points": [p._asdict() for p in curve.points],
    }
    with _open_out(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_text(path, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


def _config_metadata(config: SystemConfig) -> dict:
    return {
        "n_t": config.n_t,
        "n_r": config.n_r,
        "k_rounds": config.k_rounds,
        "rate": config.rate,
        "snr_per_round": list(config.snr_per_round),
    }


def _sim_columns(config: SystemConfig, trials: int, seed: int, lanes: int):
    r = simulate_outage(config, trials, seed=seed, lanes=lanes)
    lo = max(r.estimate - r.ci_halfwidth, 0.0)
    hi = min(r.estimate + r.ci_halfwidth, 1.0)
    return r.estimate, lo, hi


def _curve_points(args, axis: list, point) -> tuple:
    """One row per axis value; ``point(x)`` is its (rate, snr_per_round).

    The analytic columns come from one eager ``outage_curve`` evaluation
    over the axis; a ``SystemConfig`` is built only for the simulated
    columns.
    """
    log_exact, log_asy = zip(*outage_curve(args.nt, args.nr, args.k,
                                           map(point, axis)))
    exact = list(map(math.exp, log_exact))
    asy = [None if v is None else math.exp(v) for v in log_asy]
    log10 = [v / _LN10 for v in log_exact]
    n = len(axis)
    sim = lo = hi = (None,) * n
    if args.trials > 0:
        sim, lo, hi = zip(*(
            _sim_columns(SystemConfig(args.nt, args.nr, args.k, *point(x)),
                         args.trials, args.seed, args.lanes)
            for x in axis))
    return tuple(map(CurvePoint._make,
                     zip(axis, exact, asy, sim, lo, hi, log10)))


def _emit_curve(args, curve: CurveResult, metadata: dict) -> int:
    if args.json and args.out is None:
        print("--json needs --out to place the mirror", file=sys.stderr)
        return 2
    write_curve_csv(args.out, curve)
    if args.json:
        write_curve_json(Path(args.out).with_suffix(".json"), curve, metadata)
    return 0


def _run_metadata(args) -> dict:
    """The run flags of a curve command; seed and lanes are null when no
    column is simulated, so they cannot vary the mirror's bytes."""
    sim = args.trials > 0
    return {"trials": args.trials, "seed": args.seed if sim else None,
            "lanes": args.lanes if sim else None}


def _cmd_sweep_snr(args) -> int:
    axis = parse_range(args.snr_db)
    points = _curve_points(
        args, axis, lambda db: (args.rate, (db_to_linear(db),) * args.k))
    curve = CurveResult(axis_name="snr_db", points=points)
    meta = {
        "command": "sweep-snr",
        "n_t": args.nt, "n_r": args.nr, "k_rounds": args.k,
        "rate": args.rate, "snr_db": args.snr_db,
        **_run_metadata(args),
    }
    return _emit_curve(args, curve, meta)


def _cmd_sweep_rate(args) -> int:
    axis = parse_range(args.rate)
    snrs = parse_gamma_db(args.gamma_db, args.k)
    points = _curve_points(args, axis, lambda rate: (rate, snrs))
    curve = CurveResult(axis_name="rate", points=points)
    meta = {
        "command": "sweep-rate",
        "n_t": args.nt, "n_r": args.nr, "k_rounds": args.k,
        "gamma_db": args.gamma_db, "rate": args.rate,
        **_run_metadata(args),
    }
    return _emit_curve(args, curve, meta)


def _cmd_coding_gain(args) -> int:
    axis = parse_range(args.rate)
    points = []
    for rate in axis:
        config = SystemConfig.equal_snr(args.nt, args.nr, 1, rate, 1.0)
        c = coding_gain(config)
        points.append(CurvePoint(axis=rate, exact=c,
                                 log10_exact=math.log10(c)))
    curve = CurveResult(axis_name="rate", points=tuple(points))
    meta = {
        "command": "coding-gain",
        "n_t": args.nt, "n_r": args.nr, "rate": args.rate,
    }
    return _emit_curve(args, curve, meta)


def _cmd_diversity(args) -> int:
    grid = parse_range(args.snr_db)
    config = SystemConfig.equal_snr(args.nt, args.nr, args.k, args.rate,
                                    db_to_linear(grid[0]))
    d = diversity_order(config)
    fitted = empirical_diversity_slope(
        config, grid, method=args.method, trials=args.trials,
        seed=args.seed, lanes=args.lanes,
    )
    gap = abs(fitted - d) / d
    sim = args.method == "simulation"
    doc = {
        "analytic_diversity_order": d,
        "fitted_slope": fitted,
        "relative_gap": gap,
        "metadata": {
            "command": "diversity", "method": args.method,
            "n_t": args.nt, "n_r": args.nr, "k_rounds": args.k,
            "rate": args.rate, "snr_db": args.snr_db,
            # null where they cannot vary a value, so an exact report's
            # bytes do not depend on the machine's core count
            "trials": args.trials if sim else None,
            "seed": args.seed if sim else None,
            "lanes": args.lanes if sim else None,
            "tool_version": __version__,
        },
    }
    if args.json:
        out = json.dumps(doc, indent=2)
    else:
        out = (
            f"analytic diversity order: {d}\n"
            f"fitted slope ({args.method}, {grid[0]:g}-{grid[-1]:g} dB, "
            f"{len(grid)} points): {fitted:.6g}\n"
            f"relative gap: {100.0 * gap:.3g}%"
        )
    if args.out:
        _write_text(args.out, out + "\n")
    else:
        print(out)
    return 0


def _cmd_simulate(args) -> int:
    snrs = parse_gamma_db(args.gamma_db, args.k)
    config = SystemConfig(args.nt, args.nr, args.k, args.rate, snrs)
    r = simulate_outage(config, args.trials, seed=args.seed, lanes=args.lanes)
    doc = {
        "trials": r.trials,
        "failures": r.failures,
        "estimate": r.estimate,
        "ci_halfwidth": r.ci_halfwidth,
        "low_confidence": r.low_confidence,
        "metadata": {
            "command": "simulate",
            "config": _config_metadata(config),
            "seed": r.seed, "lanes": args.lanes,
            "tool_version": __version__,
        },
    }
    if args.json:
        out = json.dumps(doc, indent=2)
    else:
        out = (
            f"trials: {r.trials}\n"
            f"failures: {r.failures}\n"
            f"estimate: {r.estimate:.17g}\n"
            f"ci_halfwidth_3sigma: {r.ci_halfwidth:.17g}\n"
            f"low_confidence: {'yes' if r.low_confidence else 'no'}"
        )
    if args.out:
        _write_text(args.out, out + "\n")
    else:
        print(out)
    return 0


def _add_antenna_flags(p, k_default=3):
    p.add_argument("--nt", type=int, default=2, help="transmit antennas")
    p.add_argument("--nr", type=int, default=2, help="receive antennas")
    p.add_argument("--k", type=int, default=k_default, help="HARQ rounds")


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_run_flags(p, trials_default):
    p.add_argument("--trials", type=int, default=trials_default,
                   help="Monte Carlo trials per point (0 disables)")
    p.add_argument("--seed", type=int, default=1, help="simulation seed")
    p.add_argument("--lanes", type=int, default=_usable_cores(),
                   help="parallel lanes (does not affect results)")


def _add_out_flags(p):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--json", action="store_true",
                   help="also write a JSON mirror with metadata")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="keyhole-harq",
        description="Outage probability of Type-I HARQ over keyhole MIMO channels",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-snr", help="outage vs SNR at fixed rate")
    _add_antenna_flags(p)
    p.add_argument("--rate", type=float, default=3.0, help="target rate, bits/s/Hz")
    p.add_argument("--snr-db", default="0:2:30",
                   help="axis range start:step:stop in dB")
    _add_run_flags(p, trials_default=0)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_sweep_snr)

    p = sub.add_parser("sweep-rate", help="outage vs rate at fixed SNR")
    _add_antenna_flags(p)
    p.add_argument("--rate", default="0.5:0.25:6",
                   help="axis range start:step:stop in bits/s/Hz")
    p.add_argument("--gamma-db", default="5",
                   help="operating SNR in dB (comma list = per round)")
    _add_run_flags(p, trials_default=0)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_sweep_rate)

    p = sub.add_parser("coding-gain", help="asymptote SNR scale C(R) vs rate")
    p.add_argument("--nt", type=int, default=2, help="transmit antennas")
    p.add_argument("--nr", type=int, default=2, help="receive antennas")
    p.add_argument("--rate", default="0.5:0.25:6",
                   help="axis range start:step:stop in bits/s/Hz")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_coding_gain)

    p = sub.add_parser("diversity", help="fitted log-log slope vs analytic order")
    _add_antenna_flags(p)
    p.add_argument("--rate", type=float, default=3.0, help="target rate, bits/s/Hz")
    p.add_argument("--snr-db", default="50:2:60",
                   help="fit grid start:step:stop in dB")
    p.add_argument("--method", choices=("exact", "simulation"), default="exact")
    _add_run_flags(p, trials_default=10**6)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("simulate", help="Monte Carlo outage estimate at one point")
    _add_antenna_flags(p)
    p.add_argument("--rate", type=float, default=3.0, help="target rate, bits/s/Hz")
    p.add_argument("--gamma-db", default="10",
                   help="operating SNR in dB (comma list = per round)")
    _add_run_flags(p, trials_default=10**6)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_simulate)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
