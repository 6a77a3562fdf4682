"""Command line front end.

Subcommands: sweep-snr, sweep-rate, coding-gain, diversity, simulate.
Curve commands emit CSV with the fixed header
``axis,exact,asymptotic,simulated,ci_low,ci_high,log10_exact`` (17
significant digits, empty cells where a column does not apply) and, with
--json, a JSON mirror carrying run metadata. A curve stays in columns
until it becomes CSV lines: sweep-snr and sweep-rate pass the axis to one
eager ``outage_curve`` call as a rate column or one SNR column shared by
every round, ``CurveResult`` carries the seven CSV columns, and rows exist
only as the CSV lines (and as ``CurveResult.points`` for the JSON mirror).
The simulated columns count every point on one draw of the trials, with a
``SystemConfig`` per point. Each CSV line is one %-template chosen by the
curve's blank cells, the same bytes as formatting cell by cell. The parser
is built once per process and reused by every ``main`` call. Exit codes: 0
success, 2 usage or validation error (an unwritable --out path too).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__
# exact_outage and asymptotic_outage are not called here: the curve
# commands evaluate through outage_curve. They stay module attributes
# because perfbench/tracing.py rebinds them to time those layers.
from .analysis import (
    _configs,
    asymptotic_outage,
    coding_gain,
    diversity_order,
    exact_outage,
    outage_curve,
)
from .errors import DomainError, check_count
from .keyhole import SystemConfig, db_to_linear
from .montecarlo import (
    _simulate,
    _usable_cores,
    empirical_diversity_slope,
    simulate_outage,
)

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
    """A curve as its CSV columns, in ``CSV_HEADER`` order, one sequence
    each; None is a blank cell."""

    axis_name: str
    columns: tuple

    @property
    def points(self) -> tuple:
        """The rows, one ``CurvePoint`` each."""
        return tuple(map(CurvePoint._make, zip(*self.columns)))


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
    steps = (stop - start) / step + 1e-9
    # refused before it is built: a step of 1e-300 asks for ~1e300 points
    if not steps < 1e6:
        raise ValueError(f"range has more than 1000000 points: {text!r}")
    return [start + i * step for i in range(int(math.floor(steps)) + 1)]


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
    for col in curve.columns:
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


def _config_metadata(config: SystemConfig) -> dict:
    return {
        "n_t": config.n_t,
        "n_r": config.n_r,
        "k_rounds": config.k_rounds,
        "rate": config.rate,
        "snr_per_round": list(config.snr_per_round),
    }


def _curve_columns(args, axis: list, rate, snrs: tuple) -> tuple:
    """The CSV columns of a curve over ``axis``, whose rate and per-round
    SNRs ``snrs`` are each a float or a column of one value per point.

    The analytic columns come from one eager ``outage_curve`` evaluation
    of the columns, the simulated ones from one simulation of every point
    on shared trials; a ``SystemConfig`` is built only for the latter.
    """
    log_exact, log_asy = outage_curve(args.nt, args.nr, args.k, rate, snrs)
    exact = list(map(math.exp, log_exact))
    asy = [None if v is None else math.exp(v) for v in log_asy]
    log10 = [v / _LN10 for v in log_exact]
    n = len(axis)
    sim = lo = hi = (None,) * n
    if args.trials > 0:
        sim, lo, hi = zip(*(
            (r.estimate, max(r.estimate - r.ci_halfwidth, 0.0),
             min(r.estimate + r.ci_halfwidth, 1.0))
            for r in _simulate(list(_configs(args.nt, args.nr, args.k, rate,
                                             snrs, n)),
                               args.trials, args.seed, args.lanes)))
    return axis, exact, asy, sim, lo, hi, log10


def _check_mirror(args) -> None:
    """Refuse a curve's --json without --out before any point is computed."""
    if args.json and args.out is None:
        raise ValueError("--json needs --out to place the mirror")


def _emit_curve(args, curve: CurveResult, metadata: dict) -> int:
    write_curve_csv(args.out, curve)
    if args.json:
        write_curve_json(Path(args.out).with_suffix(".json"), curve, metadata)
    return 0


def _emit_report(args, doc: dict, text: str) -> int:
    """The report as indented JSON with --json, else as ``text``; to --out
    or stdout, newline-terminated."""
    out = json.dumps(doc, indent=2) if args.json else text
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def _run_metadata(args, sim: bool) -> dict:
    """The run flags, null where ``sim`` is false and they cannot vary a
    value, so a report's bytes do not depend on the machine's core count.
    A curve's trials is always written: 0 turns its simulation off."""
    curve = args.command != "diversity"
    return {"trials": args.trials if sim or curve else None,
            "seed": args.seed if sim else None,
            "lanes": args.lanes if sim else None}


def _sweep(args, axis_name: str, axis: list, rate, snrs: tuple,
           axis_meta: dict) -> int:
    """A curve over ``axis`` (see ``_curve_columns``); ``axis_meta`` holds
    the mirror's axis flags in the order they are written."""
    check_count("trials", args.trials, least=0)
    curve = CurveResult(axis_name=axis_name,
                        columns=_curve_columns(args, axis, rate, snrs))
    meta = {
        "command": args.command,
        "n_t": args.nt, "n_r": args.nr, "k_rounds": args.k,
        **axis_meta,
        **_run_metadata(args, args.trials > 0),
    }
    return _emit_curve(args, curve, meta)


def _cmd_sweep_snr(args) -> int:
    _check_mirror(args)
    axis = parse_range(args.snr_db)
    snr = []
    try:
        for db in axis:
            snr.append(db_to_linear(db))
    except DomainError:
        # an error of the points before the overflowing one comes first
        outage_curve(args.nt, args.nr, args.k, args.rate, (snr,) * args.k)
        raise
    return _sweep(args, "snr_db", axis, args.rate, (snr,) * args.k,
                  {"rate": args.rate, "snr_db": args.snr_db})


def _cmd_sweep_rate(args) -> int:
    _check_mirror(args)
    axis = parse_range(args.rate)
    return _sweep(args, "rate", axis, axis,
                  parse_gamma_db(args.gamma_db, args.k),
                  {"gamma_db": args.gamma_db, "rate": args.rate})


def _cmd_coding_gain(args) -> int:
    _check_mirror(args)
    axis = parse_range(args.rate)
    gains = [coding_gain(SystemConfig.equal_snr(args.nt, args.nr, 1, r, 1.0))
             for r in axis]
    blank = (None,) * len(axis)
    curve = CurveResult(axis_name="rate", columns=(
        axis, gains, blank, blank, blank, blank, list(map(math.log10, gains))))
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
    doc = {
        "analytic_diversity_order": d,
        "fitted_slope": fitted,
        "relative_gap": gap,
        "metadata": {
            "command": "diversity", "method": args.method,
            "n_t": args.nt, "n_r": args.nr, "k_rounds": args.k,
            "rate": args.rate, "snr_db": args.snr_db,
            **_run_metadata(args, args.method == "simulation"),
            "tool_version": __version__,
        },
    }
    return _emit_report(args, doc, (
        f"analytic diversity order: {d}\n"
        f"fitted slope ({args.method}, {grid[0]:g}-{grid[-1]:g} dB, "
        f"{len(grid)} points): {fitted:.6g}\n"
        f"relative gap: {100.0 * gap:.3g}%"
    ))


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
    return _emit_report(args, doc, (
        f"trials: {r.trials}\n"
        f"failures: {r.failures}\n"
        f"estimate: {r.estimate:.17g}\n"
        f"ci_halfwidth_3sigma: {r.ci_halfwidth:.17g}\n"
        f"low_confidence: {'yes' if r.low_confidence else 'no'}"
    ))


def _add_antenna_flags(p):
    p.add_argument("--nt", type=int, default=2, help="transmit antennas")
    p.add_argument("--nr", type=int, default=2, help="receive antennas")
    p.add_argument("--k", type=int, default=3, help="HARQ rounds")


def _add_run_flags(p, trials_default):
    p.add_argument("--trials", type=int, default=trials_default,
                   help="Monte Carlo trials per point (0 disables)")
    p.add_argument("--seed", type=int, default=1, help="simulation seed")
    p.add_argument("--lanes", type=int, default=_usable_cores(),
                   help="worker threads, at most the usable cores "
                        "(does not affect results)")


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


if __name__ == "__main__":
    run()
