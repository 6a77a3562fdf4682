"""Seeded argv generators for the three benchmark workloads.

Every workload is an endless stream of blocks of ``Op``s drawn from
``random.Random`` seeded with the workload seed, so one seed always yields
the same sequence of CLI invocations. The program only ever sees the
generated argv.

* ``snr_curves``: exact and asymptotic curves only (``--trials 0``), plus
  one ``diversity --method exact`` and one ``coding-gain`` run per block of
  18. Every round shares one SNR, so each ``exact_outage`` call evaluates
  the same CDF threshold K times (what a per-threshold cache would exploit),
  and the fine 0-70 dB grid walks the CDF through both its ascending and
  survival branches. The simulator stays idle.
* ``rate_sims`` (runnable, but not listed in ``BENCHMARK.json``: too
  unsteady on a 2-vCPU machine): ``sweep-rate`` with K distinct per-round
  SNRs (no repeated threshold inside a call, so a threshold cache is
  bypassed) and a short simulation at every point: many small
  ``simulate_outage`` calls, where per-call pool and generator set-up count.
* ``mc_long``: ``simulate`` with about a million trials per call at
  lanes = usable cores; every fourth configuration is rerun at one lane with
  the same (config, trials, seed) for the single-lane baseline and the
  bitwise lane-invariance check. ``specfun`` is idle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("snr_curves", "rate_sims", "mc_long")

# Shapes run over 1..16 so that both the well-conditioned range and the
# large-shape range where the CDF loses accuracy (min shape above 12) appear.
MAX_SHAPE = 16
MAX_ROUNDS = 4
SNR_GRID_DB = "0:0.25:70"
# mc_long sizes each call to about this many padded uniform draws, so call
# latency barely depends on the drawn configuration (833k trials at 2x2, K=3).
MC_LONG_DRAWS = 10_000_000
MC_LONG_ONE_LANE_EVERY = 4
# rate_sims sizes each point's simulation to about this many useful draws,
# kept within 10k..50k trials.
RATE_SIMS_DRAWS = 1_600_000
RATE_POINTS = 8


@dataclass(frozen=True)
class Op:
    """One CLI invocation. ``argv`` lacks ``--out``; the runner adds it."""

    kind: str
    argv: tuple
    n_t: int
    n_r: int
    k: int
    trials: int = 0
    # mc_long baseline: reruns the previous op at one lane
    rerun: bool = False


def padded_draws(n_t: int, n_r: int, k: int) -> int:
    """Uniforms the simulator draws per trial: K (n_t + n_r), padded to a
    whole Philox block of 4 (see the montecarlo module docstring)."""
    return -4 * (-k * (n_t + n_r) // 4)


def _cells() -> list:
    """(K, n_t bucket, square) strata: every block holds one op of each.

    Each K meets every shape bucket once, and square and rectangular arrays
    alternate so that each bucket gets two of each across the K values.
    Stratifying the discrete parameters that set an op's cost keeps the
    work per block, and so the per-run figures, nearly independent of the
    seed; the seed still draws every shape, rate, SNR and simulation seed.
    """
    return [(k, lo, (k + lo // 4) % 2 == 0) for k in range(1, MAX_ROUNDS + 1)
            for lo in range(1, MAX_SHAPE + 1, 4)]


def _shapes(rng: random.Random, lo: int, square: bool) -> tuple:
    n_t = rng.randint(lo, lo + 3)
    return n_t, n_t if square else rng.randint(1, MAX_SHAPE)


def _antenna_args(n_t: int, n_r: int, k: int) -> list:
    return ["--nt", str(n_t), "--nr", str(n_r), "--k", str(k)]


def _snr_curves(rng: random.Random, lanes: int) -> list:
    block = []
    for k, lo, square in _cells():
        n_t, n_r = _shapes(rng, lo, square)
        argv = ["sweep-snr", *_antenna_args(n_t, n_r, k),
                "--rate", f"{rng.uniform(0.5, 6.0):.3f}",
                "--snr-db", SNR_GRID_DB, "--trials", "0"]
        block.append(Op("sweep-snr", tuple(argv), n_t, n_r, k))
    k = rng.randint(1, MAX_ROUNDS)
    n_t, n_r = _shapes(rng, 1 + 4 * rng.randrange(4), rng.random() < 0.5)
    argv = ["diversity", *_antenna_args(n_t, n_r, k),
            "--rate", f"{rng.uniform(0.5, 6.0):.3f}",
            "--snr-db", "50:2:70", "--method", "exact", "--json"]
    block.append(Op("diversity", tuple(argv), n_t, n_r, k))
    n = rng.randint(1, MAX_SHAPE)
    argv = ["coding-gain", "--nt", str(n), "--nr", str(n),
            "--rate", "0.5:0.25:6"]
    block.append(Op("coding-gain", tuple(argv), n, n, 1))
    rng.shuffle(block)
    return block


def _rate_sims(rng: random.Random, lanes: int) -> list:
    block = []
    for k, lo, square in _cells():
        n_t, n_r = _shapes(rng, lo, square)
        gammas = rng.sample(range(0, 121), k)  # distinct, tenths of a dB
        step = rng.choice((0.25, 0.5, 0.75))
        start = rng.choice((0.25, 0.5, 0.75, 1.0, 1.25, 1.5))
        stop = start + step * (RATE_POINTS - 1)
        draws = k * (n_t + n_r)
        trials = 1000 * min(50, max(10, round(RATE_SIMS_DRAWS / draws / 1000)))
        argv = ["sweep-rate", *_antenna_args(n_t, n_r, k),
                "--rate", f"{start:g}:{step:g}:{stop:g}",
                "--gamma-db", ",".join(f"{g / 10:g}" for g in gammas),
                "--trials", str(trials), "--seed", str(rng.randrange(2**31)),
                "--lanes", str(lanes)]
        block.append(Op("sweep-rate", tuple(argv), n_t, n_r, k, trials))
    rng.shuffle(block)
    return block


def _mc_long(rng: random.Random, lanes: int) -> list:
    cells = [(k, square) for k in range(1, MAX_ROUNDS + 1)
             for square in (True, False)]
    rng.shuffle(cells)
    block = []
    for i, (k, square) in enumerate(cells):
        n_t = rng.randint(1, 4)
        n_r = n_t if square else rng.randint(1, 4)
        # sizing by the padded count keeps the work per call nearly constant
        draws = padded_draws(n_t, n_r, k)
        trials = 1000 * round(MC_LONG_DRAWS / draws / 1000)
        base = ["simulate", *_antenna_args(n_t, n_r, k),
                "--rate", f"{rng.uniform(1.0, 4.0):.3f}",
                "--gamma-db", f"{rng.uniform(0.0, 15.0):.2f}",
                "--trials", str(trials), "--seed", str(rng.randrange(2**31)),
                "--json"]
        block.append(Op("simulate", tuple(base + ["--lanes", str(lanes)]),
                        n_t, n_r, k, trials))
        if i % MC_LONG_ONE_LANE_EVERY == MC_LONG_ONE_LANE_EVERY - 1:
            block.append(Op("simulate", tuple(base + ["--lanes", "1"]),
                            n_t, n_r, k, trials, rerun=True))
    return block


_GENERATORS = {
    "snr_curves": _snr_curves,
    "rate_sims": _rate_sims,
    "mc_long": _mc_long,
}


def blocks(workload: str, seed: int, lanes: int) -> Iterator[list]:
    """The endless, seed-determined stream of op blocks of one workload.

    Blocks of one workload have the same composition; the runner measures
    whole blocks only.
    """
    rng = random.Random(f"{workload}:{seed}")
    make = _GENERATORS[workload]
    while True:
        yield make(rng, lanes)


def warmup_argvs(workload: str, lanes: int) -> list:
    """Small invocations that touch every subcommand the workload uses."""
    if workload == "snr_curves":
        return [
            ["sweep-snr", "--nt", "2", "--nr", "3", "--k", "2",
             "--snr-db", "0:10:70", "--trials", "0"],
            ["diversity", "--nt", "2", "--nr", "2", "--k", "2",
             "--snr-db", "50:2:60", "--method", "exact", "--json"],
            ["coding-gain", "--nt", "2", "--nr", "2", "--rate", "1:1:3"],
        ]
    if workload == "rate_sims":
        return [
            ["sweep-rate", "--nt", "2", "--nr", "3", "--k", "2",
             "--rate", "1:1:3", "--gamma-db", "3,6", "--trials", "2000",
             "--seed", "1", "--lanes", str(lanes)],
        ]
    return [
        ["simulate", "--nt", "2", "--nr", "2", "--k", "3", "--trials",
         "100000", "--seed", "1", "--json", "--lanes", str(n)]
        for n in (lanes, 1)
    ]
