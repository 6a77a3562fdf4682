"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line even when
all tests pass.

Criteria 3 and 4 each hold a square-array (n_t == n_r = n, tau = 0) cell.
There the paper's leading-order law is prod_k t_k^n ln(snr_k) / (n Gamma(n)^2),
while the ascending K_0 series gives the exact per-round CDF as
t^n (ln snr - a) / (n Gamma(n)^2) (1 + O(t)) with the bracket constant
a = ln(n (2^R - 1)) + 2 gamma - 1/n (3.2935 for n = 2, R = 3). So any correct
program has exact/asymptotic = prod_k (1 - a / ln snr_k) and a local log-log
slope of d - K / (ln snr - a): the remainder decays only like 1/ln snr. At
60 dB that gives a ratio of 0.76162 for (2,2,K=1), outside [0.85, 1.15], and
a slope of 5.7423 for (2,2,K=3) over 60-70 dB, outside [5.8, 6.2]; the
windows are reachable only once ln snr >= a / 0.15 (95.4 dB) and
ln snr - a >= K / 0.2 (79.5 dB at mid-grid). The square cells therefore sit
at 120 dB (ratio 0.88080, slope over 120-130 dB 5.8822) with the windows
unchanged, and their detail text prints the value the bracket predicts next
to the measured one. The strict xfails in tests/test_analysis.py keep the
60 dB misses on record.
"""

import math
import time

import numpy as np

from keyhole_harq.analysis import (
    asymptotic_outage,
    coding_gain,
    exact_outage,
)
from keyhole_harq.keyhole import SystemConfig, sample_channel
from keyhole_harq.montecarlo import empirical_diversity_slope, simulate_outage
from keyhole_harq.specfun import gain_pdf, meijer_g_cdf

from _reference import package_pdf_integral, square_bracket

SQRT2_OVER_14 = 0.10101525445522107491


def report(criterion: int, ok: bool, detail: str, elapsed=None) -> None:
    """The criterion line, then the wall time on a line of its own, so that
    two runs on identical output print identical criterion lines."""
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    if elapsed is not None:
        print(f"time for criterion {criterion}: {elapsed:.2f}s")


def db(v: float) -> float:
    return 10.0 ** (v / 10.0)


def predicted_square_slope(n: int, k: int, rate: float, grid_db) -> float:
    """Least-squares slope of -log10 prod_k t^n (ln snr - a) over the grid."""
    a = square_bracket(n, rate)
    xs = [g / 10.0 for g in grid_db]
    ys = [-k * n * x + k * math.log10(math.log(db(g)) - a)
          for x, g in zip(xs, grid_db)]
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    return -sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum(
        (x - x_bar) ** 2 for x in xs
    )


def test_criterion_1_cdf_dual_path():
    """Series CDF vs mpmath quadrature of the density, 1e-9 relative."""
    start = time.perf_counter()
    worst = 0.0
    worst_at = None
    for n_t in range(1, 5):
        for n_r in range(1, 5):
            for x in (0.01, 0.1, 1.0, 5.0, 20.0):
                series = meijer_g_cdf(n_t, n_r, x)
                quad = package_pdf_integral(gain_pdf, n_t, n_r, x)
                rel = abs(series - quad) / quad
                if rel > worst:
                    worst, worst_at = rel, (n_t, n_r, x)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, ok, f"worst rel {worst:.2e} at {worst_at} "
                  f"(80 cells, tol 1e-9, budget 5s)", elapsed)
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_2_simulation_agreement():
    """Closed form within the 3-sigma binomial interval at 1e6 trials."""
    start = time.perf_counter()
    details = []
    ok = True
    for gamma_db in (5.0, 10.0, 15.0):
        config = SystemConfig.equal_snr(2, 2, 3, 3.0, db(gamma_db))
        want = exact_outage(config).value
        r = simulate_outage(config, 10**6, seed=20260816, lanes=4)
        inside = abs(r.estimate - want) <= r.ci_halfwidth
        ok = ok and inside
        details.append(
            f"{gamma_db:g}dB |{r.estimate:.4e}-{want:.4e}|"
            f"{'<=' if inside else '>'}{r.ci_halfwidth:.1e}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(2, ok, "; ".join(details) + " (budget 60s)", elapsed)
    assert ok


def test_criterion_3_asymptotic_ratio():
    """Exact/asymptotic ratio inside the stated windows, trend monotone."""
    rect_trend = (30.0, 40.0, 50.0, 60.0)
    cells = [
        (2, 3, 1, 50.0, 0.95, 1.05, rect_trend),
        (2, 3, 2, 50.0, 0.95, 1.05, rect_trend),
        (3, 2, 1, 50.0, 0.95, 1.05, rect_trend),
        (2, 2, 1, 120.0, 0.85, 1.15, (90.0, 100.0, 110.0, 120.0)),
    ]
    details = []
    ok = True

    def ratio(n_t, n_r, k, gamma_db):
        c = SystemConfig.equal_snr(n_t, n_r, k, 3.0, db(gamma_db))
        return exact_outage(c).value / asymptotic_outage(c).value

    for n_t, n_r, k, at_db, lo, hi, trend_db in cells:
        r = ratio(n_t, n_r, k, at_db)
        inside = lo <= r <= hi
        ok = ok and inside
        predicted = ""
        if n_t == n_r:
            p = (1.0 - square_bracket(n_t, 3.0) / math.log(db(at_db))) ** k
            predicted = f" (predicted {p:.5f})"
        details.append(
            f"({n_t},{n_r},K={k})@{at_db:g}dB ratio {r:.5f}{predicted}"
            f"{' in' if inside else ' NOT in'} [{lo},{hi}]"
        )
        gaps = [abs(ratio(n_t, n_r, k, g) - 1.0) for g in trend_db]
        monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
        ok = ok and monotone
        details.append(f"trend {'monotone' if monotone else 'NOT monotone'}")
    report(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_diversity_slope():
    """Fitted log-log slope of the exact curve vs K*min(n_t, n_r)."""
    start = time.perf_counter()
    config_a = SystemConfig.equal_snr(2, 3, 2, 3.0, 1.0)
    slope_a = empirical_diversity_slope(config_a, [50.0 + 2 * i for i in range(6)])
    ok_a = abs(slope_a - 4.0) <= 0.05 * 4.0

    config_b = SystemConfig.equal_snr(2, 2, 3, 3.0, 1.0)
    grid_b = [120.0 + 2 * i for i in range(6)]
    slope_b = empirical_diversity_slope(config_b, grid_b)
    ok_b = 6.0 - 0.2 <= slope_b <= 6.0 + 0.2
    predicted_b = predicted_square_slope(2, 3, 3.0, grid_b)

    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and elapsed < 5.0
    report(4, ok,
           f"(2,3,K=2) slope {slope_a:.4f} vs 4 +-5% "
           f"{'ok' if ok_a else 'OUT'}; "
           f"(2,2,K=3)@120-130dB slope {slope_b:.4f} "
           f"(predicted {predicted_b:.4f}) vs [5.8,6.2] "
           f"{'ok' if ok_b else 'OUT'}", elapsed)
    assert ok


def test_criterion_5_coding_gain():
    """C(3) = sqrt(2)/14 to 1e-12; C strictly decreasing on the rate grid."""
    c3 = coding_gain(SystemConfig.equal_snr(2, 2, 1, 3.0, 1.0))
    err = abs(c3 - SQRT2_OVER_14) / SQRT2_OVER_14
    rates = [0.5 + 0.25 * i for i in range(23)]
    gains = [coding_gain(SystemConfig.equal_snr(2, 2, 1, r, 1.0)) for r in rates]
    decreasing = all(a > b for a, b in zip(gains, gains[1:]))
    ok = err < 1e-12 and decreasing
    report(5, ok, f"C(3) rel err {err:.2e} (tol 1e-12); strictly decreasing "
                  f"over {len(rates)} rates: {decreasing}")
    assert ok


def test_criterion_6_rate_behavior():
    """Exact increasing in rate at 5 dB; asymptote convex in rate at 30 dB."""
    rates = [0.5 + 0.25 * i for i in range(31)]
    exact = [
        exact_outage(SystemConfig.equal_snr(2, 2, 3, r, db(5.0))).log_value
        for r in rates
    ]
    increasing = all(a < b for a, b in zip(exact, exact[1:]))
    asy = [
        asymptotic_outage(SystemConfig.equal_snr(2, 2, 3, r, db(30.0))).value
        for r in rates
    ]
    second = [asy[i + 2] - 2 * asy[i + 1] + asy[i] for i in range(len(asy) - 2)]
    convex = all(d >= 0.0 for d in second)
    ok = increasing and convex
    report(6, ok, f"exact increasing at 5dB: {increasing}; min second "
                  f"difference of asymptote at 30dB: {min(second):.2e}")
    assert ok


def test_criterion_7_harq_benefit():
    """More rounds strictly reduce outage pointwise on 0..30 dB."""
    ok = True
    worst_gap = math.inf
    for gamma_db in range(0, 31):
        ps = [
            exact_outage(
                SystemConfig.equal_snr(2, 2, k, 3.0, db(float(gamma_db)))
            ).log_value
            for k in (1, 2, 3)
        ]
        ok = ok and ps[2] < ps[1] < ps[0]
        worst_gap = min(worst_gap, ps[0] - ps[1], ps[1] - ps[2])
    report(7, ok, f"K=3 < K=2 < K=1 at all 31 points; smallest log gap "
                  f"{worst_gap:.3f}")
    assert ok


def test_criterion_8_rank_deficiency():
    """Materialized channel matrices are numerically rank one."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for n_t, n_r in ((2, 2), (2, 3), (4, 4)):
        for _ in range(1000):
            d = sample_channel(n_t, n_r, rng)
            s = np.linalg.svd(np.outer(d.u, d.v.conj()), compute_uv=False)
            worst = max(worst, float(s[1] / s[0]))
    ok = worst <= 1e-10
    report(8, ok, f"worst s2/s1 {worst:.2e} over 3000 draws (tol 1e-10)")
    assert ok


def test_criterion_9_determinism():
    """Identical failure counts across repeats and lane partitions."""
    config = SystemConfig.equal_snr(2, 2, 3, 3.0, db(10.0))
    base = simulate_outage(config, 200_000, seed=77, lanes=1)
    repeat = simulate_outage(config, 200_000, seed=77, lanes=1)
    ok = base.failures == repeat.failures
    counts = []
    for lanes in (1, 4, 8):
        counts.append(simulate_outage(config, 200_000, seed=77, lanes=lanes).failures)
    ok = ok and len(set(counts)) == 1
    report(9, ok, f"repeat {base.failures} == {repeat.failures}; lane counts "
                  f"{{1,4,8}} -> {counts}")
    assert ok
