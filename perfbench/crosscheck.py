"""Micro-timings at the operating points quoted in ROADMAP.md.

    python3 perfbench/crosscheck.py

Times single layer calls untraced (median of repeats) so the workload
figures can be compared with the figures the roadmap quotes: bessel_k_scaled
per call, the gain CDF on its survival and ascending branches,
exact_outage at 2x2, K=3, rate 3, 10 dB, and the one-lane simulator there.
"""

import statistics
import sys
import time
import timeit

from run import import_package


def per_call_us(fn, number: int, repeat: int = 7) -> float:
    return 1e6 * statistics.median(timeit.repeat(fn, number=number,
                                                 repeat=repeat)) / number


def main() -> int:
    cli, analysis, specfun, montecarlo = import_package()
    from keyhole_harq.keyhole import SystemConfig

    config = SystemConfig.equal_snr(2, 2, 3, 3.0, 10.0)
    x_surv = analysis.outage_threshold(config, 1)           # 1.4
    x_asc = analysis.outage_threshold(
        SystemConfig.equal_snr(2, 2, 3, 3.0, 1e4), 1)       # 1.4e-3, 40 dB
    rows = [
        ("bessel_k_scaled(0, 1.0)", lambda: specfun.bessel_k_scaled(0, 1.0)),
        ("bessel_k_scaled(2, 3.0)", lambda: specfun.bessel_k_scaled(2, 3.0)),
        ("bessel_k_scaled(8, 10.0)", lambda: specfun.bessel_k_scaled(8, 10.0)),
        (f"meijer_g_log_cdf(2, 2, {x_surv:g}) survival",
         lambda: specfun.meijer_g_log_cdf(2, 2, x_surv)),
        (f"meijer_g_log_cdf(2, 2, {x_asc:g}) ascending",
         lambda: specfun.meijer_g_log_cdf(2, 2, x_asc)),
        ("exact_outage 2x2 K=3 R=3 10 dB",
         lambda: analysis.exact_outage(config)),
    ]
    for name, fn in rows:
        print(f"{name:44s} {per_call_us(fn, 2000):9.2f} us/call")
    trials = 4_000_000
    times = []
    for seed in range(5):
        t0 = time.perf_counter()
        montecarlo.simulate_outage(config, trials, seed=seed, lanes=1)
        times.append(time.perf_counter() - t0)
    print(f"{'simulate_outage 2x2 K=3 lanes=1, 4M trials':44s} "
          f"{trials / statistics.median(times) / 1e6:9.2f} M trials/s "
          f"(runs {min(times):.2f}-{max(times):.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
