"""One set-up sample: import the package, run the workload's warm-up.

Run by ``run.py`` in a fresh interpreter, several times per benchmark run.
Prints the seconds from just before the first import of the package (numpy
included) to the end of the warm-up, measured inside this process so that
interpreter start-up is not counted.

    python3 perfbench/setup_probe.py WORKLOAD LANES OUT_DIR
"""

import sys
import time

t0 = time.perf_counter()


def main() -> int:
    workload, lanes, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    from run import import_package  # perfbench/ is sys.path[0] here
    from workloads import warmup_argvs

    cli = import_package()[0]
    for i, argv in enumerate(warmup_argvs(workload, lanes)):
        rc = cli.main(argv + ["--out", f"{out_dir}/probe-{i}.out"])
        if rc != 0:
            print(f"warm-up {argv} exited with {rc}", file=sys.stderr)
            return 1
    print(f"{time.perf_counter() - t0:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
