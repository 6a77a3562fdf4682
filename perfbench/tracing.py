"""Span tracing of the package's layers from outside the package.

``Tracer.install`` rebinds the module attributes that callers look up at call
time (``specfun.bessel_k_scaled``, ``analysis.meijer_g_log_cdf``,
``cli.exact_outage``, ...) to timing wrappers, and ``Tracer.uninstall`` puts
the originals back. No source file of the package is touched, and an
untraced run never calls ``install``.

Each wrapped call opens a span with a parent: the innermost open span of the
same thread. Lane threads start with the span of the ``simulate_outage`` call
that submitted their work, which a ``ThreadPoolExecutor`` subclass bound into
``montecarlo`` passes along. A span's self time is its duration minus the
union of its children's intervals (lane children overlap each other).
Aggregates per span name cover every span; the first ``MAX_SPANS`` raw spans
are kept in memory and written out at the end.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from workloads import padded_draws

_clock = time.perf_counter
MAX_SPANS = 50_000


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0  # trials (sample_round_gains) or rows (write_curve_csv)
    child_calls: dict = field(default_factory=dict)


class _Span:
    __slots__ = ("sid", "parent", "root", "name", "children")

    def __init__(self, sid, parent, name):
        self.sid = sid
        self.parent = parent
        self.root = parent.root if parent is not None else sid
        self.name = name
        self.children = []


def _union_length(intervals: list) -> float:
    covered = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        covered += b - max(a, end)
        end = b
    return covered


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.spans: list = []
        self.span_count = 0
        # sample_round_gains time under multi-lane simulate_outage calls, and
        # lanes x duration of those calls
        self.lane_busy_s = 0.0
        self.lane_capacity_s = 0.0
        self.draws_useful = 0
        self.draws_total = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_close=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = _Span(next(tracer._ids), stack[-1] if stack else None, name)
            stack.append(span)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                tracer._close(span, t0, t1, on_close, args, kwargs)

        return traced

    def _close(self, span, t0, t1, on_close, args, kwargs):
        dur = t1 - t0
        self_s = dur - _union_length(span.children) if span.children else dur
        parent = span.parent
        with self._lock:
            st = self.stats.get(span.name)
            if st is None:
                st = self.stats[span.name] = Stat()
            st.calls += 1
            st.total_s += dur
            st.self_s += self_s
            if on_close is not None:
                on_close(self, st, span, dur, args, kwargs)
            if parent is not None:
                parent.children.append((t0, t1))
                pst = self.stats.get(parent.name)
                if pst is None:
                    pst = self.stats[parent.name] = Stat()
                calls = pst.child_calls
                calls[span.name] = calls.get(span.name, 0) + 1
            self.span_count += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span.sid, parent.sid if parent else 0,
                                   span.root, span.name,
                                   threading.get_ident(), t0, t1))
        span.children = None

    def executor_class(self):
        tracer = self

        class SpanPropagatingExecutor(ThreadPoolExecutor):
            """Runs each task under the span open at submit time."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run():
                    inner = tracer._stack()
                    if parent is not None:
                        inner.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        if parent is not None:
                            inner.pop()

                return super().submit(run)

        return SpanPropagatingExecutor

    def install(self, cli, analysis, specfun, montecarlo) -> None:
        """Rebind the layer entry points that the callers look up."""
        targets = [
            (cli, "main", "cli.main", None),
            (cli, "write_curve_csv", "cli.write_curve_csv", _count_rows),
            (cli, "exact_outage", "analysis.exact_outage", None),
            (cli, "asymptotic_outage", "analysis.asymptotic_outage", None),
            (cli, "coding_gain", "analysis.coding_gain", None),
            (cli, "simulate_outage", "montecarlo.simulate_outage", _lane_use),
            (cli, "empirical_diversity_slope",
             "montecarlo.empirical_diversity_slope", None),
            (montecarlo, "exact_outage", "analysis.exact_outage", None),
            (montecarlo, "simulate_outage", "montecarlo.simulate_outage",
             _lane_use),
            (montecarlo, "sample_round_gains", "montecarlo.sample_round_gains",
             _count_draws),
            (analysis, "meijer_g_log_cdf", "specfun.meijer_g_log_cdf", None),
            (specfun, "bessel_k_scaled", "specfun.bessel_k_scaled", None),
        ]
        for module, attr, name, on_close in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, on_close))
        self._saved.append((montecarlo, "ThreadPoolExecutor",
                            montecarlo.ThreadPoolExecutor))
        montecarlo.ThreadPoolExecutor = self.executor_class()

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_spans(self, path, header: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"# {header}; {len(self.spans)} of {self.span_count} "
                     "spans\n")
            fh.write("span_id,parent_id,root_id,name,thread,start_s,end_s\n")
            for sid, pid, root, name, thread, t0, t1 in self.spans:
                fh.write(f"{sid},{pid},{root},{name},{thread},"
                         f"{t0:.9f},{t1:.9f}\n")


def _count_rows(tracer, st, span, dur, args, kwargs):
    curve = args[1] if len(args) > 1 else kwargs["curve"]
    st.work += len(curve.points)


def _count_draws(tracer, st, span, dur, args, kwargs):
    n_t, n_r, rounds, trials = args[:4]
    st.work += trials
    tracer.draws_useful += trials * rounds * (n_t + n_r)
    tracer.draws_total += trials * padded_draws(n_t, n_r, rounds)


def _lane_use(tracer, st, span, dur, args, kwargs):
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    lanes = kwargs.get("lanes", args[3] if len(args) > 3 else 1)
    lanes = min(lanes, trials)
    st.work += trials
    if lanes > 1 and span.children:
        tracer.lane_busy_s += sum(b - a for a, b in span.children)
        tracer.lane_capacity_s += lanes * dur


def per_layer(tracer: Tracer, traced, untraced) -> list:
    """(name, value, unit, samples) rows from a traced and an untraced loop.

    Shares are of the wall time spent inside ``cli.main``. A layer that made
    no call reports zeros.
    """
    def stat(name):
        return tracer.stats.get(name, Stat())

    def per(a, b):
        return a / b if b else 0.0

    main = stat("cli.main")
    wall = main.total_s
    bessel = stat("specfun.bessel_k_scaled")
    cdf_name = "specfun.meijer_g_log_cdf"
    cdf = stat(cdf_name)
    exact = stat("analysis.exact_outage")
    asym = stat("analysis.asymptotic_outage")
    sim = stat("montecarlo.simulate_outage")
    draw = stat("montecarlo.sample_round_gains")
    write = stat("cli.write_curve_csv")
    return [
        ("specfun.bessel_k_scaled.calls", bessel.calls, "count", bessel.calls),
        ("specfun.bessel_k_scaled.us_per_call",
         1e6 * per(bessel.total_s, bessel.calls), "us", bessel.calls),
        ("specfun.bessel_k_scaled.calls_per_cdf", per(bessel.calls, cdf.calls),
         "count", cdf.calls),
        ("specfun.meijer_g_log_cdf.calls", cdf.calls, "count", cdf.calls),
        ("specfun.meijer_g_log_cdf.us_per_call",
         1e6 * per(cdf.total_s, cdf.calls), "us", cdf.calls),
        ("specfun.meijer_g_log_cdf.self_share", per(cdf.self_s, wall), "ratio",
         cdf.calls),
        ("analysis.exact_outage.calls", exact.calls, "count", exact.calls),
        ("analysis.exact_outage.us_per_call",
         1e6 * per(exact.total_s, exact.calls), "us", exact.calls),
        ("analysis.exact_outage.busy_share", per(exact.total_s, wall), "ratio",
         exact.calls),
        ("analysis.exact_outage.cdf_calls_per_eval",
         per(exact.child_calls.get(cdf_name, 0), exact.calls),
         "count", exact.calls),
        ("analysis.asymptotic_outage.busy_share", per(asym.total_s, wall),
         "ratio", asym.calls),
        ("montecarlo.simulate_outage.calls", sim.calls, "count", sim.calls),
        ("montecarlo.simulate_outage.self_share", per(sim.self_s, wall),
         "ratio", sim.calls),
        ("montecarlo.sample_round_gains.calls", draw.calls, "count",
         draw.calls),
        ("montecarlo.sample_round_gains.trials_per_call",
         per(draw.work, draw.calls), "count", draw.calls),
        ("montecarlo.sample_round_gains.trials_per_busy_s",
         per(draw.work, draw.total_s), "1/s", draw.calls),
        ("montecarlo.lane_efficiency",
         per(tracer.lane_busy_s, tracer.lane_capacity_s), "ratio", sim.calls),
        ("montecarlo.useful_draw_ratio",
         per(tracer.draws_useful, tracer.draws_total), "ratio", draw.calls),
        ("montecarlo.bytes_drawn_per_trial",
         8.0 * per(tracer.draws_total, draw.work), "bytes", draw.calls),
        ("cli.main.self_share", per(main.self_s, wall), "ratio", main.calls),
        ("cli.write_curve_csv.us_per_row",
         1e6 * per(write.total_s, write.work),
         "us", write.work),
        ("trace_overhead.points_per_s",
         per(traced.points_per_s(), untraced.points_per_s()), "ratio",
         traced.points),
        ("trace_overhead.mc_trials_per_s",
         per(traced.mc_trials_per_s(), untraced.mc_trials_per_s()), "ratio",
         traced.mc_trials),
        ("trace.spans", tracer.span_count, "count", tracer.span_count),
    ]
