"""Measurement core of the benchmark: span tracing, percentiles, the metric
schema, the environment record, the host speed reference, a
central-difference gradient check, and the timed loop that turns one
workload into one result.

Everything runs in one thread of one process, so no layer queues or waits;
the per-layer numbers are busy time and counts only.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np
import scipy

# Every timed run covers at least this many items, so p90 has ten samples
# beyond it.
MIN_ITEMS = 100

# Items are timed in blocks: whole cycles of the workload whose items took at
# least BLOCK_SECONDS in all.
BLOCK_SECONDS = 0.5

# The shared host runs the same code at speeds up to about 1.8 times apart,
# switching from one to the other every second to every few minutes.  So
# between the timed calls a run times pieces of a fixed reference, for
# REFERENCE_SHARE of the timed time, and divides each block's times by the
# host's slowdown over that block: the reference's time over REFERENCE_S
# (see HostReference).
REFERENCE_SHARE = 0.05
REFERENCE_S = 1e-3

# A run sets the workload up at least SETUP_MIN times, and until set-ups have
# taken SETUP_SECONDS, so a set-up of a few milliseconds is read from many
# samples.
SETUP_MIN = 3
SETUP_SECONDS = 2.0

# Criterion 7's tolerance for analytic against central-difference gradients.
GRAD_TOL = 1e-5

# Criterion 5's tolerance for FFT against direct-summation features; forward
# passes are held to it relative to their scale.
EXACT_TOL = 1e-10

# (name, unit) of each end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
)

# (name, unit, source, base) of each per-layer metric, printed with --trace 1.
# source is ("self", span) for total self time, ("calls", span) for the span
# count, ("count", key) for a summed counter, ("peak", key) for the largest
# value noted, ("ratio", key, span) for a counter over a span count, or
# ("trace", key) for a figure of the traced run itself.  base names the metric
# a value should be read against.
PER_LAYER = (
    ("filterbank.build_s", "s", ("self", "filterbank.build"), "filterbank.build_calls"),
    ("filterbank.build_calls", "count", ("calls", "filterbank.build"), None),
    ("filterbank.dense_matrix_bytes", "B", ("peak", "filterbank.dense_matrix_bytes"),
     "filterbank.build_calls"),
    ("lds.simulate_s", "s", ("self", "lds.simulate"), "lds.simulate_calls"),
    ("lds.simulate_calls", "count", ("calls", "lds.simulate"), None),
    ("lds.simulate_steps", "count", ("count", "lds.simulate_steps"), "lds.simulate_calls"),
    ("stu.forward_s", "s", ("self", "stu.forward"), "stu.forward_calls"),
    ("stu.forward_calls", "count", ("calls", "stu.forward"), None),
    ("stu.feature_bytes", "B", ("peak", "stu.feature_bytes"), "stu.forward_calls"),
    ("theory.construct_s", "s", ("self", "theory.construct"), "trace.items"),
    ("theory.ar_fit_s", "s", ("self", "theory.ar_fit"), "trace.items"),
    ("theory.ar_predict_s", "s", ("self", "theory.ar_predict"), "trace.items"),
    ("theory.bound_violations", "count", ("count", "theory.bound_violations"), "trace.items"),
    ("theory.ar_mismatches", "count", ("count", "theory.ar_mismatches"), "trace.items"),
    ("trainer.stu_step_s", "s", ("self", "trainer.stu_step"), "trace.items"),
    ("trainer.lru_step_s", "s", ("self", "trainer.lru_step"), "trace.items"),
    ("trainer.features_s", "s", ("self", "trainer.features"), "filterbank.build_calls"),
    ("trainer.ls_fit_s", "s", ("self", "trainer.ls_fit"), "trainer.ls_calls"),
    ("trainer.ls_calls", "count", ("calls", "trainer.ls_fit"), None),
    ("trainer.ls_ridge_fallbacks", "count", ("count", "trainer.ls_ridge_fallbacks"),
     "trainer.ls_calls"),
    ("trainer.ls_optimal_ratio", "ratio", ("ratio", "trainer.ls_optimal", "trainer.ls_fit"),
     "trainer.ls_calls"),
    ("stack.gradients_s", "s", ("self", "stack.gradients"), "stack.gradients_calls"),
    ("stack.gradients_calls", "count", ("calls", "stack.gradients"), None),
    ("stack.forward_s", "s", ("self", "stack.forward"), "stack.forward_calls"),
    ("stack.forward_calls", "count", ("calls", "stack.forward"), None),
    ("optim.step_s", "s", ("self", "optim.step"), "optim.step_calls"),
    ("optim.step_calls", "count", ("calls", "optim.step"), None),
    ("trace.items", "count", ("trace", "items"), None),
    ("trace.items_per_s_untraced", "1/s", ("trace", "items_per_s_untraced"), None),
    ("trace.items_per_s_traced", "1/s", ("trace", "items_per_s_traced"), "trace.items"),
    ("trace.overhead_frac", "ratio", ("trace", "overhead_frac"), None),
)


class ItemFailed(Exception):
    """An item produced a non-finite value or missed an oracle."""


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    item: int | None  # item id shared by every span of one item


class Tracer:
    """In-memory spans and counters recorded at the benchmark's call sites.

    While disabled, span() and the counters do nothing, so the untraced items
    of a run pay only a flag test.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.item: int | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.item)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[key] += n

    def note_peak(self, key: str, value: float) -> None:
        if self.enabled:
            self.peaks[key] = max(self.peaks.get(key, 0), value)

    def to_dict(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.item] for s in self.spans],
            "counts": dict(self.counts),
            "peaks": self.peaks,
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            lo, hi = max(start, reach), min(end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# ---------------------------------------------------------------------------
# Statistics and metrics
# ---------------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Linear-interpolated q-th percentile, refused unless at least ten
    samples lie beyond it."""
    values = np.asarray(samples, dtype=np.float64)
    n = values.size
    beyond = n - math.ceil(n * q / 100.0)
    if beyond < 10:
        raise ValueError(f"p{q:g} of {n} samples has {beyond} beyond it; need at least 10")
    return float(np.percentile(values, q))


def host_corrected(blocks, slowdowns) -> list[float]:
    """Times of all blocks, each divided by the host's slowdown over it."""
    return [t / slowdown for block, slowdown in zip(blocks, slowdowns) for t in block]


def layer_metrics(tracer: Tracer, trace_figures: dict) -> dict:
    """Per-layer values named in PER_LAYER from the spans and counters."""
    self_total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_total[span.name] += own
        calls[span.name] += 1
    values = {}
    for name, _, source, _ in PER_LAYER:
        kind, key = source[0], source[1]
        if kind == "self":
            values[name] = self_total[key]
        elif kind == "calls":
            values[name] = calls[key]
        elif kind == "count":
            values[name] = tracer.counts[key]
        elif kind == "peak":
            values[name] = tracer.peaks.get(key, 0)
        elif kind == "ratio":
            base = calls[source[2]]
            values[name] = tracer.counts[key] / base if base else 0.0
        else:
            values[name] = trace_figures[key]
    return values


def environment(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "sizes": dict(workload.sizes),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Host speed reference
# ---------------------------------------------------------------------------


class HostReference:
    """Fixed work of the four kinds the program does, written independently
    of it: an interpreter loop, a scan of small NumPy products, FFTs and a
    matrix product.  Each piece takes about a millisecond."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.G = rng.standard_normal((3, 3))
        self.u = rng.standard_normal((1, 256, 3))
        self.x = rng.standard_normal((8, 4096))
        self.A = rng.standard_normal((256, 256))
        self.pieces = (self.interpreter, self.scan, self.fft, self.matmul)

    def interpreter(self):
        total = 0
        for k in range(20000):
            total += k * k

    def scan(self):
        y = np.zeros_like(self.u)
        for t in range(1, self.u.shape[1]):
            y[:, t] = self.u[:, t] @ self.G.T + 0.5 * y[:, t - 1]

    def fft(self):
        f = np.fft.rfft(self.x, axis=1)
        np.fft.irfft(f * f, axis=1)

    def matmul(self):
        self.A @ self.A

    def time(self, k: int) -> float:
        t0 = time.perf_counter()
        self.pieces[k]()
        return time.perf_counter() - t0

    @staticmethod
    def slowdown(samples) -> float:
        """Geometric mean over the pieces of their median time, over
        REFERENCE_S; samples[k] holds the times of piece k."""
        logs = [math.log(statistics.median(times)) for times in samples]
        return math.exp(statistics.fmean(logs)) / REFERENCE_S


class BlockClock:
    """Times grouped into blocks, with the host's slowdown over each block.

    After each timed call but a block's first, reference pieces run in turn
    until they have taken REFERENCE_SHARE of the block's timed time, so they
    sample the same stretch of time as the block they correct.  A block of
    one call (a set-up of seconds) leaves the reference no time inside it, so
    its slowdown is unknown and it stays uncorrected (slowdown 1).
    """

    def __init__(self, reference: HostReference):
        self.reference = reference
        self.times: list[float] = []
        self.bounds = [0]
        self.slowdowns: list[float] = []
        self.open_s = 0.0  # timed time in the block not yet closed
        self._samples = [[] for _ in reference.pieces]
        self._reference_s = 0.0
        self._next = 0

    def add(self, seconds: float) -> None:
        self.times.append(seconds)
        self.open_s += seconds
        while len(self.times) - self.bounds[-1] > 1 and \
                self._reference_s < REFERENCE_SHARE * self.open_s:
            self._sample()

    def _sample(self) -> None:
        k = self._next
        self._next = (k + 1) % len(self._samples)
        t = self.reference.time(k)
        self._samples[k].append(t)
        self._reference_s += t

    def close_block(self) -> None:
        calls = len(self.times) - self.bounds[-1]
        if calls == 0:
            return
        slowdown = 1.0
        if calls > 1:
            while not all(self._samples):
                self._sample()
            slowdown = self.reference.slowdown(self._samples)
        self.bounds.append(len(self.times))
        self.slowdowns.append(slowdown)
        self._samples = [[] for _ in self._samples]
        self._reference_s = self.open_s = 0.0

    def blocks(self) -> list[list[float]]:
        return [self.times[a:b] for a, b in zip(self.bounds, self.bounds[1:])]

    def corrected(self) -> list[float]:
        return host_corrected(self.blocks(), self.slowdowns)


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------


def gradcheck(loss_fn, named_arrays, grads: dict, rng, per_array: int = 8, h: float = 1e-6) -> float:
    """Worst |fd - g| / max(1, |fd|, |g|) over up to per_array seeded entries
    of each array, fd being the central difference of loss_fn."""
    worst = 0.0
    for name, arr in named_arrays:
        for flat in rng.choice(arr.size, size=min(per_array, arr.size), replace=False):
            ix = np.unravel_index(flat, arr.shape)
            old = arr[ix]
            arr[ix] = old + h
            lp = loss_fn()
            arr[ix] = old - h
            lm = loss_fn()
            arr[ix] = old
            fd = (lp - lm) / (2 * h)
            g = grads[name][ix]
            worst = max(worst, abs(fd - g) / max(1.0, abs(fd), abs(g)))
    return worst


# ---------------------------------------------------------------------------
# The timed run
# ---------------------------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Set the workload up (see SETUP_MIN), run its once-per-run checks, then
    time items for `seconds`, continuing to at least MIN_ITEMS and to the end
    of a block.  Each item's oracles run after its timer stops.

    Returns (result, tracer).  With trace, items alternate untraced and traced
    cycle by cycle, so the overhead is a paired comparison, and the metrics
    are the per-layer ones; otherwise they are the end-to-end ones, their
    times divided by the host's slowdown (see REFERENCE_S).  The once-per-run
    checks count as one attempted operation.
    """
    tracer = Tracer(enabled=trace)
    reference = HostReference()
    setups = BlockClock(reference)
    while len(setups.times) < SETUP_MIN or sum(setups.times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        with tracer.span("setup"):
            workload.setup(seed, tracer)
        setups.add(time.perf_counter() - t0)
        if setups.open_s >= BLOCK_SECONDS:
            setups.close_block()
    setups.close_block()

    checks_ok = bool(workload.check(tracer))
    if not checks_ok:
        print(f"{workload.name}: a once-per-run check failed", file=sys.stderr)

    cycle = workload.cycle
    items = BlockClock(reference)  # untraced items
    traced_s = []
    failed = 0
    i = 0
    start = time.perf_counter()
    while True:
        traced = trace and (i // cycle) % 2 == 1
        tracer.enabled = traced
        tracer.item = i
        draw = workload.draw(i)
        error = None
        # Warnings are recorded outside the timer and handed to the oracles.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                with tracer.span("item"):
                    out = workload.item(draw, tracer)
            except Exception as exc:
                error = exc
            elapsed = time.perf_counter() - t0
        (traced_s.append if traced else items.add)(elapsed)
        if error is None:
            try:
                workload.verify(draw, out, caught, tracer)
            except Exception as exc:
                error = exc
        if error is not None:  # a failed item is counted and the run goes on
            failed += 1
            if failed <= 5:
                print(f"item {i} failed: {type(error).__name__}: {error}", file=sys.stderr)
                if not isinstance(error, ItemFailed):
                    traceback.print_exception(error, file=sys.stderr)
        i += 1
        if i % cycle == 0 and items.open_s >= BLOCK_SECONDS:
            items.close_block()
            if i >= MIN_ITEMS and time.perf_counter() - start >= seconds:
                break

    attempted, failed = i + 1, failed + (not checks_ok)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        untraced = len(items.times) / sum(items.times)
        traced = len(traced_s) / sum(traced_s)
        figures = {
            "items": len(traced_s),
            "items_per_s_untraced": untraced,
            "items_per_s_traced": traced,
            "overhead_frac": untraced / traced - 1.0,
        }
        values = layer_metrics(tracer, figures)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        ms = [t * 1e3 for t in items.corrected()]
        values = {
            "setup_s": statistics.median(setups.corrected()),
            "items_per_s": 1e3 * len(ms) / sum(ms),
            "item_ms_p50": percentile(ms, 50),
            "item_ms_p90": percentile(ms, 90),
            "peak_rss_mb": peak_rss_mb(),
            "ops_ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
        slowdowns = setups.slowdowns + items.slowdowns
        print(f"{workload.name}: {len(items.slowdowns)} blocks; host slowdown "
              f"{min(slowdowns):.3f} to {max(slowdowns):.3f}; uncorrected setup_s "
              f"{statistics.median(setups.times):.4g}, items_per_s "
              f"{len(items.times) / sum(items.times):.4g}", file=sys.stderr)
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result, tracer
