"""Shared pieces of the benchmark: statistics, tracing, memory, results."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager

from repro.service.telemetry import Telemetry

HERE = os.path.dirname(os.path.abspath(__file__))
#: Traces are written here when a traced run ends (ignored by git).
OUT_DIR = os.path.join(HERE, "out")
#: An answer further than this from the exact reference is wrong.
TOLERANCE = 1e-9
#: How many times each workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: The FDD operations whose memo tables ``manager.op_cache`` exposes.
OP_CACHES = ("restrict_eq", "restrict_ne", "ite", "reduce", "sequence", "convex")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a valid result."""


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    """The arithmetic mean (0 for no values).

    Operation times are averaged, not taken as medians: on a shared
    2-core host, identical work can run at two speeds that alternate
    every few seconds, so a run's samples are bimodal and their median
    jumps between the modes from run to run, while the mean moves in
    proportion to the time spent in each (see NOTES.md, "Times at the
    reference host speed").
    """
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def percentile(values, pct: float) -> float:
    """The ``pct``-th percentile (linear interpolation between ranks)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@contextmanager
def timed(samples: list):
    """Append the wall-clock seconds of the block to ``samples``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        samples.append(time.perf_counter() - start)


#: What one run of the calibration kernel takes at the reference host
#: speed, in seconds: about its mean time on the 2-core virtual machine
#: NOTES.md was measured on.
REFERENCE_KERNEL_S = 0.015


def _kernel() -> int:
    """Fixed pure-Python work, independent of the code under test.

    Dict inserts with tuple keys and small allocations, the kind of work
    the FDD compiler and the matrix assembly spend their time on.
    """
    table = {}
    for i in range(30_000):
        table[(i, i % 7)] = (i * 3, str(i))
    return sum(value[0] for value in table.values())


class HostSpeed:
    """The calibration kernel, timed beside the operations of one phase.

    On a shared host the same work runs up to twice as slowly for
    seconds to minutes at a time (NOTES.md, "Times at the reference host
    speed"), and the kernel
    slows with it.  A time measured beside the kernel's samples is
    reported at the reference host speed by multiplying it with
    :meth:`scale`, which removes the host's drift but none of the
    program's own cost: the kernel shares no code with ``repro``.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """``REFERENCE_KERNEL_S`` over the kernel's mean time in this phase."""
        return REFERENCE_KERNEL_S / mean(self.samples)

    def local_scale(self, index: int, reach: int = 2) -> float:
        """``REFERENCE_KERNEL_S`` over the kernel's mean time in the samples
        within ``reach`` of sample ``index``: the scale for the one
        operation timed right after that sample."""
        return REFERENCE_KERNEL_S / mean(self.samples[max(0, index - reach):index + reach + 1])


class HostSteal:
    """CPU time the hypervisor took from this machine ("steal" in ``/proc/stat``).

    While a virtual CPU is stolen, everything on it waits, so a streamed
    request in flight then can take several times as long.  Reads 0 where
    ``/proc/stat`` is unavailable.
    """

    def __init__(self):
        self.first = self.last = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                values = [int(field) for field in handle.readline().split()[1:]]
        except (OSError, ValueError):
            return 0, 0
        return (values[7] if len(values) > 7 else 0), sum(values)

    @staticmethod
    def _pct(start: tuple[int, int], end: tuple[int, int]) -> float:
        total = end[1] - start[1]
        return 100.0 * (end[0] - start[0]) / total if total > 0 else 0.0

    def take(self) -> float:
        """Percentage of CPU time stolen since the previous call."""
        now = self._read()
        share = self._pct(self.last, now)
        self.last = now
        return share

    def total(self) -> float:
        """Percentage of CPU time stolen since this meter was made."""
        return self._pct(self.first, self._read())


def settle(host: HostSpeed) -> None:
    """Collect garbage left by the previous operation, then sample the host
    speed: both outside any timing, right before the next timed operation."""
    gc.collect()
    host.sample()


@contextmanager
def gc_paused():
    """Pause this process's garbage collector for a timed phase.

    Used by the stream load generator, whose own collections would
    otherwise show up as server latency.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def compile_counters(manager) -> dict[str, int]:
    """``compile.fdd_nodes`` and ``compile.cache.*`` of an FDD manager."""
    counters = {"compile.fdd_nodes": manager.node_count()}
    for name in OP_CACHES:
        counters[f"compile.cache.{name}"] = len(manager.op_cache(name))
    return counters


def delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


# -- correctness --------------------------------------------------------------

def off_reference(value, expected) -> bool:
    """Whether an answer differs from its exact reference by more than 1e-9.

    Scalars compare directly; distributions (``{outcome label: prob}``)
    compare outcome by outcome, a missing outcome counting as 0.
    """
    if isinstance(expected, dict):
        if not isinstance(value, dict):
            return True
        labels = set(expected) | set(value)
        return any(
            not abs(float(value.get(label, 0.0)) - float(expected.get(label, 0.0))) <= TOLERANCE
            for label in labels
        )
    try:
        return not abs(float(value) - float(expected)) <= TOLERANCE
    except (TypeError, ValueError):
        return True


# -- memory -------------------------------------------------------------------

def _vm_hwm_kib(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pids=()) -> float:
    """Peak resident set of this process plus ``pids``, in MiB.

    Reads ``VmHWM`` from ``/proc``; falls back to ``getrusage`` for this
    process where ``/proc`` is unavailable.
    """
    own = _vm_hwm_kib(os.getpid())
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = own
    for pid in pids:
        total += _vm_hwm_kib(pid) or 0
    return total / 1024.0


# -- tracing ------------------------------------------------------------------

class Trace:
    """Spans recorded around the calls into each layer (traced runs only).

    Wraps one :class:`~repro.service.telemetry.Telemetry`, whose tracer
    in-process sessions share, so their ``request → shard → lease →
    phase:*`` spans nest under the benchmark's own.  Untraced runs use a
    disabled tracer, whose spans are the shared no-op singleton, so the
    same workload code serves both kinds of run.
    """

    def __init__(self, requested: bool):
        #: Whether this is a traced run; workloads switch tracing off for
        #: some operations of a traced run to measure its overhead.
        self.requested = requested
        self.telemetry = Telemetry(tracing=requested, max_spans=1_000_000)
        self.tracer = self.telemetry.tracer

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def set_enabled(self, enabled: bool) -> None:
        self.tracer.enabled = enabled

    def layer_times(self, since: float = 0.0) -> dict[str, tuple[float, float, int]]:
        """``{span name: (summed self s, summed duration s, span count)}``.

        Only spans that started at or after ``since`` (epoch seconds)
        count.  A span's self time is its duration minus the part of it
        that its child spans cover (overlapping children count once).
        """
        records = [record for record in self.tracer.spans() if record["start"] >= since]
        children: dict[int, list[tuple[float, float]]] = {}
        for record in records:
            parent = record.get("parent")
            if parent is not None:
                children.setdefault(parent, []).append((record["start"], record["end"]))
        totals: dict[str, tuple[float, float, int]] = {}
        for record in records:
            start, end = record["start"], record["end"]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(record["span"], ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            own, whole, count = totals.get(record["name"], (0.0, 0.0, 0))
            totals[record["name"]] = (own + (end - start) - covered, whole + end - start, count + 1)
        return totals

    def put_layer_times(self, result, since: float, metrics: dict[str, str]) -> None:
        """Record the mean self time per span of each named span kind.

        ``metrics`` maps a metric name to a span name; a span kind the
        run never produced reads 0.
        """
        times = self.layer_times(since)
        for metric, name in metrics.items():
            own, _whole, count = times.get(name, (0.0, 0.0, 0))
            result.put(metric, own / count if count else 0.0)

    def export(self, workload: str, seed: int) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        self.tracer.export_chrome(path)
        return path


# -- results ------------------------------------------------------------------

class Result:
    """What one run prints: a table of named figures, then one JSON line."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        self.rows: list[tuple[str, float, str, str]] = []
        self.notes: list[str] = []

    def count(self, failed: bool) -> None:
        """Count one operation, and whether it failed or was off the reference."""
        self.attempted += 1
        if failed:
            self.failed += 1

    def put(self, name: str, value: float) -> None:
        """Record a metric declared in ``BENCHMARK.json``."""
        self.values[name] = float(value)

    def name(self, name: str, value: float, unit: str, remark: str) -> None:
        """Record a figure printed in the table only, under the workload's own name."""
        self.rows.append((name, float(value), unit, remark))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def emit(self, declared: list[dict], fill: bool) -> bool:
        """Print the table and the JSON line; returns whether every answer held.

        ``declared`` are the metric specs (name, unit) the JSON line
        carries for this kind of run.  With ``fill``, a metric of a layer
        this workload does not cross reads 0; otherwise a missing metric
        is an error.
        """
        missing = [spec["name"] for spec in declared if spec["name"] not in self.values]
        if missing and not fill:
            raise BenchmarkError(f"{self.workload} did not measure {missing}")
        failed_frac = self.failed / self.attempted if self.attempted else 1.0
        self.name("failed_frac", failed_frac, "", f"{self.failed} of {self.attempted} operations")
        kind = "traced" if self.traced else "untraced"
        print(f"# {self.workload} seed={self.seed} ({kind})")
        for name, value, unit, remark in self.rows:
            print(f"{name:<28} {value:>16.6f} {unit:<6} {remark}")
        for spec in declared:
            value = self.values.get(spec["name"])
            shown = "not crossed" if value is None else f"{value:.6f}"
            print(f"{spec['name']:<28} {shown:>16} {spec['unit']}")
        for text in self.notes:
            print(f"# {text}")
        correct = self.failed == 0 and self.attempted > 0
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                spec["name"]: {"value": self.values.get(spec["name"], 0.0), "unit": spec["unit"]}
                for spec in declared
            },
        }))
        return correct
