"""Workload ``cold-verify-fattree6``: cold verdicts on FatTree k=6.

FatTree k=6 running ECMP, independent 1/1000 failures on downward links.
The seed orders the 18 edge switches; each destination in turn gets one
cold verdict (every ingress's delivery probability) through a fresh
``MatrixBackend`` (``build_model`` → ``plan`` → ``delivery_probabilities``)
and one through the library-default forward ``Interpreter``.  Nothing is
shared between verdicts, so the workload is compile-bound.
"""

from __future__ import annotations

import random
import time

from repro.backends import MatrixBackend
from repro.core.interpreter import Interpreter
from repro.topology import fat_tree

from common import (
    SETUP_REPEATS,
    HostSpeed,
    HostSteal,
    compile_counters,
    mean,
    median,
    off_reference,
    peak_rss_mb,
    settle,
    timed,
)
from models import fattree_destinations, fattree_ecmp_model, ingress_key
from reference import COLD, load_reference

K = 6
FAILURE = 1 / 1000
#: Every run verifies at least this many destinations, whatever ``--seconds``.
MIN_DESTINATIONS = 4


def _setup():
    """Topology plus a warm-up verdict on the small k=4 sibling (lazy imports)."""
    topo = fat_tree(K)
    small = fat_tree(4)
    MatrixBackend().delivery_probabilities(fattree_ecmp_model(small, 1, FAILURE))
    fattree_ecmp_model(small, 1, FAILURE).delivery_probabilities(interpreter=Interpreter())
    return topo


def run(seed: int, seconds: float, trace, result) -> None:
    expected = load_reference(COLD)["answers"]
    setup: list[float] = []
    setup_host = HostSpeed()
    for _ in range(SETUP_REPEATS):
        settle(setup_host)
        with timed(setup):
            topo = _setup()

    order = fattree_destinations(K)
    random.Random(seed).shuffle(order)
    samples: dict[str, list[float]] = {
        name: []
        for name in (
            "matrix", "native", "build", "plan", "query", "assemble", "factorize",
            "solve", "query_self", "interpreter",
        )
    }
    traced_flags: list[bool] = []
    host = HostSpeed()
    steal = HostSteal()
    counters: dict[str, float] = {}
    answers = 0

    def check(dest: int, got: dict) -> None:
        reference = expected[str(dest)]
        wrong = len(got) != len(reference) or any(
            off_reference(value, reference.get(ingress_key(packet)))
            for packet, value in got.items()
        )
        result.count(failed=wrong)

    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_DESTINATIONS or time.perf_counter() < deadline:
        dest = order[index % len(order)]
        # Traced runs alternate traced and untraced destinations; the gap
        # between the two is the tracing overhead.
        trace.set_enabled(trace.requested and index % 2 == 1)
        traced_flags.append(trace.tracer.enabled)
        index += 1

        settle(host)
        with timed(samples["matrix"]), trace.span("verdict:matrix", dest=dest):
            with timed(samples["build"]), trace.span("network:build_model"):
                model = fattree_ecmp_model(topo, dest, FAILURE)
            backend = MatrixBackend()
            with timed(samples["plan"]), trace.span("compile:plan"):
                backend.plan(model.policy)
            with trace.span("matrix:delivery_probabilities"):
                got = backend.delivery_probabilities(model)
        phases = backend.timings()
        for name in ("query", "assemble", "factorize", "solve"):
            samples[name].append(phases.get(name, 0.0))
        samples["query_self"].append(
            phases.get("query", 0.0)
            - sum(phases.get(name, 0.0) for name in ("assemble", "factorize", "solve"))
        )
        if index == 1:
            # Work counters of the first destination: fixed by the seed.
            solver = backend.solver_stats()
            counters.update(compile_counters(backend.manager))
            counters["assemble.rows"] = solver["assembly_rows"]
            counters["markov.factorizations"] = solver["factorizations"]
            counters["markov.schur_updates"] = solver["schur_updates"]
        check(dest, got)
        answers += len(got)
        del backend, model

        settle(host)
        with timed(samples["native"]), trace.span("verdict:native", dest=dest):
            with timed(samples["build"]), trace.span("network:build_model"):
                model = fattree_ecmp_model(topo, dest, FAILURE)
            interpreter = Interpreter()
            with timed(samples["interpreter"]), trace.span("interpreter:delivery_probabilities"):
                got = model.delivery_probabilities(interpreter=interpreter)
        if index == 1:
            loops = interpreter.loop_stats()
            counters["interpreter.loop_states"] = loops["states"]
            counters["interpreter.factorizations"] = loops["factorizations"]
            counters["interpreter.compiled_loops"] = loops["compiled_loops"]
        check(dest, got)
        answers += len(got)
        del interpreter, model
    trace.set_enabled(trace.requested)

    untraced = [not flag for flag in traced_flags]
    matrix_s = mean(v for v, keep in zip(samples["matrix"], untraced) if keep)
    native_s = mean(v for v, keep in zip(samples["native"], untraced) if keep)
    verdicts = len(traced_flags)

    # End-to-end times at the reference host speed (common.HostSpeed).
    scale = host.scale()
    result.put("setup_s", median(setup) * setup_host.scale())
    result.put("latency_ms", matrix_s * scale * 1000.0)
    result.put("latency_alt_ms", native_s * scale * 1000.0)
    # Ingress answers per second of a destination's two mean verdicts.
    result.put("throughput_qps", answers / verdicts / ((matrix_s + native_s) * scale))
    result.put("peak_rss_mb", peak_rss_mb())
    for name, engine, value in (("verify_matrix_s", "matrix", matrix_s),
                                ("verify_native_s", "native", native_s)):
        kept = [v for v, keep in zip(samples[engine], untraced) if keep]
        result.name(name, value, "s",
                    f"as measured: mean of {len(kept)} cold {engine} verdicts, "
                    f"median {median(kept):.4f} s")
    result.name("setup_measured_s", median(setup), "s", f"as measured: median of {len(setup)}")
    result.put("host.kernel_ms", mean(host.samples) * 1000.0)
    result.put("host.steal_pct", steal.total())
    result.note(f"host: calibration kernel {mean(host.samples) * 1000.0:.2f} ms "
                f"(mean of {len(host.samples)}, scale {scale:.4f}), steal {steal.total():.1f}%")

    # Per-layer figures: means per verdict; counters of the first one.
    result.put("network.build_s", mean(samples["build"]))
    result.put("compile.s", mean(samples["plan"]))
    result.put("interpreter.s", mean(samples["interpreter"]))
    result.put("assemble.s", mean(samples["assemble"]))
    result.put("markov.factorize_s", mean(samples["factorize"]))
    result.put("markov.solve_s", mean(samples["solve"]))
    result.put("matrix.query_s", mean(samples["query"]))
    result.put("matrix.query_self_s", mean(samples["query_self"]))
    for name, value in counters.items():
        result.put(name, value)
    if trace.requested:
        traced = [v for v, flag in zip(samples["matrix"], traced_flags) if flag]
        result.put("trace.overhead_pct", (mean(traced) / matrix_s - 1.0) * 100.0)
    result.note(f"{verdicts} destinations x 2 engines, {answers} ingress answers")
