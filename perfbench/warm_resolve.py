"""Workload ``warm-resolve-f10``: re-solve passes over planned F10 models.

The fig12 setup: F10_3,5 on an AB FatTree (k=4) with 1/4 link failures
and a hop counter, for all 8 edge destinations, in one in-process
``AnalysisSession(cache=False, pool_size=1, workers=1)`` planned at
set-up.  One operation is one pass: ``clear_cache(keep_plans=True)``,
then ``query_batch`` over all 112 (ingress, dest) pairs as ``hops``
queries, in seed-shuffled order.  Plans are shared and solutions are
not, so assembly, factorization and solve do the work.
"""

from __future__ import annotations

import random
import time

from repro.service import AnalysisSession, Query
from repro.topology import ab_fat_tree

from common import (
    SETUP_REPEATS,
    HostSpeed,
    HostSteal,
    compile_counters,
    delta,
    mean,
    median,
    off_reference,
    peak_rss_mb,
    percentile,
    settle,
    timed,
)
from models import f10_destinations, f10_hops_model, ingress_key
from reference import WARM, load_reference

FAILURE = 1 / 4
#: Every run makes at least this many passes, whatever ``--seconds``.
MIN_PASSES = 4


def _setup(trace, builds: list, plans: list) -> AnalysisSession:
    topo = ab_fat_tree(4)
    models = []
    for dest in f10_destinations():
        with timed(builds):
            models.append(f10_hops_model(topo, dest, FAILURE))
    session = AnalysisSession(
        models=models, cache=False, pool_size=1, workers=1, telemetry=trace.telemetry
    )
    for model in models:
        with timed(plans):
            session.warm(model.dest, solve=False)
    return session


def run(seed: int, seconds: float, trace, result) -> None:
    expected = load_reference(WARM)["answers"]
    setup: list[float] = []
    builds: list[float] = []
    plans: list[float] = []
    setup_host = HostSpeed()
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        settle(setup_host)
        builds.clear()
        plans.clear()
        with timed(setup):
            session = _setup(trace, builds, plans)
    try:
        _passes(session, seed, seconds, trace, result, expected)
    finally:
        session.close()
    result.put("setup_s", median(setup) * setup_host.scale())
    result.name("setup_measured_s", median(setup), "s", f"as measured: median of {len(setup)}")
    result.put("network.build_s", median(builds))
    result.put("compile.s", median(plans))
    for name, value in compile_counters(session.backend.manager).items():
        result.put(name, value)


def _passes(session, seed, seconds, trace, result, expected) -> None:
    backend = session.backend
    pairs = [
        Query.hops(packet, model.dest)
        for model in (session.model_for(dest) for dest in session.destinations)
        for packet in model.ingress_packets
    ]
    rng = random.Random(seed)
    samples: dict[str, list[float]] = {
        name: []
        for name in (
            "pass", "batch", "assemble", "factorize", "solve", "query", "query_self",
            "rows", "factorizations", "schur", "shards",
        )
    }
    traced_flags: list[bool] = []
    host = HostSpeed()
    steal = HostSteal()
    since = time.time()
    deadline = time.perf_counter() + seconds
    while len(traced_flags) < MIN_PASSES or time.perf_counter() < deadline:
        order = list(pairs)
        rng.shuffle(order)
        # Traced runs alternate traced and untraced passes.
        trace.set_enabled(trace.requested and len(traced_flags) % 2 == 1)
        traced_flags.append(trace.tracer.enabled)
        settle(host)
        phases_before = backend.timings()
        rows_before = backend.solver_stats()["assembly_rows"]
        shards_before = session.stats()["shards"]
        with timed(samples["pass"]), trace.span("pass", queries=len(order)):
            session.clear_cache(keep_plans=True)
            with timed(samples["batch"]), trace.span("session:query_batch"):
                answers = session.query_batch(order)
        phases = backend.timings()
        # factorizations/schur_updates restart at 0 on reset_solutions()
        # although solver_stats() documents them as cumulative, so they
        # are read right after each pass instead of differenced.
        solver = backend.solver_stats()
        for name in ("assemble", "factorize", "solve", "query"):
            samples[name].append(delta(phases, phases_before, name))
        samples["query_self"].append(
            samples["query"][-1] - samples["assemble"][-1]
            - samples["factorize"][-1] - samples["solve"][-1]
        )
        samples["rows"].append(solver["assembly_rows"] - rows_before)
        samples["factorizations"].append(solver["factorizations"])
        samples["schur"].append(solver["schur_updates"])
        samples["shards"].append(session.stats()["shards"] - shards_before)
        for query, answer in zip(order, answers):
            reference = expected[str(query.dest)].get(ingress_key(query.ingress))
            result.count(failed=off_reference(answer.value, reference))
    trace.set_enabled(trace.requested)

    untraced = [seconds for seconds, flag in zip(samples["pass"], traced_flags) if not flag]
    queries = len(pairs) * len(untraced)
    pass_s = mean(untraced)
    # End-to-end times at the reference host speed (common.HostSpeed).
    scale = host.scale()
    result.put("latency_ms", pass_s * scale * 1000.0)
    # The tail pass is taken with each pass at the host speed around it:
    # the host's speed moves within a run, and which passes form the tail
    # moves with it.
    local = [
        seconds * host.local_scale(index)
        for index, (seconds, flag) in enumerate(zip(samples["pass"], traced_flags))
        if not flag
    ]
    result.put("latency_alt_ms", percentile(local, 90) * 1000.0)
    result.put("throughput_qps", queries / (sum(untraced) * scale))
    result.put("peak_rss_mb", peak_rss_mb())
    result.name("resolve_qps", queries / sum(untraced), "1/s",
                f"as measured: {queries} queries over {len(untraced)} passes")
    result.name("pass_mean_ms", pass_s * 1000.0, "ms",
                f"as measured: mean of {len(untraced)} passes, "
                f"median {median(untraced) * 1000.0:.3f} ms")
    result.put("host.kernel_ms", mean(host.samples) * 1000.0)
    result.put("host.steal_pct", steal.total())
    result.note(f"host: calibration kernel {mean(host.samples) * 1000.0:.2f} ms "
                f"(mean of {len(host.samples)}, scale {scale:.4f}), steal {steal.total():.1f}%")

    result.put("assemble.s", mean(samples["assemble"]))
    result.put("markov.factorize_s", mean(samples["factorize"]))
    result.put("markov.solve_s", mean(samples["solve"]))
    result.put("matrix.query_s", mean(samples["query"]))
    result.put("matrix.query_self_s", mean(samples["query_self"]))
    result.put("session.batch_s", mean(samples["batch"]))
    # Work counters per pass: every pass does the same work, so the
    # median is the value of any pass and repeats exactly across runs.
    result.put("assemble.rows", median(samples["rows"]))
    result.put("markov.factorizations", median(samples["factorizations"]))
    result.put("markov.schur_updates", median(samples["schur"]))
    result.put("session.shards", median(samples["shards"]))
    result.put("session.retried_shards", session.retried_shards)
    pool = session.pool.stats()
    for name in ("restarts", "failures", "steals"):
        result.put(f"replica.{name}", pool[name])
    if trace.requested:
        traced = [seconds for seconds, flag in zip(samples["pass"], traced_flags) if flag]
        result.put("trace.overhead_pct", (mean(traced) / pass_s - 1.0) * 100.0)
        trace.put_layer_times(result, since, {
            "session.self_s": "request",
            "session.shard_self_s": "shard",
            "replica.lease_self_s": "lease",
        })
    result.note(f"{len(traced_flags)} passes of {len(pairs)} hops queries")
