"""Workload ``stream-fattree4``: streamed queries to a ``QueryServer``.

A server process (``stream_server.py``) serves 8 destinations' FatTree
k=4 ECMP models over ``AnalysisSession(pool_mode="process", pool_size=2,
cache=False, planner="destination")``, warmed at set-up, so every loop
solution is cached and time goes to the server, coalescer, session,
shard planner, pool, worker processes, transport and wire format.

This process is the load generator: one thread, one event loop, two
``StreamClient`` connections, seed-drawn (ingress, dest) pairs, 3
``delivery`` : 1 ``distribution``.  Three phases:

* open loop — seeded Poisson arrivals at ``OPEN_RATE``; each latency is
  timed from when the request was due, and the generator's lateness is
  recorded;
* closed loop — each connection keeps ``CLOSED_DEPTH`` queries in flight;
* count — ``COUNT_BURSTS`` bursts of ``BURST`` queries written at once on
  one connection, each awaited before the next, outside any timing: the
  work counters of this phase repeat exactly for a seed.

The timed phases are cut into windows of about ``WINDOW`` seconds; the
figures leave out the windows in which the generator fell behind or the
hypervisor stole CPU time (see ``Windows``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import select
import subprocess
import sys
import time

from repro.service.server import StreamClient

from common import (
    SETUP_REPEATS,
    BenchmarkError,
    HostSpeed,
    HostSteal,
    gc_paused,
    mean,
    median,
    off_reference,
    percentile,
    settle,
)
from reference import STREAM, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
SERVER = os.path.join(HERE, "stream_server.py")

CONNECTIONS = 2
#: Offered open-loop rate, about 40% of the closed-loop rate at HEAD
#: (1400–1700/s on a 2-core host in a fast period).
OPEN_RATE = 575.0
#: Queries each connection keeps in flight in the closed loop.
CLOSED_DEPTH = 8
#: Share of ``--seconds`` spent in the open loop; the closed loop gets the rest.
OPEN_SHARE = 0.6
#: Width of the windows the timed phases are cut into, in seconds.
WINDOW = 1.0
#: Untimed closed-loop traffic before the open loop, in seconds.
WARMUP_S = 2.0
#: A window in which more than 1% of the open-loop requests were sent this
#: late is invalid: the generator fell behind its schedule, so those
#: latencies would measure the generator, not the server.  One stall of
#: the whole machine delays a few requests; latencies from due time
#: already charge it to the server.
LATE_LIMIT_MS = 20.0
#: A window in which the hypervisor stole more than this share of the
#: machine's CPU time is left out of the figures: with 4 busy processes
#: on 2 virtual CPUs, its p95 was 1.5 to 4 times that of the windows
#: around it (NOTES.md, the stream phases).
STEAL_LIMIT_PCT = 2.0
#: When fewer windows than this share of a phase are within the limit,
#: the phase reports this share of its windows, those with the least steal.
MIN_WINDOW_SHARE = 1 / 6
COUNT_BURSTS = 4
BURST = 32
#: How long to wait for the server to start, answer, or stop.
SERVER_TIMEOUT = 120.0


class ServerProcess:
    """The server subprocess and its stdin/stdout command channel."""

    def __init__(self):
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, SERVER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=os.path.dirname(HERE),
        )
        try:
            ready = self._read()
        except BenchmarkError:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.port = ready["port"]

    def _read(self) -> dict:
        readable, _, _ = select.select([self.process.stdout], [], [], SERVER_TIMEOUT)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            raise BenchmarkError("the stream server did not answer")
        return json.loads(line)

    def call(self, command: dict) -> dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Stop the server (draining it) and wait until it has exited."""
        try:
            self.process.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
            self.process.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.process.wait(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Traffic:
    """Seed-drawn requests, and the checks of their replies."""

    def __init__(self, rng: random.Random, expected: dict, result):
        self.rng = rng
        self.expected = expected
        self.result = result
        self.pairs = sorted(
            (dest, ingress) for dest, answers in expected.items() for ingress in answers
        )
        self.errors: dict[str, int] = {}
        self.replies: list[tuple[dict, dict]] = []

    def next(self) -> dict:
        dest, ingress = self.rng.choice(self.pairs)
        kind = "delivery" if self.rng.random() < 0.75 else "distribution"
        switch, port = (int(part) for part in ingress.split(","))
        return {"kind": kind, "ingress": [switch, port], "dest": int(dest)}

    def keep(self, message: dict, reply: dict) -> None:
        """Keep a reply to check once the timed phase is over."""
        self.replies.append((message, reply))

    def check(self) -> None:
        """Count every kept reply: an error reply or an answer off the reference fails."""
        for message, reply in self.replies:
            error = reply.get("error")
            if error is not None:
                code = error.get("code", "unknown")
                self.errors[code] = self.errors.get(code, 0) + 1
                self.result.count(failed=True)
                continue
            ingress = ",".join(str(part) for part in message["ingress"])
            reference = self.expected[str(message["dest"])][ingress][message["kind"]]
            self.result.count(failed=off_reference(reply.get("value"), reference))
        self.replies.clear()


class Windows:
    """The windows, about ``WINDOW`` seconds each, that tile a timed phase.

    ``tick`` is called as the phase runs and charges each window that has
    ended with the host steal measured since the previous tick.
    """

    def __init__(self, duration: float):
        self.start = time.perf_counter()
        self.count = max(1, round(duration / WINDOW))
        self.width = duration / self.count
        self.meter = HostSteal()
        self.steal: list[float] = []

    def of(self, moment: float) -> int:
        return int((moment - self.start) // self.width)

    def tick(self, final: bool = False) -> None:
        ended = self.count if final else min(self.count, self.of(time.perf_counter()))
        if ended > len(self.steal):
            share = self.meter.take()
            self.steal.extend([share] * (ended - len(self.steal)))

    def usable(self, valid=lambda window: True) -> list[int]:
        """The valid windows within ``STEAL_LIMIT_PCT``; if fewer than
        ``MIN_WINDOW_SHARE`` of all windows, that share of the valid
        windows with the least steal."""
        candidates = [window for window in range(self.count) if valid(window)]
        clean = [window for window in candidates if self.steal[window] <= STEAL_LIMIT_PCT]
        wanted = math.ceil(self.count * MIN_WINDOW_SHARE)
        if len(clean) >= wanted:
            return clean
        return sorted(candidates, key=lambda window: self.steal[window])[:wanted]

    def describe(self, used: list[int]) -> str:
        stolen = mean(self.steal[window] for window in used)
        return (f"{len(used)} of {self.count} windows used, host steal {stolen:.1f}% in them, "
                f"{mean(self.steal):.1f}% in all")


async def _open_loop(clients, traffic, rng, duration, trace) -> dict:
    """Seeded Poisson arrivals for ``duration`` seconds.

    Each latency runs from when its request was due and belongs to the
    window it was due in.  A window in which the generator sent 1% of
    its requests over ``LATE_LIMIT_MS`` late is invalid; the percentiles
    are pooled over the usable windows (``Windows.usable``).
    """
    windows = Windows(duration)
    latencies: list[tuple[int, float]] = []
    lateness: list[tuple[int, float]] = []
    waiters = []

    async def wait(message, future, due, span):
        reply = await future
        latencies.append((windows.of(due), time.perf_counter() - due))
        span.finish()
        traffic.keep(message, reply)

    due = windows.start
    index = 0
    while True:
        due += rng.expovariate(OPEN_RATE)
        if due - windows.start > duration:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        windows.tick()
        lateness.append((windows.of(due), time.perf_counter() - due))
        message = traffic.next()
        span = trace.span("gen:request", kind=message["kind"], dest=message["dest"])
        future = await clients[index % len(clients)].send(message)
        waiters.append(asyncio.ensure_future(wait(message, future, due, span)))
        index += 1
    await asyncio.gather(*waiters)
    windows.tick(final=True)

    late_by_window: dict[int, list[float]] = {}
    for window, late in lateness:
        late_by_window.setdefault(window, []).append(late)
    on_time = {
        window for window, lates in late_by_window.items()
        if window < windows.count and percentile(lates, 99) * 1000.0 <= LATE_LIMIT_MS
    }
    if not on_time:
        raise BenchmarkError(
            f"the generator sent 1% of its requests over {LATE_LIMIT_MS:g} ms late in every "
            "window; the run would measure the generator, not the server"
        )
    used = set(windows.usable(lambda window: window in on_time))
    kept = [latency for window, latency in latencies if window in used]
    return {
        "p50": percentile(kept, 50),
        "p95": percentile(kept, 95),
        "requests": len(kept),
        "late": max(late for _window, late in lateness),
        "late_windows": windows.count - len(on_time),
        "windows": windows.describe(sorted(used)),
    }


async def _closed_loop(clients, traffic, duration, trace) -> tuple[float, str]:
    """Each connection keeps ``CLOSED_DEPTH`` queries in flight.

    Returns completed queries per second over the usable windows
    (``Windows.usable``), and a description of the windows used.
    """
    windows = Windows(duration)
    deadline = windows.start + duration
    completed = [0] * windows.count

    async def keep_busy(client):
        while time.perf_counter() < deadline:
            message = traffic.next()
            with trace.span("gen:request", kind=message["kind"], dest=message["dest"]):
                reply = await (await client.send(message))
            window = windows.of(time.perf_counter())
            if window < windows.count:
                completed[window] += 1
            windows.tick()
            traffic.keep(message, reply)

    await asyncio.gather(
        *(keep_busy(client) for client in clients for _ in range(CLOSED_DEPTH))
    )
    windows.tick(final=True)
    used = windows.usable()
    rate = sum(completed[window] for window in used) / (len(used) * windows.width)
    return rate, windows.describe(used)


async def _count_phase(client, traffic):
    for _ in range(COUNT_BURSTS):
        messages = [traffic.next() for _ in range(BURST)]
        futures = [await client.send(message) for message in messages]
        for message, reply in zip(messages, await asyncio.gather(*futures)):
            traffic.keep(message, reply)
    traffic.check()


async def _drive(server, seed, seconds, trace, result, expected) -> dict:
    clients = [await StreamClient.connect("127.0.0.1", server.port) for _ in range(CONNECTIONS)]
    try:
        traffic = Traffic(random.Random(f"{seed}:pairs"), expected, result)
        arrivals = random.Random(f"{seed}:arrivals")
        figures: dict[str, float] = {}
        # Untimed warm-up: a shard stolen by the replica that does not own
        # its destination solves the loop there once; after this, both
        # replicas hold every solution and the code paths are warm.
        trace.set_enabled(False)
        await _closed_loop(clients, traffic, WARMUP_S, trace)
        traffic.check()
        trace.set_enabled(trace.requested)
        warmed = None
        if trace.requested:
            warmed = server.call({"cmd": "stats"})
            server.call({"cmd": "trace", "on": True})
        since = time.time()
        steal = HostSteal()
        with gc_paused():
            opened_loop = await _open_loop(
                clients, traffic, arrivals, seconds * OPEN_SHARE, trace
            )
        traffic.check()
        figures["open_queries"] = opened_loop["requests"]
        figures["p50_ms"] = opened_loop["p50"] * 1000.0
        figures["p95_ms"] = opened_loop["p95"] * 1000.0
        figures["late_ms"] = opened_loop["late"] * 1000.0
        result.note(f"open loop: {opened_loop['windows']}; "
                    f"{opened_loop['late_windows']} windows with the generator behind")
        opened = server.call({"cmd": "stats"})
        closed_s = seconds * (1.0 - OPEN_SHARE)
        if trace.requested:
            # Half the closed loop untraced, half traced: the gap is the
            # tracing overhead.
            server.call({"cmd": "trace", "on": False})
            trace.set_enabled(False)
            with gc_paused():
                untraced, used = await _closed_loop(clients, traffic, closed_s / 2, trace)
            server.call({"cmd": "trace", "on": True})
            trace.set_enabled(True)
            with gc_paused():
                traced, _ = await _closed_loop(clients, traffic, closed_s / 2, trace)
            traffic.check()
            figures["max_qps"] = untraced
            figures["overhead_pct"] = (untraced / traced - 1.0) * 100.0
            server.call({"cmd": "trace", "on": False})
            trace.set_enabled(False)
        else:
            with gc_paused():
                figures["max_qps"], used = await _closed_loop(clients, traffic, closed_s, trace)
            traffic.check()
        result.note(f"closed loop: {used}")
        figures["steal_pct"] = steal.total()
        before = server.call({"cmd": "stats"})
        counted = Traffic(random.Random(f"{seed}:count"), expected, result)
        await _count_phase(clients[0], counted)
        after = server.call({"cmd": "stats"})
        if trace.requested:
            trace.set_enabled(True)
            trace.tracer.ingest(server.call({"cmd": "spans"})["spans"])
        figures["since"] = since
        errors = dict(traffic.errors)
        for code, count in counted.errors.items():
            errors[code] = errors.get(code, 0) + count
        return {"figures": figures, "warmed": warmed, "opened": opened, "before": before,
                "after": after, "errors": errors}
    finally:
        for client in clients:
            await client.aclose()


def run(seed: int, seconds: float, trace, result) -> None:
    expected = load_reference(STREAM)["answers"]
    setup: list[float] = []
    setup_host = HostSpeed()
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            settle(setup_host)
            server = ServerProcess()
            setup.append(server.setup_s)
        outcome = asyncio.run(_drive(server, seed, seconds, trace, result, expected))
    finally:
        if server is not None:
            server.stop()
    figures = outcome["figures"]
    before, after, opened = outcome["before"], outcome["after"], outcome["opened"]
    if outcome["errors"]:
        result.note(f"error replies: {outcome['errors']}")

    # Set-up at the reference host speed (common.HostSpeed); the stream
    # figures are taken in windows free of host steal instead.
    result.put("setup_s", median(setup) * setup_host.scale())
    result.name("setup_measured_s", median(setup), "s", f"as measured: median of {len(setup)}")
    result.put("latency_ms", figures["p50_ms"])
    result.put("latency_alt_ms", figures["p95_ms"])
    result.put("throughput_qps", figures["max_qps"])
    result.put("peak_rss_mb", after["peak_rss_mb"])
    n = int(figures["open_queries"])
    result.name("stream_p50_ms", figures["p50_ms"], "ms", f"open loop at {OPEN_RATE:g}/s, n={n}")
    result.name("stream_p95_ms", figures["p95_ms"], "ms", f"open loop at {OPEN_RATE:g}/s, n={n}")
    result.name("stream_max_qps", figures["max_qps"], "1/s",
                f"closed loop, {CONNECTIONS} x {CLOSED_DEPTH} in flight")
    result.name("gen.late_ms", figures["late_ms"], "ms",
                f"worst; a window whose 99th percentile exceeds {LATE_LIMIT_MS:g} ms is invalid")

    result.put("host.kernel_ms", mean(setup_host.samples) * 1000.0)
    result.put("host.steal_pct", figures["steal_pct"])
    result.note(f"host: calibration kernel {mean(setup_host.samples) * 1000.0:.2f} ms "
                f"(mean of {len(setup_host.samples)}, at set-up), "
                f"steal {figures['steal_pct']:.1f}% over the timed phases")

    # Per-layer figures.  Set-up work happens in the server process.
    result.put("network.build_s", after["build_s"])
    result.put("compile.s", after["compile_s"])
    for name, value in after["compile"].items():
        result.put(name, value)
    # Worker phase time per query over the closed loop.
    answered = before["server"]["queries_answered"] - opened["server"]["queries_answered"]
    work_before, work_after = opened["workers"]["timings"], before["workers"]["timings"]
    per_query = {
        name: (work_after.get(name, 0.0) - work_before.get(name, 0.0)) / max(1, answered)
        for name in ("query", "assemble", "factorize", "solve")
    }
    result.put("assemble.s", per_query["assemble"])
    result.put("markov.factorize_s", per_query["factorize"])
    result.put("markov.solve_s", per_query["solve"])
    result.put("matrix.query_s", per_query["query"])
    result.put("matrix.query_self_s", per_query["query"] - per_query["assemble"]
               - per_query["factorize"] - per_query["solve"])
    # Work counters of the count phase: fixed by the seed.
    solver_before, solver_after = before["workers"]["solver"], after["workers"]["solver"]
    result.put("assemble.rows", solver_after["assembly_rows"] - solver_before["assembly_rows"])
    result.put("markov.factorizations",
               solver_after["factorizations"] - solver_before["factorizations"])
    result.put("markov.schur_updates",
               solver_after["schur_updates"] - solver_before["schur_updates"])
    result.put("session.shards", after["session"]["shards"] - before["session"]["shards"])
    result.put("coalesce.batches",
               after["server"]["coalescer"]["batches"] - before["server"]["coalescer"]["batches"])
    result.put("session.retried_shards", after["session"]["retried_shards"])
    for name in ("restarts", "failures", "steals"):
        result.put(f"replica.{name}", after["pool"][name])
    coalescer = after["server"]["coalescer"]
    result.put("coalesce.overloaded", coalescer["overloaded"])
    result.put("coalesce.deadline_exceeded", coalescer["deadline_exceeded"])
    result.put("server.queries_answered", after["server"]["queries_answered"])
    result.put("gen.late_ms", figures["late_ms"])
    if trace.requested:
        # Queries per coalesced batch in the open loop.
        window_before = outcome["warmed"]["server"]["coalescer"]
        window_after = opened["server"]["coalescer"]
        result.put("coalesce.batch_mean", (
            window_after["coalesced_queries"] - window_before["coalesced_queries"]
        ) / max(1, window_after["batches"] - window_before["batches"]))
        result.put("trace.overhead_pct", figures["overhead_pct"])
        times = trace.layer_times(figures["since"])
        _own, whole, count = times.get("request", (0.0, 0.0, 0))
        result.put("session.batch_s", whole / count if count else 0.0)
        trace.put_layer_times(result, figures["since"], {
            "session.self_s": "request",
            "session.shard_self_s": "shard",
            "replica.lease_self_s": "lease",
            "replica.worker_query_self_s": "worker:query",
            "coalesce.window_self_s": "coalesce-window",
        })
        result.put("trace.dropped", trace.tracer.dropped + after["dropped_spans"])
