"""The server process of the ``stream-fattree4`` workload.

Builds the FatTree k=4 ECMP models (1/1000 downward failures) for the 8
edge destinations, opens ``AnalysisSession(pool_mode="process",
pool_size=2, cache=False, planner="destination")``, warms every
destination, and serves them with a ``QueryServer`` on a free local
port.  It then prints one JSON line ``{"ready": ..., "port": ...}``.

The benchmark drives it over stdin/stdout, one JSON object per line:
``{"cmd": "stats"}`` answers with server, session, worker and memory
figures; ``{"cmd": "trace", "on": true|false}`` switches session
tracing; ``{"cmd": "spans"}`` hands over the finished spans;
``{"cmd": "stop"}`` — or end of input — drains and stops the server.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.service import AnalysisSession  # noqa: E402
from repro.service.server import QueryServer  # noqa: E402
from repro.service.telemetry import Telemetry  # noqa: E402
from repro.topology import fat_tree  # noqa: E402

from common import compile_counters, median, peak_rss_mb  # noqa: E402
from models import fattree_destinations, fattree_ecmp_model  # noqa: E402

K = 4
FAILURE = 1 / 1000


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _worker_figures(session) -> dict:
    timings: dict[str, float] = {}
    solver: dict[str, int] = {}
    for report in session.pool.worker_reports():
        for name, value in (report.get("timings") or {}).items():
            timings[name] = timings.get(name, 0.0) + value
        for name, value in (report.get("solver") or {}).items():
            solver[name] = solver.get(name, 0) + int(value)
    return {"timings": timings, "solver": solver}


def _stats(server, session, loop, setup: dict) -> dict:
    async def snapshot() -> dict:
        return server.stats()

    served = asyncio.run_coroutine_threadsafe(snapshot(), loop).result()
    stats = session.stats()
    pool = session.pool.stats()
    tracer = session.telemetry.tracer
    return {
        "server": served,
        "session": {"shards": stats["shards"], "retried_shards": stats["retried_shards"]},
        "pool": {name: pool[name] for name in ("restarts", "failures", "steals")},
        "workers": _worker_figures(session),
        "peak_rss_mb": peak_rss_mb(pool["workers"]),
        "dropped_spans": tracer.dropped,
        **setup,
    }


def _control(server, session, loop, setup: dict) -> None:
    """Answer the benchmark's commands until ``stop`` or end of input."""
    tracer = session.telemetry.tracer
    for line in sys.stdin:
        command = json.loads(line)
        kind = command.get("cmd")
        if kind == "stats":
            _reply(_stats(server, session, loop, setup))
        elif kind == "trace":
            tracer.enabled = bool(command.get("on"))
            _reply({"trace": tracer.enabled})
        elif kind == "spans":
            _reply({"spans": tracer.take()})
        elif kind == "stop":
            break
        else:
            _reply({"error": f"unknown command {kind!r}"})
    server.request_stop()


async def _serve() -> None:
    topo = fat_tree(K)
    builds: list[float] = []
    models = []
    for dest in fattree_destinations(K):
        start = time.perf_counter()
        models.append(fattree_ecmp_model(topo, dest, FAILURE))
        builds.append(time.perf_counter() - start)
    session = AnalysisSession(
        models=models,
        pool_mode="process",
        pool_size=2,
        cache=False,
        planner="destination",
        telemetry=Telemetry(tracing=False, max_spans=1_000_000),
    )
    compile_before = 0.0
    compiles: list[float] = []
    for model in models:
        session.warm(model.dest)
        compiled = session.backend.timings().get("compile", 0.0)
        compiles.append(compiled - compile_before)
        compile_before = compiled
    setup = {
        "build_s": median(builds),
        "compile_s": median(compiles),
        "compile": compile_counters(session.backend.manager),
    }
    server = QueryServer(session, owns_session=True)
    await server.start()
    loop = asyncio.get_running_loop()
    _reply({"ready": True, "port": server.port})
    control = threading.Thread(
        target=_control, args=(server, session, loop, setup), daemon=True
    )
    control.start()
    await server.serve_until_stopped()
    await server.stop()


if __name__ == "__main__":
    asyncio.run(_serve())
