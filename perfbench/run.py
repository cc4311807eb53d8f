"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cold-verify-fattree6``, ``warm-resolve-f10``,
``stream-fattree4`` (see ``perfbench/NOTES.md``).  The run prints a table
of named figures and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` when untraced, its ``per_layer`` metrics when traced.
Every answer is checked against the exact reference in
``perfbench/reference/``; the exit code is 1 if any is off by more than
1e-9 or an operation failed, 2 if the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"error: the repro sources are not under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCES)

    import cold_verify
    import stream
    import warm_resolve
    from common import BenchmarkError, Result, Trace
    from reference import COLD, STREAM, WARM

    workloads = {COLD: cold_verify, WARM: warm_resolve, STREAM: stream}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    traced = bool(args.trace)
    trace = Trace(traced)
    result = Result(args.workload, args.seed, traced)
    try:
        workloads[args.workload].run(args.seed, args.seconds, trace, result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if traced:
        result.put("trace.spans", len(trace.tracer))
        result.values.setdefault("trace.dropped", trace.tracer.dropped)
        result.note(f"trace written to {os.path.relpath(trace.export(args.workload, args.seed), ROOT)}")
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    return 0 if result.emit(declared, fill=traced) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
