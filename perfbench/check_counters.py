"""Check that the deterministic work counters repeat exactly for a seed.

Runs the traced form of each named workload twice with the same seed and
compares the counters that depend only on the inputs: ``compile.*``,
``interpreter.*`` counts, ``assemble.rows``,
``markov.factorizations``/``schur_updates``, ``session.shards`` and
``coalesce.batches``.  Exits 1 if any differs.

    python3 perfbench/check_counters.py [--seed N] [--seconds S] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-verify-fattree6", "warm-resolve-f10", "stream-fattree4")
COUNTERS = (
    "compile.fdd_nodes",
    "compile.cache.restrict_eq",
    "compile.cache.restrict_ne",
    "compile.cache.ite",
    "compile.cache.reduce",
    "compile.cache.sequence",
    "compile.cache.convex",
    "interpreter.loop_states",
    "interpreter.factorizations",
    "interpreter.compiled_loops",
    "assemble.rows",
    "markov.factorizations",
    "markov.schur_updates",
    "session.shards",
    "coalesce.batches",
)


def _counters(workload: str, seed: int, seconds: float) -> dict[str, float]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        first = _counters(workload, args.seed, args.seconds)
        second = _counters(workload, args.seed, args.seconds)
        differ = {name: (first[name], second[name]) for name in COUNTERS
                  if first[name] != second[name]}
        print(f"{workload}: {'differ ' + str(differ) if differ else 'identical'}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
