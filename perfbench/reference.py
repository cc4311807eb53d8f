"""Exact reference answers for every destination and pair of the workloads.

The answers come from the exact AST interpreter,
``Interpreter(exact=True, compile_bodies=False)``, run on models built
with :class:`~fractions.Fraction` failure probabilities — never from
``MatrixBackend`` or the compiled-body path, so the engines under test
are not their own oracle.  They are stored as JSON beside this file and
loaded by the workloads, which compare every answer against them.

Regenerate (about 10 s for the FatTree k=6 file, 30 s for the F10 file)::

    python3 perfbench/reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

COLD = "cold-verify-fattree6"
WARM = "warm-resolve-f10"
STREAM = "stream-fattree4"
WORKLOADS = (COLD, WARM, STREAM)


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as handle:
        return json.load(handle)


def _exact_outputs(model) -> dict:
    from repro.core.interpreter import Interpreter

    interpreter = Interpreter(exact=True, compile_bodies=False)
    return model.output_distributions(interpreter=interpreter)


def _delivery(model, dist) -> float:
    from repro.core.packet import DROP

    return float(sum(
        prob for outcome, prob in dist.items()
        if outcome != DROP and outcome.get("sw") == model.dest
    ))


def generate(workload: str) -> dict:
    from fractions import Fraction

    from repro.topology import ab_fat_tree, fat_tree

    from models import (
        F10_FAILURE,
        FATTREE_FAILURE,
        expected_hops,
        f10_destinations,
        f10_hops_model,
        fattree_destinations,
        fattree_ecmp_model,
        ingress_key,
        outcome_label,
    )

    answers: dict[str, dict] = {}
    if workload in (COLD, STREAM):
        k = 6 if workload == COLD else 4
        topo = fat_tree(k)
        for dest in fattree_destinations(k):
            model = fattree_ecmp_model(topo, dest, FATTREE_FAILURE)
            outputs = _exact_outputs(model)
            entry = answers[str(dest)] = {}
            for packet, dist in outputs.items():
                if workload == COLD:
                    entry[ingress_key(packet)] = _delivery(model, dist)
                else:
                    entry[ingress_key(packet)] = {
                        "delivery": _delivery(model, dist),
                        "distribution": {
                            outcome_label(outcome): float(prob)
                            for outcome, prob in dist.items()
                        },
                    }
    elif workload == WARM:
        topo = ab_fat_tree(4)
        for dest in f10_destinations():
            model = f10_hops_model(topo, dest, F10_FAILURE)
            outputs = _exact_outputs(model)
            answers[str(dest)] = {
                ingress_key(packet): float(Fraction(expected_hops(model, dist)))
                for packet, dist in outputs.items()
            }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "oracle": "Interpreter(exact=True, compile_bodies=False), Fraction failure probabilities",
        "answers": answers,
    }


def main(argv: list[str]) -> int:
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in argv or WORKLOADS:
        start = time.perf_counter()
        data = generate(workload)
        with open(reference_path(workload), "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{workload}: {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
