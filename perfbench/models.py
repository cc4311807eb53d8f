"""The network models the benchmark workloads verify.

Each model function takes the failure probability as an argument so the same
model can be built with a float (what the workloads time) or with an
exact :class:`~fractions.Fraction` (what the reference answers in
``perfbench/reference/`` are computed from).
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.packet import DROP
from repro.failure.models import independent_failure_program
from repro.network.model import NetworkModel, build_model
from repro.routing import downward_failable_ports, ecmp_policy, f10_model
from repro.topology import ab_fat_tree, edge_switches, fat_tree

#: FatTree ECMP models: independent 1/1000 failures on downward links (fig7).
FATTREE_FAILURE = Fraction(1, 1000)
#: F10 models with a hop counter: the fig12 setup.
F10_FAILURE = Fraction(1, 4)
F10_SCHEME = "f10_3_5"
F10_MAX_HOPS = 14


def fattree_ecmp_model(topo, dest: int, probability) -> NetworkModel:
    """FatTree ECMP towards ``dest`` with independent downward-link failures."""
    failable = downward_failable_ports(topo)
    return build_model(
        topo,
        routing=ecmp_policy(topo, dest),
        dest=dest,
        failure=independent_failure_program(failable, probability),
        failable=failable,
    )


def f10_hops_model(topo, dest: int, probability) -> NetworkModel:
    """The fig12 model: F10_3,5 on an AB FatTree, counting hops up to 14."""
    return f10_model(
        topo,
        dest,
        scheme=F10_SCHEME,
        failure_probability=probability,
        count_hops=True,
        max_hops=F10_MAX_HOPS,
    )


def fattree_destinations(k: int) -> list[int]:
    return edge_switches(fat_tree(k))


def f10_destinations() -> list[int]:
    return edge_switches(ab_fat_tree(4))


def ingress_key(packet) -> str:
    """``"sw,pt"`` — the key reference files use for an ingress packet."""
    return f"{packet.get('sw')},{packet.get('pt')}"


def outcome_label(outcome) -> str:
    """An output packet as the streaming wire format labels it."""
    if outcome == DROP:
        return "drop"
    items = ",".join(f"{name}={value}" for name, value in sorted(outcome.as_dict().items()))
    return items or "<empty>"


def expected_hops(model: NetworkModel, dist):
    """Expected hop count conditioned on delivery (the ``hops`` query's value)."""
    total = 0
    mass = 0
    for outcome, prob in dist.items():
        if outcome == DROP or outcome.get("sw") != model.dest:
            continue
        hops = outcome.get(model.hops_field)
        if hops is None:
            continue
        total += prob * hops
        mass += prob
    return total / mass
