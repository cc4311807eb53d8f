"""Algorithms on probabilistic FDDs.

All operations preserve the canonical form (ordered tests, no redundant
tests, interned nodes) by always splitting on the *smallest* test among
the operands' roots, in the style of classic BDD ``apply`` algorithms.

Every operation is implemented with an explicit worklist instead of
recursion: the diagrams of network-scale programs contain chains with
one branch per switch (thousands of values on a single field), so
recursive descent would hit the Python recursion limit long before the
diagrams become expensive to process.  Memoisation lives in dedicated
per-operation tables on the :class:`~repro.core.fdd.node.FddManager`
(see :meth:`~repro.core.fdd.node.FddManager.op_cache`), keyed by plain
tuples of node uids — numeric weights are keyed by their exact integer
ratio, so :class:`~fractions.Fraction` and ``float`` representations of
the same number share cache entries.

The operations provided here are exactly those needed to compile the
guarded fragment of ProbNetKAT:

* :func:`restrict_eq` / :func:`restrict_ne` — partial evaluation given
  knowledge about one field;
* :func:`convex` — convex combination (probabilistic choice);
* :func:`ite` — conditional on a 0/1-valued predicate FDD;
* :func:`negate`, :func:`conjoin`, :func:`disjoin` — predicate algebra;
* :func:`sequence` — sequential composition (the Kleisli composition of
  the underlying packet kernels);
* :func:`map_leaves` — leaf-wise transformation.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.distributions import Dist
from repro.core.fdd.actions import Action, ActionOrDrop
from repro.core.fdd.node import Branch, FddManager, FddNode, Leaf, iter_nodes
from repro.core.packet import _DropType


# ---------------------------------------------------------------------------
# restriction (partial evaluation)
# ---------------------------------------------------------------------------

def restrict_eq(node: FddNode, field: str, value: int) -> FddNode:
    """Partially evaluate ``node`` under the knowledge ``field == value``.

    Every test on ``field`` is resolved (to true when it tests ``value``,
    to false otherwise).
    """
    manager = node.manager
    cache = manager.op_cache("restrict_eq")
    root_key = (node.uid, field, value)
    cached = cache.get(root_key)
    if cached is not None:
        return cached
    rank = manager.field_rank(field)
    stack = [node]
    while stack:
        current = stack[-1]
        key = (current.uid, field, value)
        if key in cache:
            stack.pop()
            continue
        if isinstance(current, Leaf):
            cache[key] = current
            stack.pop()
            continue
        assert isinstance(current, Branch)
        if current.field == field:
            child = current.hi if current.value == value else current.lo
            result = cache.get((child.uid, field, value))
            if result is None:
                stack.append(child)
                continue
            cache[key] = result
            stack.pop()
        elif manager.field_rank(current.field) > rank:
            # Ordered diagrams cannot test `field` below this point.
            cache[key] = current
            stack.pop()
        else:
            hi = cache.get((current.hi.uid, field, value))
            lo = cache.get((current.lo.uid, field, value))
            if hi is None or lo is None:
                if hi is None:
                    stack.append(current.hi)
                if lo is None:
                    stack.append(current.lo)
                continue
            cache[key] = manager.branch(current.field, current.value, hi, lo)
            stack.pop()
    return cache[root_key]


def restrict_ne(node: FddNode, field: str, value: int) -> FddNode:
    """Partially evaluate ``node`` under the knowledge ``field != value``.

    Only tests of exactly ``field = value`` are resolved (to false); other
    tests on the same field remain undetermined.
    """
    manager = node.manager
    cache = manager.op_cache("restrict_ne")
    root_key = (node.uid, field, value)
    cached = cache.get(root_key)
    if cached is not None:
        return cached
    rank = manager.field_rank(field)
    stack = [node]
    while stack:
        current = stack[-1]
        key = (current.uid, field, value)
        if key in cache:
            stack.pop()
            continue
        if isinstance(current, Leaf):
            cache[key] = current
            stack.pop()
            continue
        assert isinstance(current, Branch)
        if current.field == field and current.value == value:
            cache[key] = current.lo
            stack.pop()
        elif current.field == field and current.value > value:
            # Tests increase strictly along paths, so `field = value`
            # cannot occur below.
            cache[key] = current
            stack.pop()
        elif current.field != field and manager.field_rank(current.field) > rank:
            cache[key] = current
            stack.pop()
        else:
            hi = cache.get((current.hi.uid, field, value))
            lo = cache.get((current.lo.uid, field, value))
            if hi is None or lo is None:
                if hi is None:
                    stack.append(current.hi)
                if lo is None:
                    stack.append(current.lo)
                continue
            cache[key] = manager.branch(current.field, current.value, hi, lo)
            stack.pop()
    return cache[root_key]


def restrict_action(node: FddNode, action: Action) -> FddNode:
    """Partially evaluate ``node`` after the modifications of ``action``."""
    result = node
    for field, value in action.mods:
        result = restrict_eq(result, field, value)
    return result


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------

def _min_test(manager: FddManager, nodes: Sequence[FddNode]) -> tuple[str, int] | None:
    """The smallest root test among the given nodes (None when all leaves)."""
    best: tuple[int, int] | None = None
    best_test: tuple[str, int] | None = None
    for node in nodes:
        if isinstance(node, Branch):
            key = manager.test_key(node.field, node.value)
            if best is None or key < best:
                best = key
                best_test = (node.field, node.value)
    return best_test


def _weight_key(weight) -> tuple[int, int]:
    """Representation-independent cache key of a probability weight."""
    return weight.as_integer_ratio()


# ---------------------------------------------------------------------------
# convex combination and conditionals
# ---------------------------------------------------------------------------

_Parts = tuple[tuple[FddNode, object], ...]


def _convex_key(parts: _Parts) -> tuple:
    return tuple((node.uid, _weight_key(weight)) for node, weight in parts)


def _convex_resolve(cache: dict, parts: _Parts) -> FddNode | None:
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    return cache.get(_convex_key(parts))


def convex(manager: FddManager, parts: Sequence[tuple[FddNode, object]]) -> FddNode:
    """Convex combination ``Σ_i w_i · d_i`` of FDDs (weights sum to 1)."""
    filtered: _Parts = tuple(
        (node, weight) for node, weight in parts if weight != 0
    )
    if not filtered:
        raise ValueError("convex combination of an empty family")
    quick = _convex_resolve(manager.op_cache("convex"), filtered)
    if quick is not None:
        return quick
    cache = manager.op_cache("convex")
    stack: list[_Parts] = [filtered]
    while stack:
        current = stack[-1]
        key = _convex_key(current)
        if key in cache:
            stack.pop()
            continue
        test = _min_test(manager, [node for node, _ in current])
        if test is None:
            dists = [(node.dist, weight) for node, weight in current]  # type: ignore[union-attr]
            cache[key] = manager.leaf(Dist.convex(dists, check=False))
            stack.pop()
            continue
        field, value = test
        hi_parts: _Parts = tuple(
            (restrict_eq(node, field, value), weight) for node, weight in current
        )
        lo_parts: _Parts = tuple(
            (restrict_ne(node, field, value), weight) for node, weight in current
        )
        hi = _convex_resolve(cache, hi_parts)
        lo = _convex_resolve(cache, lo_parts)
        if hi is None or lo is None:
            if hi is None:
                stack.append(hi_parts)
            if lo is None:
                stack.append(lo_parts)
            continue
        cache[key] = manager.branch(field, value, hi, lo)
        stack.pop()
    return cache[_convex_key(filtered)]


def _is_true_leaf(manager: FddManager, node: FddNode) -> bool:
    return node is manager.true_leaf


def _is_false_leaf(manager: FddManager, node: FddNode) -> bool:
    return node is manager.false_leaf


def _ite_shortcut(
    manager: FddManager, guard: FddNode, then: FddNode, otherwise: FddNode
) -> FddNode | None:
    """Terminal cases of ``ite`` (None when a split is required)."""
    if guard is manager.true_leaf:
        return then
    if guard is manager.false_leaf:
        return otherwise
    if isinstance(guard, Leaf):
        raise ValueError(f"guard FDD has a non-boolean leaf: {guard!r}")
    if then is otherwise:
        return then
    return None


def _ite_resolve(
    manager: FddManager, cache: dict, guard: FddNode, then: FddNode, otherwise: FddNode
) -> FddNode | None:
    quick = _ite_shortcut(manager, guard, then, otherwise)
    if quick is not None:
        return quick
    return cache.get((guard.uid, then.uid, otherwise.uid))


def ite(guard: FddNode, then: FddNode, otherwise: FddNode) -> FddNode:
    """Conditional: behave as ``then`` where ``guard`` is true, else ``otherwise``.

    ``guard`` must be a *predicate* FDD, i.e. its leaves are the constant
    true leaf (identity action) or the constant false leaf (drop).
    """
    manager = guard.manager
    cache = manager.op_cache("ite")
    quick = _ite_resolve(manager, cache, guard, then, otherwise)
    if quick is not None:
        return quick
    root_key = (guard.uid, then.uid, otherwise.uid)
    stack = [(guard, then, otherwise)]
    while stack:
        g, t, o = stack[-1]
        key = (g.uid, t.uid, o.uid)
        if key in cache:
            stack.pop()
            continue
        # Frames are only pushed when no shortcut applies, so ``g`` is a
        # branch and a smallest test exists.
        test = _min_test(manager, (g, t, o))
        assert test is not None
        field, value = test
        hi_g = restrict_eq(g, field, value)
        hi_t = restrict_eq(t, field, value)
        hi_o = restrict_eq(o, field, value)
        lo_g = restrict_ne(g, field, value)
        lo_t = restrict_ne(t, field, value)
        lo_o = restrict_ne(o, field, value)
        hi = _ite_resolve(manager, cache, hi_g, hi_t, hi_o)
        lo = _ite_resolve(manager, cache, lo_g, lo_t, lo_o)
        if hi is None or lo is None:
            if hi is None:
                stack.append((hi_g, hi_t, hi_o))
            if lo is None:
                stack.append((lo_g, lo_t, lo_o))
            continue
        cache[key] = manager.branch(field, value, hi, lo)
        stack.pop()
    return cache[root_key]


def negate(pred: FddNode) -> FddNode:
    """Negation of a predicate FDD."""
    manager = pred.manager
    return ite(pred, manager.false_leaf, manager.true_leaf)


def conjoin(left: FddNode, right: FddNode) -> FddNode:
    """Conjunction of two predicate FDDs."""
    manager = left.manager
    return ite(left, right, manager.false_leaf)


def disjoin(left: FddNode, right: FddNode) -> FddNode:
    """Disjunction of two predicate FDDs."""
    manager = left.manager
    return ite(left, manager.true_leaf, right)


def is_predicate_fdd(node: FddNode) -> bool:
    """True when every leaf is the constant true or false leaf."""
    manager = node.manager
    from repro.core.fdd.node import leaves

    return all(
        leaf is manager.true_leaf or leaf is manager.false_leaf for leaf in leaves(node)
    )


# ---------------------------------------------------------------------------
# leaf-wise transformation and sequencing
# ---------------------------------------------------------------------------

def map_leaves(
    node: FddNode,
    func: Callable[[Dist[ActionOrDrop]], Dist[ActionOrDrop]],
    _cache: dict[int, FddNode] | None = None,
) -> FddNode:
    """Apply ``func`` to every leaf distribution, rebuilding the diagram."""
    manager = node.manager
    cache = _cache if _cache is not None else {}
    stack = [node]
    while stack:
        current = stack[-1]
        if current.uid in cache:
            stack.pop()
            continue
        if isinstance(current, Leaf):
            cache[current.uid] = manager.leaf(func(current.dist))
            stack.pop()
            continue
        assert isinstance(current, Branch)
        hi = cache.get(current.hi.uid)
        lo = cache.get(current.lo.uid)
        if hi is None or lo is None:
            if hi is None:
                stack.append(current.hi)
            if lo is None:
                stack.append(current.lo)
            continue
        cache[current.uid] = manager.branch(current.field, current.value, hi, lo)
        stack.pop()
    return cache[node.uid]


def sequence(first: FddNode, second: FddNode) -> FddNode:
    """Sequential composition of two FDDs (``first ; second``).

    For every path of ``first`` ending in an action distribution, each
    action ``a`` is composed with ``second`` evaluated on the packet *as
    modified by* ``a``: fields written by ``a`` take their new values,
    while fields left untouched take the values learned from the tests
    along the path through ``first`` (equalities on true-branches,
    disequalities on false-branches).
    """
    return _sequence(first, second, (), ())


_Eqs = tuple[tuple[str, int], ...]
_Neqs = tuple[tuple[str, int], ...]


def _sequence(first: FddNode, second: FddNode, eqs: _Eqs, neqs: _Neqs) -> FddNode:
    manager = first.manager
    cache = manager.op_cache("sequence")
    root_key = (first.uid, second.uid, eqs, neqs)
    cached = cache.get(root_key)
    if cached is not None:
        return cached
    stack = [(first, second, eqs, neqs)]
    while stack:
        fst, snd, eq, ne = stack[-1]
        key = (fst.uid, snd.uid, eq, ne)
        if key in cache:
            stack.pop()
            continue
        if isinstance(fst, Leaf):
            cache[key] = _sequence_leaf(manager, fst.dist, snd, eq, ne)
            stack.pop()
            continue
        assert isinstance(fst, Branch)
        field, value = fst.field, fst.value
        hi_eq = eq + ((field, value),)
        lo_ne = ne + ((field, value),)
        hi = cache.get((fst.hi.uid, snd.uid, hi_eq, ne))
        lo = cache.get((fst.lo.uid, snd.uid, eq, lo_ne))
        if hi is None or lo is None:
            if hi is None:
                stack.append((fst.hi, snd, hi_eq, ne))
            if lo is None:
                stack.append((fst.lo, snd, eq, lo_ne))
            continue
        guard = manager.branch(field, value, manager.true_leaf, manager.false_leaf)
        cache[key] = ite(guard, hi, lo)
        stack.pop()
    return cache[root_key]


def _sequence_leaf(
    manager: FddManager,
    dist: Dist[ActionOrDrop],
    second: FddNode,
    eqs: _Eqs,
    neqs: _Neqs,
) -> FddNode:
    parts: list[tuple[FddNode, object]] = []
    for action, prob in dist.items():
        if isinstance(action, _DropType):
            parts.append((manager.false_leaf, prob))
            continue
        # Knowledge about the intermediate packet: the action's writes win;
        # unmodified fields keep what the path through `first` tells us.
        restricted = restrict_action(second, action)
        for field, value in eqs:
            if not action.modifies(field):
                restricted = restrict_eq(restricted, field, value)
        for field, value in neqs:
            if not action.modifies(field):
                restricted = restrict_ne(restricted, field, value)
        composed = map_leaves(
            restricted,
            lambda leaf_dist, action=action: leaf_dist.map(
                lambda after: action.then(after)
            ),
        )
        parts.append((composed, prob))
    return convex(manager, parts)


def reduce(node: FddNode) -> FddNode:
    """Normalise an FDD by dropping modifications implied by path tests.

    Along the true-branch of a test ``f = v`` the input packet is known to
    have ``f = v``; a leaf modification ``f := v`` below that branch is
    therefore a no-op and is removed.  This brings semantically equal
    diagrams (e.g. those of ``f=1 ; f<-1`` and ``f=1``) to the same
    canonical node, which is what makes FDD equality a sound *and*
    complete equivalence check for the programs the compiler produces.
    """
    manager = node.manager
    cache = manager.op_cache("reduce")
    root_key = (node.uid, ())
    cached = cache.get(root_key)
    if cached is not None:
        return cached
    stack: list[tuple[FddNode, _Eqs]] = [(node, ())]
    while stack:
        current, eqs = stack[-1]
        key = (current.uid, eqs)
        if key in cache:
            stack.pop()
            continue
        if isinstance(current, Leaf):
            cache[key] = manager.leaf(current.dist.map(_simplifier(dict(eqs))))
            stack.pop()
            continue
        assert isinstance(current, Branch)
        hi_eqs = eqs + ((current.field, current.value),)
        hi = cache.get((current.hi.uid, hi_eqs))
        lo = cache.get((current.lo.uid, eqs))
        if hi is None or lo is None:
            if hi is None:
                stack.append((current.hi, hi_eqs))
            if lo is None:
                stack.append((current.lo, eqs))
            continue
        cache[key] = manager.branch(current.field, current.value, hi, lo)
        stack.pop()
    return cache[root_key]


def _simplifier(known: dict[str, int]):
    """Leaf-map dropping modifications already implied by path tests."""

    def simplify(action: ActionOrDrop) -> ActionOrDrop:
        if isinstance(action, _DropType):
            return action
        kept = {
            field: value
            for field, value in action.mods
            if known.get(field) != value
        }
        return Action(kept)

    return simplify


def sequence_all(nodes: Sequence[FddNode]) -> FddNode:
    """Sequential composition ``n1 ; n2 ; … ; nk`` of several FDDs.

    Composition is associative, so the grouping is free to choose, and it
    decides how large the intermediate diagrams get.  The parts are
    grouped to the right, ``n1 ; (n2 ; (… ; nk))``: trailing writes (flag
    resets, ``pt <- v``) simplify the suffix before an earlier part is
    composed into it, so a run of independent coin flips ``f_i <- 0 ⊕
    f_i <- 1`` followed by code that tests and then resets the flags is
    integrated out one flip at a time, instead of building one leaf with
    all ``2^d`` joint outcomes and carrying it through the rest.

    Exception: the longest trailing run whose fields (tested or written)
    are disjoint from those of every earlier part — a hop counter after a
    routing step — is composed last, onto the finished head.  Folding it
    into each intermediate suffix would multiply every one of them by the
    run's own diagram.

    The grouping never changes the result's semantics, and after
    :func:`reduce` every grouping yields the identical canonical node.
    """
    if not nodes:
        raise ValueError("sequence_all of an empty family")
    split = _independent_tail(nodes)
    head = _sequence_right(nodes[:split])
    if split == len(nodes):
        return head
    return sequence(head, _sequence_right(nodes[split:]))


def _sequence_right(nodes: Sequence[FddNode]) -> FddNode:
    result = nodes[-1]
    for node in reversed(nodes[:-1]):
        result = sequence(node, result)
    return result


def _independent_tail(nodes: Sequence[FddNode]) -> int:
    """Start of the longest trailing run sharing no field with the parts before it.

    ``len(nodes)`` when there is no such run; never ``0``, so the head
    keeps at least one part.
    """
    fields = [_node_fields(node) for node in nodes]
    for split in range(1, len(nodes)):
        if set().union(*fields[:split]).isdisjoint(set().union(*fields[split:])):
            return split
    return len(nodes)


def _node_fields(node: FddNode) -> frozenset[str]:
    """Fields a diagram tests or writes (one walk, memoized per root)."""
    cache = node.manager.op_cache("fields")
    fields = cache.get(node.uid)
    if fields is None:
        found: set[str] = set()
        for current in iter_nodes(node):
            if isinstance(current, Branch):
                found.add(current.field)
            else:
                for action in current.dist.support():
                    if isinstance(action, Action):
                        found.update(action.fields)
        fields = cache[node.uid] = frozenset(found)
    return fields
