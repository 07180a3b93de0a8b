"""Exact reference computations for small instances.

One exhaustive search, branch-and-bound in integer weights on the normal
form, computes the canonical optimum: maximum weight, ties broken toward
the lexicographically smallest sorted edge-id tuple.  A k-matroid
intersection is searched on its parity reduction.  The search skips the
edges that the instance's structural conflict table rules out, and
``EXACT_BUDGET`` bounds its work, whatever the instance's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .instance import ParityInstance, Solution, from_matroid_intersection
from .matroids import MatroidOracle
from .serialization import instance_signature
from .solver import MAX_MARKER_BITS, SolverTrace, marker_bits

# Most steps the exact search takes: each node, each vertex of a set it
# asks the oracle about and each vertex of a conflict class it reads is one.
EXACT_BUDGET = 2**22


class SizeLimitExceeded(ValueError):
    """Instance too large for exhaustive search."""


class TraceMismatch(ValueError):
    """The trace does not belong to the given instance."""


@dataclass(frozen=True)
class ExactResult:
    optimum: Solution
    explored: int


def brute_force_optimum(instance: ParityInstance) -> ExactResult:
    """Canonical exact optimum, by depth-first include/exclude, heaviest edge first.

    Weights are the instance's integer numerators over their common
    denominator, so every sum and bound is an integer operation.  Only
    edges feasible alone are decided, by decreasing weight, ties by id;
    the first edge taken therefore needs no query.  An edge taken blocks
    the later edges that meet one of its parallel classes
    (``ParityInstance.conflicts``), which are then passed over without a
    query or a node.  A subtree is cut when even all of its remaining
    unblocked weight could not reach the best found so far.  The cut is
    strict (``weight + rest < best``), and every prefix of a feasible set
    is feasible, holds only edges feasible alone and no conflicting pair,
    so each maximum-weight feasible set is still reached as a node;
    comparing the sorted id tuple of each node at least as heavy as the
    best therefore yields the same canonical optimum as any other
    visiting order.  Only ``explored``, the node count, depends on the
    order.  Edges of the normal form are disjoint, so a set is feasible
    exactly when its vertex union is independent.  That union holds no
    two vertices of one parallel class, so it is asked of the matroid's
    class-free rung (``MatroidOracle._class_free_query``).

    The search keeps its own stack, so its depth is not Python's
    recursion limit, and it raises ``SizeLimitExceeded`` once it passes
    ``EXACT_BUDGET`` steps, a count that does not depend on the machine.
    """
    edges, conflicts = instance.edges, instance.conflicts
    indep = instance.matroid._class_free_query()
    order = instance._lone_order
    n = len(order)
    numerators = instance.weight_numerators
    weight_at = [numerators[j] for j in order]
    owner = [-1] * instance.num_vertices  # position in ``order`` of each vertex's edge
    for p, j in enumerate(order):
        for v in edges[j]:
            owner[v] = p
    blocked = bytearray(n)

    best_weight = 0
    best_key: tuple[int, ...] = ()
    explored = steps = 0
    chosen: list[int] = []
    used: set[int] = set()  # the vertices of ``chosen``
    # Per chosen edge: its position, the weight and rest before it, and the positions it blocked.
    taken: list[tuple[int, int, int, list[int]]] = []
    # The node: decide positions from i on, holding ``weight``, with ``rest``
    # the weight of the unblocked positions from i on.
    i, weight, rest = 0, 0, sum(weight_at)
    while True:
        steps += 1
        if steps > EXACT_BUDGET:
            raise SizeLimitExceeded(
                f"the exact search passed its budget of {EXACT_BUDGET} steps after {explored} nodes"
            )
        explored += 1
        if weight >= best_weight:
            key = tuple(sorted(chosen))
            if weight > best_weight or key < best_key:
                best_weight = weight
                best_key = key
        if weight + rest >= best_weight:
            while i < n and blocked[i]:
                i += 1
            if i < n:
                j, w = order[i], weight_at[i]
                used.update(edges[j])
                if chosen:
                    steps += len(used)
                if not chosen or indep(used):
                    newly: list[int] = []
                    left = rest - w
                    for cls in conflicts[j]:
                        steps += len(cls)
                        for v in cls:
                            q = owner[v]
                            if q > i and not blocked[q]:
                                blocked[q] = 1
                                newly.append(q)
                                left -= weight_at[q]
                    taken.append((i, weight, rest, newly))
                    chosen.append(j)
                    i, weight, rest = i + 1, weight + w, left
                    continue
                used.difference_update(edges[j])
                i, rest = i + 1, rest - w  # the edge left out
                continue
        if not taken:
            break
        p, weight, rest, newly = taken.pop()
        used.difference_update(edges[chosen.pop()])
        for q in newly:
            blocked[q] = 0
        i, rest = p + 1, rest - weight_at[p]  # the edge left out

    weight = Fraction(best_weight, instance.weight_denominator)
    return ExactResult(optimum=Solution(frozenset(best_key), weight), explored=explored)


def brute_force_intersection(
    matroids: Sequence[MatroidOracle],
    weights: Sequence[Fraction],
) -> Solution:
    """Canonical max-weight common independent set of several matroids.

    ``brute_force_optimum`` on the parity form that
    ``from_matroid_intersection`` builds, whose edge j is element j, so
    the same tie-break and ``EXACT_BUDGET`` apply.  The reduction refuses
    no matroids, a ground set other than ``0..n-1`` or a negative weight
    with ``InstanceError`` before any query.
    """
    return brute_force_optimum(from_matroid_intersection(matroids, weights)).optimum


class TraceRefuted(ValueError):
    """The trace contradicts its instance; the message names the failed check."""


def check_trace(instance: ParityInstance, trace: SolverTrace) -> dict[int, int]:
    """Check that a trace belongs to its instance; map each lone-feasible edge to its interval.

    Nothing in the trace that the instance determines is trusted.  Raises
    ``TraceMismatch`` when the signature is another instance's, and
    ``TraceRefuted``, its message starting with the check's name, unless
    all of these hold:

    * the scheme's epsilon and tau, if it has one, are the trace's, and
      the trace's epsilon, delta and tau lie in the solver's ranges;
    * a degenerate trace (no scheme) belongs to an instance with no
      positive lone-feasible weight, and has no records and no edges;
      its map is empty;
    * the scheme's heaviest feasible weight is the instance's, its
      deepest marker stays within ``MAX_MARKER_BITS``, and its level
      count is the least with
      ``(1 - epsilon)^(levels - 1) <= delta / m`` for the trace's delta,
      checked by one pair of integer powers, cross-multiplied, rather
      than a loop whose length epsilon would set;
    * the record indices are exactly the occupied intervals, those that
      hold a lone-feasible edge by ``interval_of``, in increasing order;
      every added edge is the integer id of an edge feasible alone, lies
      in its record's interval and is added once; each record's swaps,
      replayed from nothing, end at exactly its added edges, each adding
      one or two distinct edges of the interval that are not held and
      removing at most ``2 * arity`` distinct held ones, for the positive
      gain its edges give (set and integer arithmetic, no query); the
      added edges weigh ``final_weight``; and every prefix that grew is
      feasible, one query per such interval.
    """
    if trace.instance_signature != instance_signature(instance):
        raise TraceMismatch("trace was produced for a different instance")
    # Integer numerators over ``den``; trace values are compared by cross-multiplying.
    numerators, den = instance.weight_numerators, instance.weight_denominator
    lone = [j for j in range(instance.num_edges) if instance.feasible_alone[j]]
    heaviest = max((numerators[j] for j in lone), default=0)
    scheme, epsilon, tau, delta = trace.scheme, trace.epsilon, trace.tau, trace.delta
    if scheme is not None and (scheme.epsilon, scheme.tau) != (epsilon, tau):
        raise TraceRefuted("parameters: the scheme's epsilon and tau are not the trace's")
    en, ed, dn, dd = epsilon.numerator, epsilon.denominator, delta.numerator, delta.denominator
    if not (0 < 2 * en < ed and 0 < dn < dd and 0 <= tau.numerator * ed < en * tau.denominator):
        raise TraceRefuted("parameter ranges: epsilon, delta or tau is out of range")
    if scheme is None:
        # A degenerate run searched nothing, so it must have nothing to show.
        if heaviest or trace.records or trace.final_weight:
            raise TraceRefuted("degenerate trace: the instance or the run is not degenerate")
        return {}

    levels, top = scheme.levels, scheme.max_feasible_weight
    if heaviest == 0 or top.numerator * den != heaviest * top.denominator:
        raise TraceRefuted("heaviest weight: not the instance's positive lone-feasible one")
    if levels < 1 or marker_bits(epsilon, tau, top, levels) > MAX_MARKER_BITS:
        raise TraceRefuted(f"level count: {levels} is below 1 or over the marker budget")
    # With 1 - epsilon = p/q, (p/q)^(levels-1) <= dn/tail_den < (p/q)^(levels-2), the
    # right side being (p/q)^(levels-1) * q/p, so levels = 1 needs no negative power.
    p, q, tail_den = ed - en, ed, dd * instance.num_edges
    pp, qq = p ** (levels - 1), q ** (levels - 1)
    if not (pp * tail_den <= dn * qq and dn * qq * p < pp * q * tail_den):
        raise TraceRefuted(f"level count: {levels} is not the instance's")
    # Every lone-feasible weight is at most the top marker, since tau < epsilon.
    own = {j: scheme._deepest_at_or_above(numerators[j], den) + 1 for j in lone}
    records = trace.records
    if [r.index for r in records] != sorted(set(own.values())):
        raise TraceRefuted("record indices: not the occupied intervals")
    seen: set[int] = set()
    grown: set[int] = set()  # the vertices of ``seen``
    for record in records:
        for j in record.added:
            if type(j) is not int or j in seen or own.get(j) != record.index:
                raise TraceRefuted(f"added edges: {j!r} twice or outside interval {record.index}")
            seen.add(j)
            grown |= instance.edges[j]
        held: set[int] = set()  # the record's swaps, replayed from nothing
        for move in record.swaps:
            add, remove = set(move.add), set(move.remove)
            if not (
                0 < len(add) == len(move.add) <= 2
                and all(own.get(j) == record.index for j in add)
                and not add & held
                and len(remove) == len(move.remove) <= 2 * instance.arity
                and remove <= held
            ):
                raise TraceRefuted(f"swaps: {move} does not fit interval {record.index}")
            # The claimed gain must be gain / den; cross-multiplying builds no Fraction.
            gain = sum(numerators[j] for j in add) - sum(numerators[j] for j in remove)
            if gain <= 0 or gain * move.gain.denominator != move.gain.numerator * den:
                raise TraceRefuted(f"swaps: {move} does not gain what its edges give")
            held = (held - remove) | add
        if held != set(record.added):
            raise TraceRefuted(f"swaps: interval {record.index} does not end at its added edges")
        if record.added and not instance.matroid.is_independent(grown):
            raise TraceRefuted(f"prefix feasibility: the prefix of interval {record.index}")
    final = trace.final_weight
    if final.numerator * den != sum(numerators[j] for j in seen) * final.denominator:
        raise TraceRefuted("final weight: not the added edges' weight")
    return own


def verify_local_optimum(instance: ParityInstance, trace: SolverTrace) -> bool:
    """Check a trace against the instance, then re-check its local optimality.

    The trace is refuted (False) unless ``check_trace`` accepts it; a
    trace of another instance raises ``TraceMismatch``.  Then it replays
    the per-interval prefix solutions and enumerates every candidate swap
    from scratch, with none of the solver's pruning, in integer weight
    numerators over the instance's common denominator.  The only cut is
    by size: once the lightest removal set of a size weighs at least the
    addition, no set of that size or larger can improve, since weights
    are nonnegative.  Returns False as soon as one improving swap is found.
    """
    try:
        own = check_trace(instance, trace)
    except TraceRefuted:
        return False
    numerators, edges = instance.weight_numerators, instance.edges
    inside: dict[int, list[int]] = {}
    for j, i in own.items():
        inside.setdefault(i, []).append(j)

    prefix: set[int] = set()
    base: frozenset[int] = frozenset()  # the vertices of ``prefix``
    for record in trace.records:
        prefix.update(record.added)
        base = base.union(*(edges[j] for j in record.added))
        outside_sol = [j for j in inside[record.index] if j not in prefix]
        in_sol = [j for j in inside[record.index] if j in prefix]
        # lightest[s]: the least weight any s edges of in_sol can have.
        lightest = [0]
        for w in sorted(numerators[j] for j in in_sol):
            lightest.append(lightest[-1] + w)
        for add_size in (1, 2):
            for add in combinations(outside_sol, add_size):
                add_w = sum(numerators[j] for j in add)
                add_verts = frozenset().union(*(edges[j] for j in add))
                for rem_size in range(0, min(2 * instance.arity, len(in_sol)) + 1):
                    if lightest[rem_size] >= add_w:
                        break  # every removal set of this size or larger loses too much
                    for rem in combinations(in_sol, rem_size):
                        if add_w <= sum(numerators[j] for j in rem):
                            continue
                        target = base.difference(*(edges[j] for j in rem)) | add_verts
                        if instance.matroid.is_independent(target):
                            return False
    return True
