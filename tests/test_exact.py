import dataclasses
import random
import time
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PublicOnly
from test_matroids import oracles
from mpls.exact import (
    EXACT_BUDGET,
    SizeLimitExceeded,
    TraceMismatch,
    TraceRefuted,
    brute_force_intersection,
    brute_force_optimum,
    check_trace,
    verify_local_optimum,
)
from mpls.exchange import build_conflict_trace, verify_conflict_trace
from mpls.generators import generate, random_partition_matroids
from mpls.instance import (
    ParityInstance,
    Solution,
    from_matroid_intersection,
    make_disjoint,
)
from mpls.matroids import (
    FreeMatroid,
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
)
from mpls.serialization import FormatError, instance_signature, matroid_from_descriptor
from mpls.solver import (
    MAX_MARKER_BITS,
    IntervalRecord,
    IntervalScheme,
    SwapMove,
    compute_markers,
    marker_bits,
    scale_weights,
    sliding_local_search,
    trace_from_json_obj,
    trace_to_json_obj,
)

EPS = Fraction("0.3873")
DELTA = Fraction("0.0001")


def small_instances():
    out = []
    for seed in range(10):
        out.append(generate("set-packing", n=7, m=6, k=3, seed=seed))
    for seed in range(10):
        out.append(generate("graphic-parity", n=4, m=5, k=2, seed=seed))
    for seed in range(10):
        out.append(generate("k-mi-partition", n=4, k=2, seed=seed))
    return out


class RawFields(NamedTuple):
    """Raw instance data, whose edges may share vertices, in the order
    ``make_disjoint`` takes it: ``make_disjoint(*raw)`` normalizes it."""

    num_vertices: int
    edges: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]
    matroid: MatroidOracle
    arity: int


def raw_fields(doc):
    """The raw fields of an instance document."""
    return RawFields(
        doc.num_vertices,
        tuple(frozenset(v) for v in doc.edge_verts),
        tuple(doc.edge_weights),
        matroid_from_descriptor(doc.matroid_desc),
        doc.arity,
    )


def flat_scan_optimum(instance):
    """Reference optimum of raw fields or a normalized instance: a flat scan over
    every edge subset, with its own disjointness test; deliberately simple.

    Returns the canonical optimum and the number of subsets scanned.
    """
    edges, weights, matroid = instance.edges, instance.weights, instance.matroid
    m = len(edges)
    best_key: tuple[int, ...] | None = None
    best_weight = Fraction(0)
    explored = 0
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            explored += 1
            used: set[int] = set()
            ok = True
            for j in combo:
                e = edges[j]
                if used & e:
                    ok = False
                    break
                used |= e
            if not ok or not matroid.is_independent(used):
                continue
            w = sum((weights[j] for j in combo), Fraction(0))
            if w > best_weight or (w == best_weight and (best_key is None or combo < best_key)):
                best_weight = w
                best_key = combo
    return Solution(frozenset(best_key or ()), best_weight), explored


def flat_scan_intersection(matroids, weights):
    """Reference optimum of a k-matroid intersection: a flat scan over every
    element subset that asks each matroid directly, with no reduction.
    """
    best_key, best_weight = (), Fraction(0)
    for size in range(1, len(weights) + 1):
        for combo in combinations(range(len(weights)), size):
            w = sum((weights[j] for j in combo), Fraction(0))
            if (w > best_weight or (w == best_weight and combo < best_key)) and all(
                m.is_independent(combo) for m in matroids
            ):
                best_key, best_weight = combo, w
    return Solution(frozenset(best_key), best_weight)


def test_enumeration_and_branch_and_bound_agree():
    for inst in small_instances():
        slow, _ = flat_scan_optimum(inst)
        assert brute_force_optimum(inst).optimum == slow


def test_canonical_tie_break_prefers_lex_smallest_ids():
    inst = ParityInstance(
        3,
        (frozenset([0]), frozenset([1]), frozenset([2])),
        (Fraction(5), Fraction(5), Fraction(5)),
        UniformMatroid(3, 1),
        1,
    )
    for optimum in (flat_scan_optimum(inst)[0], brute_force_optimum(inst).optimum):
        assert optimum.edges == frozenset([0])
        assert optimum.weight == Fraction(5)


def test_subset_enumeration_visits_every_subset():
    inst = generate("set-packing", n=6, m=4, k=2, seed=0)
    optimum, explored = flat_scan_optimum(inst)
    assert explored == 2 ** 4
    pruned = brute_force_optimum(inst)
    assert pruned.explored <= 2 ** 4
    assert pruned.optimum == optimum


@st.composite
def overlapping_instances(draw):
    """Up to 12 possibly overlapping edges under an oracle of any family or combinator.

    Weights have numerators 0-3 over denominators 1-3, so ties and zero
    weights are common.
    """
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.frozensets(vertex, min_size=1, max_size=3), max_size=12))
    weights = [
        Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 3))) for _ in edges
    ]
    return RawFields(n, tuple(edges), tuple(weights), draw(oracles(n)), 3)


@settings(max_examples=300, deadline=None)
@given(overlapping_instances())
def test_branch_and_bound_matches_subset_enumeration(raw):
    norm = make_disjoint(*raw)
    scaled = scale_weights(norm, Fraction(1, 10))  # before the table is built
    fast = brute_force_optimum(norm).optimum
    assert flat_scan_optimum(raw)[0] == fast
    assert flat_scan_optimum(norm)[0] == fast
    # A scaled copy carries the built table over, or builds the same one.
    carried = scale_weights(norm, Fraction(1, 10)).conflicts
    assert carried == scaled.conflicts == make_disjoint(*raw).conflicts


def test_branch_and_bound_visits_heaviest_edges_first():
    # Taking edges by id order instead explores 710 nodes here.
    inst = generate("k-mi-partition", n=18, k=3, seed=0)
    result = brute_force_optimum(inst)
    assert result.explored == 87
    assert sorted(result.optimum.edges) == [0, 1, 3, 4, 5, 6, 9, 12, 13, 14, 15, 16]
    assert result.optimum.weight == Fraction(71623, 100)


def wide_instance(m):
    return ParityInstance(
        m,
        tuple(frozenset([v]) for v in range(m)),
        tuple(Fraction(v + 1) for v in range(m)),
        FreeMatroid(m),
        1,
    )


def test_size_limits():
    # No edge cap: a search deeper than the recursion limit keeps its own stack.
    result = brute_force_optimum(wide_instance(1200))
    assert result.optimum.weight == Fraction(1200 * 1201, 2)
    assert result.optimum.edges == frozenset(range(1200))
    assert result.explored == 2401

    # Equal weights under a uniform matroid leave the cut nothing to prune.
    assert EXACT_BUDGET == 2**22
    refusal = "^the exact search passed its budget of 4194304 steps after 238303 nodes$"
    with pytest.raises(SizeLimitExceeded, match=refusal):
        brute_force_optimum(singles([1] * 40, UniformMatroid(40, 20)))
    # An intersection's elements are the edges of its parity reduction.
    with pytest.raises(SizeLimitExceeded, match=refusal):
        brute_force_intersection([UniformMatroid(40, 20)], [Fraction(1)] * 40)


@st.composite
def mixed_intersections(draw):
    """1 to 3 matroids on up to 8 elements: uniform, graphic, generated
    partition, or any oracle ``oracles`` draws; weights 0-3 over 1-2, so
    ties and zero weights are common."""
    n = draw(st.integers(0, 8))
    matroids = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("uniform", "graphic", "partition", "any")))
        if kind == "any":
            matroids.append(draw(oracles(n)))
        elif kind == "uniform":
            matroids.append(UniformMatroid(n, draw(st.integers(0, n))))
        elif kind == "graphic":
            ends = st.tuples(st.integers(0, 3), st.integers(0, 3))
            matroids.append(GraphicMatroid(4, draw(st.lists(ends, min_size=n, max_size=n))))
        else:
            matroids.append(random_partition_matroids(n, 1, draw(st.integers(0, 2**32 - 1)))[0])
    weights = [Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 2))) for _ in range(n)]
    return matroids, weights


@settings(deadline=None)
@given(mixed_intersections())
def test_intersection_enumeration_matches_parity_reduction(case):
    matroids, weights = case
    optimum = brute_force_intersection(matroids, weights)
    assert optimum == flat_scan_intersection(matroids, weights)
    assert optimum == flat_scan_optimum(from_matroid_intersection(matroids, weights))[0]


def test_intersection_search_asks_each_matroid_at_most_once_per_node():
    # k-mi-partition writes the same matroids as one partition matroid over
    # copy blocks, with the same capacity-1 blocks; the wrappers state their
    # bases' blocks, so both forms run the same 87-node search; a flat scan
    # asks up to 2**18 subsets.
    inst = generate("k-mi-partition", n=18, k=3, seed=0)
    seed = random.Random(0).getrandbits(32)
    matroids = [PublicOnly(m) for m in random_partition_matroids(18, 3, seed)]
    assert brute_force_intersection(matroids, inst.weights) == brute_force_optimum(inst).optimum
    assert all(0 < m.asked <= 87 for m in matroids)


def test_solver_traces_verify_as_locally_optimal():
    cases = [
        generate("set-packing", n=7, m=6, k=3, seed=2),
        generate("graphic-parity", n=4, m=5, k=2, seed=4),
        generate("greedy-trap", k=3, rho=Fraction(3, 10)),
    ]
    for inst in cases:
        for seed in (0, 1, 2):
            _, trace = sliding_local_search(inst, EPS, DELTA, seed)
            assert verify_local_optimum(inst, trace)


def test_tampered_trace_is_rejected():
    inst = generate("greedy-trap", k=3, rho=Fraction(3, 10))
    # seed 2 draws a shift above rho, so the run recovers all three light edges
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=2)
    assert sorted(trace.final_edges) == [1, 2, 3]
    records = []
    for record in trace.records:
        if 3 in record.added:
            # Drop edge 3 and the swap that added it, so the trace passes
            # check_trace and only the replay of the search can object.
            assert record.swaps[-1].add == (3,)
            record = dataclasses.replace(
                record, added=tuple(j for j in record.added if j != 3), swaps=record.swaps[:-1]
            )
        records.append(record)
    tampered = dataclasses.replace(
        trace, records=tuple(records), final_weight=trace.final_weight - Fraction(7, 10)
    )
    assert check_trace(inst, tampered)
    assert not verify_local_optimum(inst, tampered)


def test_trace_for_wrong_instance_is_refused():
    inst = generate("set-packing", n=7, m=6, k=3, seed=2)
    other = generate("set-packing", n=7, m=6, k=3, seed=3)
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=0)
    with pytest.raises(TraceMismatch):
        verify_local_optimum(other, trace)


def test_trace_for_a_different_matroid_is_refused():
    def one_block(capacity):
        return ParityInstance(
            2,
            (frozenset([0]), frozenset([1])),
            (Fraction(2), Fraction(1)),
            PartitionMatroid([[0, 1]], [capacity]),
            1,
        )

    _, trace = sliding_local_search(one_block(1), EPS, DELTA, seed=0)
    assert verify_local_optimum(one_block(1), trace)
    with pytest.raises(TraceMismatch):
        verify_local_optimum(one_block(2), trace)


def tail_bound_holds(instance, scheme, delta, optimum):
    """Optimum edges lighter than the last positive marker carry at most a
    ``delta`` share of the optimum weight; exact, no tolerance."""
    last_marker = scheme.marker(scheme.levels)
    tail = sum(
        (instance.weights[j] for j in optimum.edges if instance.weights[j] < last_marker),
        Fraction(0),
    )
    return tail <= delta * optimum.weight


def test_tail_bound_holds_for_real_ladders():
    for inst in small_instances()[:12]:
        optimum = brute_force_optimum(inst).optimum
        for tau in (Fraction(0), Fraction(1, 8), Fraction(3, 10)):
            scheme = compute_markers(inst, EPS, DELTA, tau)
            assert tail_bound_holds(inst, scheme, DELTA, optimum)


def test_tail_bound_fails_for_truncated_ladder():
    inst = wide_instance(2)
    inst = dataclasses.replace(inst, weights=(Fraction(1), Fraction(1, 100)))
    optimum = brute_force_optimum(inst).optimum
    assert optimum.edges == frozenset([0, 1])
    # One level is far too few for delta = 1/1000: the last positive marker
    # is 1, so the 1/100 edge falls in the discarded tail.
    doctored = IntervalScheme(
        max_feasible_weight=Fraction(1), epsilon=Fraction(1, 2), tau=Fraction(0), levels=1
    )
    assert [doctored.marker(j) for j in range(3)] == [Fraction(2), Fraction(1), Fraction(0)]
    assert not tail_bound_holds(inst, doctored, Fraction(1, 1000), optimum)


def genuine_trace():
    inst = generate("set-packing", n=7, m=6, k=3, seed=4)
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
    assert trace.final_edges == (4, 5)
    return inst, trace


def with_added(trace, i, added):
    records = list(trace.records)
    records[i] = dataclasses.replace(records[i], added=added)
    return dataclasses.replace(trace, records=tuple(records))


def test_genuine_trace_has_only_occupied_records():
    inst, trace = genuine_trace()
    assert [r.index for r in trace.records] == [1, 3, 4, 5, 6]
    assert trace.scheme.levels == 24


def test_check_trace_maps_each_lone_feasible_edge_to_its_interval():
    inst, trace = genuine_trace()
    own = check_trace(inst, trace)
    lone = [j for j in range(inst.num_edges) if inst.feasible_alone[j]]
    assert own == {j: trace.scheme.interval_of(inst.weights[j]) for j in lone}
    assert sorted(set(own.values())) == [r.index for r in trace.records]


def without_record(trace, i):
    return dataclasses.replace(trace, records=trace.records[:i] + trace.records[i + 1 :])


def with_extra_record(trace, index):
    records = sorted((*trace.records, IntervalRecord(index, (), (), 0)), key=lambda r: r.index)
    return dataclasses.replace(trace, records=tuple(records))


@pytest.mark.parametrize(
    "forge",
    [
        lambda t: without_record(t, 3),  # occupied intervals where nothing was added
        lambda t: without_record(t, 4),
        lambda t: with_extra_record(t, 2),  # unoccupied intervals
        lambda t: with_extra_record(t, 7),
        lambda t: with_extra_record(t, t.scheme.levels + 1),
    ],
    ids=["missing-5", "missing-6", "extra-2", "extra-7", "extra-tail"],
)
def test_trace_without_an_occupied_record_or_with_an_extra_one_is_refuted(forge):
    inst, trace = genuine_trace()
    assert verify_local_optimum(inst, trace)
    assert not verify_local_optimum(inst, forge(trace))


def with_swaps(inst, trace, i, *moves):
    """Record i's swaps replaced by ``moves``, each ``(add, remove)`` or ``(add, remove, gain)``."""
    swaps = []
    for add, remove, *gain in moves:
        given = sum(inst.weights[j] for j in add) - sum(inst.weights[j] for j in remove)
        swaps.append(SwapMove(add, remove, gain[0] if gain else given))
    records = list(trace.records)
    records[i] = dataclasses.replace(records[i], swaps=tuple(swaps))
    return dataclasses.replace(trace, records=tuple(records))


@pytest.mark.parametrize(
    "forge, check",
    [
        (
            lambda inst, t: dataclasses.replace(t, records=(), final_weight=Fraction(0)),
            "record indices",
        ),
        (lambda inst, t: with_added(t, 0, tuple(range(6))), "added edges"),
        (lambda inst, t: with_added(t, 1, (5.0,)), "added edges"),
        (
            lambda inst, t: dataclasses.replace(
                t, scheme=None, records=(), final_weight=Fraction(0)
            ),
            "degenerate trace",
        ),
        # Interval 1 holds edge 4 alone; interval 3 holds edges 3 and 5 and adds 5.
        (lambda inst, t: with_swaps(inst, t, 0), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 0, ((4,), ()), ((4,), ())), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 0, ((4, 4), ())), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 0, ((4, 5, 3), ())), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 0, ((5,), ())), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 0, ((4,), (5,))), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 0, ((4,), (), Fraction(1))), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 1, ((5,), ()), ((3,), (5,)), ((5,), (3,))), "swaps"),
        (lambda inst, t: with_swaps(inst, t, 1, ((3,), ()), ((5,), (3,)), ((3,), ())), "swaps"),
    ],
    ids=[
        "no-records",
        "all-added-first",
        "added-id-not-an-int",
        "claims-degenerate",
        "no-swaps",
        "swap-adds-a-held-edge",
        "swap-adds-an-edge-twice",
        "swap-adds-three-edges",
        "swap-adds-outside-its-interval",
        "swap-removes-an-edge-not-held",
        "swap-claims-a-wrong-gain",
        "swap-loses-weight",
        "swaps-end-past-the-added-edges",
    ],
)
def test_forged_trace_is_refuted(forge, check):
    inst, trace = genuine_trace()
    assert verify_local_optimum(inst, trace)
    assert not verify_local_optimum(inst, forge(inst, trace))
    with pytest.raises(TraceRefuted, match=f"^{check}:"):
        check_trace(inst, forge(inst, trace))


@pytest.mark.parametrize(
    "changes, loader_refusal",
    [
        ({"epsilon": "7", "delta": "-3", "tau": "99"}, "epsilon must lie"),
        ({"epsilon": "7"}, "epsilon must lie"),
        ({"delta": "-3"}, "epsilon must lie"),
        ({"tau": "99"}, "tau must lie"),
    ],
    ids=["all-three", "epsilon", "delta", "tau"],
)
def test_a_degenerate_trace_with_parameters_out_of_range_is_refused(changes, loader_refusal):
    # Zero weights give a degenerate run: no scheme, no records.
    edges, weights = (frozenset({0}), frozenset({1})), (Fraction(0),) * 2
    zero = ParityInstance(2, edges, weights, FreeMatroid(2), 1)
    _, trace = sliding_local_search(zero, Fraction(1, 4), Fraction(1, 100), 0)
    assert trace.scheme is None and verify_local_optimum(zero, trace)
    obj = dict(trace_to_json_obj(trace), **changes)
    with pytest.raises(FormatError, match=f"^{loader_refusal}"):
        trace_from_json_obj(obj)
    forged = dataclasses.replace(trace, **{k: Fraction(v) for k, v in changes.items()})
    with pytest.raises(TraceRefuted, match="^parameter ranges:"):
        check_trace(zero, forged)
    assert not verify_local_optimum(zero, forged)
    assert_same_as_fraction_form(zero, forged)


def test_a_level_count_over_the_marker_budget_is_refuted_before_any_power():
    # The level-count check would raise 1 - epsilon to the power 10^9 - 1.
    inst = generate("set-packing", n=9, m=8, k=2, seed=5)
    _, trace = sliding_local_search(inst, EPS, DELTA, 0)
    forged = rescheme(trace, levels=10**9)
    start = time.perf_counter()
    with pytest.raises(TraceRefuted, match="^level count: 1000000000 is below 1 or over the"):
        check_trace(inst, forged)
    assert time.perf_counter() - start < 1


def true_local_optimum(inst, trace):
    """Brute-force reference for what a verified trace claims.

    The trace's ladder is the one ``compute_markers`` builds for its
    epsilon, delta and tau, it has one record per interval that holds a
    lone-feasible edge, its records add the final edges interval by
    interval, and at each interval's close no swap of at most two
    interval edges in for at most ``2 * arity`` interval edges of the
    prefix out is feasible and strictly heavier.
    """
    weights, m = inst.weights, inst.num_edges
    final = set(trace.final_edges)
    if not final <= set(range(m)) or not inst.is_feasible(final):
        return False
    if trace.final_weight != sum((weights[j] for j in final), Fraction(0)):
        return False
    added = [j for r in trace.records for j in r.added]
    if sorted(added) != sorted(final):
        return False
    if trace.scheme is None:
        positive = [j for j in range(m) if inst.feasible_alone[j] and weights[j] > 0]
        return not positive and not trace.records
    if not 0 < trace.epsilon < Fraction(1, 2):
        return False
    try:
        scheme = compute_markers(inst, trace.epsilon, trace.delta, trace.tau)
    except ValueError:
        return False
    if trace.scheme != scheme:
        return False
    lone = [j for j in range(m) if inst.feasible_alone[j]]
    occupied = sorted({scheme.interval_of(weights[j]) for j in lone})
    if [r.index for r in trace.records] != occupied:
        return False
    if any(scheme.interval_of(weights[j]) != r.index for r in trace.records for j in r.added):
        return False
    for i in occupied:
        prefix = {j for j in final if scheme.interval_of(weights[j]) <= i}
        members = [j for j in lone if scheme.interval_of(weights[j]) == i]
        outside = [j for j in members if j not in prefix]
        inside = [j for j in members if j in prefix]
        for a in (1, 2):
            for add in combinations(outside, a):
                for r in range(min(2 * inst.arity, len(inside)) + 1):
                    for rem in combinations(inside, r):
                        gain = sum(weights[j] for j in add) - sum(weights[j] for j in rem)
                        if gain > 0 and inst.is_feasible((prefix - set(rem)) | set(add)):
                            return False
    return True


def rescheme(trace, **changes):
    if trace.scheme is None:
        return trace
    scheme = dataclasses.replace(trace.scheme, **changes)
    return dataclasses.replace(trace, scheme=scheme, tau=scheme.tau)


def relevel(trace, levels):
    if trace.scheme is None:
        return trace
    records = tuple(r for r in trace.records if r.index <= levels + 1)
    return dataclasses.replace(rescheme(trace, levels=levels), records=records)


def singly_added(inst, record, added):
    """``record`` with ``added``, each edge brought in by a swap of its own."""
    swaps = tuple(SwapMove((j,), (), inst.weights[j]) for j in added if j < inst.num_edges)
    return dataclasses.replace(record, added=added, swaps=swaps)


def toggle(inst, trace, j):
    """Drop edge j from the records, or add it to its own interval's record.

    Either way the edited record's swaps replay to its added edges and
    ``final_weight`` follows the records, so only the deeper checks can
    refute the result.
    """
    if not trace.records:
        return trace
    records = list(trace.records)
    if any(j in r.added for r in records):
        records = [
            singly_added(inst, r, tuple(e for e in r.added if e != j)) if j in r.added else r
            for r in records
        ]
    else:
        try:
            own = trace.scheme.interval_of(inst.weights[j])
        except ValueError:
            own = None
        i = next((i for i, r in enumerate(records) if r.index == own), 0)
        records[i] = singly_added(inst, records[i], tuple(sorted(records[i].added + (j,))))
    final = sorted({j for r in records for j in r.added if 0 <= j < inst.num_edges})
    return dataclasses.replace(
        trace,
        records=tuple(records),
        final_weight=sum((inst.weights[j] for j in final), Fraction(0)),
    )


def mutation(inst, trace):
    last = max(len(trace.records) - 1, 0)
    levels = trace.scheme.levels if trace.scheme is not None else len(trace.records)
    ids = st.lists(st.integers(-1, 6), max_size=4).map(tuple)
    record = st.integers(0, last)
    grid = st.integers(-1000, 2000).map(lambda i: EPS * Fraction(i, 1000))  # [-eps, 2 eps]
    kinds = [
        st.integers(0, inst.num_edges - 1).map(lambda j: toggle(inst, trace, j)),
        st.fractions(0, 300).map(lambda w: dataclasses.replace(trace, final_weight=w)),
        grid.map(lambda tau: rescheme(trace, tau=tau)),
        grid.map(lambda tau: dataclasses.replace(trace, tau=tau)),
        grid.map(lambda w: rescheme(trace, max_feasible_weight=w * 300)),
        st.integers(1, levels + 3).map(lambda levels: relevel(trace, levels)),
        st.permutations(trace.records).map(
            lambda rs: dataclasses.replace(trace, records=tuple(rs))
        ),
        st.just(dataclasses.replace(trace, scheme=None, records=(), final_weight=0)),
    ]
    if trace.records:
        kinds.append(st.tuples(record, ids).map(lambda a: with_added(trace, *a)))
    grown = [i for i, r in enumerate(trace.records) if r.added]
    if grown:
        kinds.append(
            st.sampled_from(grown).map(lambda i: with_added(trace, i, trace.records[i].added * 2))
        )
        kinds.append(
            st.tuples(record, st.integers(0, levels + 2)).map(
                lambda a: dataclasses.replace(
                    trace,
                    records=trace.records[: a[0]]
                    + (dataclasses.replace(trace.records[a[0]], index=a[1]),)
                    + trace.records[a[0] + 1 :],
                )
            )
        )
    return st.one_of(kinds)


@settings(max_examples=300)
@given(st.data())
def test_every_mutation_is_refuted_or_a_true_local_optimum(data):
    inst, trace = genuine_trace()
    assert true_local_optimum(inst, trace)
    for _ in range(data.draw(st.integers(1, 3))):
        trace = data.draw(mutation(inst, trace))
    if verify_local_optimum(inst, trace):
        assert true_local_optimum(inst, trace)


def fraction_check_trace(instance, trace):
    """Reference copy of ``check_trace`` in ``Fraction`` arithmetic, the form
    it had before it moved to integer numerators; deliberately left as it was,
    but for delta, which it takes from the trace since the scheme holds none,
    and for the range check, which now comes before the degenerate branch."""
    if trace.instance_signature != instance_signature(instance):
        raise TraceMismatch("trace was produced for a different instance")
    weights, numerators = instance.weights, instance.weight_numerators
    den = instance.weight_denominator
    lone = [j for j in range(instance.num_edges) if instance.feasible_alone[j]]
    heaviest = Fraction(max((numerators[j] for j in lone), default=0), den)
    scheme, epsilon, tau, delta = trace.scheme, trace.epsilon, trace.tau, trace.delta
    if scheme is not None and (scheme.epsilon, scheme.tau) != (epsilon, tau):
        raise TraceRefuted("parameters: the scheme's epsilon and tau are not the trace's")
    if not (0 < epsilon < Fraction(1, 2) and 0 < delta < 1 and 0 <= tau < epsilon):
        raise TraceRefuted("parameter ranges: epsilon, delta or tau is out of range")
    if scheme is None:
        if heaviest or trace.records or trace.final_weight:
            raise TraceRefuted("degenerate trace: the instance or the run is not degenerate")
        return {}

    levels = scheme.levels
    if heaviest == 0 or scheme.max_feasible_weight != heaviest:
        raise TraceRefuted("heaviest weight: not the instance's positive lone-feasible one")
    if levels < 1 or marker_bits(epsilon, tau, heaviest, levels) > MAX_MARKER_BITS:
        raise TraceRefuted(f"level count: {levels} is below 1 or over the marker budget")
    shrink, tail = 1 - epsilon, delta / instance.num_edges
    if not shrink ** (levels - 1) <= tail < shrink ** (levels - 2):
        raise TraceRefuted(f"level count: {levels} is not the instance's")
    own = {j: scheme.interval_of(weights[j]) for j in lone}
    records = trace.records
    if [r.index for r in records] != sorted(set(own.values())):
        raise TraceRefuted("record indices: not the occupied intervals")
    seen = set()
    for record in records:
        for j in record.added:
            if j in seen or own.get(j) != record.index:
                raise TraceRefuted(f"added edges: {j!r} twice or outside interval {record.index}")
            seen.add(j)
        held = set()
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
            gain = sum(numerators[j] for j in add) - sum(numerators[j] for j in remove)
            if gain <= 0 or gain * move.gain.denominator != move.gain.numerator * den:
                raise TraceRefuted(f"swaps: {move} does not gain what its edges give")
            held = (held - remove) | add
        if held != set(record.added):
            raise TraceRefuted(f"swaps: interval {record.index} does not end at its added edges")
        if record.added and not instance.is_feasible(seen):
            raise TraceRefuted(f"prefix feasibility: the prefix of interval {record.index}")
    if trace.final_weight != Fraction(sum(numerators[j] for j in seen), den):
        raise TraceRefuted("final weight: not the added edges' weight")
    return own


def fraction_verify_local_optimum(instance, trace):
    """Reference copy of ``verify_local_optimum``'s unpruned replay, in ``Fraction`` sums."""
    try:
        own = fraction_check_trace(instance, trace)
    except TraceRefuted:
        return False
    weights = instance.weights
    inside = {}
    for j, i in own.items():
        inside.setdefault(i, []).append(j)
    prefix = set()
    for record in trace.records:
        prefix.update(record.added)
        outside_sol = [j for j in inside[record.index] if j not in prefix]
        in_sol = [j for j in inside[record.index] if j in prefix]
        base = instance.vertices_of(prefix)
        lightest = [Fraction(0)]
        for w in sorted(weights[j] for j in in_sol):
            lightest.append(lightest[-1] + w)
        for add_size in (1, 2):
            for add in combinations(outside_sol, add_size):
                add_w = sum((weights[j] for j in add), Fraction(0))
                add_verts = instance.vertices_of(add)
                for rem_size in range(0, min(2 * instance.arity, len(in_sol)) + 1):
                    if lightest[rem_size] >= add_w:
                        break
                    for rem in combinations(in_sol, rem_size):
                        rem_w = sum((weights[j] for j in rem), Fraction(0))
                        if add_w <= rem_w:
                            continue
                        target = (base - instance.vertices_of(rem)) | add_verts
                        if instance.matroid.is_independent(target):
                            return False
    return True


def outcome(check, inst, trace):
    """What ``check`` returns, or the type and message of what it raises."""
    try:
        return check(inst, trace)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def assert_same_as_fraction_form(inst, trace):
    """``check_trace`` and ``verify_local_optimum`` answer as their Fraction forms do,
    each asking the oracle the same queries in the same order."""
    pairs = ((check_trace, fraction_check_trace), (verify_local_optimum, fraction_verify_local_optimum))
    for pair in pairs:
        answers, asked = [], []
        for check in pair:
            counted = PublicOnly(inst.matroid)
            copy = dataclasses.replace(inst, matroid=counted)
            copy.__dict__["_signature"] = instance_signature(inst)  # the trace's instance still
            answers.append(outcome(check, copy, trace))
            asked.append(counted.asked)
        assert answers[0] == answers[1] and asked[0] == asked[1]
    return outcome(check_trace, inst, trace)


@settings(max_examples=300)
@given(st.data())
def test_integer_check_trace_matches_its_fraction_form(data):
    inst, trace = genuine_trace()
    assert_same_as_fraction_form(inst, trace)
    for _ in range(data.draw(st.integers(1, 3))):
        trace = data.draw(mutation(inst, trace))
        assert_same_as_fraction_form(inst, trace)


def singles(weights, matroid=None):
    """One single-vertex edge per weight, under ``matroid`` or the free matroid."""
    n = len(weights)
    edges = tuple(frozenset([v]) for v in range(n))
    return ParityInstance(n, edges, tuple(map(Fraction, weights)), matroid or FreeMatroid(n), 1)


def run(inst, epsilon=EPS, delta=DELTA, seed=0):
    return inst, sliding_local_search(inst, Fraction(epsilon), Fraction(delta), seed)[1]


def on_markers():
    """Weights 1, marker(2) and marker(3) of the ladder the run itself draws."""
    _, probe = run(singles([1, Fraction(1, 2), Fraction(1, 4)]))
    return run(singles([1, probe.scheme.marker(2), probe.scheme.marker(3)]))


def zero_heaviest():
    """A one-edge instance of weight 0 and a trace whose scheme claims heaviest weight 0."""
    _, trace = run(singles([3]), "9/20", "3/5")
    zero = singles([0])
    forged = dataclasses.replace(
        rescheme(trace, max_feasible_weight=Fraction(0)),
        instance_signature=instance_signature(zero),
        records=(),
        final_weight=Fraction(0),
    )
    return zero, forged


def tied_swap():
    """All three edges in interval 1; the run takes 0 and 1.  Edges 0 and 2 share
    a block, so swapping 2 in for 0 only ties, and for 1 does not fit."""
    inst, trace = run(singles([10, 9, 10], PartitionMatroid([[0, 2], [1]], [1, 1])))
    assert trace.final_edges == (0, 1) and [r.index for r in trace.records] == [1]
    return inst, trace


# Runs for the fixed cases below, each with its level count.
BASES = {
    # (1 - 9/20)^1 <= (3/5) / 1 < (1 - 9/20)^0; two edges need four levels.
    "two-levels": (lambda: run(singles([3]), "9/20", "3/5"), 2),
    "four-levels": (lambda: run(singles([3, 2], UniformMatroid(2, 1)), "9/20", "3/5"), 4),
    # (1 - 1/3)^2 is exactly 4/9, so the level-count test meets equality.
    "tail-on-a-power": (lambda: run(singles([1]), "1/3", "4/9"), 3),
    "genuine": (genuine_trace, 24),
    "zero-heaviest": (zero_heaviest, 2),
    "tied-swap": (tied_swap, 23),
    "weights-on-markers": (on_markers, 23),
}


def relevel_to(levels):
    return lambda trace: relevel(trace, levels)


def reparam(**changes):
    """Epsilon, delta or tau changed in the trace, and epsilon or tau in its scheme alike."""
    in_scheme = {key: value for key, value in changes.items() if key != "delta"}
    return lambda trace: dataclasses.replace(
        trace, scheme=dataclasses.replace(trace.scheme, **in_scheme), **changes
    )


# Cases at the boundaries of each exact test: a run, a forgery of it or
# None, and the refusal's message or None if the trace is accepted.
FIXED_CASES = [
    pytest.param("two-levels", None, None, id="two-levels"),
    pytest.param("two-levels", relevel_to(1), "level count: 1 is not", id="two-as-one"),
    pytest.param("two-levels", relevel_to(3), "level count: 3 is not", id="two-as-three"),
    pytest.param("four-levels", relevel_to(2), "level count: 2 is not", id="four-as-two"),
    pytest.param("genuine", relevel_to(1), "level count: 1 is not", id="genuine-as-one"),
    pytest.param("genuine", relevel_to(2), "level count: 2 is not", id="genuine-as-two"),
    pytest.param("tail-on-a-power", None, None, id="tail-on-a-power"),
    pytest.param("tail-on-a-power", relevel_to(4), "level count: 4 is not", id="tail-as-four"),
    pytest.param("genuine", reparam(epsilon=Fraction(1, 2)), "parameter ranges", id="epsilon-half"),
    pytest.param("genuine", reparam(epsilon=0, tau=0), "parameter ranges", id="epsilon-zero"),
    pytest.param("genuine", reparam(delta=Fraction(0)), "parameter ranges", id="delta-zero"),
    pytest.param("genuine", reparam(delta=Fraction(1)), "parameter ranges", id="delta-one"),
    # (1 - 9/20)^1 <= delta < (1 - 9/20)^0 gives two levels for any such delta,
    # the lower end included; below it the ladder needs three.
    pytest.param("two-levels", reparam(delta=Fraction(11, 20)), None, id="delta-same-levels"),
    pytest.param("two-levels", reparam(delta=Fraction(1, 2)), "level count: 2 is not", id="delta-other-levels"),
    pytest.param("genuine", reparam(tau=EPS), "parameter ranges", id="tau-epsilon"),
    pytest.param("genuine", reparam(tau=Fraction(-1, 10**30)), "parameter ranges", id="tau-negative"),
    pytest.param("zero-heaviest", None, "heaviest weight", id="zero-heaviest"),
    pytest.param("tied-swap", None, None, id="tied-swap"),
    pytest.param("weights-on-markers", None, None, id="weights-on-markers"),
]


@pytest.mark.parametrize("base, forge, refusal", FIXED_CASES)
def test_fixed_cases_are_judged_as_in_fraction_form(base, forge, refusal):
    make, levels = BASES[base]
    inst, trace = make()
    assert trace.scheme.levels == levels
    if forge is not None:
        trace = forge(trace)
    answer = assert_same_as_fraction_form(inst, trace)
    if refusal is None:
        assert isinstance(answer, dict) and verify_local_optimum(inst, trace)
    else:
        assert answer[0] is TraceRefuted and answer[1].startswith(refusal)


def test_weights_over_eighty_orders_of_magnitude_verify_and_refute():
    big = 10**40
    weights = (
        Fraction(big), Fraction(1, big), Fraction(big - 1, big - 3), Fraction(3, 7 * 10**39),
        Fraction(10**20, 3), Fraction(10**39, 7), Fraction(big - 7, big), Fraction(10**13),
        Fraction(10**28, big - 3), Fraction(1, 10**20),
    )
    assert min(weights) == Fraction(1, big) and max(w.denominator for w in weights) == big
    # Ten disjoint pairs under a rank-9 uniform matroid: at most four edges fit.
    pairs = tuple(frozenset([2 * j, 2 * j + 1]) for j in range(10))
    inst = ParityInstance(20, pairs, weights, UniformMatroid(20, 9), 2)
    optimum = brute_force_optimum(inst).optimum
    # The default delta puts most edges in the closed tail interval; 10^-90 spreads
    # them over a ladder of some 430 levels.
    for delta in (DELTA, Fraction(1, 10**90)):
        for seed in range(3):
            _, trace = sliding_local_search(inst, EPS, delta, seed)
            assert verify_local_optimum(inst, trace)
            assert verify_conflict_trace(build_conflict_trace(inst, trace, optimum, EPS)) == []
            for j in range(inst.num_edges):
                forged = toggle(inst, trace, j)
                assert not verify_local_optimum(inst, forged)
                assert_same_as_fraction_form(inst, forged)
