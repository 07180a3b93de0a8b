import dataclasses
import random
from fractions import Fraction

import pytest

from mpls.exact import (
    BRANCH_AND_BOUND,
    DEFAULT_LIMITS,
    EXACT_LIMIT_ENV,
    SUBSET_ENUM,
    SizeLimitExceeded,
    TraceMismatch,
    brute_force_intersection,
    brute_force_optimum,
    resolve_limit,
    verify_local_optimum,
    verify_tail_bound,
)
from mpls.generators import generate, random_partition_matroids
from mpls.instance import ParityInstance, from_matroid_intersection
from mpls.matroids import FreeMatroid, PartitionMatroid, UniformMatroid
from mpls.solver import IntervalScheme, compute_markers, sliding_local_search

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


def test_enumeration_and_branch_and_bound_agree():
    for inst in small_instances():
        slow = brute_force_optimum(inst, method=SUBSET_ENUM)
        fast = brute_force_optimum(inst, method=BRANCH_AND_BOUND)
        assert slow.optimum == fast.optimum
        assert slow.method == SUBSET_ENUM
        assert fast.method == BRANCH_AND_BOUND


def test_canonical_tie_break_prefers_lex_smallest_ids():
    inst = ParityInstance(
        3,
        (frozenset([0]), frozenset([1]), frozenset([2])),
        (Fraction(5), Fraction(5), Fraction(5)),
        UniformMatroid(3, 1),
        1,
    )
    for method in (SUBSET_ENUM, BRANCH_AND_BOUND):
        result = brute_force_optimum(inst, method=method)
        assert result.optimum.edges == frozenset([0])
        assert result.optimum.weight == Fraction(5)


def test_subset_enumeration_visits_every_subset():
    inst = generate("set-packing", n=6, m=4, k=2, seed=0)
    result = brute_force_optimum(inst, method=SUBSET_ENUM)
    assert result.explored == 2 ** 4
    pruned = brute_force_optimum(inst, method=BRANCH_AND_BOUND)
    assert pruned.explored <= 2 ** 4


def wide_instance(m):
    return ParityInstance(
        m,
        tuple(frozenset([v]) for v in range(m)),
        tuple(Fraction(v + 1) for v in range(m)),
        FreeMatroid(m),
        1,
    )


def test_size_limits(monkeypatch):
    monkeypatch.delenv(EXACT_LIMIT_ENV, raising=False)
    inst = wide_instance(15)
    with pytest.raises(SizeLimitExceeded):
        brute_force_optimum(inst, method=SUBSET_ENUM)
    result = brute_force_optimum(inst, limit=15, method=SUBSET_ENUM)
    assert result.optimum.weight == Fraction(sum(range(1, 16)))

    monkeypatch.setenv(EXACT_LIMIT_ENV, "16")
    assert brute_force_optimum(inst, method=SUBSET_ENUM).optimum.weight == Fraction(120)

    monkeypatch.setenv(EXACT_LIMIT_ENV, "10")
    with pytest.raises(SizeLimitExceeded):
        brute_force_optimum(inst, method=BRANCH_AND_BOUND)
    assert brute_force_optimum(inst, limit=15).optimum.weight == Fraction(120)


def test_resolve_limit_precedence(monkeypatch):
    monkeypatch.delenv(EXACT_LIMIT_ENV, raising=False)
    assert resolve_limit(SUBSET_ENUM) == DEFAULT_LIMITS[SUBSET_ENUM]
    assert resolve_limit(SUBSET_ENUM, 5) == 5
    monkeypatch.setenv(EXACT_LIMIT_ENV, "9")
    assert resolve_limit(BRANCH_AND_BOUND) == 9
    assert resolve_limit(BRANCH_AND_BOUND, 3) == 3
    monkeypatch.setenv(EXACT_LIMIT_ENV, "many")
    with pytest.raises(ValueError):
        resolve_limit(SUBSET_ENUM)


def test_intersection_enumeration_matches_parity_reduction():
    for seed in range(10):
        rng = random.Random(seed)
        matroids = random_partition_matroids(5, 2, seed)
        weights = [Fraction(rng.randint(0, 40), 4) for _ in range(5)]
        direct = brute_force_intersection(matroids, weights)
        via_parity = brute_force_optimum(
            from_matroid_intersection(matroids, weights)
        ).optimum
        assert direct == via_parity


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
            record = dataclasses.replace(
                record, added=tuple(j for j in record.added if j != 3)
            )
        records.append(record)
    tampered = dataclasses.replace(
        trace,
        records=tuple(records),
        final_edges=tuple(j for j in trace.final_edges if j != 3),
        final_weight=trace.final_weight - Fraction(7, 10),
    )
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


def test_tail_bound_holds_for_real_ladders():
    for inst in small_instances()[:12]:
        optimum = brute_force_optimum(inst).optimum
        for tau in (Fraction(0), Fraction(1, 8), Fraction(3, 10)):
            scheme = compute_markers(inst, EPS, DELTA, tau)
            assert verify_tail_bound(inst, scheme, optimum)


def test_tail_bound_fails_for_truncated_ladder():
    inst = wide_instance(2)
    inst = dataclasses.replace(inst, weights=(Fraction(1), Fraction(1, 100)))
    optimum = brute_force_optimum(inst).optimum
    assert optimum.edges == frozenset([0, 1])
    doctored = IntervalScheme(
        max_feasible_weight=Fraction(1),
        epsilon=Fraction(1, 2),
        delta=Fraction(1, 1000),
        tau=Fraction(0),
        levels=1,
        markers=(Fraction(2), Fraction(1, 2), Fraction(0)),
    )
    assert not verify_tail_bound(inst, doctored, optimum)
