from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mpls.instance import (
    InstanceError,
    ParityInstance,
    from_matroid_intersection,
    make_disjoint,
)
from mpls.exact import brute_force_intersection, brute_force_optimum
from mpls.generators import FAMILIES, build_doc, random_partition_matroids
from mpls.matroids import (
    FreeMatroid,
    PartitionMatroid,
    UniformMatroid,
    VertexCopyMatroid,
)
from mpls.solver import scale_weights
from conftest import PublicOnly
from test_exact import RawFields, flat_scan_optimum, overlapping_instances


def raw_is_feasible(raw, edge_ids):
    """Whether the raw edges are pairwise disjoint with an independent union."""
    used: set[int] = set()
    for j in edge_ids:
        e = raw.edges[j]
        if used & e:
            return False
        used |= e
    return raw.matroid.is_independent(used)


def singles(n, weights, matroid, arity=1):
    return ParityInstance(
        num_vertices=n,
        edges=tuple(frozenset([v]) for v in range(n)),
        weights=tuple(Fraction(w) for w in weights),
        matroid=matroid,
        arity=arity,
    )


def test_rejects_overlapping_edges():
    with pytest.raises(InstanceError):
        ParityInstance(3, (frozenset({0, 1}), frozenset({1, 2})), (Fraction(1),) * 2,
                       FreeMatroid(3), 2)


def test_rejects_uncovered_vertex():
    with pytest.raises(InstanceError):
        ParityInstance(3, (frozenset({0, 1}),), (Fraction(1),), FreeMatroid(3), 2)


def test_rejects_negative_weight():
    with pytest.raises(InstanceError):
        singles(2, [1, -1], FreeMatroid(2))
    with pytest.raises(InstanceError):
        singles(2, [1, Fraction(-1, 3)], FreeMatroid(2))


def test_rejects_ground_mismatch():
    with pytest.raises(InstanceError):
        singles(2, [1, 1], FreeMatroid(3))


def test_rejects_oversized_edge():
    with pytest.raises(InstanceError):
        ParityInstance(3, (frozenset({0, 1, 2}),), (Fraction(1),), FreeMatroid(3), 2)


def test_feasibility_is_one_oracle_call():
    inst = singles(3, [1, 2, 3], PublicOnly(UniformMatroid(3, 2)))
    before = inst.matroid.asked
    assert inst.is_feasible({0, 1})
    assert inst.matroid.asked - before == 1
    assert not inst.is_feasible({0, 1, 2})


@pytest.mark.parametrize("bad", [-1, 3, "0", True])
def test_unknown_edge_ids_are_refused(bad):
    # True passes isinstance(j, int) and would be read as edge 1.
    inst = singles(3, [1, 2, 3], FreeMatroid(3))
    assert inst.is_feasible({0, 2})
    with pytest.raises(InstanceError):
        inst.is_feasible({0, bad})
    with pytest.raises(InstanceError):
        inst.is_feasible({bad})


def test_weight_numerators_share_denominator():
    inst = singles(3, [Fraction(1, 2), Fraction(1, 3), 1], FreeMatroid(3))
    assert inst.weight_denominator == 6
    assert inst.weight_numerators == (3, 2, 6)


def overlap_raw():
    # Two hyperedges sharing vertex 1 on a rank-2 uniform matroid.
    return RawFields(
        num_vertices=3,
        edges=(frozenset({0, 1}), frozenset({1, 2})),
        weights=(Fraction(2), Fraction(3)),
        matroid=UniformMatroid(3, 2),
        arity=2,
    )


def test_make_disjoint_copy_numbering_is_frozen():
    norm = make_disjoint(*overlap_raw())
    assert norm.num_vertices == 4
    # copies in (vertex, incident edge) order: v0->0, v1->(1,2), v2->3
    assert norm.edges == (frozenset({0, 1}), frozenset({2, 3}))
    assert isinstance(norm.matroid, VertexCopyMatroid)


def test_make_disjoint_preserves_feasibility_of_every_edge_set():
    raw = overlap_raw()
    norm = make_disjoint(*raw)
    for size in range(3):
        for ids in combinations(range(2), size):
            assert raw_is_feasible(raw, ids) == norm.is_feasible(ids)


def test_make_disjoint_drops_isolated_vertices():
    raw = RawFields(
        num_vertices=4,
        edges=(frozenset({1}), frozenset({3})),
        weights=(Fraction(1), Fraction(1)),
        matroid=FreeMatroid(4),
        arity=1,
    )
    norm = make_disjoint(*raw)
    assert norm.num_vertices == 2


def test_make_disjoint_keeps_exact_covers_unchanged():
    matroid = UniformMatroid(4, 2)
    raw = RawFields(
        num_vertices=4,
        edges=(frozenset({0, 1}), frozenset({2, 3})),
        weights=(Fraction(1), Fraction(2)),
        matroid=matroid,
        arity=2,
    )
    norm = make_disjoint(*raw)
    assert norm.matroid is matroid
    assert norm.edges == raw.edges


@st.composite
def raw_instances(draw):
    """Raw fields whose edges share vertices and leave some out, or an exact cover."""
    arity = draw(st.integers(1, 4))
    n = draw(st.integers(0, 10))
    if n and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges = []
        while order:
            size = draw(st.integers(1, min(arity, len(order))))
            edges.append(frozenset(order[:size]))
            order = order[size:]
    elif n:
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.frozensets(vertex, min_size=1, max_size=arity), max_size=8))
    else:
        edges = []
    weights = [Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 4))) for _ in edges]
    matroid = UniformMatroid(n, draw(st.integers(0, n)))
    return RawFields(n, tuple(edges), tuple(weights), matroid, arity)


def assert_passes_public_checks(inst):
    """The instance, and its scaled copy, rebuilt through ``ParityInstance(...)``."""
    for form in (inst, scale_weights(inst, Fraction(1, 10))):
        fields = (form.num_vertices, form.edges, form.weights, form.matroid, form.arity)
        assert ParityInstance(*fields) == form


@settings(max_examples=200, deadline=None)
@given(raw_instances())
def test_normal_forms_of_raw_instances_pass_the_public_checks(raw):
    assert_passes_public_checks(make_disjoint(*raw))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 5), st.integers(1, 9),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_normal_forms_of_generated_instances_pass_the_public_checks(family, n, m, k, seed):
    params = {"greedy-trap": {"k": k}, "k-mi-partition": {"n": n, "k": k, "seed": seed}}.get(
        family, {"n": n + k + 1, "m": m, "k": k, "seed": seed}
    )
    assert_passes_public_checks(build_doc(family, **params).normalize())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_intersection_normal_forms_pass_the_public_checks(n, k, seed):
    weights = [Fraction(seed >> (4 * v) & 15, 1 + v % 3) for v in range(n)]
    matroids = random_partition_matroids(n, k, seed)
    assert_passes_public_checks(from_matroid_intersection(matroids, weights))


@settings(max_examples=100, deadline=None)
@given(overlapping_instances())
def test_no_two_edges_of_a_conflict_group_are_feasible_together(raw):
    inst = make_disjoint(*raw)
    for j, groups in enumerate(inst.conflicts):
        for group in groups:
            assert j in group
            assert all(not inst.is_feasible({j, other}) for other in group if other != j)


def test_raw_optimum_survives_normalization():
    raw = overlap_raw()
    assert flat_scan_optimum(raw)[0].weight == Fraction(3)
    norm = make_disjoint(*raw)
    result = brute_force_optimum(norm)
    assert result.optimum.weight == Fraction(3)
    assert sorted(result.optimum.edges) == [1]


def test_intersection_single_uniform_matroid_takes_top_r():
    weights = [Fraction(w) for w in (5, 1, 7, 3)]
    inst = from_matroid_intersection([UniformMatroid(4, 2)], weights)
    assert inst.arity == 1
    assert inst.num_edges == 4
    assert brute_force_optimum(inst).optimum.weight == Fraction(12)


def max_weight_bipartite_matching(n_left, n_right, edges, weights):
    """Exhaustive max-weight matching; independent of the matroid code."""
    best = Fraction(0)
    ids = range(len(edges))
    for size in range(min(n_left, n_right) + 1):
        for combo in combinations(ids, size):
            lefts = [edges[j][0] for j in combo]
            rights = [edges[j][1] for j in combo]
            if len(set(lefts)) == size and len(set(rights)) == size:
                w = sum((weights[j] for j in combo), Fraction(0))
                best = max(best, w)
    return best


def test_intersection_of_two_partitions_is_bipartite_matching():
    # Element j is the pair (left[j], right[j]); one partition matroid per side.
    left = [0, 0, 1, 1, 2]
    right = [0, 1, 0, 2, 1]
    weights = [Fraction(w) for w in (4, 3, 3, 5, 2)]
    n = len(left)
    left_blocks = [[j for j in range(n) if left[j] == s] for s in range(3)]
    right_blocks = [[j for j in range(n) if right[j] == s] for s in range(3)]
    m_left = PartitionMatroid(left_blocks, [1, 1, 1])
    m_right = PartitionMatroid(right_blocks, [1, 1, 1])

    expected = max_weight_bipartite_matching(3, 3, list(zip(left, right)), weights)
    assert brute_force_intersection([m_left, m_right], weights).weight == expected

    inst = from_matroid_intersection([m_left, m_right], weights)
    assert inst.arity == 2
    assert brute_force_optimum(inst).optimum.weight == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_intersection_feasibility_is_common_independence(n, k, seed):
    matroids = random_partition_matroids(n, k, seed)
    inst = from_matroid_intersection(matroids, [Fraction(1)] * n)
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            expected = all(m.is_independent(subset) for m in matroids)
            assert inst.is_feasible(subset) == expected


def test_intersection_edges_use_labelled_copies():
    inst = from_matroid_intersection(
        [UniformMatroid(3, 1), UniformMatroid(3, 2)], [Fraction(1)] * 3
    )
    assert inst.num_vertices == 6
    assert inst.edges[1] == frozenset({1, 4})
