from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from mpls.matroids import (
    ContractedMatroid,
    DependentContractionError,
    DirectSumMatroid,
    FreeMatroid,
    GraphicMatroid,
    GroundSetError,
    LinearMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    VertexCopyMatroid,
)
from conftest import PublicOnly


class MatroidAxiomError(AssertionError):
    """Raised by the exhaustive axiom checker when a structure is not a matroid."""


def check_matroid_axioms(oracle: MatroidOracle, max_ground: int = 8) -> None:
    """Exhaustively verify the three matroid axioms.

    Checks that the empty set is independent, that independence is closed
    downward, and that the exchange property holds for every pair of
    independent sets of different sizes.  Exponential in the ground size,
    so refuse anything larger than ``max_ground`` elements.

    Raises MatroidAxiomError on the first violation found.
    """
    elems = sorted(oracle.ground)
    n = len(elems)
    if n > max_ground:
        raise ValueError(f"ground set of size {n} exceeds the exhaustive limit {max_ground}")

    indep: dict[int, bool] = {}
    for mask in range(1 << n):
        subset = frozenset(elems[i] for i in range(n) if mask >> i & 1)
        indep[mask] = oracle.is_independent(subset)

    if not indep[0]:
        raise MatroidAxiomError("empty set is dependent")

    for mask in range(1 << n):
        if not indep[mask]:
            continue
        for i in range(n):
            if mask >> i & 1 and not indep[mask & ~(1 << i)]:
                raise MatroidAxiomError(
                    f"downward closure fails at {sorted(elems[j] for j in range(n) if mask >> j & 1)}"
                )

    sizes = {mask: bin(mask).count("1") for mask in range(1 << n)}
    independent_masks = [m for m in range(1 << n) if indep[m]]
    for a in independent_masks:
        for b in independent_masks:
            if sizes[a] >= sizes[b]:
                continue
            extra = b & ~a
            if not any(indep[a | (1 << i)] for i in range(n) if extra >> i & 1):
                set_a = sorted(elems[i] for i in range(n) if a >> i & 1)
                set_b = sorted(elems[i] for i in range(n) if b >> i & 1)
                raise MatroidAxiomError(f"exchange fails for {set_a} vs {set_b}")


AXIOM_CASES = [
    FreeMatroid(4),
    UniformMatroid(5, 2),
    UniformMatroid(4, 0),
    UniformMatroid(3, 3),
    PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2]),
    PartitionMatroid([[0], [1], [2]], [0, 1, 1]),
    GraphicMatroid(3, [(0, 1), (1, 2), (0, 2), (0, 1)]),
    GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)]),
    LinearMatroid(2, [[1, 0], [0, 1], [1, 1], [0, 0]]),
    LinearMatroid(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3], [4, 4, 4]]),
]


@pytest.mark.parametrize("oracle", AXIOM_CASES, ids=lambda o: type(o).__name__)
def test_families_satisfy_axioms(oracle):
    check_matroid_axioms(oracle)


def test_combinators_satisfy_axioms():
    base = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    check_matroid_axioms(ContractedMatroid(base, [0]))
    check_matroid_axioms(DirectSumMatroid([UniformMatroid(2, 1), UniformMatroid(3, 2)]))
    equal_parts = [UniformMatroid(3, 1), PartitionMatroid([[0, 1], [2]], [1, 1])]
    check_matroid_axioms(DirectSumMatroid(equal_parts))
    check_matroid_axioms(VertexCopyMatroid(base, {c: c % 5 for c in range(7)}))
    check_matroid_axioms(DirectSumMatroid([base, FreeMatroid(2)]))


class _TwoWorlds(MatroidOracle):
    """Looks downward closed but fails the exchange axiom."""

    def __init__(self):
        super().__init__(range(4))

    def _independent(self, subset):
        return subset <= {0, 1} or subset <= {2, 3}


class _NoDownward(MatroidOracle):
    def __init__(self):
        super().__init__(range(4))

    def _independent(self, subset):
        return len(subset) != 1


def test_axiom_checker_catches_exchange_violation():
    with pytest.raises(MatroidAxiomError):
        check_matroid_axioms(_TwoWorlds())


def test_axiom_checker_catches_downward_violation():
    with pytest.raises(MatroidAxiomError):
        check_matroid_axioms(_NoDownward())


def rank(oracle, subset):
    """Rank by greedy augmentation, which the exchange axiom makes exact."""
    acc = set()
    for e in sorted(subset):
        if oracle.is_independent(acc | {e}):
            acc.add(e)
    return len(acc)


@given(st.sets(st.integers(0, 7)), st.integers(0, 8))
def test_uniform_rank(subset, r):
    oracle = UniformMatroid(8, r)
    assert rank(oracle, subset) == min(len(subset), r)


def test_graphic_rank_spanning():
    k4 = GraphicMatroid(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert rank(k4, k4.ground) == 3


def test_rank_monotone_and_submodular():
    oracle = LinearMatroid(2, [[1, 0], [0, 1], [1, 1], [1, 0], [0, 0]])
    n = 5
    subsets = [frozenset(j for j in range(n) if mask >> j & 1) for mask in range(1 << n)]
    ranks = {s: rank(oracle, s) for s in subsets}
    for a in subsets:
        for b in subsets:
            if a <= b:
                assert ranks[a] <= ranks[b]
            assert ranks[a | b] + ranks[a & b] <= ranks[a] + ranks[b]


def test_graphic_matches_binary_representation():
    # A forest iff the corresponding GF(2) incidence columns are independent.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 2)]
    graphic = GraphicMatroid(4, edges)
    cols = []
    for u, v in edges:
        col = [0, 0, 0, 0]
        col[u] ^= 1
        col[v] ^= 1
        cols.append(col)
    linear = LinearMatroid(2, cols)
    for size in range(len(edges) + 1):
        for combo in combinations(range(len(edges)), size):
            assert graphic.is_independent(combo) == linear.is_independent(combo)


def test_contract_triangle_becomes_rank_one():
    triangle = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    contracted = ContractedMatroid(triangle, [0])
    assert contracted.ground == {1, 2}
    assert contracted.is_independent({1})
    assert contracted.is_independent({2})
    assert not contracted.is_independent({1, 2})


def test_contract_rejects_dependent_set():
    with pytest.raises(DependentContractionError):
        ContractedMatroid(UniformMatroid(3, 1), [0, 1])


def test_coloops_then_contract_compose():
    # The stack a conflict trace builds: coloops added, then a prefix contracted.
    base = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    small = ContractedMatroid(DirectSumMatroid([base, FreeMatroid(2)]), [0, 5])
    assert sorted(small.ground) == [1, 2, 3, 4, 6]
    check_matroid_axioms(small)


def test_direct_sum_splits_by_part():
    # Part i's element v is offsets[i] + v: here 0..1, 2..4 and 5..6.
    total = DirectSumMatroid([UniformMatroid(2, 1), UniformMatroid(3, 1), UniformMatroid(2, 2)])
    assert sorted(total.ground) == list(range(7))
    assert total.is_independent({0, 4, 5, 6})
    assert not total.is_independent({0, 1})
    assert not total.is_independent({2, 4})
    assert DirectSumMatroid([]).ground == frozenset()


def test_direct_sum_rejects_a_part_off_zero_based_ground():
    off = ContractedMatroid(UniformMatroid(3, 2), [0])  # ground {1, 2}
    with pytest.raises(GroundSetError):
        DirectSumMatroid([UniformMatroid(2, 1), off])


def test_coloops_are_always_addable():
    oracle = DirectSumMatroid([UniformMatroid(2, 1), FreeMatroid(2)])
    for s in ({0}, {1}, set()):
        assert oracle.is_independent(s | {2, 3})
    assert not oracle.is_independent({0, 1, 2})


COMBINATORS = {
    "contracted": lambda m: ContractedMatroid(m, [0]),
    "direct-sum": lambda m: DirectSumMatroid([m, UniformMatroid(2, 1)]),
    "direct-sum-equal-parts": lambda m: DirectSumMatroid([UniformMatroid(5, 3), m]),
    "vertex-copy": lambda m: VertexCopyMatroid(m, {c: c % 5 for c in range(7)}),
    "coloops": lambda m: DirectSumMatroid([m, FreeMatroid(2)]),
    "coloops-contracted": lambda m: ContractedMatroid(
        DirectSumMatroid([m, FreeMatroid(1)]), [0, 5]
    ),
}


@pytest.mark.parametrize("build", COMBINATORS.values(), ids=COMBINATORS.keys())
def test_combinators_answer_through_an_overridden_public_entry(build):
    base = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    wrapper = PublicOnly(base)
    plain, wrapped = build(base), build(wrapper)
    asked = wrapper.asked
    elems = sorted(plain.ground)
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            assert wrapped.is_independent(combo) == plain.is_independent(combo)
    assert wrapper.asked > asked


class _CountedGraphic(GraphicMatroid):
    """A graphic base that counts its public queries and keeps its own ``_independent``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = 0

    def is_independent(self, subset):
        self.asked += 1
        return super().is_independent(subset)


def test_a_combinator_validates_only_at_the_outer_oracle():
    # A combinator asks its base's unchecked ``_independent``, never the
    # public entry; only contraction asks the public one, once, when built.
    for name, build in COMBINATORS.items():
        base = _CountedGraphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        combined = build(base)
        asked = base.asked
        elems = sorted(combined.ground)
        for size in range(len(elems) + 1):
            for combo in combinations(elems, size):
                combined.is_independent(combo)
        assert base.asked == asked, name


def test_ground_set_error():
    with pytest.raises(GroundSetError):
        UniformMatroid(3, 1).is_independent({5})


@given(st.data())
def test_partition_counts_match_direct_check(data):
    blocks = [[0, 1, 2], [3, 4], [5]]
    caps = [
        data.draw(st.integers(0, 3)),
        data.draw(st.integers(0, 2)),
        data.draw(st.integers(0, 1)),
    ]
    oracle = PartitionMatroid(blocks, caps)
    subset = data.draw(st.sets(st.integers(0, 5)))
    expected = all(
        len(subset & set(block)) <= cap for block, cap in zip(blocks, caps)
    )
    assert oracle.is_independent(subset) == expected
