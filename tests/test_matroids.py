from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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
    always_independent,
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


def test_ground_set_error_lists_elements_that_do_not_compare():
    with pytest.raises(GroundSetError, match="outside the ground set"):
        FreeMatroid(3).is_independent({"a", 1, 7})


NON_INTEGER_BUILDS = {
    "graphic-float-edge": lambda: GraphicMatroid(3, [(0.7, 2.2)]),
    "graphic-bool-endpoint": lambda: GraphicMatroid(3, [(True, 2)]),
    "graphic-float-vertex-count": lambda: GraphicMatroid(3.0, [(0, 2)]),
    "linear-float-entry": lambda: LinearMatroid(3, [[1.9, 0]]),
    "linear-bool-entry": lambda: LinearMatroid(3, [[False, 1]]),
    "linear-float-prime": lambda: LinearMatroid(3.0, [[1, 0]]),
    "partition-float-capacity": lambda: PartitionMatroid([[0, 1]], [1.5]),
    "partition-bool-capacity": lambda: PartitionMatroid([[0, 1]], [True]),
    "uniform-float-rank": lambda: UniformMatroid(3, 1.5),
    "free-float-size": lambda: FreeMatroid(2.0),
}


@pytest.mark.parametrize("build", NON_INTEGER_BUILDS.values(), ids=NON_INTEGER_BUILDS.keys())
def test_constructors_refuse_non_integer_numbers(build):
    # int() would truncate 0.7 to 0 and read True as 1.
    with pytest.raises(ValueError, match="must be an integer"):
        build()


# Reference kernels written the plain way: a dict union-find, elimination
# in sorted column order with a loop per row, and a map from each direct-sum
# id to its part.  The oracles' kernels must agree with them.


def reference_graphic(oracle, subset):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for idx in subset:
        u, v = oracle.graph_edges[idx]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def reference_linear(oracle, subset):
    dim, p = len(oracle.columns[0]) if oracle.columns else 0, oracle.prime
    if len(subset) > dim:
        return False
    pivots = []
    for i in sorted(subset):
        col = list(oracle.columns[i])
        for prow, pcol in pivots:
            factor = col[prow]
            if factor:
                for r in range(dim):
                    col[r] = (col[r] - factor * pcol[r]) % p
        pivot_row = next((r for r in range(dim) if col[r]), None)
        if pivot_row is None:
            return False
        inv = pow(col[pivot_row], -1, p)
        pivots.append((pivot_row, [(inv * x) % p for x in col]))
    return True


def reference_direct_sum(parts, subset):
    where = [(i, v) for i, part in enumerate(parts) for v in range(len(part.ground))]
    split = {}
    for x in subset:
        i, v = where[x]
        split.setdefault(i, set()).add(v)
    return all(parts[i]._independent(s) for i, s in split.items())


def reference(oracle, subset):
    if isinstance(oracle, GraphicMatroid):
        return reference_graphic(oracle, subset)
    if isinstance(oracle, LinearMatroid):
        return reference_linear(oracle, subset)
    return reference_direct_sum(oracle.parts, subset)


PINNED_KERNEL_CASES = {
    "graph-without-vertices": GraphicMatroid(0, []),
    "one-vertex-self-loops": GraphicMatroid(1, [(0, 0), (0, 0)]),
    "loop-and-parallel-edges": GraphicMatroid(4, [(0, 1), (1, 0), (2, 2), (1, 2), (3, 2)]),
    "gf2-zero-and-equal-columns": LinearMatroid(2, [[0, 0, 0], [1, 1, 0], [1, 1, 0], [0, 1, 1]]),
    "gf65521": LinearMatroid(65521, [[65520, 1], [1, 65520], [0, 0], [3, 5]]),
    "dim-0": LinearMatroid(7, [[], []]),
    "free-parts": DirectSumMatroid(
        [FreeMatroid(0), GraphicMatroid(2, [(0, 1), (1, 0)]), FreeMatroid(2), LinearMatroid(3, [[1], [2]])]
    ),
}


@pytest.mark.parametrize("oracle", PINNED_KERNEL_CASES.values(), ids=PINNED_KERNEL_CASES.keys())
def test_kernels_match_the_reference_on_every_subset_of_pinned_cases(oracle):
    elems = sorted(oracle.ground)
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            assert oracle.is_independent(combo) == reference(oracle, set(combo)), combo


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    if n == 0:
        return GraphicMatroid(0, [])
    vertex = st.integers(0, n - 1)
    # Drawing endpoints independently gives self-loops and parallel edges.
    return GraphicMatroid(n, draw(st.lists(st.tuples(vertex, vertex), max_size=12)))


@st.composite
def linear_matroids(draw):
    prime = draw(st.sampled_from([2, 3, 5, 65521]))
    dim = draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-3, prime + 3), st.integers(-(10**6), 10**6))
    column = st.one_of(st.just([0] * dim), st.lists(entry, min_size=dim, max_size=dim))
    return LinearMatroid(prime, draw(st.lists(column, max_size=7)))


@st.composite
def partitions(draw):
    n = draw(st.integers(0, 6))
    blocks = [list(range(i, min(i + 2, n))) for i in range(0, n, 2)]
    return PartitionMatroid(blocks, [draw(st.integers(0, 2)) for _ in blocks])


PARTS = st.one_of(
    graphs(), linear_matroids(), partitions(), st.integers(0, 3).map(FreeMatroid)
)


def subsets_of(data, oracle):
    """Each element in or out by a coin flip, so that sets of every size come up."""
    flips = data.draw(st.lists(st.booleans(), min_size=len(oracle.ground), max_size=len(oracle.ground)))
    return {x for x, keep in zip(sorted(oracle.ground), flips) if keep}


@settings(max_examples=300)
@given(graphs(), st.data())
def test_graphic_kernel_matches_the_reference(oracle, data):
    subset = subsets_of(data, oracle)
    assert oracle.is_independent(subset) == reference_graphic(oracle, subset)


@settings(max_examples=300)
@given(linear_matroids(), st.data())
def test_linear_kernel_matches_the_reference(oracle, data):
    subset = subsets_of(data, oracle)
    assert oracle.is_independent(subset) == reference_linear(oracle, subset)


@settings(max_examples=300)
@given(st.lists(PARTS, max_size=4), st.data())
def test_direct_sum_kernel_matches_the_reference(parts, data):
    oracle = DirectSumMatroid(parts)
    subset = subsets_of(data, oracle)
    assert oracle.is_independent(subset) == reference_direct_sum(parts, subset)


class _RankOnePartition(PartitionMatroid):
    """Overrides ``_independent`` alone: the partition truncated to rank 1.

    It keeps stating the capacity-1 blocks, which stays sound, but a set
    with one element in each of two such blocks is now dependent.
    """

    def _independent(self, subset):
        return len(subset) <= 1 and super()._independent(subset)


class _UnstatedCopies(VertexCopyMatroid):
    """States no classes, so a set free of them may hold two copies of one original."""

    def _parallel_classes(self):
        return ()


@st.composite
def oracles(draw, n, depth=2):
    """An oracle on ``0..n-1``: a family, or a combinator over oracles drawn the same way.

    Small fields, dimensions and graphs make zero and proportional columns,
    self-loops and parallel edges common; ranks 0 and 1 and capacities 0
    and 1 come up often.  Subclasses that override ``_independent`` alone
    or state no classes come up too.
    """
    kinds = ["free", "uniform", "partition", "rank-one partition", "graphic", "linear"]
    if depth:
        kinds += ["sum", "copies", "unstated copies", "contraction", "wrapped"]
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        return FreeMatroid(n)
    if kind == "uniform":
        return UniformMatroid(n, draw(st.sampled_from([0, 1, 2, n])))
    if kind in ("partition", "rank-one partition"):
        block_of = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[v for v in range(n) if block_of[v] == b] for b in range(3)]
        family = PartitionMatroid if kind == "partition" else _RankOnePartition
        return family(blocks, [draw(st.integers(0, 2)) for _ in blocks])
    if kind == "graphic":
        ends = st.tuples(st.integers(0, 3), st.integers(0, 3))
        return GraphicMatroid(4, draw(st.lists(ends, min_size=n, max_size=n)))
    if kind == "linear":
        prime, dim = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3))
        column = st.lists(st.integers(-1, prime), min_size=dim, max_size=dim)
        return LinearMatroid(prime, draw(st.lists(column, min_size=n, max_size=n)))
    if kind == "sum":
        a = draw(st.integers(0, n))
        return DirectSumMatroid([draw(oracles(a, depth - 1)), draw(oracles(n - a, depth - 1))])
    if kind in ("copies", "unstated copies"):
        originals = draw(st.integers(1, max(1, n)))
        targets = draw(st.lists(st.integers(0, originals - 1), min_size=n, max_size=n))
        family = VertexCopyMatroid if kind == "copies" else _UnstatedCopies
        return family(draw(oracles(originals, depth - 1)), dict(enumerate(targets)))
    if kind == "contraction":
        # Element n is contracted away when it is no loop; else nothing is.
        base = draw(oracles(n + 1, depth - 1))
        if base.is_independent({n}):
            return ContractedMatroid(base, {n})
        return ContractedMatroid(draw(oracles(n, depth - 1)), ())
    return PublicOnly(draw(oracles(n, depth - 1)))


def stated_groups(oracle):
    """The groups an oracle states, as sets, checked to be disjoint and inside its ground."""
    groups, seen = [], set()
    for group in oracle._parallel_classes():
        group = set(group)
        assert group <= oracle.ground and not group & seen
        seen |= group
        groups.append(group)
    return groups


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(oracles))
def test_every_pair_an_oracle_states_parallel_is_dependent(oracle):
    for group in stated_groups(oracle):
        for pair in combinations(sorted(group), 2):
            assert not oracle.is_independent(pair), pair


PARALLEL_CASES = {
    "free": (FreeMatroid(3), []),
    "uniform rank 1": (UniformMatroid(3, 1), [{0, 1, 2}]),
    "uniform rank 2": (UniformMatroid(3, 2), []),
    "partition capacity 1": (PartitionMatroid([[0, 1], [2, 3], [4, 5]], [1, 2, 0]), [{0, 1}]),
    "graphic": (GraphicMatroid(3, [(0, 1), (1, 0), (1, 1), (1, 1), (1, 2)]), [{0, 1}]),
    "linear": (LinearMatroid(3, [[1, 2], [2, 1], [0, 0], [0, 3], [1, 0]]), [{0, 1}]),
    "direct sum": (
        DirectSumMatroid([UniformMatroid(2, 1), FreeMatroid(1), PartitionMatroid([[0, 1]], [1])]),
        [{0, 1}, {3, 4}],
    ),
    "vertex copies": (
        VertexCopyMatroid(GraphicMatroid(3, [(0, 1), (0, 1), (1, 2)]), {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}),
        [{0, 1, 2}, {3, 4}],
    ),
    "wrapper": (PublicOnly(UniformMatroid(3, 1)), [{0, 1, 2}]),
    "contraction": (ContractedMatroid(UniformMatroid(3, 2), [0]), []),
}


@pytest.mark.parametrize("oracle, groups", PARALLEL_CASES.values(), ids=PARALLEL_CASES.keys())
def test_each_family_states_its_parallel_classes(oracle, groups):
    # Groups of one element say nothing and may be left in.
    assert [g for g in stated_groups(oracle) if len(g) > 1] == groups


def class_free_subsets(oracle):
    """Every subset of the ground set that holds at most one element of each stated class."""
    groups = stated_groups(oracle)
    elems = sorted(oracle.ground)
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            if all(len(group.intersection(combo)) < 2 for group in groups):
                yield frozenset(combo)


def assert_rung_agrees(oracle):
    query = oracle._class_free_query()
    for subset in class_free_subsets(oracle):
        assert query(subset) == oracle.is_independent(subset), sorted(subset)
    return query


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(oracles))
def test_the_class_free_rung_agrees_with_the_full_query_on_class_free_sets(oracle):
    assert_rung_agrees(oracle)


# Each family and combinator, and whether its rung reads no set: its
# stated classes are all its circuits.
RUNG_CASES = {
    "free": (FreeMatroid(4), True),
    "uniform rank 0": (UniformMatroid(4, 0), False),
    "uniform rank 1": (UniformMatroid(4, 1), True),
    "uniform rank 2": (UniformMatroid(4, 2), False),
    "uniform rank n": (UniformMatroid(4, 4), True),
    "uniform rank above n": (UniformMatroid(4, 6), True),
    "partition capacities 1 and full": (PartitionMatroid([[0, 1], [2, 3], [4]], [1, 2, 3]), True),
    "partition capacity 0": (PartitionMatroid([[0, 1], [2, 3]], [1, 0]), False),
    "partition partial capacity": (PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1]), False),
    "graphic with a loop and parallel edges": (
        GraphicMatroid(3, [(0, 1), (1, 0), (1, 1), (1, 2), (0, 2)]),
        False,
    ),
    "linear with zero and parallel columns": (
        LinearMatroid(3, [[1, 2], [2, 1], [0, 0], [0, 3], [1, 0]]),
        False,
    ),
    "contraction": (ContractedMatroid(UniformMatroid(4, 2), [0]), False),
    "direct sum of decided parts": (
        DirectSumMatroid([UniformMatroid(2, 1), FreeMatroid(2), PartitionMatroid([[0, 1]], [1])]),
        True,
    ),
    "direct sum with a graphic part": (
        DirectSumMatroid([FreeMatroid(1), GraphicMatroid(3, [(0, 1), (1, 2), (0, 2), (0, 0)])]),
        False,
    ),
    "copies of a free matroid": (VertexCopyMatroid(FreeMatroid(3), {0: 0, 1: 0, 2: 1, 3: 2}), True),
    "copies of a graphic matroid": (
        VertexCopyMatroid(GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (0, 2)]), {0: 0, 1: 0, 2: 1, 3: 2, 4: 3}),
        False,
    ),
    "copies of copies of a partition": (
        VertexCopyMatroid(
            VertexCopyMatroid(PartitionMatroid([[0, 1], [2]], [1, 1]), {0: 0, 1: 1, 2: 2, 3: 2}),
            {0: 0, 1: 0, 2: 3, 3: 1},
        ),
        True,
    ),
    "wrapper": (PublicOnly(FreeMatroid(3)), False),
    "subclass overriding _independent alone": (_RankOnePartition([[0, 1], [2, 3]], [1, 1]), False),
    "subclass stating no classes": (_UnstatedCopies(FreeMatroid(2), {0: 0, 1: 0, 2: 1}), False),
}


@pytest.mark.parametrize("oracle, decided", RUNG_CASES.values(), ids=RUNG_CASES.keys())
def test_the_class_free_rung_of_each_family(oracle, decided):
    query = assert_rung_agrees(oracle)
    assert (query is always_independent) == decided


def test_a_wrapped_part_still_sees_the_class_free_queries():
    # A wrapper that overrides only ``is_independent`` is asked through that
    # override, by a direct sum's or vertex copies' rung as by their full query.
    for build in (
        lambda m: DirectSumMatroid([FreeMatroid(2), m]),
        lambda m: VertexCopyMatroid(m, {0: 0, 1: 1, 2: 2}),
    ):
        wrapper = PublicOnly(FreeMatroid(3))
        query = build(wrapper)._class_free_query()
        assert query(frozenset({1, 2})) and wrapper.asked == 1
