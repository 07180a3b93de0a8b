"""Constructor and parameter refusals that no other test reaches.

Each case pins the exact exception class and the start of its message,
so a refusal cannot quietly turn into a different error or a traceback.
"""

from fractions import Fraction

import pytest

from mpls.generators import generate
from mpls.instance import InstanceError, ParityInstance, from_matroid_intersection
from mpls.matroids import (
    ContractedMatroid,
    FreeMatroid,
    GraphicMatroid,
    GroundSetError,
    LinearMatroid,
    PartitionMatroid,
    UniformMatroid,
    VertexCopyMatroid,
)
from mpls.serialization import FormatError, instance_signature, matroid_to_descriptor
from mpls.solver import compute_markers, scale_weights, sliding_local_search
from conftest import PublicOnly

ONE = (frozenset({0}),)
EPS, DELTA = Fraction(1, 4), Fraction(1, 100)


def trap():
    return generate("greedy-trap", k=2)


REFUSALS = {
    "weight-count": (
        lambda: ParityInstance(1, ONE, (Fraction(1),) * 2, FreeMatroid(1), 1),
        InstanceError, "expected 1 weights, got 2",
    ),
    "arity-zero": (
        lambda: ParityInstance(1, ONE, (Fraction(1),), FreeMatroid(1), 0),
        InstanceError, "arity must be at least 1",
    ),
    "intersection-of-nothing": (
        lambda: from_matroid_intersection([], [Fraction(1)]),
        InstanceError, "need at least one matroid",
    ),
    "intersection-ground": (
        lambda: from_matroid_intersection([FreeMatroid(2), FreeMatroid(3)], [1, 2]),
        InstanceError, "matroid 1 is not on the shared ground set",
    ),
    "free-negative": (lambda: FreeMatroid(-1), ValueError, "ground size must be nonnegative"),
    "uniform-negative-size": (lambda: UniformMatroid(-1, 0), ValueError, "need n >= 0"),
    "uniform-negative-rank": (lambda: UniformMatroid(2, -1), ValueError, "need n >= 0"),
    "partition-element-twice": (
        lambda: PartitionMatroid([[0, 1], [1]], [1, 1]),
        ValueError, "element 1 appears in two blocks",
    ),
    "partition-negative-capacity": (
        lambda: PartitionMatroid([[0]], [-1]), ValueError, "capacities must be nonnegative",
    ),
    "graphic-endpoint": (
        lambda: GraphicMatroid(2, [(0, 2)]), ValueError, "edge (0,2) outside vertex range",
    ),
    "linear-ragged-columns": (
        lambda: LinearMatroid(3, [[1, 0], [1]]), ValueError, "columns must share a dimension",
    ),
    "contraction-outside": (
        lambda: ContractedMatroid(FreeMatroid(2), {5}),
        GroundSetError, "contraction set outside the base ground set",
    ),
    "copy-target-outside": (
        lambda: VertexCopyMatroid(FreeMatroid(2), {0: 5}),
        GroundSetError, "copy targets outside the base ground set",
    ),
    "markers-epsilon": (
        lambda: compute_markers(trap(), Fraction(1), DELTA, Fraction(0)),
        ValueError, "epsilon must lie in (0, 1)",
    ),
    "markers-delta": (
        lambda: compute_markers(trap(), EPS, Fraction(0), Fraction(0)),
        ValueError, "delta must lie in (0, 1)",
    ),
    "search-delta": (
        lambda: sliding_local_search(trap(), EPS, Fraction(1), 0),
        ValueError, "delta must lie in (0, 1)",
    ),
    "search-rule": (
        lambda: sliding_local_search(trap(), EPS, DELTA, 0, "mystery"),
        ValueError, "unknown swap rule 'mystery'",
    ),
    "scale-range": (
        lambda: scale_weights(trap(), Fraction(1)),
        ValueError, "epsilon_scale must lie in (0, 1)",
    ),
    "descriptor-of-unknown-oracle": (
        lambda: matroid_to_descriptor(PublicOnly(FreeMatroid(2))),
        FormatError, "matroid of type PublicOnly has no file descriptor",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_raises_its_own_exception(case):
    build, exc_type, message = REFUSALS[case]
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value).startswith(message)


def test_signature_sees_the_base_of_a_contraction():
    def over(base):
        matroid = ContractedMatroid(base, {3})
        return ParityInstance(3, tuple(frozenset({v}) for v in range(3)), (1, 1, 1), matroid, 1)

    wide, narrow = over(UniformMatroid(4, 3)), over(UniformMatroid(4, 2))
    assert instance_signature(wide) != instance_signature(narrow)
    assert instance_signature(wide) == instance_signature(over(UniformMatroid(4, 3)))
