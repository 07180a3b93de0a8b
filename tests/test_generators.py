import time
from fractions import Fraction

import pytest

from mpls.generators import (
    FAMILIES,
    GeneratorError,
    build_doc,
    generate,
    random_partition_matroids,
)
from mpls.matroids import PartitionMatroid
from mpls.serialization import InstanceDoc, dumps_canonical


def test_greedy_trap_shape():
    inst = generate("greedy-trap", k=3, rho=Fraction(3, 10))
    assert inst.num_edges == 4
    assert inst.weights == (Fraction(1), Fraction(7, 10), Fraction(7, 10), Fraction(7, 10))
    assert inst.edges[0] == frozenset([0, 1, 2])
    assert inst.num_vertices == 12
    assert inst.arity == 3
    # the heavy edge blocks each light edge through a shared block
    assert not inst.matroid.is_independent(inst.edges[0] | inst.edges[1])


def test_greedy_trap_parameter_validation():
    with pytest.raises(GeneratorError):
        build_doc("greedy-trap", k=0)
    with pytest.raises(GeneratorError):
        build_doc("greedy-trap", k=2, rho=Fraction(3, 2))


def test_documents_are_reproducible():
    for family, params in [
        ("set-packing", {"n": 7, "m": 6, "k": 3, "seed": 9}),
        ("graphic-parity", {"n": 4, "m": 5, "k": 2, "seed": 9}),
        ("k-mi-partition", {"n": 4, "k": 2, "seed": 9}),
    ]:
        a = dumps_canonical(build_doc(family, **params).to_json_obj())
        b = dumps_canonical(build_doc(family, **params).to_json_obj())
        assert a == b
        other = dict(params, seed=10)
        assert a != dumps_canonical(build_doc(family, **other).to_json_obj())


def test_set_packing_edge_sizes_respect_arity():
    inst = generate("set-packing", n=9, m=12, k=3, seed=1)
    raw = build_doc("set-packing", n=9, m=12, k=3, seed=1)
    assert all(1 <= len(e) <= 3 for e in raw.edge_verts)
    assert inst.arity == 3
    assert inst.num_edges == 12


def test_k_mi_partition_stays_a_partition_matroid():
    inst = generate("k-mi-partition", n=5, k=3, seed=2)
    # copies form an exact cover, so normalization keeps the raw matroid
    assert isinstance(inst.matroid, PartitionMatroid)
    assert inst.num_vertices == 15
    assert inst.edges[0] == frozenset([0, 5, 10])


def test_random_partition_matroids_share_a_ground_set():
    mats = random_partition_matroids(6, 3, seed=4)
    assert len(mats) == 3
    for m in mats:
        assert m.ground == frozenset(range(6))


def test_unknown_family_and_parameters():
    with pytest.raises(GeneratorError):
        build_doc("mystery")
    with pytest.raises(GeneratorError):
        build_doc("greedy-trap", n=5)
    assert set(FAMILIES) == {
        "greedy-trap",
        "set-packing",
        "graphic-parity",
        "k-mi-partition",
    }


@pytest.mark.parametrize(
    "family, params",
    [
        ("greedy-trap", {"k": 2.7}),
        ("greedy-trap", {"k": True}),
        ("set-packing", {"n": 7.5}),
        ("set-packing", {"m": 6.0}),
        ("graphic-parity", {"k": Fraction(3)}),
        ("k-mi-partition", {"n": False}),
    ],
)
def test_non_integer_size_parameters_are_refused(family, params):
    # Truncating k = 2.7 would build the k = 2 trap under the k = 2 name.
    with pytest.raises(GeneratorError, match=f"^{next(iter(params))} must be an integer"):
        build_doc(family, **params)


@pytest.mark.parametrize("rho", [0.3, True, "1e-300000"])
def test_greedy_trap_refuses_a_float_boolean_or_huge_exponent_rho(rho):
    # A float would be read as its binary expansion, True as 1, and the
    # exponent would take minutes to write out in the document's name.
    start = time.perf_counter()
    with pytest.raises(GeneratorError, match="^rho: "):
        build_doc("greedy-trap", k=2, rho=rho)
    assert time.perf_counter() - start < 1


def test_greedy_trap_reads_rho_exactly():
    expected = dumps_canonical(build_doc("greedy-trap", k=2, rho=Fraction(3, 10)).to_json_obj())
    for rho in ("3/10", "0.3", "3e-1"):
        assert dumps_canonical(build_doc("greedy-trap", k=2, rho=rho).to_json_obj()) == expected
    assert build_doc("greedy-trap", k=2, rho=0).edge_weights == (Fraction(1),) * 3


def test_greedy_trap_refuses_a_rho_the_loader_would_refuse():
    # 1 - rho has a 3,001-bit denominator, past MAX_WEIGHT_BITS; one bit less loads.
    with pytest.raises(GeneratorError, match="^rho: weight denominators have an lcm beyond"):
        build_doc("greedy-trap", k=3, rho=Fraction(1, 2**3000))
    obj = build_doc("greedy-trap", k=3, rho=Fraction(1, 2**2999)).to_json_obj()
    assert InstanceDoc.from_json_obj(obj).to_json_obj() == obj


@pytest.mark.parametrize("family", ["set-packing", "graphic-parity", "k-mi-partition"])
@pytest.mark.parametrize("seed", [True, 1.5, "1"])
def test_seeded_generators_refuse_a_seed_that_is_not_an_int(family, seed):
    # seed=True would build the seed-1 document under the name "...-sTrue".
    with pytest.raises(GeneratorError, match="^seed must be an integer"):
        build_doc(family, seed=seed)
