import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mpls.exact import brute_force_optimum
from mpls.generators import build_doc
from mpls.instance import from_matroid_intersection, make_disjoint
from mpls.serialization import (
    MAX_WEIGHT_BITS,
    FormatError,
    InstanceDoc,
    dumps_canonical,
    format_fraction,
    instance_signature,
    load_instance_doc,
    matroid_from_descriptor,
    matroid_to_descriptor,
    parse_fraction,
)
from mpls.matroids import (
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    PartitionMatroid,
    UniformMatroid,
)


def test_fraction_formatting_prefers_decimals():
    assert format_fraction(Fraction(21, 10)) == "2.1"
    assert format_fraction(Fraction(63, 8)) == "7.875"
    assert format_fraction(Fraction(5)) == "5"
    assert format_fraction(Fraction(0)) == "0"
    assert format_fraction(Fraction(1, 3)) == "1/3"
    assert format_fraction(Fraction(-3, 7)) == "-3/7"


def test_fraction_parsing():
    assert parse_fraction("2.1") == Fraction(21, 10)
    assert parse_fraction("1/3") == Fraction(1, 3)
    assert parse_fraction(7) == Fraction(7)
    with pytest.raises(FormatError):
        parse_fraction("seven")


def test_fraction_exponents_are_bounded():
    assert parse_fraction("1.5e-3") == Fraction(3, 2000)
    assert parse_fraction("1E+2") == Fraction(100)
    assert parse_fraction("1e-1000") == Fraction(1, 10**1000)
    for text in ("1e1001", "1e-1001", "2.5E-1000000", "1e-00000000000000001001", "1e" + "9" * 5000):
        with pytest.raises(FormatError):
            parse_fraction(text)
    with pytest.raises(FormatError):
        parse_fraction(float("inf"))


@pytest.mark.parametrize("text", ["1e\u0662\u0660\u0660\u0660", "\u0661", "\uff11", "1/\u0663"])
def test_non_ascii_digits_are_refused(text):
    # Fraction reads any Unicode decimal digit, so an Arabic-Indic exponent
    # would slip past MAX_EXPONENT.
    with pytest.raises(FormatError):
        parse_fraction(text)


@given(st.fractions())
def test_fraction_round_trip(q):
    assert parse_fraction(format_fraction(q)) == q


MATROIDS = [
    FreeMatroid(4),
    UniformMatroid(5, 2),
    PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2]),
    GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    LinearMatroid(5, [(1, 0), (0, 1), (2, 3), (1, 1)]),
]


@pytest.mark.parametrize("oracle", MATROIDS, ids=lambda m: type(m).__name__)
def test_matroid_descriptor_round_trip(oracle):
    desc = matroid_to_descriptor(oracle)
    rebuilt = matroid_from_descriptor(json.loads(dumps_canonical(desc)))
    assert type(rebuilt) is type(oracle)
    assert rebuilt.ground == oracle.ground
    for mask in range(1 << len(oracle.ground)):
        subset = {v for v in oracle.ground if mask >> v & 1}
        assert rebuilt.is_independent(subset) == oracle.is_independent(subset)


def test_unknown_descriptor_kind():
    with pytest.raises(FormatError):
        matroid_from_descriptor({"kind": "mystery"})


@pytest.mark.parametrize(
    "family,params",
    [
        ("set-packing", {"n": 7, "m": 6, "k": 3, "seed": 4}),
        ("graphic-parity", {"n": 4, "m": 5, "k": 2, "seed": 4}),
        ("k-mi-partition", {"n": 4, "k": 2, "seed": 4}),
        ("greedy-trap", {"k": 3, "rho": Fraction(3, 10)}),
    ],
)
def test_instance_file_round_trip(tmp_path, family, params):
    doc = build_doc(family, **params)
    path = tmp_path / "inst.json"
    path.write_text(dumps_canonical(doc.to_json_obj()), encoding="utf-8")
    again = load_instance_doc(path)
    assert again.to_json_obj() == doc.to_json_obj()
    assert dumps_canonical(again.to_json_obj()) == path.read_text()

    inst = again.normalize()
    assert instance_signature(inst) == instance_signature(doc.normalize())
    assert brute_force_optimum(inst).optimum == brute_force_optimum(doc.normalize()).optimum


def test_signature_separates_instances():
    a = build_doc("set-packing", n=7, m=6, k=3, seed=0).normalize()
    b = build_doc("set-packing", n=7, m=6, k=3, seed=1).normalize()
    assert instance_signature(a) != instance_signature(b)
    assert len(instance_signature(a)) == 16


def test_signature_sees_into_composed_matroids():
    weights = [Fraction(3), Fraction(2), Fraction(1)]
    tight = [PartitionMatroid([[0, 1, 2]], [1]), PartitionMatroid([[0], [1, 2]], [1, 1])]
    loose = [PartitionMatroid([[0, 1, 2]], [2]), PartitionMatroid([[0], [1, 2]], [1, 1])]
    a = from_matroid_intersection(tight, weights)
    assert instance_signature(a) == instance_signature(from_matroid_intersection(tight, weights))
    assert instance_signature(a) != instance_signature(from_matroid_intersection(loose, weights))

    def shared_vertex(capacity):
        return make_disjoint(
            3,
            (frozenset([0, 1]), frozenset([1, 2])),
            (Fraction(1), Fraction(1)),
            PartitionMatroid([[0, 1, 2]], [capacity]),
            2,
        )

    assert instance_signature(shared_vertex(2)) != instance_signature(shared_vertex(3))


def test_bad_files_raise_format_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_instance_doc(path)
    path.write_text('{"k": 2}')
    with pytest.raises(FormatError):
        load_instance_doc(path)
    # A float or a boolean where the file holds a number, and a vertex
    # repeated within an edge, are refused rather than truncated or
    # read as their binary expansion.
    good = {
        "k": 2,
        "vertices": 4,
        "edges": [{"verts": [0, 1], "w": "1/3"}, {"verts": [2, 3], "w": 2}],
        "matroid": {"family": "free", "n": 4},
    }
    InstanceDoc.from_json_obj(good).normalize()
    graphic = {"family": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2], [0, 1]]}
    broken = [
        ("k", 1.9), ("k", True), ("vertices", 2.9), ("vertices", True),
        ("w", 0.1), ("w", True), ("w", 1.0), ("verts", [0.7, 1]), ("verts", [True, 1]),
        ("verts", [0, 0]), ("matroid", {"family": "free", "n": 2.5}),
        ("matroid", {**graphic, "edges": [[0, 1], [1, 2], [0, 1.6], [0, 2]]}),
        ("matroid", {**graphic, "vertices": 3.0}),
        ("matroid", {"family": "uniform", "n": 4, "r": 1.5}),
        ("matroid", {"family": "partition", "blocks": [[0, 1], [2, 3]], "capacities": [1, False]}),
        ("matroid", {"family": "partition", "blocks": [[0, 1.0], [2, 3]], "capacities": [1, 1]}),
        ("matroid", {"family": "linear", "field_prime": 5, "columns": [[1], [0.5], [1], [2]]}),
        ("matroid", {"family": "linear", "field_prime": 5.0, "columns": [[1], [0], [1], [2]]}),
    ]
    for key, value in broken:
        obj = json.loads(json.dumps(good))
        if key in ("w", "verts"):
            obj["edges"][0][key] = value
        else:
            obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError):
            load_instance_doc(path).normalize()


@pytest.mark.parametrize(
    "weights, refused",
    [
        ([1 << (MAX_WEIGHT_BITS - 1), 1], False),
        ([1 << MAX_WEIGHT_BITS, 1], True),  # a numerator
        ([Fraction(1, 1 << (MAX_WEIGHT_BITS - 1)), 1], False),
        ([Fraction(1, 1 << (MAX_WEIGHT_BITS - 1)), Fraction(1, 3)], True),  # the lcm
        ([Fraction(1, 1 << (MAX_WEIGHT_BITS - 2)), 4], True),  # 4 over that lcm
    ],
)
def test_weight_size_budget(weights, refused):
    obj = build_doc("set-packing", n=3, m=2, k=1, seed=0).to_json_obj()
    for edge, w in zip(obj["edges"], weights):
        edge["w"] = format_fraction(Fraction(w))
    if refused:
        with pytest.raises(FormatError):
            InstanceDoc.from_json_obj(obj)
    else:
        InstanceDoc.from_json_obj(obj)
