"""Negative controls for the benchmark's own checker.

    python3 -m pytest bench/test_checker.py

For every matroid family the checker must reject a set known to be
dependent, and it must agree with the program's oracles on random
small sets (the program is only consulted here, never in a check).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import checker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mpls.serialization import matroid_from_descriptor  # noqa: E402

FREE = {"family": "free", "n": 4}
UNIFORM = {"family": "uniform", "n": 5, "r": 2}
PARTITION = {"family": "partition", "blocks": [[0, 1], [2], [3, 4]], "capacities": [1, 1, 2]}
# A triangle 0-1-2 (edges 0, 1, 2), a pendant edge 3 and an edge 4 parallel to edge 0.
GRAPHIC = {"family": "graphic", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 0], [2, 3], [1, 0]]}
# Over GF(3): column 2 = column 0 + column 1, column 3 = 2 * column 0, column 4 is zero.
LINEAR = {
    "family": "linear",
    "field_prime": 3,
    "columns": [[1, 0, 2], [0, 1, 1], [1, 1, 0], [2, 0, 1], [0, 0, 0]],
}

DEPENDENT = [
    (UNIFORM, [0, 3, 4]),
    (PARTITION, [0, 1]),
    (PARTITION, [1, 2, 3, 4, 0]),
    (GRAPHIC, [0, 1, 2]),
    (GRAPHIC, [0, 4]),
    (LINEAR, [0, 1, 2]),
    (LINEAR, [0, 3]),
    (LINEAR, [4]),
]
INDEPENDENT = [
    (FREE, [0, 1, 2, 3]),
    (UNIFORM, [1, 4]),
    (PARTITION, [0, 2, 3, 4]),
    (GRAPHIC, [0, 1, 3]),
    (LINEAR, [0, 1]),
    (LINEAR, [1, 3]),
]


@pytest.mark.parametrize("desc,elems", DEPENDENT)
def test_rejects_known_dependent_sets(desc, elems):
    assert not checker.independent(desc, elems)


@pytest.mark.parametrize("desc,elems", INDEPENDENT)
def test_accepts_known_independent_sets(desc, elems):
    assert checker.independent(desc, elems)


def test_free_matroid_rejects_elements_outside_the_ground_set():
    assert not checker.independent(FREE, [4])


def test_raw_document_rejects_overlapping_hyperedges():
    doc = {
        "k": 2,
        "vertices": 4,
        "edges": [{"verts": [0, 1], "w": "1"}, {"verts": [1, 2], "w": "1"}, {"verts": [3], "w": "1"}],
        "matroid": FREE,
    }
    assert not checker.parity_feasible(doc, [0, 1])
    assert checker.parity_feasible(doc, [0, 2])
    assert checker.parity_weight(doc, [0, 2]) == 2


def test_parity_document_rejects_a_dependent_vertex_union():
    doc = {
        "k": 2,
        "vertices": 5,
        "edges": [{"verts": [0, 1], "w": "1"}, {"verts": [2, 3], "w": "1"}],
        "matroid": GRAPHIC,
    }
    assert not checker.parity_feasible(doc, [0, 1])  # graph edges 0..3 hold the triangle


def test_intersection_needs_every_matroid():
    doc = {"matroids": [GRAPHIC, PARTITION], "weights": ["1", "2", "3", "4", "5"]}
    assert not checker.intersection_feasible(doc, [0, 4])  # parallel graph edges
    assert not checker.intersection_feasible(doc, [0, 1])  # partition block [0, 1] has capacity 1
    assert checker.intersection_feasible(doc, [1, 3])


def test_max_weight_by_hand():
    doc = {
        "k": 2,
        "vertices": 4,
        "edges": [
            {"verts": [0, 1], "w": "3"},
            {"verts": [1, 2], "w": "2"},
            {"verts": [2, 3], "w": "2"},
            {"verts": [3], "w": Fraction(1, 3)},
        ],
        "matroid": FREE,
    }
    assert checker.max_weight(doc) == 5  # edges 0 and 2


def test_agrees_with_the_program_oracles():
    rng = random.Random(7)
    for desc in (FREE, UNIFORM, PARTITION, GRAPHIC, LINEAR):
        oracle = matroid_from_descriptor(desc)
        ground = sorted(oracle.ground)
        for size in range(len(ground) + 1):
            for elems in combinations(ground, size):
                assert checker.independent(desc, elems) == oracle.is_independent(elems)
    for _ in range(200):
        cols = [[rng.randrange(5) for _ in range(3)] for _ in range(6)]
        desc = {"family": "linear", "field_prime": 5, "columns": cols}
        oracle = matroid_from_descriptor(desc)
        elems = rng.sample(range(6), rng.randint(0, 4))
        assert checker.independent(desc, elems) == oracle.is_independent(elems)
