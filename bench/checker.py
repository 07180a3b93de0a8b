"""Feasibility and weight checks written apart from the program.

Every function here works from plain instance documents (the JSON
objects the program reads and writes) and never calls an oracle of the
program, so a fault in the program's matroids, normalisation or solver
cannot also hide in the check.

Two document shapes are understood:

* a parity document, as written by ``InstanceDoc.to_json_obj``:
  ``{"k", "vertices", "edges": [{"verts", "w"}], "matroid"}``; a set of
  edge ids is feasible iff the hyperedges are pairwise vertex-disjoint
  and their vertex union is independent in the matroid;
* an intersection document, ``{"matroids": [...], "weights": [...]}``
  whose matroids share the ground set ``0..n-1``; a set of elements is
  feasible iff it is independent in every matroid.

Matroid descriptors follow the program's file format: ``free``,
``uniform``, ``partition``, ``graphic`` and ``linear`` (over GF(p)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable


class UnknownFamily(ValueError):
    """A descriptor names a matroid family the checker does not know."""


def _forest(desc: dict[str, Any], elems: Iterable[int]) -> bool:
    parent = list(range(int(desc["vertices"])))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    graph_edges = desc["edges"]
    for e in elems:
        u, v = graph_edges[e]
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _full_column_rank(desc: dict[str, Any], elems: Iterable[int]) -> bool:
    p = int(desc["field_prime"])
    columns = desc["columns"]
    basis: dict[int, list[int]] = {}  # leading row -> row-reduced column
    for e in elems:
        col = [x % p for x in columns[e]]
        for lead in range(len(col)):
            if col[lead] == 0:
                continue
            if lead not in basis:
                inv = pow(col[lead], p - 2, p)
                basis[lead] = [(x * inv) % p for x in col]
                break
            factor = col[lead]
            col = [(x - factor * y) % p for x, y in zip(col, basis[lead])]
        else:
            return False  # reduced to zero: dependent on earlier columns
    return True


def _within_capacities(desc: dict[str, Any], elems: Iterable[int]) -> bool:
    block_of = {v: i for i, block in enumerate(desc["blocks"]) for v in block}
    used = [0] * len(desc["blocks"])
    for e in elems:
        used[block_of[e]] += 1
    return all(u <= int(c) for u, c in zip(used, desc["capacities"]))


def independent(desc: dict[str, Any], elems: Iterable[int]) -> bool:
    """Independence of ``elems`` in the matroid a descriptor describes."""
    elems = list(elems)
    if len(set(elems)) != len(elems):
        raise ValueError("repeated element in an independence query")
    family = desc["family"]
    if family == "free":
        return all(0 <= e < int(desc["n"]) for e in elems)
    if family == "uniform":
        return len(elems) <= int(desc["r"])
    if family == "partition":
        return _within_capacities(desc, elems)
    if family == "graphic":
        return _forest(desc, elems)
    if family == "linear":
        return _full_column_rank(desc, elems)
    raise UnknownFamily(family)


def parity_feasible(doc: dict[str, Any], edge_ids: Iterable[int]) -> bool:
    """Pairwise vertex-disjoint hyperedges with an independent union."""
    used: set[int] = set()
    for j in edge_ids:
        verts = doc["edges"][j]["verts"]
        if used.intersection(verts):
            return False
        used.update(verts)
    return independent(doc["matroid"], sorted(used))


def parity_weight(doc: dict[str, Any], edge_ids: Iterable[int]) -> Fraction:
    return sum((Fraction(doc["edges"][j]["w"]) for j in edge_ids), Fraction(0))


def intersection_feasible(doc: dict[str, Any], elems: Iterable[int]) -> bool:
    elems = sorted(elems)
    return all(independent(desc, elems) for desc in doc["matroids"])


def intersection_weight(doc: dict[str, Any], elems: Iterable[int]) -> Fraction:
    return sum((Fraction(doc["weights"][j]) for j in elems), Fraction(0))


def is_intersection(doc: dict[str, Any]) -> bool:
    return "matroids" in doc


def feasible(doc: dict[str, Any], ids: Iterable[int]) -> bool:
    return (intersection_feasible if is_intersection(doc) else parity_feasible)(doc, ids)


def weight(doc: dict[str, Any], ids: Iterable[int]) -> Fraction:
    return (intersection_weight if is_intersection(doc) else parity_weight)(doc, ids)


def weights_of(doc: dict[str, Any]) -> list[Fraction]:
    if is_intersection(doc):
        return [Fraction(w) for w in doc["weights"]]
    return [Fraction(e["w"]) for e in doc["edges"]]


def max_weight(doc: dict[str, Any]) -> Fraction:
    """Maximum weight of a feasible set, by depth-first enumeration.

    Both feasibility notions are closed under taking subsets, so growing
    sets one id at a time and abandoning infeasible ones visits every
    feasible set; a branch is dropped only when even all remaining
    weight could not beat the best found so far.
    """
    ws = weights_of(doc)
    suffix = [Fraction(0)] * (len(ws) + 1)
    for j in range(len(ws) - 1, -1, -1):
        suffix[j] = suffix[j + 1] + ws[j]
    best = Fraction(0)

    def grow(start: int, chosen: list[int], total: Fraction) -> None:
        nonlocal best
        best = max(best, total)
        for j in range(start, len(ws)):
            if total + suffix[j] <= best:
                return
            chosen.append(j)
            if feasible(doc, chosen):
                grow(j + 1, chosen, total + ws[j])
            chosen.pop()

    grow(0, [], Fraction(0))
    return best
