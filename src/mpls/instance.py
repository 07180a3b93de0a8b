"""Weighted matroid parity instances.

Raw instance data is a weighted hypergraph over a matroid ground set whose
edges may share vertices; feasibility means the chosen edges are pairwise
vertex-disjoint and their combined vertex set is independent.
``make_disjoint`` checks the raw fields once and rewires them into a
``ParityInstance``, the normal form every solver consumes: edges are
pairwise disjoint and cover every vertex exactly once, so feasibility of
an edge set reduces to a single independence query.  Shared vertices are
split into per-edge copies; the copy matroid enforces "at most one copy
per original" on top of base independence, which preserves optimum values.

The public constructor validates a normal form in full.  The normal forms
this module builds itself are covers by construction and skip that check.

All weights are exact nonnegative rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Collection, Iterable, Sequence

from .matroids import DirectSumMatroid, MatroidOracle, VertexCopyMatroid


class InstanceError(ValueError):
    """Malformed instance data or an out-of-domain query."""


def _check_weights(weights: Sequence[Fraction], count: int) -> tuple[Fraction, ...]:
    # A Fraction passes through as it is; its denominator is positive, so
    # its numerator carries the sign.
    ws = tuple(w if type(w) is Fraction else Fraction(w) for w in weights)
    if len(ws) != count:
        raise InstanceError(f"expected {count} weights, got {len(ws)}")
    if any(w.numerator < 0 for w in ws):
        raise InstanceError("edge weights must be nonnegative")
    return ws


@dataclass(frozen=True)
class Solution:
    """A feasible (or candidate) set of edge ids with its total weight."""

    edges: frozenset[int]
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "weight", Fraction(self.weight))


@dataclass(frozen=True)
class ParityInstance:
    """Normal form: edges partition the vertex set.

    ``matroid`` is an independence oracle on exactly the vertex ids
    ``0..num_vertices-1``.  A set of edges is feasible iff the union of
    their vertices is independent; pairwise disjointness is structural.
    """

    num_vertices: int
    edges: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]
    matroid: MatroidOracle
    arity: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(frozenset(e) for e in self.edges))
        object.__setattr__(self, "weights", _check_weights(self.weights, len(self.edges)))
        if self.arity < 1:
            raise InstanceError("arity must be at least 1")
        vertices = frozenset(range(self.num_vertices))
        if self.matroid.ground != vertices:
            raise InstanceError("matroid ground set must equal the vertex set")
        seen: set[int] = set()
        for j, e in enumerate(self.edges):
            if not 1 <= len(e) <= self.arity:
                raise InstanceError(f"edge {j} has {len(e)} vertices, arity bound is {self.arity}")
            if seen & e:
                raise InstanceError(f"edge {j} shares vertices with an earlier edge")
            seen |= e
        if seen != vertices:
            raise InstanceError("every vertex must belong to exactly one edge")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def weight_denominator(self) -> int:
        """Common denominator of all edge weights."""
        return lcm(*(w.denominator for w in self.weights)) if self.weights else 1

    @cached_property
    def weight_numerators(self) -> tuple[int, ...]:
        """Weights scaled to a common denominator, as plain integers.

        The solver compares edge-set weights with these so the hot loop
        stays in integer arithmetic while remaining exact.
        """
        den = self.weight_denominator
        return tuple(w.numerator * (den // w.denominator) for w in self.weights)

    @cached_property
    def feasible_alone(self) -> tuple[bool, ...]:
        """Whether each edge is feasible on its own."""
        return tuple(self.matroid.is_independent(e) for e in self.edges)

    @cached_property
    def conflicts(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each edge, the groups of edges it can never share a solution with.

        Any two edges of a group hold elements of one of the matroid's
        ``_parallel_classes``, so their union is dependent; the edge itself
        is in each of its groups.  A group is one tuple shared by all its
        edges, so the table grows with the instance, not with the number
        of conflicting pairs.  No query is asked.
        """
        edge_of = {v: j for j, e in enumerate(self.edges) for v in e}
        groups: list[list[tuple[int, ...]]] = [[] for _ in self.edges]
        for cls in self.matroid._parallel_classes():
            group = tuple(sorted({edge_of[v] for v in cls}))
            if len(group) > 1:
                for j in group:
                    groups[j].append(group)
        return tuple(map(tuple, groups))

    @cached_property
    def _lone_order(self) -> tuple[int, ...]:
        """The edges feasible on their own, heaviest first, ties by id."""
        wn = self.weight_numerators
        lone = (j for j, ok in enumerate(self.feasible_alone) if ok)
        return tuple(sorted(lone, key=lambda j: (-wn[j], j)))

    def _reweighted(self, weights: Iterable[Fraction]) -> ParityInstance:
        """This instance with other weights, of which only the weights are checked.

        Lone feasibility and the conflicts, once built, depend on the edges
        and the matroid alone, so they carry over; the signature covers the
        weights and does not, and neither does the lone order, since new
        weights may tie and reorder.
        """
        new = _built(
            num_vertices=self.num_vertices,
            edges=self.edges,
            weights=_check_weights(weights, len(self.edges)),
            matroid=self.matroid,
            arity=self.arity,
            feasible_alone=self.feasible_alone,
        )
        if "conflicts" in self.__dict__:
            new.__dict__["conflicts"] = self.conflicts
        return new

    def is_feasible(self, edge_ids: Iterable[int]) -> bool:
        ids = frozenset(edge_ids)
        m = len(self.edges)
        if not all(type(j) is int and 0 <= j < m for j in ids):
            raise InstanceError("unknown edge id")
        return self.matroid.is_independent(self.vertices_of(ids))

    def _solution(self, ids: Collection[int]) -> Solution:
        """The solution of ids already known to be edges of the instance, taken unchecked."""
        wn = self.weight_numerators
        return Solution(ids, Fraction(sum(wn[j] for j in ids), self.weight_denominator))

    def vertices_of(self, edge_ids: Iterable[int]) -> frozenset[int]:
        used: set[int] = set()
        for j in edge_ids:
            used |= self.edges[j]
        return frozenset(used)


def _built(**fields: object) -> ParityInstance:
    """A normal form this module built, a cover by construction, taken unchecked.

    ``fields`` names every dataclass field and may preset cached properties.
    """
    new = object.__new__(ParityInstance)
    new.__dict__.update(fields)
    return new


def make_disjoint(
    num_vertices: int,
    edges: Iterable[Iterable[int]],
    weights: Sequence[Fraction],
    matroid: MatroidOracle,
    arity: int,
) -> ParityInstance:
    """Normalize raw instance data so edges become pairwise vertex-disjoint.

    The raw edges may share vertices; each must hold 1 to ``arity`` of the
    vertices ``0..num_vertices-1``, the matroid's ground set.  Every vertex
    of degree d is split into d copies, one per incident edge; copies are
    numbered by (vertex, incident edge id) order so the construction is
    deterministic.  Vertices touching no edge are dropped.  The new matroid
    accepts a copy set iff no original is duplicated and the projected
    originals are independent in the base matroid, which puts solutions of
    the raw and normalized instances in weight-preserving bijection.
    """
    edges = tuple(frozenset(e) for e in edges)
    weights = _check_weights(weights, len(edges))
    if arity < 1:
        raise InstanceError("arity must be at least 1")
    vertices = frozenset(range(num_vertices))
    if matroid.ground != vertices:
        raise InstanceError("matroid ground set must equal the vertex set")
    incident: dict[int, list[int]] = {}
    for j, e in enumerate(edges):
        if not 1 <= len(e) <= arity:
            raise InstanceError(f"edge {j} has {len(e)} vertices, arity bound is {arity}")
        if not e <= vertices:
            raise InstanceError(f"edge {j} uses unknown vertices")
        for v in e:
            incident.setdefault(v, []).append(j)

    if len(incident) == num_vertices and all(len(js) == 1 for js in incident.values()):
        # Already an exact cover; keep the original matroid.
        return _built(
            num_vertices=num_vertices, edges=edges, weights=weights, matroid=matroid, arity=arity
        )

    copies: list[list[int]] = [[] for _ in edges]
    copy_to_original: dict[int, int] = {}
    next_id = 0
    for v in sorted(incident):
        for j in incident[v]:
            copies[j].append(next_id)
            copy_to_original[next_id] = v
            next_id += 1

    return _built(
        num_vertices=next_id,
        edges=tuple(frozenset(c) for c in copies),
        weights=weights,
        matroid=VertexCopyMatroid(matroid, copy_to_original),
        arity=arity,
    )


def from_matroid_intersection(
    matroids: Sequence[MatroidOracle], weights: Sequence[Fraction]
) -> ParityInstance:
    """Reduce weighted k-matroid intersection to matroid parity.

    The k matroids must share the ground set ``0..n-1``.  Element v becomes
    a hyperedge over its k labeled copies (copy i of v gets id i*n + v);
    the parity matroid is the direct sum of the inputs.
    Common independent sets correspond to feasible edge sets of equal
    weight, so optima transfer exactly.
    """
    if not matroids:
        raise InstanceError("need at least one matroid")
    n = len(weights)
    ground = frozenset(range(n))
    for i, m in enumerate(matroids):
        if m.ground != ground:
            raise InstanceError(f"matroid {i} is not on the shared ground set 0..{n - 1}")
    k = len(matroids)
    edges = tuple(frozenset(i * n + v for i in range(k)) for v in range(n))
    return _built(
        num_vertices=k * n,
        edges=edges,
        weights=_check_weights(weights, n),
        matroid=DirectSumMatroid(matroids),
        arity=k,
    )
