"""Deterministic instance generators.

Every generator builds an :class:`~mpls.serialization.InstanceDoc` (the
raw, serializable form) from a family name, a seed, and a few size
parameters; ``generate`` additionally normalizes it into a solver-ready
:class:`~mpls.instance.ParityInstance`.  Same family + seed + parameters
always yields byte-identical documents.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Callable

from .instance import ParityInstance
from .matroids import PartitionMatroid
from .serialization import (
    MAX_VERTICES,
    FormatError,
    InstanceDoc,
    _check_weight_bits,
    format_fraction,
    parse_fraction,
)


class GeneratorError(ValueError):
    """Unknown family or unusable parameters."""


def _check_size(vertices: int, incidences: int) -> None:
    """Refuse a document past ``MAX_VERTICES`` before any of it is built."""
    if vertices > MAX_VERTICES or incidences > MAX_VERTICES:
        raise GeneratorError(
            f"the instance would exceed {MAX_VERTICES} vertices or vertex-edge incidences"
        )


def _check_integers(**params: Any) -> None:
    """Refuse a size or seed that is not a plain ``int``, before anything is built."""
    for name, value in params.items():
        if type(value) is not int:
            raise GeneratorError(f"{name} must be an integer, got {value!r:.40}")


def _random_weight(rng: random.Random) -> Fraction:
    # Mostly two-decimal weights, occasionally thirds so non-terminating
    # denominators stay exercised.
    if rng.randrange(8) == 0:
        return Fraction(rng.randint(0, 99), 3)
    return Fraction(rng.randint(0, 9999), 100)


def greedy_trap_doc(k: int = 3, rho: Fraction | int | str = Fraction(3, 10)) -> InstanceDoc:
    """One heavy edge that greedy loves, k light edges it thereby kills.

    The heavy edge (weight 1) shares a capacity-one partition block with
    the first vertex of every light edge (weight 1 - rho), so taking it
    blocks all of them.  The optimum takes the k lights for k(1 - rho);
    greedy keeps the heavy edge and stops at 1.  A shifted interval
    ladder puts heavy and lights into one interval whenever the shift
    exceeds rho, after which a pair-for-one swap escapes the trap.
    """
    _check_integers(k=k)
    try:  # rho read exactly (a float or a boolean is refused), in weights the loader takes
        rho = rho if type(rho) is Fraction else parse_fraction(rho)
        _check_weight_bits([Fraction(1), 1 - rho])
    except FormatError as exc:
        raise GeneratorError(f"rho: {exc}") from None
    if k < 1:
        raise GeneratorError("k must be positive")
    if not 0 <= rho < 1:
        raise GeneratorError("rho must lie in [0, 1)")
    _check_size(k * (k + 1), k * (k + 1))
    heavy = list(range(k))
    edges: list[list[int]] = [heavy]
    weights: list[Fraction] = [Fraction(1)]
    blocks: list[list[int]] = []
    caps: list[int] = []
    next_vertex = k
    for i in range(k):
        verts = list(range(next_vertex, next_vertex + k))
        next_vertex += k
        edges.append(verts)
        weights.append(1 - rho)
        blocks.append([i, verts[0]])
        caps.append(1)
        for v in verts[1:]:
            blocks.append([v])
            caps.append(1)
    matroid_desc: dict[str, Any] = {
        "family": "partition",
        "blocks": blocks,
        "capacities": caps,
    }
    return InstanceDoc(
        arity=k,
        num_vertices=next_vertex,
        edge_verts=tuple(frozenset(e) for e in edges),
        edge_weights=tuple(weights),
        matroid_desc=matroid_desc,
        name=f"greedy-trap-k{k}-rho{format_fraction(rho)}",
    )


def set_packing_doc(n: int = 9, m: int = 8, k: int = 3, seed: int = 0) -> InstanceDoc:
    """Weighted set packing: overlapping random k-sets, free matroid."""
    _check_integers(n=n, m=m, k=k, seed=seed)
    if n < k or k < 1 or m < 1:
        raise GeneratorError("need n >= k >= 1 and m >= 1")
    _check_size(n, m * k)
    rng = random.Random(seed)
    edges = []
    weights = []
    for _ in range(m):
        size = k if rng.random() < 0.7 else rng.randint(1, k)
        edges.append(frozenset(rng.sample(range(n), size)))
        weights.append(_random_weight(rng))
    return InstanceDoc(
        arity=k,
        num_vertices=n,
        edge_verts=tuple(edges),
        edge_weights=tuple(weights),
        matroid_desc={"family": "free", "n": n},
        name=f"set-packing-n{n}-m{m}-k{k}-s{seed}",
    )


def graphic_parity_doc(n: int = 5, m: int = 6, k: int = 3, seed: int = 0) -> InstanceDoc:
    """Random hyperedges over the edge set of a random multigraph."""
    _check_integers(n=n, m=m, k=k, seed=seed)
    if n < 2 or k < 1 or m < 1:
        raise GeneratorError("need n >= 2, k >= 1 and m >= 1")
    _check_size(max(k, 2 * n), m * k)
    rng = random.Random(seed)
    ground = max(k, 2 * n)
    graph_edges = []
    for _ in range(ground):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        graph_edges.append((u, v))
    edges = []
    weights = []
    for _ in range(m):
        size = k if rng.random() < 0.7 else rng.randint(1, k)
        edges.append(frozenset(rng.sample(range(ground), size)))
        weights.append(_random_weight(rng))
    return InstanceDoc(
        arity=k,
        num_vertices=ground,
        edge_verts=tuple(edges),
        edge_weights=tuple(weights),
        matroid_desc={
            "family": "graphic",
            "vertices": n,
            "edges": [list(e) for e in graph_edges],
        },
        name=f"graphic-parity-n{n}-m{m}-k{k}-s{seed}",
    )


def random_partition_matroids(n: int, k: int, seed: int) -> list[PartitionMatroid]:
    """k random partition matroids on the ground set 0..n-1."""
    rng = random.Random(seed)
    out = []
    for _ in range(k):
        order = list(range(n))
        rng.shuffle(order)
        blocks: list[list[int]] = []
        i = 0
        while i < n:
            size = min(rng.randint(1, 3), n - i)
            blocks.append(sorted(order[i : i + size]))
            i += size
        caps = [rng.randint(1, len(b)) for b in blocks]
        out.append(PartitionMatroid(blocks, caps))
    return out


def k_mi_partition_doc(n: int = 6, k: int = 3, seed: int = 0) -> InstanceDoc:
    """Intersection of k random partition matroids, in parity form.

    Element v of the common ground set becomes the arity-k edge over its
    copies v, n + v, ..., (k-1)n + v; matroid i constrains the i-th copy
    block.  The result is already an exact cover, so normalization keeps
    it as is.
    """
    _check_integers(n=n, k=k, seed=seed)
    if n < 1 or k < 1:
        raise GeneratorError("need n >= 1 and k >= 1")
    _check_size(k * n, k * n)
    rng = random.Random(seed)
    matroids = random_partition_matroids(n, k, rng.getrandbits(32))
    blocks: list[list[int]] = []
    caps: list[int] = []
    for i, mat in enumerate(matroids):
        for block, cap in zip(mat.blocks, mat.capacities):
            blocks.append([i * n + v for v in sorted(block)])
            caps.append(cap)
    edges = [frozenset(i * n + v for i in range(k)) for v in range(n)]
    weights = [_random_weight(rng) for _ in range(n)]
    return InstanceDoc(
        arity=k,
        num_vertices=k * n,
        edge_verts=tuple(edges),
        edge_weights=tuple(weights),
        matroid_desc={"family": "partition", "blocks": blocks, "capacities": caps},
        name=f"k-mi-partition-n{n}-k{k}-s{seed}",
    )


FAMILIES: dict[str, Callable[..., InstanceDoc]] = {
    "greedy-trap": greedy_trap_doc,
    "set-packing": set_packing_doc,
    "graphic-parity": graphic_parity_doc,
    "k-mi-partition": k_mi_partition_doc,
}


def build_doc(family: str, **params: Any) -> InstanceDoc:
    try:
        builder = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise GeneratorError(f"unknown family {family!r}; known: {known}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise GeneratorError(f"bad parameters for {family!r}: {exc}") from None


def generate(family: str, **params: Any) -> ParityInstance:
    return build_doc(family, **params).normalize()
