"""Matroid independence oracles.

Every matroid here is presented as a black box answering "is this subset
independent?".  The families are free, uniform, partition, graphic and
linear over a small prime field.  The combinators are contraction,
direct sum and vertex copies; each wraps its base oracles instead of
copying them, and is immutable after construction.

``is_independent`` is the one public entry; it validates the query and
turns it into a frozenset.  A combinator calls its base's unchecked
``_independent``, so a query is validated once, at the outer oracle.
Oracles count nothing: a solver run counts its queries in its trace.

``_parallel_classes`` states, from an oracle's structure and never from
its answers, groups of elements any two of which are dependent together.
Two such elements form a circuit, or one is a loop, so no independent
set holds both.  Any part of that relation is sound to state.

``_class_free_query`` returns one more unchecked rung: a callable that
answers ``_independent`` for a *class-free* set, one holding at most one
element of each stated class, and may answer anything for another set.
It skips what the classes settle.  An oracle whose stated classes are
all its circuits (free; uniform of rank 1 or at least n; a partition
whose every block has capacity 1 or at least its size; vertex copies and
direct sums of these) returns ``always_independent``, which reads no
set.  By default the rung is ``_independent``, and a subclass that
overrides ``_independent`` or ``_parallel_classes`` but not this method
gets that default back, since its family's rung may no longer hold.
"""

from __future__ import annotations

from math import isqrt
from typing import AbstractSet, Callable, Collection, Iterable, Sequence


# Largest modulus a linear matroid accepts; trial division up to its
# square root then takes at most 255 steps.
MAX_FIELD_PRIME = 2**16


class GroundSetError(ValueError):
    """A query or construction referenced elements outside the ground set."""


class DependentContractionError(ValueError):
    """Contraction was requested on a dependent set."""


def always_independent(subset: AbstractSet[int]) -> bool:
    """The rung of an oracle whose stated classes are all its circuits."""
    return True


def _integer(x: object, what: str) -> int:
    """``x`` itself if it is a plain int; a float or a boolean is refused, not truncated."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


class MatroidOracle:
    """Base class for independence oracles over a finite ground set.

    Subclasses implement ``_independent`` for a set already known to lie
    inside ``ground``; it must not modify the set.  The public entry
    point validates the query and delegates.  A wrapper that overrides
    only ``is_independent`` is still answered through that override when
    a combinator queries it.  Such a wrapper that keeps the oracle it
    answers for as ``base``, on its own ground set, is taken for a proxy
    and states its base's parallel classes.
    """

    __slots__ = ("ground",)

    def __init__(self, ground: Iterable[int]):
        self.ground: frozenset[int] = frozenset(ground)

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "_class_free_query" not in own and ("_independent" in own or "_parallel_classes" in own):
            cls._class_free_query = MatroidOracle._class_free_query  # type: ignore[method-assign]

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        if not s <= self.ground:
            outside = s - self.ground
            try:
                shown = sorted(outside)
            except TypeError:  # elements of types that do not compare
                shown = sorted(outside, key=repr)
            raise GroundSetError(f"query contains elements outside the ground set: {shown}")
        return self._independent(s)

    def _independent(self, subset: AbstractSet[int]) -> bool:
        # Reached only by a wrapper that overrides ``is_independent`` alone.
        return self.is_independent(subset)

    def _parallel_classes(self) -> Iterable[Collection[int]]:
        """Pairwise disjoint groups of elements, any two in one group dependent together.

        Stated from structure alone; an oracle may state fewer, or none.
        """
        base = getattr(self, "base", None)
        if (
            type(self)._independent is MatroidOracle._independent
            and isinstance(base, MatroidOracle)
            and base.ground == self.ground
        ):
            return base._parallel_classes()
        return ()

    def _class_free_query(self) -> Callable[[AbstractSet[int]], bool]:
        """``_independent``, or a faster callable that agrees with it on every class-free set."""
        return self._independent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(|ground|={len(self.ground)})"


class FreeMatroid(MatroidOracle):
    """Every subset independent."""

    __slots__ = ()

    def __init__(self, n: int):
        if _integer(n, "ground size") < 0:
            raise ValueError("ground size must be nonnegative")
        super().__init__(range(n))

    def _independent(self, subset: AbstractSet[int]) -> bool:
        return True

    def _class_free_query(self) -> Callable[[AbstractSet[int]], bool]:
        return always_independent


class UniformMatroid(MatroidOracle):
    """Independent iff the subset has at most ``r`` elements."""

    __slots__ = ("r",)

    def __init__(self, n: int, r: int):
        if _integer(n, "ground size") < 0 or _integer(r, "rank") < 0:
            raise ValueError("need n >= 0 and r >= 0")
        super().__init__(range(n))
        self.r = r

    def _independent(self, subset: AbstractSet[int]) -> bool:
        return len(subset) <= self.r

    def _parallel_classes(self) -> Iterable[Collection[int]]:
        return (self.ground,) if self.r == 1 else ()

    def _class_free_query(self) -> Callable[[AbstractSet[int]], bool]:
        # A class-free set of a rank-1 matroid holds at most one element.
        if self.r == 1 or self.r >= len(self.ground):
            return always_independent
        return self._independent


class PartitionMatroid(MatroidOracle):
    """At most ``capacities[i]`` elements from ``blocks[i]``.

    Blocks must be pairwise disjoint; their union is the ground set.
    """

    __slots__ = ("blocks", "capacities", "_block_of", "_tight")

    def __init__(self, blocks: Sequence[Iterable[int]], capacities: Sequence[int]):
        blocks = tuple(frozenset(b) for b in blocks)
        if len(blocks) != len(capacities):
            raise ValueError("one capacity per block required")
        block_of: dict[int, int] = {}
        for i, b in enumerate(blocks):
            for v in b:
                if v in block_of:
                    raise ValueError(f"element {v} appears in two blocks")
                block_of[v] = i
        caps = tuple(_integer(c, "capacity") for c in capacities)
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative")
        super().__init__(block_of)
        self.blocks = blocks
        self.capacities = caps
        self._block_of = block_of
        # The blocks a class-free set can overfill: a capacity-1 block is a
        # class, and a block no larger than its capacity never overflows.
        self._tight = {v: i for i, b in enumerate(blocks) if caps[i] != 1 and caps[i] < len(b) for v in b}

    def _independent(self, subset: AbstractSet[int]) -> bool:
        return _within_capacities(subset, self._block_of, self.capacities)

    def _parallel_classes(self) -> Iterable[Collection[int]]:
        return (b for b, c in zip(self.blocks, self.capacities) if c == 1)

    def _class_free_query(self) -> Callable[[AbstractSet[int]], bool]:
        tight, caps = self._tight, self.capacities
        if not tight:
            return always_independent
        return lambda subset: _within_capacities(subset, tight, caps)


def _within_capacities(subset: AbstractSet[int], block_of: dict[int, int], caps: Sequence[int]) -> bool:
    """Whether no block holds more of ``subset`` than its capacity.

    Only the elements in ``block_of`` are counted.
    """
    counts: dict[int, int] = {}
    for v in subset:
        b = block_of.get(v)
        if b is not None:
            c = counts.get(b, 0) + 1
            if c > caps[b]:
                return False
            counts[b] = c
    return True


class GraphicMatroid(MatroidOracle):
    """Ground elements are edges of a graph; independent iff they form a forest."""

    __slots__ = ("num_graph_vertices", "graph_edges")

    def __init__(self, num_graph_vertices: int, graph_edges: Sequence[tuple[int, int]]):
        _integer(num_graph_vertices, "graph vertex count")
        edges = tuple((_integer(u, "endpoint"), _integer(v, "endpoint")) for u, v in graph_edges)
        for u, v in edges:
            if not (0 <= u < num_graph_vertices and 0 <= v < num_graph_vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
        super().__init__(range(len(edges)))
        self.num_graph_vertices = num_graph_vertices
        self.graph_edges = edges

    def _independent(self, subset: AbstractSet[int]) -> bool:
        if len(subset) >= self.num_graph_vertices:
            return not subset  # a forest has fewer edges than vertices
        # Union-find over the vertices the set touches, with path halving:
        # each step links a vertex to its grandparent.  Roots are absent.
        parent: dict[int, int] = {}
        edges = self.graph_edges
        for idx in subset:
            u, v = edges[idx]
            while u in parent:
                w = parent[u]
                parent[u] = u = parent.get(w, w)
            while v in parent:
                w = parent[v]
                parent[v] = v = parent.get(w, w)
            if u == v:
                return False  # closes a cycle (covers self-loops too)
            parent[u] = v
        return True

    def _parallel_classes(self) -> Iterable[Collection[int]]:
        ends: dict[tuple[int, int], list[int]] = {}  # non-loop edges by their end points
        for idx, (u, v) in enumerate(self.graph_edges):
            if u != v:
                ends.setdefault((min(u, v), max(u, v)), []).append(idx)
        return ends.values()


class LinearMatroid(MatroidOracle):
    """Columns of a matrix over a prime field; independent iff full column rank.

    Arithmetic is exact modular arithmetic, no floating point anywhere.
    """

    __slots__ = ("prime", "columns", "_dim")

    def __init__(self, prime: int, columns: Sequence[Sequence[int]]):
        if not 2 <= _integer(prime, "field prime") <= MAX_FIELD_PRIME or any(
            prime % d == 0 for d in range(2, isqrt(prime) + 1)
        ):
            raise ValueError(f"{prime} is not a prime up to {MAX_FIELD_PRIME}")
        cols = tuple(tuple(_integer(x, "column entry") % prime for x in c) for c in columns)
        if cols:
            dim = len(cols[0])
            if any(len(c) != dim for c in cols):
                raise ValueError("columns must share a dimension")
        else:
            dim = 0
        super().__init__(range(len(cols)))
        self.prime = prime
        self.columns = cols
        self._dim = dim

    def _independent(self, subset: AbstractSet[int]) -> bool:
        if len(subset) > self._dim:
            return False
        p = self.prime
        columns = self.columns
        pivots: list[tuple[int, list[int]]] = []  # (pivot row, reduced column with 1 there)
        for i in subset:  # the rank does not depend on the column order
            col = columns[i]
            for prow, pcol in pivots:
                factor = col[prow]
                if factor:
                    col = [(x - factor * y) % p for x, y in zip(col, pcol)]
            for row, x in enumerate(col):
                if x:
                    break
            else:
                return False
            inv = pow(x, -1, p)
            pivots.append((row, [(inv * y) % p for y in col]))
        return True

    def _parallel_classes(self) -> Iterable[Collection[int]]:
        p = self.prime
        scaled: dict[tuple[int, ...], list[int]] = {}  # nonzero columns by their multiple led by 1
        for i, col in enumerate(self.columns):
            lead = next((x for x in col if x), 0)
            if lead:
                inv = pow(lead, -1, p)
                scaled.setdefault(tuple(inv * x % p for x in col), []).append(i)
        return scaled.values()


class ContractedMatroid(MatroidOracle):
    """Base matroid contracted on an independent set.

    A set is independent here iff its union with the contracted set is
    independent in the base.  Contracting a dependent set is rejected.
    """

    __slots__ = ("base", "away")

    def __init__(self, base: MatroidOracle, away: Iterable[int]):
        away = frozenset(away)
        if not away <= base.ground:
            raise GroundSetError("contraction set outside the base ground set")
        if not base.is_independent(away):
            raise DependentContractionError("can only contract an independent set")
        super().__init__(base.ground - away)
        self.base = base
        self.away = away

    def _independent(self, subset: AbstractSet[int]) -> bool:
        return self.base._independent(subset | self.away)


class DirectSumMatroid(MatroidOracle):
    """Direct sum of matroids, each on its own ground set ``0..n_i-1``.

    Element v of part i gets the id ``offsets[i] + v``, the offsets being
    the running sums of the part sizes.  A set is independent iff its
    slice in each part is independent there; the parts it meets are asked
    in order, up to the first dependent slice.  A ``FreeMatroid`` part
    adds coloops: fresh elements independent of everything.
    """

    __slots__ = ("parts", "_slices")

    def __init__(self, parts: Sequence[MatroidOracle]):
        slices: list[tuple[MatroidOracle, frozenset[int], int]] = []  # (part, its ids, offset)
        offset = 0
        for i, part in enumerate(parts):
            n = len(part.ground)
            if part.ground != frozenset(range(n)):
                raise GroundSetError(f"part {i} is not on the ground set 0..{n - 1}")
            slices.append((part, frozenset(range(offset, offset + n)), offset))
            offset += n
        super().__init__(range(offset))
        self.parts = tuple(parts)
        self._slices = tuple(slices)

    def _independent(self, subset: AbstractSet[int]) -> bool:
        for part, ids, offset in self._slices:
            s = ids.intersection(subset)
            if s and not part._independent({x - offset for x in s} if offset else s):
                return False
        return True

    def _class_free_query(self) -> Callable[[AbstractSet[int]], bool]:
        # A class-free set's slice is class-free in its part; a part whose
        # rung reads no set is not asked.
        asked = [(part._class_free_query(), ids, offset) for part, ids, offset in self._slices]
        asked = [a for a in asked if a[0] is not always_independent]
        if not asked:
            return always_independent

        def query(subset: AbstractSet[int]) -> bool:
            for part_query, ids, offset in asked:
                s = ids.intersection(subset)
                if s and not part_query({x - offset for x in s} if offset else s):
                    return False
            return True

        return query

    def _parallel_classes(self) -> Iterable[Collection[int]]:
        return (
            [x + offset for x in group]
            for part, _, offset in self._slices
            for group in part._parallel_classes()
        )


class VertexCopyMatroid(MatroidOracle):
    """Copies of base elements: at most one copy each, originals independent.

    Ground elements are copies; ``copy_to_original`` sends each copy to the
    base element it duplicates.  A set of copies is independent iff no two
    copies share an original and the set of originals is independent in the
    base matroid.
    """

    __slots__ = ("base", "copy_to_original")

    def __init__(self, base: MatroidOracle, copy_to_original: dict[int, int]):
        originals = frozenset(copy_to_original.values())
        if not originals <= base.ground:
            raise GroundSetError("copy targets outside the base ground set")
        super().__init__(copy_to_original)
        self.base = base
        self.copy_to_original = dict(copy_to_original)

    def _independent(self, subset: AbstractSet[int]) -> bool:
        seen: set[int] = set()
        mapping = self.copy_to_original
        for c in subset:
            o = mapping[c]
            if o in seen:
                return False
            seen.add(o)
        return self.base._independent(seen)

    def _class_free_query(self) -> Callable[[AbstractSet[int]], bool]:
        # Copies of one original share a class, so a class-free set has no
        # duplicated original, and its originals are class-free in the base.
        base_query = self.base._class_free_query()
        if base_query is always_independent:
            return always_independent
        original = self.copy_to_original.__getitem__
        return lambda subset: base_query(set(map(original, subset)))

    def _parallel_classes(self) -> Iterable[Collection[int]]:
        # Copies of one original, or of originals in one base group, share a key.
        key: dict[int, int] = {}
        for group in self.base._parallel_classes():
            key.update(dict.fromkeys(group, next(iter(group), None)))
        copies: dict[int, list[int]] = {}
        for c, o in self.copy_to_original.items():
            copies.setdefault(key.get(o, o), []).append(c)
        return copies.values()
