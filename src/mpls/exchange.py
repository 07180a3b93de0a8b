"""Exchange certificates and conflict diagnostics.

This module makes the structural facts behind the solver's guarantee
checkable on concrete runs:

* ``find_rota_exchange``: for independent sets S (with a partition) and T,
  exhibit disjoint pieces of T, one per part, whose removal from T leaves
  room for that part.  Exhaustive search, small scale, certificate
  re-verified through the oracle.
* ``refine_laminar``: refine such an exchange so the pieces partition a
  given exchange set for S, by contracting away the rest of T.
* ``build_conflict_trace``: replay a checked solver trace against an
  exact optimum and choose a nested chain of blocked optimum vertices,
  one set per weight interval that added solution vertices, that
  explains which optimum edges the solution displaced and where.  A
  ``ConflictTrace`` stores the run, the optimum, gamma and that chain,
  derives its layers and padded optimum, and is verified on the chain.
* ``near_marker_probability``: exact probability, over the random
  shift, of an optimum edge landing within a relative ``gamma`` of the
  marker above it.
* ``k4_non_composability_witness``: a stated graphic instance on K4 with
  two individually feasible swaps whose union is infeasible, re-checked
  through the oracle by ``verify_k4_witness``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .exact import TraceMismatch, TraceRefuted, check_trace
from .instance import ParityInstance, Solution
from .matroids import (
    ContractedMatroid,
    DirectSumMatroid,
    FreeMatroid,
    GraphicMatroid,
    MatroidOracle,
)
# Not used here; kept importable because the benchmark's tracer rebinds it.
from .serialization import instance_signature  # noqa: F401
from .solver import (
    DEFAULT_DELTA,
    SolverTrace,
    SwapMove,
    compute_markers,
)

CLASS_SINGLE = "single"
CLASS_DOUBLE = "double"
CLASS_BLOCKED_EARLIER = "blocked-earlier"
CLASS_UNBLOCKED = "unblocked-zero-weight"

# A conflict trace's record of one interval: (index, added, blocked).
Layer = tuple[int, frozenset[int], frozenset[int]]

# Most candidate pieces an exchange search may ask the oracle about.
SEARCH_BUDGET = 200_000


class ExchangeInputError(ValueError):
    """Preconditions of an exchange operation were violated."""


class ExchangeSearchError(RuntimeError):
    """No certificate found where one must exist; indicates a bug."""


class ExchangeBudgetError(ValueError):
    """The exhaustive search would exceed its size budget."""


class CertificateError(AssertionError):
    """A constructed certificate failed re-verification."""


@dataclass(frozen=True)
class ExchangeCertificate:
    """Disjoint pieces of ``target``, one per part of the source partition.

    Piece i has the size of part i, and part i together with the rest of
    the target is independent.
    """

    matroid: MatroidOracle
    parts: tuple[frozenset[int], ...]
    target: frozenset[int]
    exchanged: tuple[frozenset[int], ...]

    def verify(self) -> None:
        """Re-check every claim through fresh oracle calls."""
        if len(self.exchanged) != len(self.parts):
            raise CertificateError("piece count does not match part count")
        source = frozenset().union(*self.parts) if self.parts else frozenset()
        if not self.matroid.is_independent(source):
            raise CertificateError("source set is not independent")
        if not self.matroid.is_independent(self.target):
            raise CertificateError("target set is not independent")
        taken: set[int] = set()
        for part, piece in zip(self.parts, self.exchanged):
            if not piece <= self.target:
                raise CertificateError("piece leaves the target set")
            if taken & piece:
                raise CertificateError("pieces are not disjoint")
            taken |= piece
            if len(piece) != len(part):
                raise CertificateError("piece size differs from its part")
            if not self.matroid.is_independent(part | (self.target - piece)):
                raise CertificateError("part does not fit after removing its piece")


def find_rota_exchange(
    matroid: MatroidOracle,
    parts: Sequence[Iterable[int]],
    target: Iterable[int],
) -> ExchangeCertificate | None:
    """Exhaustive search for an exchange certificate.

    ``parts`` partitions an independent source set; ``target`` is an
    independent set at least as large.  Every part's admissible pieces
    are enumerated up front (a piece is admissible when the part fits
    into the target minus that piece), then a backtracking pass picks
    pairwise disjoint pieces.  Returns None only if no certificate
    exists at all; raises ``ExchangeBudgetError`` when the enumeration
    would take more than ``SEARCH_BUDGET`` oracle calls.
    """
    parts = tuple(frozenset(p) for p in parts)
    target_set = frozenset(target)
    source: set[int] = set()
    for p in parts:
        if source & p:
            raise ExchangeInputError("parts must be pairwise disjoint")
        source |= p
    if not matroid.is_independent(source):
        raise ExchangeInputError("source set must be independent")
    if not matroid.is_independent(target_set):
        raise ExchangeInputError("target set must be independent")
    if len(source) > len(target_set):
        raise ExchangeInputError("target must be at least as large as the source")

    target_sorted = sorted(target_set)
    cost = sum(comb(len(target_sorted), len(p)) for p in parts)
    if cost > SEARCH_BUDGET:
        raise ExchangeBudgetError(f"candidate enumeration needs {cost} oracle calls")

    admissible: list[list[frozenset[int]]] = []
    for part in parts:
        options = [
            frozenset(piece)
            for piece in combinations(target_sorted, len(part))
            if matroid.is_independent(part | (target_set - frozenset(piece)))
        ]
        if not options:
            return None
        admissible.append(options)

    chosen: list[frozenset[int]] = []

    def backtrack(i: int, taken: frozenset[int]) -> bool:
        if i == len(parts):
            return True
        for piece in admissible[i]:
            if taken & piece:
                continue
            chosen.append(piece)
            if backtrack(i + 1, taken | piece):
                return True
            chosen.pop()
        return False

    if not backtrack(0, frozenset()):
        return None
    cert = ExchangeCertificate(
        matroid=matroid, parts=parts, target=target_set, exchanged=tuple(chosen)
    )
    cert.verify()
    return cert


def refine_laminar(
    matroid: MatroidOracle,
    parts: Sequence[Iterable[int]],
    target: Iterable[int],
    exchange_set: Iterable[int],
) -> ExchangeCertificate:
    """Refine an exchange set for the whole source into per-part pieces.

    ``exchange_set`` is a subset of ``target`` of the source's size whose
    removal makes room for the entire source.  Contracting the rest of
    the target reduces the refinement to a plain exchange search inside
    the exchange set.  Source elements sitting inside the contracted
    part of the target drop out of that search; their pieces are padded
    back to full part size from the unused remainder of the exchange
    set, which is safe because removing more of the target only shrinks
    the set whose independence is claimed.  The final pieces partition
    the exchange set.
    """
    parts = tuple(frozenset(p) for p in parts)
    target_set = frozenset(target)
    swap_out = frozenset(exchange_set)
    source = frozenset().union(*parts) if parts else frozenset()
    if not swap_out <= target_set:
        raise ExchangeInputError("exchange set must lie inside the target")
    if len(swap_out) != len(source):
        raise ExchangeInputError("exchange set must have the source's size")
    if not matroid.is_independent(source | (target_set - swap_out)):
        raise ExchangeInputError("removing the exchange set must make room for the source")

    kept = target_set - swap_out
    contracted = ContractedMatroid(matroid, kept)
    shrunk = tuple(p - kept for p in parts)
    inner = find_rota_exchange(contracted, shrunk, swap_out)
    if inner is None:
        raise ExchangeSearchError("per-part refinement must exist but was not found")

    spare = sorted(swap_out - frozenset().union(*inner.exchanged, frozenset()))
    pieces: list[frozenset[int]] = []
    cursor = 0
    for part, piece in zip(parts, inner.exchanged):
        missing = len(part) - len(piece)
        pieces.append(piece | frozenset(spare[cursor : cursor + missing]))
        cursor += missing
    cert = ExchangeCertificate(
        matroid=matroid, parts=parts, target=target_set, exchanged=tuple(pieces)
    )
    cert.verify()
    return cert


class ConflictTraceError(RuntimeError):
    """Construction of the conflict trace hit an impossible state."""


@dataclass(frozen=True)
class OptimumEdgeReport:
    """How one padded optimum edge relates to the blocked-vertex chain."""

    original_edge: int | None
    vertices: frozenset[int]
    weight: Fraction
    own_interval: int
    conflict_size: int
    cls: str
    near_marker: bool | None


def _first_block(vertices: frozenset[int], layers: Sequence[Layer]) -> tuple[int | None, int]:
    """The interval whose blocked set first meets ``vertices``, and how many
    of them it holds; ``(None, 0)`` when none does."""
    for index, _, blocked in layers:
        hit = vertices & blocked
        if hit:
            return index, len(hit)
    return None, 0


@dataclass(frozen=True)
class ConflictTrace:
    """A run's nested chain of blocked optimum vertices, and what follows from it.

    It stores the instance, the run's trace (checked by
    ``build_conflict_trace``), the optimum's edge ids, gamma and the chain
    ``blocked``: per record that added edges, in increasing index, the
    optimum vertices blocked up to that interval.  The chain is all the
    construction chooses; ``layers``, the padded optimum ``edges`` (its one
    padded view), ``optimum_vertices`` and ``extended_matroid`` are derived
    and cached.  Every positive-weight optimum edge is
    blocked no later than its own interval: inside it with one contact
    (single), inside it with several (double), or already earlier.
    """

    instance: ParityInstance
    trace: SolverTrace
    optimum_edges: frozenset[int]
    gamma: Fraction
    blocked: tuple[frozenset[int], ...]

    @cached_property
    def _added(self) -> tuple[tuple[int, frozenset[int]], ...]:
        """``(index, solution vertices)`` of each record that added edges."""
        vertices_of = self.instance.vertices_of
        return tuple((r.index, vertices_of(r.added)) for r in self.trace.records if r.added)

    @cached_property
    def layers(self) -> tuple[Layer, ...]:
        """``(index, added, blocked)`` per record that added edges, with its chain set."""
        return tuple((index, added, b) for (index, added), b in zip(self._added, self.blocked))

    @cached_property
    def edges(self) -> tuple[tuple[int | None, frozenset[int], Fraction, int], ...]:
        """The padded optimum: (original id, None for a dummy; vertices; weight; own
        interval) of each optimum edge, then of zero-weight full-arity dummies of fresh
        coloop vertices in the closed interval ``levels + 1``, up to the run's added
        vertex count; edges are disjoint, so counts add."""
        inst, scheme = self.instance, self.trace.scheme
        edges = [
            (j, inst.edges[j], inst.weights[j], scheme.interval_of(inst.weights[j]))
            for j in sorted(self.optimum_edges)
        ]
        short = sum(len(added) for _, added in self._added) - sum(len(e[1]) for e in edges)
        dummy = (Fraction(0), scheme.levels + 1)
        for vertex in range(inst.num_vertices, inst.num_vertices + short, inst.arity):
            edges.append((None, frozenset(range(vertex, vertex + inst.arity)), *dummy))
        return tuple(edges)

    @cached_property
    def optimum_vertices(self) -> frozenset[int]:
        return frozenset().union(*(verts for _, verts, _, _ in self.edges))

    @cached_property
    def extended_matroid(self) -> MatroidOracle:
        """The instance's matroid, plus a free part for the dummies' vertices."""
        extra = sum(len(verts) for j, verts, _, _ in self.edges if j is None)
        matroid = self.instance.matroid
        return DirectSumMatroid([matroid, FreeMatroid(extra)]) if extra else matroid

    @cached_property
    def reports(self) -> tuple[OptimumEdgeReport, ...]:
        """Each padded optimum edge, classified by where the chain first blocks it;
        ``ConflictTraceError`` if that is after its own interval."""
        reports: list[OptimumEdgeReport] = []
        for orig, verts, weight, own in self.edges:
            first, conflict = _first_block(verts, self.layers)
            near = None
            if first is None:
                cls = CLASS_UNBLOCKED
            elif first == own:
                cls = CLASS_SINGLE if conflict == 1 else CLASS_DOUBLE
            elif first < own:
                cls = CLASS_BLOCKED_EARLIER
                near = (1 + self.gamma) * weight >= self.trace.scheme.marker(own - 1)
            else:
                raise ConflictTraceError(
                    f"optimum edge {orig} blocked after its own interval; "
                    "was the trace verified locally optimal?"
                )
            reports.append(OptimumEdgeReport(orig, verts, weight, own, conflict, cls, near))
        return tuple(reports)

    def singles_weight(self) -> Fraction:
        return sum((r.weight for r in self.reports if r.cls == CLASS_SINGLE), Fraction(0))


def _single_part_exchange(
    matroid: MatroidOracle,
    prefix: frozenset[int],
    part: frozenset[int],
    avail: frozenset[int],
) -> frozenset[int]:
    """Pick X inside ``avail`` with |X| = |part|, ``part & avail`` inside X,
    and ``prefix | part`` independent together with ``avail - X``.

    This is the exchange in ``matroid`` contracted on the independent
    ``prefix``, asked of ``matroid`` itself.  Constructive: greedily
    extend ``prefix | part`` by available elements outside ``part``;
    whatever could not be added must be removed, and the set is padded
    from the extension to reach the exact size.  Existence is guaranteed
    because ``prefix`` plus the available set is independent.
    """
    forced = part & avail
    grown = set(prefix | part)
    extension: list[int] = []
    for t in sorted(avail - forced):
        grown.add(t)
        if matroid.is_independent(grown):
            extension.append(t)
        else:
            grown.discard(t)
    leftovers = (avail - forced) - set(extension)
    pick = set(forced) | leftovers
    pad = len(part) - len(pick)
    if pad < 0:
        raise ConflictTraceError("exchange counting argument failed")
    pick.update(extension[:pad])
    if len(pick) != len(part) or not matroid.is_independent(prefix | part | (avail - pick)):
        raise ConflictTraceError("constructed exchange set failed verification")
    return frozenset(pick)


# The cached values of a ConflictTrace that do not depend on its chain.
_CHAIN_FREE = ("_added", "edges", "optimum_vertices", "extended_matroid")


def build_conflict_trace(
    instance: ParityInstance,
    trace: SolverTrace,
    optimum: Solution,
    gamma: Fraction,
) -> ConflictTrace:
    """Explain an exact optimum against a finished solver run.

    The trace must pass ``check_trace``, have a scheme, and the optimum be
    feasible.  Then, interval by interval, an exchange inside the
    remaining padded optimum vertices is carved out for the newly
    accepted solution vertices; vertices shared between solution and
    optimum are forced into their own interval's set, so shared edges are
    blocked on time.  The classification of every padded optimum edge,
    ``ConflictTrace.reports``, follows from that chain; it is worked out
    before returning, so an edge blocked after its own interval raises
    ``ConflictTraceError`` here.
    """
    gamma = Fraction(gamma)
    if gamma < 0:
        raise ExchangeInputError("gamma must be nonnegative")
    try:
        check_trace(instance, trace)
    except (TraceMismatch, TraceRefuted) as exc:
        raise ExchangeInputError(f"trace does not belong to the instance: {exc}") from exc
    if trace.scheme is None:
        raise ExchangeInputError("degenerate trace has no interval structure")
    if not instance.is_feasible(optimum.edges):
        raise ExchangeInputError("claimed optimum is not feasible")

    draft = ConflictTrace(instance, trace, optimum.edges, gamma, ())
    extended, optimum_vertices = draft.extended_matroid, draft.optimum_vertices
    # check_trace found every grown prefix independent, so no exchange contracts it.
    chain: list[frozenset[int]] = []
    prefix: frozenset[int] = frozenset()
    blocked: frozenset[int] = frozenset()
    for _, verts in draft._added:
        blocked |= _single_part_exchange(extended, prefix, verts, optimum_vertices - blocked)
        prefix |= verts
        chain.append(blocked)

    ct = ConflictTrace(instance, trace, optimum.edges, gamma, tuple(chain))
    # What the draft derived does not depend on the chain; hand it on, not derive it again.
    ct.__dict__.update((name, draft.__dict__[name]) for name in _CHAIN_FREE)
    ct.reports  # classify now, so a late-blocked edge raises here
    return ct


def verify_conflict_trace(ct: ConflictTrace) -> list[str]:
    """Independent re-check of the blocked chain; returns its problems, none if it is sound.

    The instance, run and optimum are those ``build_conflict_trace``
    checked, so what derives from them holds by construction, once the
    optimum's ids are known to be edges of the instance (else one problem
    naming the others, asked nothing).  By oracle calls and set arithmetic
    alone: there is one blocked set per record that added edges (else one
    problem, asked nothing); each set holds the one before it, stays
    inside the padded optimum vertex set and grows by as many vertices as
    its record added; the vertices added so far with the unblocked optimum
    are independent, from the empty prefix on; and every positive-weight
    optimum edge is blocked no later than its own interval.
    """
    unknown = sorted(j for j in ct.optimum_edges if not 0 <= j < ct.instance.num_edges)
    if unknown:
        return [f"optimum edge ids {unknown} are not edges of the instance"]
    sets, records = len(ct.blocked), len(ct._added)
    if sets != records:
        return [f"blocked chain has {sets} sets for {records} records that added edges"]

    problems: list[str] = []
    prefix: frozenset[int] = frozenset()
    previous: frozenset[int] = frozenset()
    # A layer that blocks just the optimum vertices it adds repeats the
    # query before it; ask it once.
    asked = ct.optimum_vertices
    independent = ct.extended_matroid.is_independent(asked)
    if not independent:
        problems.append("padded optimum vertex set is not independent")
    for index, added, blocked in ct.layers:
        if not previous <= blocked:
            problems.append(f"blocked sets not nested at interval {index}")
        if not blocked <= ct.optimum_vertices:
            problems.append(f"blocked set of interval {index} leaves the optimum vertices")
        grown = len(blocked) - len(previous)
        if grown != len(added):
            problems.append(
                f"interval {index}: layer grew by {grown}, solution added {len(added)} vertices"
            )
        prefix |= added
        previous = blocked
        query = prefix | (ct.optimum_vertices - blocked)
        if query != asked:
            asked, independent = query, ct.extended_matroid.is_independent(query)
        if not independent:
            problems.append(f"interval {index}: prefix plus unblocked optimum is dependent")

    for idx, (_, verts, weight, own) in enumerate(ct.edges):
        first, _ = _first_block(verts, ct.layers)
        if weight > 0 and (first is None or first > own):
            problems.append(
                f"optimum edge {idx}: positive weight but not blocked by interval {own}"
            )
    return problems


def near_marker_probability(
    instance: ParityInstance,
    optimum: Solution,
    epsilon: Fraction,
    gamma: Fraction,
) -> dict[int, Fraction]:
    """Per-edge probability of landing within ``gamma`` of the marker above.

    The shift tau is uniform on [0, epsilon).  An optimum edge of weight w
    is near when the smallest marker at or above w is at most
    ``(1 + gamma) * w``, that is when some marker lies in
    ``[w, (1 + gamma) * w]``.  Marker i at tau is
    ``base.marker(i) * (1 - tau)`` for the ladder ``base`` at tau 0, so it
    lies there exactly for tau in
    ``[1 - (1 + gamma) * w / base.marker(i), 1 - w / base.marker(i)]``.
    Every edge of a feasible optimum is feasible alone, so w is at most
    marker 1 and the deepest base marker d at or above w is at least 1.
    Only markers d - 1 and d reach the range for tau below epsilon, and
    for admissible gamma their two stretches share at most an end point,
    so the probability is their length clipped to [0, epsilon), over
    epsilon.  A zero weight gives empty stretches.

    The probability is at most ``gamma / (epsilon * (1 + gamma))``
    whenever ``gamma <= 1 / (1 - epsilon) - 1``; that range is enforced.
    """
    epsilon, gamma = Fraction(epsilon), Fraction(gamma)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 <= gamma <= 1 / (1 - epsilon) - 1:
        raise ValueError("gamma must lie in [0, 1/(1 - epsilon) - 1]")
    if not instance.is_feasible(optimum.edges):
        raise ExchangeInputError("claimed optimum is not feasible")

    base = compute_markers(instance, epsilon, DEFAULT_DELTA, Fraction(0))
    probabilities: dict[int, Fraction] = {}
    for j in sorted(optimum.edges):
        w = instance.weights[j]
        d = base.interval_of(w) - 1
        length = Fraction(0)
        for i in (d - 1, d):
            marker = base.marker(i)
            low = max(1 - (1 + gamma) * w / marker, Fraction(0))
            high = min(1 - w / marker, epsilon)
            length += max(high - low, Fraction(0))
        probabilities[j] = length / epsilon
    return probabilities


def near_marker_bound(epsilon: Fraction, gamma: Fraction) -> Fraction:
    """Upper bound on the near-marker probability for admissible gamma."""
    epsilon, gamma = Fraction(epsilon), Fraction(gamma)
    return gamma / (epsilon * (1 + gamma))


@dataclass(frozen=True)
class K4Witness:
    """Two feasible swaps on one solution whose union is infeasible."""

    instance: ParityInstance
    base_edges: frozenset[int]
    first: SwapMove
    second: SwapMove


def k4_non_composability_witness() -> K4Witness:
    """Two feasible swaps on a forest of the complete graph K4 that do not compose.

    The instance puts one unit-weight singleton hyperedge on each edge of
    K4, numbered 0: (0,1), 1: (0,2), 2: (0,3), 3: (1,2), 4: (1,3),
    5: (2,3), with forests as the independent sets.  The base {0, 1, 2}
    is the star at vertex 0, a spanning tree.  The first swap, +3 -0,
    gives {(0,2), (0,3), (1,2)}: vertex 1 hangs on 2, so a spanning tree.
    The second, +4,5 -1,2, gives {(0,1), (1,3), (2,3)}: the path
    0-1-3-2, a spanning tree.  Both have gain 0.  Their additions and
    removals are disjoint, and applied together they leave
    {(1,2), (1,3), (2,3)}, the triangle on 1, 2, 3, which is a cycle.
    ``verify_k4_witness`` re-checks each claim through the oracle.
    """
    matroid = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    inst = ParityInstance(
        num_vertices=6,
        edges=tuple(frozenset([i]) for i in range(6)),
        weights=tuple(Fraction(1) for _ in range(6)),
        matroid=matroid,
        arity=1,
    )
    return K4Witness(
        instance=inst,
        base_edges=frozenset({0, 1, 2}),
        first=SwapMove((3,), (0,), Fraction(0)),
        second=SwapMove((4, 5), (1, 2), Fraction(0)),
    )


def verify_k4_witness(witness: K4Witness) -> bool:
    """Oracle re-check: both swaps feasible alone, their union infeasible.

    Each swap must add edges outside the base and remove edges inside it,
    and the two swaps must share no addition and no removal, so that the
    union is the two swaps applied one after the other.  A witness naming
    an edge the instance lacks is refused without a query.
    """
    inst, base = witness.instance, witness.base_edges
    adds = [frozenset(swap.add) for swap in (witness.first, witness.second)]
    removes = [frozenset(swap.remove) for swap in (witness.first, witness.second)]
    m = inst.num_edges
    if not all(type(j) is int and 0 <= j < m for j in base.union(*adds, *removes)):
        return False
    if (adds[0] | adds[1]) & base or not (removes[0] | removes[1]) <= base:
        return False
    if adds[0] & adds[1] or removes[0] & removes[1]:
        return False
    return (
        inst.is_feasible(base)
        and all(inst.is_feasible((base - remove) | add) for add, remove in zip(adds, removes))
        and not inst.is_feasible((base - removes[0] - removes[1]) | adds[0] | adds[1])
    )
