"""Exchange certificates and conflict diagnostics.

This module makes the structural facts behind the solver's guarantee
checkable on concrete runs:

* ``find_rota_exchange``: for independent sets S (with a partition) and T,
  exhibit disjoint pieces of T, one per part, whose removal from T leaves
  room for that part.  Exhaustive search, small scale, certificate
  re-verified through the oracle.
* ``refine_laminar``: refine such an exchange so the pieces partition a
  given exchange set for S, by contracting away the rest of T.
* ``build_conflict_trace``: replay a solver trace against an exact
  optimum and produce a nested chain of blocked optimum vertices, one
  layer per occupied weight interval, that explains which optimum edges
  the solution displaced and where.
* ``near_marker_probability``: exact probability, over the random
  shift, of an optimum edge landing within a relative ``gamma`` of the
  marker above it.
* ``k4_non_composability_witness``: a small graphic instance showing two
  individually feasible swaps whose union is infeasible.
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
    IntervalScheme,
    SolverTrace,
    SwapMove,
    compute_markers,
    indices_in_order,
)

CLASS_SINGLE = "single"
CLASS_DOUBLE = "double"
CLASS_BLOCKED_EARLIER = "blocked-earlier"
CLASS_UNBLOCKED = "unblocked-zero-weight"

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
    """How one optimum edge relates to the blocked-vertex chain."""

    edge: int
    original_edge: int | None
    vertices: frozenset[int]
    weight: Fraction
    own_interval: int
    first_blocked: int | None
    conflict_size: int
    cls: str
    upper_marker: Fraction
    near_marker: bool | None


def _first_block(
    vertices: frozenset[int],
    blocked_sets: Sequence[frozenset[int]],
    intervals: Sequence[int],
) -> tuple[int | None, int]:
    """The interval whose blocked set first meets ``vertices``, and how many
    of them it holds; ``(None, 0)`` when none does."""
    for index, blocked in zip(intervals, blocked_sets[1:]):
        hit = vertices & blocked
        if hit:
            return index, len(hit)
    return None, 0


@dataclass(frozen=True)
class ConflictTrace:
    """Nested blocked-vertex chain; each optimum edge's classification follows from it.

    Layer i belongs to interval ``intervals[i - 1]``, the i-th occupied
    interval of the run; ``blocked_sets[0]`` is empty.  ``blocked_sets[i]``
    grows by exactly the number of solution vertices accepted in that
    interval, stays inside the (dummy-padded) optimum vertex set, and
    leaves the remainder of the optimum compatible with the solution
    prefix.  ``edges`` is the padded optimum, each entry its original id
    (None for a dummy), vertices, weight and own interval.  Every
    positive-weight optimum edge is blocked no later than its own
    interval: inside it with one contact (single), inside it with several
    (double), or already in an earlier interval.
    """

    gamma: Fraction
    scheme: IntervalScheme
    extended_matroid: MatroidOracle
    optimum_vertices: frozenset[int]
    intervals: tuple[int, ...]
    solution_vertex_sets: tuple[frozenset[int], ...]
    blocked_sets: tuple[frozenset[int], ...]
    edges: tuple[tuple[int | None, frozenset[int], Fraction, int], ...]

    @cached_property
    def reports(self) -> tuple[OptimumEdgeReport, ...]:
        """Each padded optimum edge, classified by where the chain first blocks it;
        ``ConflictTraceError`` if that is after its own interval."""
        reports: list[OptimumEdgeReport] = []
        for idx, (orig, verts, weight, own) in enumerate(self.edges):
            first, conflict = _first_block(verts, self.blocked_sets, self.intervals)
            if first is None:
                cls = CLASS_UNBLOCKED
            elif first == own:
                cls = CLASS_SINGLE if conflict == 1 else CLASS_DOUBLE
            elif first < own:
                cls = CLASS_BLOCKED_EARLIER
            else:
                raise ConflictTraceError(
                    f"optimum edge {orig} blocked after its own interval; "
                    "was the trace verified locally optimal?"
                )
            marker = self.scheme.marker(own - 1)
            near = (1 + self.gamma) * weight >= marker if cls == CLASS_BLOCKED_EARLIER else None
            reports.append(
                OptimumEdgeReport(idx, orig, verts, weight, own, first, conflict, cls, marker, near)
            )
        return tuple(reports)

    def singles_weight(self) -> Fraction:
        return sum(
            (r.weight for r in self.reports if r.cls == CLASS_SINGLE), Fraction(0)
        )


def _single_part_exchange(
    oracle: MatroidOracle,
    part: frozenset[int],
    avail: frozenset[int],
    forced: frozenset[int],
) -> frozenset[int]:
    """Pick X inside ``avail`` with |X| = |part|, ``forced`` inside X, and
    ``part`` independent together with ``avail - X``.

    Constructive: greedily extend ``part`` by elements of the available
    set outside ``forced``; whatever could not be added must be removed,
    and the set is padded from the extension to reach the exact size.
    Existence is guaranteed because the available set is independent and
    ``forced`` is part of the source.
    """
    grown = set(part)
    extension: list[int] = []
    for t in sorted(avail - forced):
        grown.add(t)
        if oracle.is_independent(grown):
            extension.append(t)
        else:
            grown.discard(t)
    leftovers = (avail - forced) - set(extension)
    pick = set(forced) | leftovers
    pad = len(part) - len(pick)
    if pad < 0:
        raise ConflictTraceError("exchange counting argument failed")
    pick.update(extension[:pad])
    pick_frozen = frozenset(pick)
    if len(pick_frozen) != len(part) or not oracle.is_independent(part | (avail - pick_frozen)):
        raise ConflictTraceError("constructed exchange set failed verification")
    return pick_frozen


def build_conflict_trace(
    instance: ParityInstance,
    trace: SolverTrace,
    optimum: Solution,
    gamma: Fraction,
) -> ConflictTrace:
    """Explain an exact optimum against a finished solver run.

    The optimum's vertex set is padded with zero-weight dummy edges
    (fresh coloop vertices, one edge of full arity at a time) until it is
    at least as large as the solution's.  Then, interval by interval, an
    exchange inside the remaining optimum vertices is carved out for the
    newly accepted solution vertices; vertices shared between solution
    and optimum are forced into their own interval's layer so shared
    edges are blocked on time.  The classification of every (padded)
    optimum edge, ``ConflictTrace.reports``, follows from that chain; it
    is worked out before returning, so an edge blocked after its own
    interval raises ``ConflictTraceError`` here.
    """
    gamma = Fraction(gamma)
    if gamma < 0:
        raise ExchangeInputError("gamma must be nonnegative")
    try:
        own = check_trace(instance, trace)
    except (TraceMismatch, TraceRefuted) as exc:
        raise ExchangeInputError(f"trace does not belong to the instance: {exc}") from exc
    if trace.scheme is None:
        raise ExchangeInputError("degenerate trace has no interval structure")
    if not instance.is_feasible(optimum.edges):
        raise ExchangeInputError("claimed optimum is not feasible")
    scheme = trace.scheme
    intervals = tuple(r.index for r in trace.records)

    solution_vertex_sets = tuple(
        instance.vertices_of(r.added) for r in trace.records
    )
    solution_vertices = frozenset().union(*solution_vertex_sets)

    # Optimum edges are feasible alone; dummies weigh 0, in the closed interval.
    edges: list[tuple[int | None, frozenset[int], Fraction, int]] = [
        (j, instance.edges[j], instance.weights[j], own[j]) for j in sorted(optimum.edges)
    ]
    optimum_vertices = set(instance.vertices_of(optimum.edges))
    next_vertex = instance.num_vertices
    while len(optimum_vertices) < len(solution_vertices):
        dummy = frozenset(range(next_vertex, next_vertex + instance.arity))
        edges.append((None, dummy, Fraction(0), scheme.levels + 1))
        optimum_vertices |= dummy
        next_vertex += instance.arity
    if next_vertex > instance.num_vertices:
        extended = DirectSumMatroid(
            [instance.matroid, FreeMatroid(next_vertex - instance.num_vertices)]
        )
    else:
        extended = instance.matroid
    optimum_frozen = frozenset(optimum_vertices)

    blocked: list[frozenset[int]] = [frozenset()]
    prefix: frozenset[int] = frozenset()
    for level_verts in solution_vertex_sets:
        avail = optimum_frozen - blocked[-1]
        if not level_verts:
            blocked.append(blocked[-1])
            continue
        oracle = ContractedMatroid(extended, prefix) if prefix else extended
        forced = level_verts & avail
        layer = _single_part_exchange(oracle, level_verts, avail, forced)
        blocked.append(blocked[-1] | layer)
        prefix = prefix | level_verts

    ct = ConflictTrace(
        gamma=gamma,
        scheme=scheme,
        extended_matroid=extended,
        optimum_vertices=optimum_frozen,
        intervals=intervals,
        solution_vertex_sets=solution_vertex_sets,
        blocked_sets=tuple(blocked),
        edges=tuple(edges),
    )
    ct.reports  # classify now, so a late-blocked edge raises here
    return ct


def verify_conflict_trace(ct: ConflictTrace) -> list[str]:
    """Independent re-check of every conflict-trace invariant.

    Returns a list of human-readable problems; empty means the trace is
    sound.  Uses only oracle calls and the stored sets, never the
    construction internals.  Per optimum edge it checks only what the
    classification does not derive: the own interval is its weight's,
    and a positive weight is blocked no later than that interval.
    """
    problems: list[str] = []
    blocked = ct.blocked_sets
    intervals = ct.intervals
    layers = len(ct.solution_vertex_sets)
    if len(intervals) != layers or len(blocked) != layers + 1:
        return [f"{layers} layers need {layers} intervals and {layers + 1} blocked sets"]
    if not indices_in_order(intervals, ct.scheme.levels):
        return ["layer intervals do not increase strictly inside 1..levels+1"]

    prefix: frozenset[int] = frozenset()
    # A layer that adds nothing repeats the query before it; ask it once.
    asked = ct.optimum_vertices
    independent = ct.extended_matroid.is_independent(asked)
    if not independent:
        problems.append("padded optimum vertex set is not independent")
    for i in range(1, layers + 1):
        t_prev, t_cur = blocked[i - 1], blocked[i]
        index = intervals[i - 1]
        if not t_prev <= t_cur:
            problems.append(f"blocked sets not nested at interval {index}")
        if not t_cur <= ct.optimum_vertices:
            problems.append(f"blocked set of interval {index} leaves the optimum vertices")
        grown = len(t_cur) - len(t_prev)
        if grown != len(ct.solution_vertex_sets[i - 1]):
            problems.append(
                f"interval {index}: layer grew by {grown}, solution added "
                f"{len(ct.solution_vertex_sets[i - 1])} vertices"
            )
        prefix = prefix | ct.solution_vertex_sets[i - 1]
        query = prefix | (ct.optimum_vertices - t_cur)
        if query != asked:
            asked, independent = query, ct.extended_matroid.is_independent(query)
        if not independent:
            problems.append(f"interval {index}: prefix plus unblocked optimum is dependent")

    for idx, (_, verts, weight, own) in enumerate(ct.edges):
        if ct.scheme.interval_of(weight) != own:
            problems.append(f"optimum edge {idx}: own interval {own} is not its weight's")
        first, _ = _first_block(verts, blocked, intervals)
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
    """Search the complete graph on four vertices for the witness.

    The instance puts one unit-weight singleton hyperedge on each graph
    edge, with forests as the independent sets.  The first (in a fixed
    deterministic order) pair of individually feasible swaps with
    disjoint additions and removals whose combined application creates a
    cycle is returned; its existence is asserted, not assumed.
    """
    graph_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    matroid = GraphicMatroid(4, graph_edges)
    inst = ParityInstance(
        num_vertices=6,
        edges=tuple(frozenset([i]) for i in range(6)),
        weights=tuple(Fraction(1) for _ in range(6)),
        matroid=matroid,
        arity=1,
    )

    def feasible(ids: Iterable[int]) -> bool:
        return inst.is_feasible(frozenset(ids))

    all_ids = range(6)
    for base_size in range(3, 0, -1):
        for base in combinations(all_ids, base_size):
            base_set = frozenset(base)
            if not feasible(base_set):
                continue
            moves: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            outside = [j for j in all_ids if j not in base_set]
            for add_size in (1, 2):
                for add in combinations(outside, add_size):
                    for rem_size in range(0, min(2, base_size) + 1):
                        for rem in combinations(sorted(base_set), rem_size):
                            if feasible((base_set - frozenset(rem)) | frozenset(add)):
                                moves.append((add, rem))
            def gain(add: tuple[int, ...], rem: tuple[int, ...]) -> Fraction:
                added = sum((inst.weights[j] for j in add), Fraction(0))
                removed = sum((inst.weights[j] for j in rem), Fraction(0))
                return added - removed

            for a, b in combinations(moves, 2):
                if set(a[0]) & set(b[0]) or set(a[1]) & set(b[1]):
                    continue
                merged = (base_set - frozenset(a[1]) - frozenset(b[1])) | frozenset(
                    a[0]
                ) | frozenset(b[0])
                if not feasible(merged):
                    return K4Witness(
                        instance=inst,
                        base_edges=base_set,
                        first=SwapMove(a[0], a[1], gain(*a)),
                        second=SwapMove(b[0], b[1], gain(*b)),
                    )
    raise ExchangeSearchError("no witness found on the complete graph; this is a bug")


def verify_k4_witness(witness: K4Witness) -> bool:
    """Oracle re-check: both swaps feasible alone, their union infeasible."""
    inst = witness.instance
    base = witness.base_edges
    if not inst.is_feasible(base):
        return False
    first_applied = (base - frozenset(witness.first.remove)) | frozenset(witness.first.add)
    second_applied = (base - frozenset(witness.second.remove)) | frozenset(witness.second.add)
    if not inst.is_feasible(first_applied) or not inst.is_feasible(second_applied):
        return False
    merged = (
        base
        - frozenset(witness.first.remove)
        - frozenset(witness.second.remove)
    ) | frozenset(witness.first.add) | frozenset(witness.second.add)
    return not inst.is_feasible(merged)
