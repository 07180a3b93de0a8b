"""Sliding local search over randomized geometric weight intervals.

The solver draws one random shift, lays a geometric ladder of weight
markers down from the heaviest individually feasible edge, and processes
the induced weight intervals that hold an edge, from heavy to light.
Intervals without an edge have nothing to search.  Inside an interval it
repeatedly applies improving swaps: add at most two non-solution edges of
the interval, remove at most ``2 * arity`` solution edges of the same
interval, subject to feasibility and a strict weight increase.  Edges
accepted in earlier (heavier) intervals are never removed again.  Each
interval keeps one search state across its moves (``_Interval``): its
candidates and its pool, as ascending edge ids, the pool edge that meets
each parallel class, and what the search remembers; a move updates the
state in place, so no search derives it from the solution, and the
solution is the union of the pools.  Weights and vertex sets are read
from the instance by id.  Two parallel elements form a circuit, so the
search never builds or asks about a set that holds two vertices of one
of the matroid's parallel classes (``ParityInstance.conflicts``).

All weight arithmetic is exact.  Edge weights are compared through
integer numerators over a common denominator; markers and the random
shift are exact rationals, so interval membership and improvement tests
never see floating point.  The marker ladder follows from four values
(epsilon, the shift, the heaviest feasible weight and the level count,
which delta sets); a trace stores those, and a marker is computed from
them only when asked for, so no ladder is ever built.  The heaviest
weight and the level count do not depend on the shift: they are
prepared once per ``(instance, epsilon, delta)`` and kept in one slot on
the instance, as its signature is.  A run checks its parameters once, on
entry, then draws its shift and tests that shift's budget with
``marker_bits``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations
from typing import Any, Callable, Iterable, Iterator, Sequence

from .instance import ParityInstance, Solution
from .serialization import FormatError, format_fraction, instance_signature, parse_fraction

FIRST_LEX = "first-lex"
BEST_GAIN = "best-gain"
SWAP_RULES = (FIRST_LEX, BEST_GAIN)
# Relative weight left below the deepest marker; sets the level count.
DEFAULT_DELTA = Fraction("0.0001")


class DegenerateInstanceError(ValueError):
    """No individually feasible edge with positive weight exists."""


# The solver and the trace loader refuse a ladder whose deepest marker,
# bounded by ``marker_bits``, would exceed this many bits.  The default
# epsilon and delta need about 10^3 bits on 48 edges, epsilon 1/1000
# about 2.6e5, and epsilon 1/10000 about 3.7e6, which is refused.
MAX_MARKER_BITS = 1 << 19


class LadderBudgetError(ValueError):
    """The deepest marker of a ladder would exceed ``MAX_MARKER_BITS``."""


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def marker_bits(epsilon: Fraction, tau: Fraction, heaviest: Fraction, levels: int) -> int:
    """Size bound of the deepest marker: ``levels`` factors ``1 - epsilon``,
    the shift and the heaviest weight."""
    # 1 - n/d is (d - n)/d, reduced as n/d is, so no Fraction is built.
    d = epsilon.denominator
    shrink = (d - epsilon.numerator).bit_length() + d.bit_length()
    return levels * shrink + _bits(tau) + _bits(heaviest)


@dataclass(frozen=True)
class IntervalScheme:
    """Marker ladder for one solver run, derived on demand.

    Marker j is ``max_feasible_weight * (1 - tau) * (1 - epsilon)^(j - 1)``
    for j in 0..levels, so marker 0 sits one factor ``1 - epsilon`` above
    marker 1, and marker ``levels + 1`` is the zero sentinel.  Interval j
    covers ``(marker(j), marker(j - 1)]`` for j up to ``levels``; the
    final interval ``levels + 1`` is closed at zero.  A weight equal to a
    marker belongs to the interval below that marker.

    No marker is stored.  ``interval_of`` locates a weight by bisection
    on exact integer powers of ``1 - epsilon``, comparing by
    cross-multiplication, so a query costs O(log levels) integer products
    and no ladder is ever built; the verifier asks its integer form,
    ``_deepest_at_or_above``, with weight numerators over their common
    denominator.  The integers and the powers they bisect on are computed
    once per scheme; they are not fields, so equality, hashing and the
    trace JSON ignore them.
    """

    max_feasible_weight: Fraction
    epsilon: Fraction
    tau: Fraction
    levels: int

    @cached_property
    def _integers(self) -> tuple[int, int, int, int]:
        """``(a, b, p, q)``: marker 1 is ``a/b``, unreduced, and ``1 - epsilon`` is ``p/q``."""
        top, tau, eps = self.max_feasible_weight, self.tau, self.epsilon
        return (
            top.numerator * (tau.denominator - tau.numerator),
            top.denominator * tau.denominator,
            eps.denominator - eps.numerator,
            eps.denominator,
        )

    def marker(self, j: int) -> Fraction:
        """Marker j for j in 0..levels+1, from one exact power."""
        if not 0 <= j <= self.levels + 1:
            raise ValueError(f"marker index {j} out of range 0..{self.levels + 1}")
        if j > self.levels:
            return Fraction(0)
        a, b, p, q = self._integers
        if j == 0:
            return Fraction(a * q, b * p)
        return Fraction(a * p ** (j - 1), b * q ** (j - 1))

    @cached_property
    def _squares(self) -> tuple[tuple[int, int], ...]:
        """``(p^(2^i), q^(2^i))`` for i = 0, 1, ... while ``2^i < levels``, and at least i = 0."""
        _, _, p, q = self._integers
        squares = [(p, q)]
        while 1 << len(squares) < self.levels:
            p, q = p * p, q * q
            squares.append((p, q))
        return tuple(squares)

    def _deepest_at_or_above(self, c: int, d: int) -> int:
        """Largest j in 1..levels with ``marker(j) >= c/d``, or 0 if there is none.

        ``d`` is positive and ``c/d`` need not be reduced.  Marker
        ``1 + s`` is at least ``c/d`` iff ``a * d * p^s >= c * b * q^s``.
        The largest such s below ``levels`` is built bit by bit from the
        top, one cross-multiplied test per bit, on the squares
        ``p^(2^i)`` and ``q^(2^i)``.  This search is kept apart from the
        solver's sweep (``_gallop``), so the verifier places edges by its
        own arithmetic.
        """
        a, b, _, _ = self._integers
        high = a * d
        low = c * b
        if high < low:
            return 0
        levels, squares = self.levels, self._squares
        s = 0
        for i in range(len(squares) - 1, -1, -1):
            if s + (1 << i) < levels:
                p, q = squares[i]
                if high * p >= low * q:
                    high, low, s = high * p, low * q, s + (1 << i)
        return s + 1

    def interval_of(self, w: Fraction) -> int:
        """Index of the interval containing weight ``w``; marker 0 is ``a*q / (b*p)``."""
        w = w if isinstance(w, Fraction) else Fraction(w)
        c, d = w.numerator, w.denominator
        j = self._deepest_at_or_above(c, d)
        a, b, p, q = self._integers
        if c < 0 or (j == 0 and c * b * p > a * q * d):
            raise ValueError(f"weight {w} outside the marker range")
        return j + 1


def _gallop(
    squares: list[tuple[int, int]], s: int, num: int, den: int, limit: int, keep: Callable
) -> tuple[int, int, int]:
    """Largest t in [s, limit] with ``keep(num_t, den_t)``, and that pair.

    ``num / den`` is ``(1 - epsilon)^s`` as an unreduced integer pair and
    ``keep`` holds there and fails from some t on.  ``squares[i]`` is
    ``(p^(2^i), q^(2^i))`` for ``1 - epsilon = p/q``; the list grows by
    squaring when a longer step is needed.  Steps double from s while
    ``keep`` holds, then halve back, so reaching t takes O(log(t - s))
    products.
    """
    i = 0
    while s + (1 << i) <= limit:
        if i == len(squares):
            p, q = squares[-1]
            squares.append((p * p, q * q))
        p, q = squares[i]
        if not keep(num * p, den * q):
            break
        s, num, den = s + (1 << i), num * p, den * q
        i += 1
    while i > 0:
        i -= 1
        if s + (1 << i) <= limit:
            p, q = squares[i]
            if keep(num * p, den * q):
                s, num, den = s + (1 << i), num * p, den * q
    return s, num, den


def _over_budget(shrink_bits: int) -> LadderBudgetError:
    return LadderBudgetError(
        f"1 - epsilon of {shrink_bits} bits needs markers of more than {MAX_MARKER_BITS} bits"
    )


def _level_count(shrink: Fraction, tail: Fraction, max_levels: int) -> int:
    """One more than the least s with ``shrink^s <= tail``, for ``shrink = 1 - epsilon``.

    Found by doubling and bisection on exact integer powers, never past
    ``max_levels``: a ladder that needs more levels raises
    LadderBudgetError, so no power beyond the budget is built.
    """
    squares, tn, td = [(shrink.numerator, shrink.denominator)], tail.numerator, tail.denominator
    limit = max(max_levels - 1, 0)
    last_above, _, _ = _gallop(squares, 0, 1, 1, limit, lambda num, den: num * td > den * tn)
    if last_above + 2 > max_levels:
        raise _over_budget(_bits(shrink))
    return last_above + 2


def _ladder(instance: ParityInstance, epsilon: Fraction, delta: Fraction) -> tuple[Fraction, int]:
    """The heaviest lone-feasible weight and the level count for ``(epsilon, delta)``.

    A prepared pair is kept in one slot on the instance as ``((epsilon,
    delta), (heaviest, levels))``, the way ``instance_signature`` keeps
    its hash; another pair replaces it, and a refusal leaves it as it
    was.  A shift adds at least one bit to a marker's size (tau = 0 adds
    one), so levels past the budget at one bit are past it at every
    shift, and the level count is found without building a power beyond
    it.  Raises DegenerateInstanceError or LadderBudgetError.
    """
    kept = instance.__dict__.get("_ladder")
    if kept is not None and kept[0] == (epsilon, delta):
        return kept[1]
    order = instance._lone_order
    if not order:
        raise DegenerateInstanceError("no edge is feasible on its own")
    heaviest = instance.weight_numerators[order[0]]
    if heaviest == 0:
        raise DegenerateInstanceError("all feasible edges have zero weight")
    weight = Fraction(heaviest, instance.weight_denominator)
    shrink = 1 - epsilon
    spare = MAX_MARKER_BITS - 1 - _bits(weight)
    levels = _level_count(shrink, delta / instance.num_edges, spare // _bits(shrink))
    instance.__dict__["_ladder"] = ((epsilon, delta), (weight, levels))
    return weight, levels


def _scheme(
    instance: ParityInstance, epsilon: Fraction, delta: Fraction, tau: Fraction
) -> IntervalScheme:
    """The instance's ladder at shift ``tau`` in [0, epsilon); raises what ``_ladder``
    raises, or LadderBudgetError if this shift's ``marker_bits`` exceed the budget."""
    heaviest, levels = _ladder(instance, epsilon, delta)
    if marker_bits(epsilon, tau, heaviest, levels) > MAX_MARKER_BITS:
        raise _over_budget(_bits(1 - epsilon))
    return IntervalScheme(heaviest, epsilon, tau, levels)


def compute_markers(
    instance: ParityInstance,
    epsilon: Fraction,
    delta: Fraction,
    tau: Fraction,
) -> IntervalScheme:
    """Build the marker ladder for this instance and shift.

    The ladder starts from the heaviest weight among edges that are
    feasible on their own.  The number of levels is the smallest that
    pushes the residual geometric tail below ``delta`` relative weight.
    The shift-free part comes from the instance's prepared ladder.

    Raises DegenerateInstanceError when no edge is feasible alone or the
    best feasible weight is zero, and LadderBudgetError when the deepest
    marker would exceed ``MAX_MARKER_BITS``.
    """
    epsilon, delta, tau = Fraction(epsilon), Fraction(delta), Fraction(tau)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 <= tau < epsilon:
        raise ValueError("the shift must lie in [0, epsilon)")
    return _scheme(instance, epsilon, delta, tau)


@dataclass(frozen=True)
class SwapMove:
    """One applied (or candidate) swap: add ``add``, remove ``remove``."""

    add: tuple[int, ...]
    remove: tuple[int, ...]
    gain: Fraction


@dataclass(frozen=True)
class IntervalRecord:
    """The search inside one occupied interval, one that holds a lone-feasible edge."""

    index: int
    added: tuple[int, ...]
    swaps: tuple[SwapMove, ...]
    oracle_calls: int


@dataclass(frozen=True)
class SolverTrace:
    """Everything needed to replay and audit one sliding run.

    ``records`` holds one record per occupied interval, in increasing
    index order; an interval without a lone-feasible edge has none.

    ``oracle_calls``, the records' sum, counts independence queries issued
    by the search itself, its pre-checks and swap tests; instance-level
    cached lookups such as per-edge feasibility are excluded so the count
    is identical no matter how often the instance was used before.  Tests
    the search can decide without a query are not issued: a pre-check
    already answered in the same interval, or one whose addition's first
    removal test held; for the rest of the interval, a single addition
    that stayed infeasible with every interval edge of the solution
    removed, and every pair that holds it; the removal of that whole
    pool, removing nothing or a set lighter than its floor beside a
    single that has a floor (``_swap_search`` says when one does), and,
    under ``best-gain``, an addition that cannot beat the best gain found
    so far.  Nor is any set that holds two vertices of one parallel
    class: the pre-check of an addition that meets a class of the
    solution outside the interval, or whose two edges meet one class;
    removing nothing, or any removal set that keeps a pool edge meeting a
    class of the addition; and every test of an addition whose such pool
    edges are more than ``2 * arity`` or already lose what it gains.
    """

    instance_signature: str
    epsilon: Fraction
    delta: Fraction
    seed: int
    tau: Fraction
    rule: str
    scheme: IntervalScheme | None
    records: tuple[IntervalRecord, ...]
    final_weight: Fraction

    @property
    def final_edges(self) -> tuple[int, ...]:
        """The edges the records add, sorted."""
        return tuple(sorted({j for r in self.records for j in r.added}))

    @property
    def oracle_calls(self) -> int:
        """The queries of all records."""
        return sum(r.oracle_calls for r in self.records)


def _light_combinations(
    ids: Sequence[int],
    weights: Sequence[int],
    vertex_sets: Sequence[frozenset[int]],
    start: frozenset[int],
    size: int,
    limit: int,
) -> Iterable[tuple[tuple[int, ...], int, frozenset[int]]]:
    """Position tuples of ``size`` ids whose weights sum below ``limit``, for ``size`` at least 1.

    ``weights`` and ``vertex_sets`` are indexed by id, so position i
    weighs ``weights[ids[i]]``.  Each tuple comes with its weight sum and
    with ``start`` minus the vertex sets of its ids.  Tuples come in
    ``itertools.combinations`` order.  Weights are nonnegative, so the
    depth-first walk drops a prefix, and every tuple extending it, as
    soon as the prefix sum reaches ``limit``.  The walk keeps one sum and
    one vertex set per picked position, nothing more.
    """
    last = len(ids) - size  # highest position the first element may take
    picked: list[int] = []
    sums = [0]
    lefts = [start]
    i = 0
    while True:
        if i <= last + len(picked):
            e = ids[i]
            total = sums[-1] + weights[e]
            if total < limit:
                left = lefts[-1] - vertex_sets[e]
                if len(picked) + 1 == size:
                    yield (*picked, i), total, left
                else:
                    picked.append(i)
                    sums.append(total)
                    lefts.append(left)
            i += 1
        elif picked:
            i = picked.pop() + 1
            sums.pop()
            lefts.pop()
        else:
            return


class _Interval:
    """The swap search's state in one occupied interval, kept across its moves.

    ``ids`` are the interval's edges, ascending.  ``pool`` holds those in
    the solution and ``cand`` those outside it not known to fail, each
    ascending: a single whose pre-check fails leaves ``cand`` for good,
    since ``stripped`` is fixed.  Both hold edge ids only: the search
    reads weights and vertex sets from the instance by id.  ``stripped``
    is the solution's vertex set outside the interval, fixed while the
    interval is searched, and ``verts`` the whole solution's.
    ``held`` maps each parallel class that a pool edge meets, named by
    its least vertex, to that edge; the pool is feasible, so it holds at
    most one edge of a class, and ``held`` grows with the pool times the
    arity, not with the conflicting pairs.  ``fits`` and ``floor`` are the
    search's memory of pre-checks and refuted singles (see
    ``_swap_search``).

    The run builds one state when it enters an interval, with the
    interval's edges all candidates and ``held`` empty, and ``apply``
    updates it in place after each move, so a search derives nothing from
    the solution.  An edge is in the solution outside the interval exactly
    when its vertices lie in ``stripped``, so the state needs nothing more
    from the run.
    """

    def __init__(self, instance: ParityInstance, ids: Iterable[int], verts: frozenset[int]):
        self.ids = tuple(sorted(ids))
        self.cand = list(self.ids)
        self.pool: list[int] = []
        self.stripped = self.verts = verts
        self.held: dict[int, int] = {}
        self.fits: dict[tuple[int, ...], bool] = {}
        self.floor: dict[int, int] = {}
        self._conflicts = instance.conflicts

    def apply(self, add: Iterable[int], rem: Iterable[int], verts: frozenset[int]) -> None:
        """Move ``rem`` from the pool to the candidates and ``add`` the other way, by
        bisection, leaving the solution on ``verts``.  A move that removes edges
        clears ``floor``: the solution shrank, so a refuted single may fit now."""
        cand, pool, held, conflicts = self.cand, self.pool, self.held, self._conflicts
        for r in rem:
            del pool[bisect_left(pool, r)]
            insort(cand, r)
            for c in conflicts[r]:
                del held[c[0]]
        for j in add:
            del cand[bisect_left(cand, j)]
            insort(pool, j)
            for c in conflicts[j]:
                held[c[0]] = j
        if rem:
            self.floor.clear()
        self.verts = verts


def _swap_search(
    instance: ParityInstance,
    interval: _Interval,
    rule: str,
    indep: Callable[[frozenset[int]], bool],
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...], int, frozenset[int]] | None]:
    """Find an improving swap inside one interval, or None, with the queries asked.

    Candidate additions are the interval's edges outside the solution
    not known to fail (``interval.cand``), at most two at a time;
    removals come only from its edges in the solution
    (``interval.pool``), at most ``2 * arity`` of them.  ``first-lex``
    accepts the first improving pair in enumeration order (additions by
    size then id order, removals by size then id order); ``best-gain``
    scans everything and keeps the maximum gain, breaking ties toward the
    lexicographically smallest move, which is the earliest in that order.
    The move comes with the vertex set it was found independent on, the
    solution's vertex set after the swap.  The count is of the calls made
    to ``indep``.  The search reads the interval's kept state and writes
    only ``cand``, ``fits`` and ``floor``; the caller applies the move.

    No set that holds two vertices of one of the matroid's parallel
    classes (``instance.conflicts``) is built or asked, since it is
    dependent.  A pre-check set that holds two is refuted without a
    query: the addition meets a class that the solution outside the
    interval meets, or its two edges meet one class; a pair's refutation
    costs O(arity) and is recomputed, not stored.  ``forced``, the pool
    edges that meet a class of the addition, found through
    ``interval.held`` in O(arity), is in every removal set built: the
    walk takes ``forced`` and then extra edges from the rest of the pool.
    Extras in lexicographic order merged with a fixed ``forced`` stay in
    lexicographic order, so both rules pick the move they would pick with
    every set built.  Removing nothing is skipped when ``forced`` is not
    empty, and an addition is dropped before its pre-check when
    ``forced`` holds more than ``2 * arity`` edges or alone loses at least
    what the addition could gain.

    An addition is pruned outright if it is dependent on
    ``interval.stripped``, the weakest requirement any removal choice
    could meet.  That pre-check is asked only once the first removal set,
    ``forced`` alone, fails: the solution less that set, plus the
    addition, holds the pre-check set, so it answers the pre-check when it
    fits (downward closure), and is the pre-check set, asked once, when
    ``forced`` is the whole pool.
    ``fits`` keeps the interval's pre-check answers, so none is asked
    twice, but no single's refutation: that single leaves
    ``interval.cand`` for good, since ``stripped`` is fixed, and pairs are
    drawn from ``cand``.

    ``floor`` maps a single addition whose search found the removal of
    nothing dependent to the limit that search ended with: every removal
    set lighter than it was refuted with the single, so the solution less
    any such set, plus the single, is dependent.  A pair holding that
    single contains it, so its empty removal and every removal set
    lighter than its singles' larger floor are skipped, and the whole
    pair when that floor reaches its limit; a single whose floor reaches
    its limit is skipped too.  The floors stay true while the solution
    only grows, since the solution less a set then contains an earlier
    solution less a lighter one.  A move that removes edges clears
    ``floor``.

    Removal sets that cannot pay for the addition are never built.  Edge
    weights are nonnegative, so a removal size stops the size loop once
    ``forced`` with the lightest extras already loses at least the gain,
    and inside a size the sets are walked depth first, cutting a prefix
    whose loss already reaches the gain.  Under ``best-gain`` the gain to
    pay for is the excess over the best move so far, since only a strictly
    larger gain can replace it; an addition with no excess is skipped
    before its pre-check, and one that fits with ``forced`` alone removed
    admits no better removal set.  The limit falls only to the loss of a
    set found independent, so a floor states the same fact under both
    rules.  These cuts skip only moves the enumeration would reject, so
    the move returned is the same as with every set built.
    """
    cand = interval.cand
    if not cand:
        return 0, None
    wn, edges, conflicts = instance.weight_numerators, instance.edges, instance.conflicts
    pool, held = interval.pool, interval.held
    stripped, sol_verts, fits, floor = interval.stripped, interval.verts, interval.fits, interval.floor
    whole = len(pool)
    max_remove = min(2 * instance.arity, whole)
    # Built when two extra removals are first needed: lightest[s] is the loss
    # of the s lightest pool edges, a lower bound on the loss of any s extras.
    lightest: list[int] = []
    first_lex = rule == FIRST_LEX
    queries = 0
    best: tuple[tuple[int, ...], tuple[int, ...], int, frozenset[int]] | None = None

    for size in (1, 2):
        for add in combinations(cand, size):  # a copy: a refuted single leaves ``cand``
            gain_add = wn[add[0]] if size == 1 else wn[add[0]] + wn[add[1]]
            limit = gain_add if best is None else gain_add - best[2]
            if limit <= 0:
                continue  # cannot strictly improve, or cannot beat the best
            # Removal sets lighter than ``known`` are known to fail, and so
            # is removing nothing unless ``known`` is -1.
            known = floor.get(add[0], -1)
            if size == 2:
                known = max(known, floor.get(add[1], -1))
            if known >= limit:
                continue  # every removal set that could pay for it fails
            add_verts = edges[add[0]] if size == 1 else edges[add[0]] | edges[add[1]]
            classes = conflicts[add[0]] if size == 1 else conflicts[add[0]] + conflicts[add[1]]
            fit = fits.get(add)
            # Two vertices of one class make the pre-check set dependent, so
            # it is not asked: a pair's edges must meet no class in common,
            # and the addition's classes must miss ``stripped``.
            if fit is None and classes and (
                (size == 2 and len({c[0] for c in classes}) < len(classes))
                or not stripped.isdisjoint(chain.from_iterable(classes))
            ):
                if size == 1:
                    cand.remove(add[0])
                continue
            if fit is False:
                continue
            # Every removal set must hold ``forced``, the pool edges parallel
            # to the addition.  The gain, ``limit`` and ``known`` are then
            # taken net of their loss, so they bound the loss of the extras.
            forced: list[int] = []
            forced_loss = 0
            if held and classes:
                for c in classes:
                    e = held.get(c[0])
                    if e is not None and e not in forced:
                        forced.append(e)
                        forced_loss += wn[e]
                if forced:
                    if len(forced) > max_remove or forced_loss >= limit:
                        continue  # no removal set that holds them is allowed or pays
                    forced.sort()
                    gain_add -= forced_loss
                    limit -= forced_loss
                    known -= forced_loss
            # Each removal set is taken out of the solution with the addition
            # in; the addition shares no vertex with the pool.
            grown = sol_verts | add_verts
            start = grown.difference(*(edges[e] for e in forced)) if forced else grown
            extras = whole - len(forced)  # the pool edges outside ``forced``
            # Remove ``forced`` alone first, which is nothing when it is empty.
            # When it is the whole pool, that leaves the pre-check set.
            first = known < 0 or (forced and known == 0)
            if first and extras:
                queries += 1
                first = indep(start)
                if first:
                    fit = fits[add] = True  # the pre-check set lies inside ``start``
            if fit is None:
                queries += 1
                if not indep(stripped | add_verts):
                    if size == 1:
                        cand.remove(add[0])  # ``stripped`` stays, so it can never join
                    else:
                        fits[add] = False
                    continue
                fits[add] = True
            if first:
                if first_lex:
                    return queries, (add, tuple(forced), gain_add, start)
                best = (add, tuple(forced), gain_add, start)
                continue  # every other removal set holds ``forced`` and loses more
            rest = [e for e in pool if e not in forced] if forced else pool
            for r in rest:  # one extra removal
                loss = wn[r]
                if not known <= loss < limit:
                    continue
                after = start - edges[r]
                if extras > 1:
                    queries += 1
                    if not indep(after):
                        continue
                rem = tuple(sorted((*forced, r)))
                if first_lex:
                    return queries, (add, rem, gain_add - loss, after)
                best = (add, rem, gain_add - loss, after)
                limit = loss  # only a lighter removal set beats this move
            if max_remove - len(forced) >= 2 and not lightest:
                lightest = list(accumulate(sorted(wn[e] for e in pool)[:max_remove], initial=0))
            for more in range(2, max_remove - len(forced) + 1):
                if lightest[more] >= limit:
                    break
                for pos, loss, after in _light_combinations(rest, wn, edges, start, more, limit):
                    if not known <= loss < limit:
                        continue  # known to fail, or the best gain rose during this walk
                    if more < extras:
                        queries += 1
                        if not indep(after):
                            continue
                    rem = tuple(sorted((*forced, *(rest[i] for i in pos))))
                    if first_lex:
                        return queries, (add, rem, gain_add - loss, after)
                    best = (add, rem, gain_add - loss, after)
                    limit = loss
            if size == 1:
                floor[add[0]] = limit + forced_loss
    return queries, best


def _draw_shift(epsilon: Fraction, seed: int) -> Fraction:
    """Shift uniform on [0, epsilon) at 53-bit resolution, as an exact rational."""
    bits = random.Random(seed).getrandbits(53)
    return Fraction(epsilon.numerator * bits, epsilon.denominator << 53)


def _place_edges(instance: ParityInstance, scheme: IntervalScheme) -> dict[int, list[int]]:
    """The lone-feasible edges of each occupied interval, in increasing index order.

    The edges are placed heaviest first, in one sweep down the ladder.
    With a/b the first marker and p/q = 1 - epsilon, weight wn/den lies
    at or below marker(level) iff wn * b * q^(level-1) <= a * den *
    p^(level-1); the sweep keeps that pair of powers and gallops it down
    to each edge's interval.
    """
    wn = instance.weight_numerators
    levels = scheme.levels
    a, b, p, q = scheme._integers
    top, squares = a * instance.weight_denominator, [(p, q)]
    level, num, den = 1, 1, 1  # num/den = (1 - epsilon)^(level - 1)
    occupied: dict[int, list[int]] = {}
    for j in instance._lone_order:
        w = wn[j] * b
        if level <= levels and w * den <= top * num:
            if w == 0:
                level = levels + 1
            else:
                last, num, den = _gallop(
                    squares, level - 1, num, den, levels - 1, lambda n, d: w * d <= top * n
                )
                level, num, den = last + 2, num * p, den * q
        occupied.setdefault(level, []).append(j)
    return occupied


def sliding_local_search(
    instance: ParityInstance,
    epsilon: Fraction,
    delta: Fraction,
    seed: int,
    rule: str = FIRST_LEX,
) -> tuple[Solution, SolverTrace]:
    """Run the full sliding pass and return the solution plus its trace.

    Requires ``epsilon`` in (0, 1/2): beyond that the interval ladder is
    still well defined but the approximation argument is not, so it is
    rejected here rather than silently accepted.  Epsilon, delta, the
    rule and the seed, a plain ``int``, are checked once, on entry, in
    integers.  The shift-free half of the ladder is prepared once per
    ``(instance, epsilon, delta)`` and kept in a slot on the instance, so
    a run on an instance already prepared only draws its shift, tests
    that shift's marker budget and searches.  Each occupied interval gets
    one ``_Interval`` state when the run enters it; every move found by
    ``_swap_search`` is applied to that state in place, the interval's
    record adds its final pool, and the solution is the union of the
    pools.
    """
    epsilon = epsilon if type(epsilon) is Fraction else Fraction(epsilon)
    delta = delta if type(delta) is Fraction else Fraction(delta)
    if not 0 < 2 * epsilon.numerator < epsilon.denominator:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if rule not in SWAP_RULES:
        raise ValueError(f"unknown swap rule {rule!r}")
    if not 0 < delta.numerator < delta.denominator:
        raise ValueError("delta must lie in (0, 1)")
    if type(seed) is not int:
        raise ValueError(f"the seed must be an integer, got {seed!r}")

    signature = instance_signature(instance)
    tau = _draw_shift(epsilon, seed)
    try:
        scheme = _scheme(instance, epsilon, delta, tau)
    except DegenerateInstanceError:
        scheme = None
    occupied = {} if scheme is None else _place_edges(instance, scheme)

    den = instance.weight_denominator
    # The search builds only unions of instance edges that hold no two
    # vertices of one parallel class, so it asks the class-free rung.
    indep = instance.matroid._class_free_query()
    verts: frozenset[int] = frozenset()
    chosen: list[int] = []
    records: list[IntervalRecord] = []
    for index, ids in occupied.items():  # in increasing index order
        # The solution holds no edge of the interval yet, so its vertex set
        # is the one every pre-check of the interval extends.
        interval = _Interval(instance, ids, verts)
        swaps, calls = [], 0
        while True:  # apply improving swaps until none remains
            queries, found = _swap_search(instance, interval, rule, indep)
            calls += queries
            if found is None:
                break
            add, rem, gain_num, after = found
            interval.apply(add, rem, after)
            swaps.append(SwapMove(add, rem, Fraction(gain_num, den)))
        verts, added = interval.verts, tuple(interval.pool)
        chosen += added
        records.append(IntervalRecord(index, added, tuple(swaps), calls))

    solution = instance._solution(chosen)
    trace = SolverTrace(
        instance_signature=signature,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        tau=tau,
        rule=rule,
        scheme=scheme,
        records=tuple(records),
        final_weight=solution.weight,
    )
    return solution, trace


def greedy(instance: ParityInstance) -> Solution:
    """Add edges by decreasing weight (ties by id) whenever feasible; one query per edge."""
    order = sorted(range(instance.num_edges), key=lambda j: (-instance.weight_numerators[j], j))
    sol: set[int] = set()
    verts: frozenset[int] = frozenset()
    for j in order:
        trial = verts | instance.edges[j]
        if instance.matroid._independent(trial):
            sol.add(j)
            verts = trial
    return instance._solution(sol)


def scale_weights(instance: ParityInstance, epsilon_scale: Fraction) -> ParityInstance:
    """Round weights down to integer multiples of a grid step.

    The multiplier is ``|E| / (epsilon_scale * W)`` with W the heaviest
    individually feasible weight, so every scaled weight is an integer at
    most ``|E| / epsilon_scale``.  Improving swaps on the scaled instance
    then raise an integer total, bounding the number of applied swaps by
    ``|E|^2 / epsilon_scale``, at an approximation loss of at most the
    factor ``1 - epsilon_scale``.  Instances with no positive feasible
    weight are returned unchanged.

    Over the common denominator, with n_j the weight numerators, N the
    heaviest lone-feasible numerator and epsilon_scale = p/q, edge j's
    scaled weight is ``n_j * |E| * q // (p * N)``: one integer floor
    division, equal to ``floor(multiplier * w_j)``.
    """
    eps = Fraction(epsilon_scale)
    if not 0 < eps < 1:
        raise ValueError("epsilon_scale must lie in (0, 1)")
    # One pass for the maximum; the scaled copy sorts its own lone order.
    wn, lone = instance.weight_numerators, instance.feasible_alone
    heaviest = max((n for n, ok in zip(wn, lone) if ok), default=0)
    if not heaviest:
        return instance
    top, bottom = instance.num_edges * eps.denominator, eps.numerator * heaviest
    return instance._reweighted(Fraction(n * top // bottom) for n in wn)


def sliding_runs(
    instance: ParityInstance,
    epsilon: Fraction,
    delta: Fraction,
    runs: int,
    seed: int | str,
    rule: str = FIRST_LEX,
) -> Iterator[tuple[Solution, SolverTrace]]:
    """Yield ``runs`` sliding runs one after another, seeded from ``random.Random(seed)``.

    ``runs`` must be a plain ``int`` and ``seed`` a plain ``int`` or
    ``str``, so the same arguments always give the same runs.  The runs
    share the instance's prepared ladder, as any runs on one instance do.
    """
    if type(runs) is not int:
        raise ValueError(f"the number of runs must be an integer, got {runs!r}")
    if type(seed) not in (int, str):
        raise ValueError(f"the seed must be an integer or a string, got {seed!r}")
    if runs < 1:
        raise ValueError("need at least one run")
    derive = random.Random(seed)
    for _ in range(runs):
        yield sliding_local_search(instance, epsilon, delta, derive.getrandbits(63), rule)


def best_of_runs(
    instance: ParityInstance,
    epsilon: Fraction,
    delta: Fraction,
    runs: int,
    seed: int | str,
    rule: str = FIRST_LEX,
    max_workers: int | None = None,
) -> Solution:
    """Heaviest solution of ``sliding_runs``; ties go to the earliest run.

    The runs execute one after another; ``max_workers`` is ignored.
    """
    solutions = (sol for sol, _ in sliding_runs(instance, epsilon, delta, runs, seed, rule))
    return max(solutions, key=lambda sol: sol.weight)


def _swap_to_obj(move: SwapMove) -> dict[str, Any]:
    return {
        "add": list(move.add),
        "remove": list(move.remove),
        "gain": format_fraction(move.gain),
    }


def _swap_from_obj(obj: dict[str, Any]) -> SwapMove:
    return SwapMove(
        add=_edge_ids(obj["add"]),
        remove=_edge_ids(obj["remove"]),
        gain=parse_fraction(obj["gain"]),
    )


# Traces name their record layout: one record per occupied interval.
# Files written before it held one record per interval and carry no
# layout, so the loader refuses them instead of misreading their records.
RECORD_LAYOUT = "occupied"


def trace_to_json_obj(trace: SolverTrace) -> dict[str, Any]:
    """JSON object of a trace; a scheme is stored by the values that define its ladder."""
    scheme = trace.scheme
    return {
        "instance_signature": trace.instance_signature,
        "epsilon": format_fraction(trace.epsilon),
        "delta": format_fraction(trace.delta),
        "seed": trace.seed,
        "tau": format_fraction(trace.tau),
        "rule": trace.rule,
        "scheme": None
        if scheme is None
        else {
            "max_feasible_weight": format_fraction(scheme.max_feasible_weight),
            "levels": scheme.levels,
        },
        "record_layout": RECORD_LAYOUT,
        "records": [
            {
                "index": r.index,
                "added": list(r.added),
                "swaps": [_swap_to_obj(s) for s in r.swaps],
                "oracle_calls": r.oracle_calls,
            }
            for r in trace.records
        ],
        "final_weight": format_fraction(trace.final_weight),
    }


def _edge_ids(values: Any) -> tuple[int, ...]:
    ids = tuple(values)
    if not all(type(j) is int for j in ids):
        raise FormatError(f"edge ids must be integers, got {values!r}")
    return ids


def _count(value: Any) -> int:
    if type(value) is not int or value < 0:
        raise FormatError(f"oracle_calls must be a nonnegative integer, got {value!r}")
    return value


def trace_from_json_obj(obj: dict[str, Any]) -> SolverTrace:
    """Rebuild a trace from its JSON object; a malformed one raises FormatError.

    The scheme keeps epsilon, tau, the heaviest feasible weight and
    ``levels``, and no marker is computed here.  The ``markers``,
    ``final_edges`` and ``oracle_calls`` keys and the per-record
    ``upper``/``lower`` keys of older files are ignored, since the trace
    derives them.  The document must name the occupied-interval record
    layout, and tau must be a rational, since every run draws one.
    Epsilon, delta and tau must lie in the solver's ranges, with or
    without a scheme.  With a scheme, the record indices must increase
    strictly inside 1..levels+1 (checked before the ranges), and the
    deepest marker, bounded by ``marker_bits``, must stay within
    ``MAX_MARKER_BITS``.  The rule must be one of ``SWAP_RULES``, the
    seed an integer, every record's ``oracle_calls`` a nonnegative
    integer and every edge id, added or swapped, an integer.
    """
    try:
        if "record_layout" not in obj or obj["record_layout"] != RECORD_LAYOUT:
            raise FormatError(
                "not in the occupied-interval record layout; traces written before it"
                " hold one record per interval and must be produced again"
            )
        epsilon = parse_fraction(obj["epsilon"])
        delta = parse_fraction(obj["delta"])
        tau = parse_fraction(obj["tau"])
        records = tuple(
            IntervalRecord(
                index=r["index"],
                added=_edge_ids(r["added"]),
                swaps=tuple(_swap_from_obj(s) for s in r["swaps"]),
                oracle_calls=_count(r["oracle_calls"]),
            )
            for r in obj["records"]
        )
        scheme_obj = obj["scheme"]
        if scheme_obj is not None:
            levels = scheme_obj["levels"]
            if type(levels) is not int or levels < 1:
                raise FormatError(f"levels must be a positive integer, got {levels!r}")
            indices = [r.index for r in records]
            if not all(type(i) is int for i in indices) or not all(
                a < b for a, b in zip((0, *indices), (*indices, levels + 2))
            ):
                raise FormatError("record indices must increase strictly inside 1..levels+1")
        en, ed = epsilon.numerator, epsilon.denominator
        if not (0 < 2 * en < ed and 0 < delta.numerator < delta.denominator):
            raise FormatError("epsilon must lie in (0, 1/2) and delta in (0, 1)")
        if not 0 <= tau.numerator * ed < en * tau.denominator:
            raise FormatError("tau must lie in [0, epsilon)")
        scheme = None
        if scheme_obj is not None:
            heaviest = parse_fraction(scheme_obj["max_feasible_weight"])
            if marker_bits(epsilon, tau, heaviest, levels) > MAX_MARKER_BITS:
                raise FormatError(f"{levels} levels would exceed {MAX_MARKER_BITS} bits per marker")
            scheme = IntervalScheme(
                max_feasible_weight=heaviest, epsilon=epsilon, tau=tau, levels=levels
            )
        if obj["rule"] not in SWAP_RULES:
            raise FormatError(f"rule must be one of {', '.join(SWAP_RULES)}, got {obj['rule']!r}")
        if type(obj["seed"]) is not int:
            raise FormatError(f"seed must be an integer, got {obj['seed']!r}")
        return SolverTrace(
            instance_signature=obj["instance_signature"],
            epsilon=epsilon,
            delta=delta,
            seed=obj["seed"],
            tau=tau,
            rule=obj["rule"],
            scheme=scheme,
            records=records,
            final_weight=parse_fraction(obj["final_weight"]),
        )
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad trace document: {exc!r}") from exc
