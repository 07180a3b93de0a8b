"""Sliding local search over randomized geometric weight intervals.

The solver draws one random shift, lays a geometric ladder of weight
markers down from the heaviest individually feasible edge, and processes
the induced weight intervals that hold an edge, from heavy to light.
Intervals without an edge have nothing to search.  Inside an interval it
repeatedly applies improving swaps: add at most two non-solution edges of
the interval, remove at most ``2 * arity`` solution edges of the same
interval, subject to feasibility and a strict weight increase.  Edges
accepted in earlier (heavier) intervals are never removed again.

All weight arithmetic is exact.  Edge weights are compared through
integer numerators over a common denominator; markers and the random
shift are exact rationals, so interval membership and improvement tests
never see floating point.  The marker ladder follows from five values
(epsilon, delta, the shift, the heaviest feasible weight and the level
count); a trace stores those, and a marker is computed from them only
when asked for, so no ladder is ever built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
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
    return levels * _bits(1 - epsilon) + _bits(tau) + _bits(heaviest)


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
    and no ladder is ever built.  The integers and the powers they bisect
    on are computed once per scheme; they are not fields, so equality,
    hashing and the trace JSON ignore them.
    """

    max_feasible_weight: Fraction
    epsilon: Fraction
    delta: Fraction
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

    def _deepest_at_or_above(self, w: Fraction) -> int:
        """Largest j in 1..levels with ``marker(j) >= w``, or 0 if there is none.

        Marker ``1 + s`` is at least ``w = c/d`` iff
        ``a * d * p^s >= c * b * q^s``.  The largest such s below
        ``levels`` is built bit by bit from the top, one cross-multiplied
        test per bit, on the squares ``p^(2^i)`` and ``q^(2^i)``.  This
        search is kept apart from the solver's sweep (``_gallop``), so the
        verifier places edges by its own arithmetic.
        """
        a, b, _, _ = self._integers
        high = a * w.denominator
        low = w.numerator * b
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
        """Index of the interval containing weight ``w``."""
        w = w if isinstance(w, Fraction) else Fraction(w)
        j = self._deepest_at_or_above(w)
        if w.numerator < 0 or (j == 0 and w > self.marker(0)):
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


def _level_count(epsilon: Fraction, delta: Fraction, num_edges: int, max_levels: int) -> int:
    """One more than the least s with ``(1 - epsilon)^s <= delta / num_edges``.

    Found by doubling and bisection on exact integer powers, never past
    ``max_levels``: a ladder that needs more levels raises
    LadderBudgetError, so no power beyond the budget is built.
    """
    shrink, tail = 1 - epsilon, delta / num_edges
    squares, tn, td = [(shrink.numerator, shrink.denominator)], tail.numerator, tail.denominator
    limit = max(max_levels - 1, 0)
    last_above, _, _ = _gallop(squares, 0, 1, 1, limit, lambda num, den: num * td > den * tn)
    if last_above + 2 > max_levels:
        raise LadderBudgetError(
            f"an epsilon of {_bits(epsilon)} bits needs markers of more than {MAX_MARKER_BITS} bits"
        )
    return last_above + 2


def _heaviest_feasible_numerator(instance: ParityInstance) -> int | None:
    """Largest weight numerator of an edge feasible alone; None if there is none."""
    return max(
        (wn for wn, ok in zip(instance.weight_numerators, instance.feasible_alone) if ok),
        default=None,
    )


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

    heaviest = _heaviest_feasible_numerator(instance)
    if heaviest is None:
        raise DegenerateInstanceError("no edge is feasible on its own")
    if heaviest == 0:
        raise DegenerateInstanceError("all feasible edges have zero weight")
    heaviest_weight = Fraction(heaviest, instance.weight_denominator)
    spare = MAX_MARKER_BITS - marker_bits(epsilon, tau, heaviest_weight, 0)
    return IntervalScheme(
        max_feasible_weight=heaviest_weight,
        epsilon=epsilon,
        delta=delta,
        tau=tau,
        levels=_level_count(epsilon, delta, instance.num_edges, spare // _bits(1 - epsilon)),
    )


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
    already asked in the same interval, a pair containing a single
    addition that stayed infeasible with every interval edge of the
    solution removed, the removal of that whole pool, and, under
    ``best-gain``, an addition that cannot beat the best gain found so far.
    """

    instance_signature: str
    epsilon: Fraction
    delta: Fraction
    seed: int
    tau: Fraction | None
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
    weights: Sequence[int],
    vertex_sets: Sequence[frozenset[int]],
    start: frozenset[int],
    size: int,
    limit: int,
) -> Iterable[tuple[tuple[int, ...], int, frozenset[int]]]:
    """Position tuples of ``size`` weights summing below ``limit``.

    Each tuple comes with its weight sum and with ``start`` minus the
    vertex sets at its positions.  Tuples come in
    ``itertools.combinations`` order.  Weights are nonnegative, so the
    depth-first walk drops a prefix, and every tuple extending it, as
    soon as the prefix sum reaches ``limit``.  The walk keeps one sum and
    one vertex set per picked position, nothing more.
    """
    if size == 0:
        if limit > 0:
            yield (), 0, start
        return
    last = len(weights) - size  # highest position the first element may take
    picked: list[int] = []
    sums = [0]
    lefts = [start]
    i = 0
    while True:
        if i <= last + len(picked):
            total = sums[-1] + weights[i]
            if total < limit:
                left = lefts[-1] - vertex_sets[i]
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


def _swap_search(
    instance: ParityInstance,
    sol_set: set[int],
    sol_verts: frozenset[int],
    stripped: frozenset[int],
    fits: dict[tuple[int, ...], bool],
    interval_ids: Sequence[int],
    rule: str,
    indep: Callable[[frozenset[int]], bool],
) -> tuple[tuple[int, ...], tuple[int, ...], int, frozenset[int]] | None:
    """Find an improving swap inside one interval, or None.

    Candidate additions are interval edges outside the solution, at most
    two at a time; removals come only from interval edges currently in
    the solution, at most ``2 * arity`` of them.  ``interval_ids`` must be
    ascending.  ``first-lex`` accepts the first improving pair in
    enumeration order (additions by size then id order, removals by size
    then id order); ``best-gain`` scans everything and keeps the maximum
    gain, breaking ties toward the lexicographically smallest move, which
    is the earliest in that order.  The move comes with the vertex set it
    was found independent on, the solution's vertex set after the swap.

    ``stripped`` is the solution's vertex set outside the interval, which
    stays fixed while the interval is searched.  An addition is pruned
    outright if it is dependent on ``stripped``, the weakest requirement
    any removal choice could meet.  ``fits`` maps each addition
    pre-checked so far in this interval to that answer, so no pre-check
    is asked twice.  A pair containing a single known to fail is skipped
    without a query, since its vertex set contains the single's and
    independence is closed downward.  Removing the whole pool leaves
    ``stripped``, so that removal needs no query beyond the pre-check.

    Removal sets that cannot pay for the addition are never built.  Edge
    weights are nonnegative, so a removal size stops the size loop once
    its lightest sets already lose at least the gain, and inside a size
    the sets are walked depth first, cutting a prefix whose loss already
    reaches the gain.  Under ``best-gain`` the gain to pay for is the
    excess over the best move so far, since only a strictly larger gain
    can replace it; an addition with no excess is skipped before its
    pre-check.  These cuts skip only moves the enumeration would reject,
    so the move returned is the same as with every set built.
    """
    wn = instance.weight_numerators
    edges = instance.edges
    cand = [j for j in interval_ids if j not in sol_set]
    if not cand:
        return None
    pool = [j for j in interval_ids if j in sol_set]
    pool_w = [wn[j] for j in pool]
    pool_sets = [edges[j] for j in pool]

    max_remove = min(2 * instance.arity, len(pool))
    # lightest[s] is the loss of the s lightest pool edges, a lower bound
    # on the loss of any s removals.
    lightest = list(accumulate(sorted(pool_w)[:max_remove], initial=0))
    best: tuple[int, tuple[int, ...], tuple[int, ...], frozenset[int]] | None = None

    for add_size in (1, 2):
        for add in combinations(cand, add_size):
            if add_size == 2 and not (fits.get(add[:1], True) and fits.get(add[1:], True)):
                continue
            gain_add = sum(wn[j] for j in add)
            limit = gain_add if best is None else gain_add - best[0]
            if limit <= 0:
                continue  # cannot strictly improve, or cannot beat the best
            add_verts = edges[add[0]] if add_size == 1 else edges[add[0]] | edges[add[1]]
            if add not in fits:
                fits[add] = indep(stripped | add_verts)
            if not fits[add]:
                continue
            for rem_size in range(max_remove + 1):
                if lightest[rem_size] >= limit:
                    break
                for pos, loss, left in _light_combinations(
                    pool_w, pool_sets, sol_verts, rem_size, limit
                ):
                    if loss >= limit:
                        continue  # the best gain rose during this walk
                    after = left | add_verts
                    if rem_size < len(pool) and not indep(after):
                        continue
                    rem = tuple(pool[i] for i in pos)
                    if rule == FIRST_LEX:
                        return add, rem, gain_add - loss, after
                    best = (gain_add - loss, add, rem, after)
                    limit = loss  # only a lighter removal set beats this move
    if best is None:
        return None
    return best[1], best[2], best[0], best[3]


def _run_interval(
    instance: ParityInstance,
    sol_set: set[int],
    sol_verts: frozenset[int],
    interval_ids: Sequence[int],
    rule: str,
    indep: Callable[[frozenset[int]], bool],
) -> tuple[list[SwapMove], frozenset[int]]:
    """Apply improving swaps inside one interval until none remain.

    On entry the solution holds no edge of the interval, so ``sol_verts``
    is the fixed vertex set every pre-check of the interval extends.
    """
    den = instance.weight_denominator
    stripped = sol_verts
    fits: dict[tuple[int, ...], bool] = {}
    swaps: list[SwapMove] = []
    while True:
        found = _swap_search(instance, sol_set, sol_verts, stripped, fits, interval_ids, rule, indep)
        if found is None:
            return swaps, sol_verts
        add, rem, gain_num, sol_verts = found
        sol_set.difference_update(rem)
        sol_set.update(add)
        swaps.append(SwapMove(add=add, remove=rem, gain=Fraction(gain_num, den)))


def _draw_shift(epsilon: Fraction, seed: int) -> Fraction:
    """Shift uniform on [0, epsilon) at 53-bit resolution, as an exact rational."""
    rng = random.Random(seed)
    return epsilon * Fraction(rng.getrandbits(53), 1 << 53)


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
    for j in sorted(
        (j for j in range(instance.num_edges) if instance.feasible_alone[j]),
        key=lambda j: (-wn[j], j),
    ):
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
    rejected here rather than silently accepted.
    """
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    if not 0 < epsilon < Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if rule not in SWAP_RULES:
        raise ValueError(f"unknown swap rule {rule!r}")

    signature = instance_signature(instance)
    tau = _draw_shift(epsilon, seed)
    try:
        scheme = compute_markers(instance, epsilon, delta, tau)
    except DegenerateInstanceError:
        scheme = None
    occupied = {} if scheme is None else _place_edges(instance, scheme)

    counter = [0]
    matroid = instance.matroid

    def indep(vs: frozenset[int]) -> bool:
        counter[0] += 1
        return matroid.is_independent(vs)

    sol_set: set[int] = set()
    sol_verts: frozenset[int] = frozenset()
    records: list[IntervalRecord] = []
    for index, ids in occupied.items():  # in increasing index order
        ids.sort()
        calls_before = counter[0]
        swaps, sol_verts = _run_interval(instance, sol_set, sol_verts, ids, rule, indep)
        records.append(
            IntervalRecord(
                index=index,
                added=tuple(sorted(sol_set.intersection(ids))),
                swaps=tuple(swaps),
                oracle_calls=counter[0] - calls_before,
            )
        )

    solution = instance.solution(sol_set)
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
        if instance.matroid.is_independent(trial):
            sol.add(j)
            verts = trial
    return instance.solution(sol)


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
    heaviest = _heaviest_feasible_numerator(instance)
    if not heaviest:
        return instance
    top, bottom = instance.num_edges * eps.denominator, eps.numerator * heaviest
    return instance._reweighted(Fraction(n * top // bottom) for n in instance.weight_numerators)


def sliding_runs(
    instance: ParityInstance,
    epsilon: Fraction,
    delta: Fraction,
    runs: int,
    seed: int | str,
    rule: str = FIRST_LEX,
) -> Iterator[tuple[Solution, SolverTrace]]:
    """Yield ``runs`` sliding runs one after another, seeded from ``random.Random(seed)``."""
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
    seed: int,
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
        "tau": None if trace.tau is None else format_fraction(trace.tau),
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


def indices_in_order(indices: Sequence[int], levels: int) -> bool:
    """Whether record indices increase strictly inside 1..levels+1."""
    return all(a < b for a, b in zip((0, *indices), (*indices, levels + 2)))


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

    The scheme keeps epsilon, delta, tau, the heaviest feasible weight
    and ``levels``, and no marker is computed here.  The ``markers``,
    ``final_edges`` and ``oracle_calls`` keys and the per-record
    ``upper``/``lower`` keys of older files are ignored, since the trace
    derives them.  The document must name the occupied-interval record
    layout, its record indices must increase strictly inside
    1..levels+1, epsilon, delta and tau must lie in the solver's ranges,
    and the deepest marker, bounded by ``marker_bits``, must stay within
    ``MAX_MARKER_BITS``.  The rule
    must be one of ``SWAP_RULES``, the seed an integer, every record's
    ``oracle_calls`` a nonnegative integer and every edge id, added or
    swapped, an integer.
    """
    try:
        if "record_layout" not in obj or obj["record_layout"] != RECORD_LAYOUT:
            raise FormatError(
                "not in the occupied-interval record layout; traces written before it"
                " hold one record per interval and must be produced again"
            )
        epsilon = parse_fraction(obj["epsilon"])
        delta = parse_fraction(obj["delta"])
        tau = None if obj["tau"] is None else parse_fraction(obj["tau"])
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
        scheme = None
        if scheme_obj is not None:
            levels = scheme_obj["levels"]
            if type(levels) is not int or levels < 1:
                raise FormatError(f"levels must be a positive integer, got {levels!r}")
            indices = [r.index for r in records]
            if not all(type(i) is int for i in indices) or not indices_in_order(indices, levels):
                raise FormatError("record indices must increase strictly inside 1..levels+1")
            if not (0 < epsilon < Fraction(1, 2) and 0 < delta < 1):
                raise FormatError("epsilon must lie in (0, 1/2) and delta in (0, 1)")
            if tau is None or not 0 <= tau < epsilon:
                raise FormatError("tau must lie in [0, epsilon)")
            heaviest = parse_fraction(scheme_obj["max_feasible_weight"])
            if marker_bits(epsilon, tau, heaviest, levels) > MAX_MARKER_BITS:
                raise FormatError(f"{levels} levels would exceed {MAX_MARKER_BITS} bits per marker")
            scheme = IntervalScheme(
                max_feasible_weight=heaviest,
                epsilon=epsilon,
                delta=delta,
                tau=tau,
                levels=levels,
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
