import json
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from mpls import solver
from mpls.exact import brute_force_optimum, verify_local_optimum
from mpls.generators import build_doc, generate, random_partition_matroids
from mpls.instance import ParityInstance, Solution, from_matroid_intersection, make_disjoint
from mpls.matroids import FreeMatroid, GraphicMatroid, PartitionMatroid, UniformMatroid
from mpls.serialization import FormatError, dumps_canonical, format_fraction, instance_signature
from mpls.solver import (
    BEST_GAIN,
    FIRST_LEX,
    MAX_MARKER_BITS,
    SWAP_RULES,
    DegenerateInstanceError,
    IntervalScheme,
    LadderBudgetError,
    SwapMove,
    best_of_runs,
    compute_markers,
    greedy,
    scale_weights,
    sliding_local_search,
    sliding_runs,
    trace_from_json_obj,
    trace_to_json_obj,
)
from conftest import PublicOnly
from test_exact import mixed_intersections, overlapping_instances

EPS = Fraction("0.3873")
DELTA = Fraction("0.0001")


@dataclass(frozen=True)
class WeightInterval:
    """Half-open weight range (lower, upper], optionally closed at the bottom."""

    upper: Fraction
    lower: Fraction
    closed_lower: bool = False

    def contains(self, w: Fraction) -> bool:
        if w > self.upper:
            return False
        if w > self.lower:
            return True
        return self.closed_lower and w == self.lower


def interval(scheme, j):
    """Interval j of a scheme as explicit bounds."""
    if not 1 <= j <= scheme.levels + 1:
        raise ValueError(f"interval index {j} out of range 1..{scheme.levels + 1}")
    return WeightInterval(scheme.marker(j - 1), scheme.marker(j), j == scheme.levels + 1)


def find_improving_swap(instance, solution_edges, weight_range, rule=FIRST_LEX):
    """One swap search, by the solver's ``_swap_search``, over the
    lone-feasible edges whose weight lies inside ``weight_range``."""
    sol = set(solution_edges)
    assert instance.is_feasible(sol)
    ids = [
        j
        for j in range(instance.num_edges)
        if instance.feasible_alone[j] and weight_range.contains(instance.weights[j])
    ]
    held = [j for j in ids if j in sol]
    state = solver._Interval(instance, ids, instance.vertices_of(sol.difference(ids)))
    state.apply(held, (), instance.vertices_of(sol))
    assert_kept(instance, state)
    asked = []

    def indep(vs):
        asked.append(vs)
        return instance.matroid.is_independent(vs)

    queries, found = solver._swap_search(instance, state, rule, indep)
    assert queries == len(asked)
    if found is None:
        return None
    add, rem, gain_num, verts = found
    # The solver adopts this set instead of asking about the new solution.
    assert verts == instance.vertices_of(sol.difference(rem).union(add))
    return SwapMove(add=add, remove=rem, gain=Fraction(gain_num, instance.weight_denominator))


def free_singles(weights):
    ws = tuple(Fraction(w) for w in weights)
    return ParityInstance(
        num_vertices=len(ws),
        edges=tuple(frozenset([v]) for v in range(len(ws))),
        weights=ws,
        matroid=FreeMatroid(len(ws)),
        arity=1,
    )


def test_marker_ladder_halving():
    inst = free_singles([1, 1, 1, 1])
    scheme = compute_markers(inst, Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert scheme.levels == 4
    assert tuple(scheme.marker(j) for j in range(scheme.levels + 2)) == (
        Fraction(2),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(0),
    )


def test_level_count_for_hundred_edges():
    inst = free_singles([1] * 100)
    scheme = compute_markers(inst, Fraction(1, 2), Fraction(1, 100), Fraction(0))
    assert scheme.levels == 15


def test_shift_rescales_every_marker():
    inst = free_singles([1, 1, 1, 1])
    base = compute_markers(inst, Fraction(1, 2), Fraction(1, 2), Fraction(0))
    shifted = compute_markers(inst, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
    assert shifted.levels == base.levels
    for j in range(base.levels + 1):
        assert shifted.marker(j) == base.marker(j) * Fraction(3, 4)


def halving_scheme():
    return compute_markers(
        free_singles([1, 1, 1, 1]), Fraction(1, 2), Fraction(1, 2), Fraction(0)
    )


def test_marker_weights_fall_below_their_marker():
    scheme = halving_scheme()
    assert scheme.interval_of(Fraction(2)) == 1
    assert scheme.interval_of(Fraction(1)) == 2
    assert scheme.interval_of(Fraction(1, 2)) == 3
    assert scheme.interval_of(Fraction(1, 8)) == 5
    assert scheme.interval_of(Fraction(0)) == 5
    with pytest.raises(ValueError):
        scheme.interval_of(Fraction(3))


def upper_marker(scheme, w):
    """The marker above the interval of ``w``."""
    return scheme.marker(scheme.interval_of(w) - 1)


def test_upper_marker_skips_zero_sentinel():
    scheme = halving_scheme()
    assert upper_marker(scheme, Fraction(0)) == Fraction(1, 8)
    assert upper_marker(scheme, Fraction(1, 16)) == Fraction(1, 8)
    assert upper_marker(scheme, Fraction(3, 2)) == Fraction(2)
    with pytest.raises(ValueError):
        upper_marker(scheme, Fraction(3))


@given(st.fractions(min_value=0, max_value=2))
def test_intervals_partition_the_weight_range(w):
    scheme = halving_scheme()
    j = scheme.interval_of(w)
    hits = [
        i for i in range(1, scheme.levels + 2) if interval(scheme, i).contains(w)
    ]
    assert hits == [j]


def test_interval_domain_errors():
    scheme = halving_scheme()
    with pytest.raises(ValueError):
        scheme.marker(-1)
    with pytest.raises(ValueError):
        scheme.marker(scheme.levels + 2)
    with pytest.raises(ValueError):
        interval(scheme, 0)
    with pytest.raises(ValueError):
        interval(scheme, scheme.levels + 2)


def reference_ladder(scheme):
    """The whole ladder as explicit fractions, marker 0 to the zero sentinel."""
    shrink = 1 - scheme.epsilon
    first = scheme.max_feasible_weight * (1 - scheme.tau)
    ladder = [first / shrink, first]
    for _ in range(scheme.levels - 1):
        ladder.append(ladder[-1] * shrink)
    return ladder + [Fraction(0)]


def reference_interval_of(ladder, w):
    if w < 0 or w > ladder[0]:
        return None
    levels = len(ladder) - 2
    for j in range(1, levels + 1):
        if w > ladder[j]:
            return j
    return levels + 1


def reference_upper_marker(ladder, w):
    if w < 0:
        return None  # weights are nonnegative, so no interval holds w
    for m in reversed(ladder[:-1]):
        if m >= w:
            return m
    return None


@settings(max_examples=300)
@given(
    st.integers(1, 99).map(lambda i: Fraction(i, 100)),
    st.integers(0, 99),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.integers(1, 60),
    st.data(),
)
def test_interval_of_and_upper_marker_match_a_linear_scan(epsilon, tau_percent, top, levels, data):
    scheme = IntervalScheme(top, epsilon, epsilon * Fraction(tau_percent, 100), levels)
    ladder = reference_ladder(scheme)
    assert [scheme.marker(j) for j in range(levels + 2)] == ladder
    on_marker = st.integers(0, levels + 1).map(lambda j: ladder[j])
    near_marker = st.tuples(on_marker, st.integers(-2, 2)).map(
        lambda a: a[0] + Fraction(a[1], 10**9)
    )
    for w in [
        Fraction(0),
        ladder[0],
        data.draw(on_marker),
        data.draw(near_marker),
        data.draw(st.fractions(min_value=0, max_value=ladder[0] * 2)),
    ]:
        expected = reference_interval_of(ladder, w)
        if expected is None:
            with pytest.raises(ValueError):
                scheme.interval_of(w)
        else:
            assert scheme.interval_of(w) == expected
        expected = reference_upper_marker(ladder, w)
        if expected is None:
            with pytest.raises(ValueError):
                upper_marker(scheme, w)
        else:
            assert upper_marker(scheme, w) == expected


@settings(max_examples=150)
@given(
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(99, 100)),
    st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(99, 100)),
    st.integers(1, 200),
)
def test_level_count_matches_the_stepwise_definition(epsilon, delta, num_edges):
    shrink, power, steps = 1 - epsilon, Fraction(1), 0
    while power > delta / num_edges:
        power *= shrink
        steps += 1
    tail = delta / num_edges
    assert solver._level_count(shrink, tail, 10**6) == steps + 1
    assert solver._level_count(shrink, tail, steps + 1) == steps + 1
    with pytest.raises(LadderBudgetError):
        solver._level_count(shrink, tail, steps)


def test_edges_on_a_marker_fall_into_the_interval_below():
    first = 1 - solver._draw_shift(EPS, 0)  # marker 1 when the heaviest weight is 1
    inst = free_singles([1, first, first * (1 - EPS), first * (1 - EPS) ** 2])
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=0)
    assert [(r.index, r.added) for r in trace.records] == [(1, (0,)), (2, (1,)), (3, (2,)), (4, (3,))]
    assert verify_local_optimum(inst, trace)


def test_tiny_epsilon_is_refused_within_a_second():
    inst = generate("set-packing", n=7, m=6, k=3, seed=0)
    start = time.perf_counter()
    with pytest.raises(LadderBudgetError):
        compute_markers(inst, Fraction(1, 10**9), DELTA, Fraction(0))
    with pytest.raises(LadderBudgetError):
        sliding_local_search(inst, Fraction(1, 10**9), DELTA, seed=0)
    assert time.perf_counter() - start < 1


def test_epsilon_domains():
    inst = free_singles([1, 2])
    with pytest.raises(ValueError):
        sliding_local_search(inst, Fraction(1, 2), DELTA, seed=0)
    with pytest.raises(ValueError):
        sliding_local_search(inst, Fraction(0), DELTA, seed=0)
    # The ladder itself tolerates any epsilon in (0, 1).
    assert compute_markers(inst, Fraction(3, 5), DELTA, Fraction(0)).levels > 0
    with pytest.raises(ValueError):
        compute_markers(inst, Fraction(1, 2), DELTA, Fraction(1, 2))


def test_single_swap_replaces_lighter_edge():
    inst = ParityInstance(
        2,
        (frozenset([0]), frozenset([1])),
        (Fraction(1), Fraction(2)),
        UniformMatroid(2, 1),
        1,
    )
    weight_range = WeightInterval(upper=Fraction(5), lower=Fraction(1, 2))
    move = find_improving_swap(inst, {0}, weight_range)
    assert move == SwapMove(add=(1,), remove=(0,), gain=Fraction(1))
    assert find_improving_swap(inst, {1}, weight_range) is None
    improved, _ = sliding_local_search(inst, EPS, DELTA, seed=0)
    assert sorted(improved.edges) == [1]
    assert improved.weight == Fraction(2)


def test_exact_optimum_admits_no_swap_in_any_interval():
    for seed in range(6):
        inst = generate("set-packing", n=7, m=6, k=3, seed=seed)
        optimum = brute_force_optimum(inst).optimum
        try:
            scheme = compute_markers(inst, EPS, DELTA, Fraction(0))
        except DegenerateInstanceError:
            continue
        for j in range(1, scheme.levels + 2):
            for rule in (FIRST_LEX, BEST_GAIN):
                assert (
                    find_improving_swap(inst, optimum.edges, interval(scheme, j), rule)
                    is None
                )


def test_zero_weight_edges_are_never_added():
    cases = [
        free_singles([0, 1, 0, 2]),
        free_singles([10, Fraction(1, 10 ** 6), 0]),
        generate("set-packing", n=7, m=8, k=2, seed=3),
    ]
    for inst in cases:
        for rule in (FIRST_LEX, BEST_GAIN):
            for seed in (0, 1, 2):
                sol, trace = sliding_local_search(inst, EPS, DELTA, seed, rule)
                assert all(inst.weights[j] > 0 for j in sol.edges)
                for record in trace.records:
                    for swap in record.swaps:
                        assert all(inst.weights[j] > 0 for j in swap.add)


def test_greedy_trap_recovery_depends_on_shift():
    rho = Fraction(3, 10)
    inst = generate("greedy-trap", k=3, rho=rho)
    assert greedy(inst).weight == Fraction(1)
    for seed in range(20):
        sol, trace = sliding_local_search(inst, EPS, DELTA, seed)
        if trace.tau > rho:
            assert sorted(sol.edges) == [1, 2, 3]
            assert sol.weight == Fraction(21, 10)
        else:
            assert sorted(sol.edges) == [0]
            assert sol.weight == Fraction(1)


def test_scaling_rounds_onto_integer_grid():
    inst = free_singles([1, Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), 0,
                         Fraction(1, 4), Fraction(3, 5)])
    scaled = scale_weights(inst, Fraction(1, 10))
    assert scaled.weights == tuple(
        Fraction(x) for x in (70, 35, 23, 63, 0, 17, 42)
    )
    assert scaled.matroid is inst.matroid
    assert scaled.edges == inst.edges


def singles_with_loops(weights, loops):
    """Singleton edges on a partition matroid whose ``loops`` are not feasible alone."""
    n = len(weights)
    rest = [v for v in range(n) if v not in loops]
    return ParityInstance(
        num_vertices=n,
        edges=tuple(frozenset([v]) for v in range(n)),
        weights=tuple(Fraction(w) for w in weights),
        matroid=PartitionMatroid([sorted(loops), rest], [0, len(rest)]),
        arity=1,
    )


def test_scaling_keeps_lone_feasibility_and_not_the_signature():
    base = singles_with_loops([5, 3, Fraction(7, 3), 0], {0})
    counted = PublicOnly(base.matroid)
    inst = ParityInstance(base.num_vertices, base.edges, base.weights, counted, base.arity)
    signature = instance_signature(inst)
    scaled = scale_weights(inst, Fraction(1, 10))
    asked = counted.asked
    assert scaled.feasible_alone == (False, True, True, True)
    assert counted.asked == asked  # carried over, not asked again
    assert scaled == ParityInstance(inst.num_vertices, inst.edges, scaled.weights, counted, inst.arity)
    assert instance_signature(scaled) != signature


def test_a_scaled_copy_orders_its_lone_edges_by_its_own_weights():
    # Edges 0 and 1 both scale to 15, so the scaled copy breaks their tie by id.
    inst = free_singles([Fraction(51, 5), Fraction(21, 2), 20])
    assert inst._lone_order == (2, 1, 0)
    scaled = scale_weights(inst, Fraction(1, 10))
    assert scaled.weights == (15, 15, 30)
    assert scaled._lone_order == (2, 0, 1)


def reference_scaled(inst, eps):
    """The grid rounding in Fractions: floor(|E| / (eps * W) * w)."""
    lone = [w for w, ok in zip(inst.weights, inst.feasible_alone) if ok]
    heaviest = max(lone, default=Fraction(0))
    if heaviest == 0:
        return inst.weights
    multiplier = Fraction(inst.num_edges) / (eps * heaviest)
    return tuple(Fraction(floor(multiplier * w)) for w in inst.weights)


def test_scaling_takes_the_heaviest_lone_feasible_weight():
    # Edge 0 is the heaviest but a loop, so W = 3 and the multiplier 4 / (3/10).
    inst = singles_with_loops([5, 3, Fraction(7, 3), 0], {0})
    scaled = scale_weights(inst, Fraction(1, 10))
    assert scaled.weights == (66, 40, 31, 0)
    assert scaled.weights == reference_scaled(inst, Fraction(1, 10))


WEIGHTS = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 60).map(lambda n: Fraction(n, 3)),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**40),
)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(WEIGHTS, min_size=1, max_size=9),
    loop_flags=st.lists(st.booleans(), min_size=9, max_size=9),
    eps=st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda e: 0 < e < 1),
)
def test_integer_scaling_equals_the_fraction_reference(weights, loop_flags, eps):
    inst = singles_with_loops(weights, {v for v in range(len(weights)) if loop_flags[v]})
    den = inst.weight_denominator
    assert inst.weight_numerators == tuple(int(w * den) for w in inst.weights)
    scaled = scale_weights(inst, eps)
    assert scaled.weights == reference_scaled(inst, eps)
    assert all(type(w) is Fraction for w in scaled.weights)


def test_scaling_ignores_all_zero_instances():
    inst = free_singles([0, 0])
    assert scale_weights(inst, Fraction(1, 10)) is inst


def test_scaled_runs_respect_swap_budget():
    eps_scale = Fraction(1, 10)
    for seed in range(8):
        inst = generate("set-packing", n=8, m=7, k=3, seed=seed)
        scaled = scale_weights(inst, eps_scale)
        for run_seed in (0, 5):
            _, trace = sliding_local_search(scaled, EPS, DELTA, run_seed)
            swaps = sum(len(r.swaps) for r in trace.records)
            assert swaps <= inst.num_edges ** 2 / eps_scale


def test_trace_serialization_round_trip():
    inst = generate("set-packing", n=7, m=6, k=3, seed=1)
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=4)
    obj = trace_to_json_obj(trace)
    # The final edges and the query total follow from the records.
    assert "final_edges" not in obj and "oracle_calls" not in obj
    assert trace_from_json_obj(obj) == trace
    assert trace_to_json_obj(trace_from_json_obj(obj)) == obj


@pytest.mark.parametrize("field", ["epsilon", "scheme", "records"])
def test_trace_missing_a_field_is_a_format_error(field):
    inst = generate("set-packing", n=7, m=6, k=3, seed=1)
    obj = trace_to_json_obj(sliding_local_search(inst, EPS, DELTA, seed=4)[1])
    del obj[field]
    with pytest.raises(FormatError):
        trace_from_json_obj(obj)


@pytest.mark.parametrize(
    "epsilon, delta, tau, refusal",
    [
        ("0.4999", "0.9999", "0.4998", None),
        ("1/3", "1e-30", "0", None),
        ("0", "0.5", "0", "epsilon must lie"),
        ("-1/3", "0.5", "0", "epsilon must lie"),
        ("1/2", "0.5", "0", "epsilon must lie"),
        ("0.3", "0", "0", "epsilon must lie"),
        ("0.3", "1", "0", "epsilon must lie"),
        ("0.3", "-1/2", "0", "epsilon must lie"),
        ("0.3", "0.5", "-1e-30", "tau must lie"),
        ("0.3", "0.5", "0.3", "tau must lie"),
        ("0.3", "0.5", "1", "tau must lie"),
    ],
)
def test_trace_loader_checks_the_parameter_ranges(epsilon, delta, tau, refusal):
    # The loader checks the ranges alone; whether the levels fit is check_trace's task.
    obj = dict(trace_to_json_obj(sample_run()[1]), epsilon=epsilon, delta=delta, tau=tau)
    if refusal is None:
        loaded = trace_from_json_obj(obj)
        scheme = loaded.scheme
        assert (scheme.epsilon, loaded.delta, scheme.tau) == tuple(map(Fraction, (epsilon, delta, tau)))
    else:
        with pytest.raises(FormatError, match=f"^{refusal}"):
            trace_from_json_obj(obj)


def sample_run():
    inst = generate("set-packing", n=7, m=6, k=3, seed=1)
    return inst, sliding_local_search(inst, EPS, DELTA, seed=4)[1]


def test_loaded_trace_has_the_scheme_compute_markers_builds():
    inst, trace = sample_run()
    back = trace_from_json_obj(json.loads(dumps_canonical(trace_to_json_obj(trace))))
    expected = compute_markers(inst, EPS, DELTA, trace.tau)
    assert back.scheme == expected


# `mpls solve --gen greedy-trap --k 3 --no-scale --trace-out`, as written
# while traces still stored their final edges and query total.
STORED_TOTALS_TRACE = (
    '{"delta":"0.0001","epsilon":"0.3873","final_edges":[0],"final_weight":"1",'
    '"instance_signature":"2ae22326ea45d9f4","oracle_calls":5,"record_layout":"occupied",'
    '"records":[{"added":[0],"index":1,"oracle_calls":2,"swaps":[{"add":[0],"gain":"1",'
    '"remove":[]}]},{"added":[],"index":2,"oracle_calls":3,"swaps":[]}],"rule":"first-lex",'
    '"scheme":{"levels":23,"max_feasible_weight":"1"},"seed":0,'
    '"tau":"0.149205484936038568621885502807344892062246799468994140625"}'
)


def uncounted(trace):
    """The trace with every record's query count set to 0."""
    return replace(trace, records=tuple(replace(r, oracle_calls=0) for r in trace.records))


def test_trace_files_with_stored_markers_still_load():
    # Keys that older files carried, the ladder and each record's bounds,
    # are ignored.
    inst, trace = sample_run()
    obj = trace_to_json_obj(trace)
    scheme = trace.scheme
    obj["scheme"]["markers"] = [format_fraction(scheme.marker(j)) for j in range(scheme.levels + 2)]
    for r in obj["records"]:
        r["upper"] = format_fraction(scheme.marker(r["index"] - 1))
        r["lower"] = format_fraction(scheme.marker(r["index"]))
    assert trace_from_json_obj(obj) == trace
    # So are the stored final edges and query total, which the trace derives.
    # The stored file's first record also counts a query after its swap, and
    # its second the pre-checks of edges that each hold a copy of a vertex
    # of the first's; the solver asks neither, so the per-record counts are
    # compared apart.
    inst = generate("greedy-trap", k=3)
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=0)
    back = trace_from_json_obj(json.loads(STORED_TOTALS_TRACE))
    assert [r.oracle_calls for r in back.records] == [2, 3]
    assert [r.oracle_calls for r in trace.records] == [1, 0]
    assert uncounted(back) == uncounted(trace)
    assert (back.final_edges, back.oracle_calls) == ((0,), 5)
    assert verify_local_optimum(inst, back)


def test_records_cover_exactly_the_occupied_intervals():
    inst, trace = sample_run()
    scheme = trace.scheme
    occupied = sorted(
        {scheme.interval_of(inst.weights[j]) for j in range(inst.num_edges) if inst.feasible_alone[j]}
    )
    assert [r.index for r in trace.records] == occupied
    assert len(occupied) < scheme.levels + 1


def test_dense_trace_files_are_refused():
    # Files written before the occupied-interval layout hold one record per
    # interval and name no layout.
    _, trace = sample_run()
    obj = trace_to_json_obj(trace)
    del obj["record_layout"]
    by_index = {r["index"]: r for r in obj["records"]}
    empty = {"added": [], "swaps": [], "oracle_calls": 0}
    obj["records"] = [
        by_index.get(i, dict(empty, index=i)) for i in range(1, trace.scheme.levels + 2)
    ]
    with pytest.raises(FormatError):
        trace_from_json_obj(obj)
    obj["record_layout"] = "dense"
    with pytest.raises(FormatError):
        trace_from_json_obj(obj)


def test_fine_epsilon_trace_on_48_edges_round_trips_and_verifies():
    # 1,303 levels, of which about 40 hold an edge.
    inst = generate("graphic-parity", n=16, m=48, k=3, seed=0)
    _, trace = sliding_local_search(inst, Fraction(1, 100), DELTA, seed=1)
    assert trace.scheme.levels == 1303
    assert len(trace.records) < 60
    back = trace_from_json_obj(json.loads(dumps_canonical(trace_to_json_obj(trace))))
    assert back == trace
    assert verify_local_optimum(inst, back)


def test_small_epsilon_solve_stays_small():
    inst = scale_weights(generate("set-packing", n=7, m=6, k=3, seed=0), Fraction(1, 10))
    tracemalloc.start()
    try:
        _, trace = sliding_local_search(inst, Fraction(1, 1000), DELTA, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.scheme.levels > 10_000
    assert peak < 5_000_000


def test_huge_level_count_is_refused_before_building_a_ladder():
    obj = trace_to_json_obj(sample_run()[1])
    obj["scheme"]["levels"] = 10**9
    obj["records"] = obj["records"][:3]
    start = time.perf_counter()
    with pytest.raises(FormatError):
        trace_from_json_obj(obj)
    assert time.perf_counter() - start < 1


def test_fine_epsilon_ladder_is_refused_before_building_it():
    # 201 empty records at an epsilon whose 1 - epsilon has about 6,600
    # bits: the deepest of 200 markers would have about 1.3e6 bits.
    levels = 200
    obj = {
        "record_layout": "occupied",
        "instance_signature": "0" * 16,
        "epsilon": format_fraction(Fraction(1, 3) + Fraction(1, 10**1000)),
        "delta": "0.0001",
        "seed": 0,
        "tau": "0",
        "rule": FIRST_LEX,
        "scheme": {"max_feasible_weight": "1", "levels": levels},
        "records": [
            {"index": i, "added": [], "swaps": [], "oracle_calls": 0} for i in range(1, levels + 2)
        ],
        "final_weight": "0",
    }
    text = dumps_canonical(obj)
    assert len(text) < 13_000
    start = time.perf_counter()
    with pytest.raises(FormatError):
        trace_from_json_obj(json.loads(text))
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj["records"][-1].update(index=obj["scheme"]["levels"] + 2),
        lambda obj: obj.update(scheme=dict(obj["scheme"], levels=0), records=obj["records"][:1]),
        lambda obj: obj["scheme"].update(levels="26"),
        lambda obj: obj["records"][1].update(index=1),
        lambda obj: obj.update(tau=obj["epsilon"]),
        lambda obj: obj.update(tau="-1/10"),
        lambda obj: obj.update(tau=None),
        lambda obj: obj.update(epsilon="1/2"),
        lambda obj: obj.update(delta="1"),
        lambda obj: obj["records"][0].update(index=0),
        lambda obj: obj["records"][0].update(index="1"),
        lambda obj: obj["scheme"].update(levels=MAX_MARKER_BITS),
        lambda obj: obj.update(rule="nonsense"),
        lambda obj: obj.update(seed="4"),
        lambda obj: obj["records"][0].update(oracle_calls=-7),
        lambda obj: obj["records"][0].update(oracle_calls=True),
        lambda obj: obj.update(scheme=None, records=[], final_weight="0", tau=None),
    ],
    ids=[
        "index-past-tail",
        "levels-zero",
        "levels-text",
        "indices-out-of-order",
        "tau-at-epsilon",
        "tau-negative",
        "tau-missing",
        "epsilon-too-wide",
        "delta-one",
        "index-zero",
        "index-text",
        "deepest-marker-over-budget",
        "rule-unknown",
        "seed-text",
        "record-oracle-calls-negative",
        "record-oracle-calls-bool",
        "degenerate-tau-missing",
    ],
)
def test_inconsistent_scheme_is_a_format_error(edit):
    obj = trace_to_json_obj(sample_run()[1])
    edit(obj)
    with pytest.raises(FormatError):
        trace_from_json_obj(obj)


def test_non_integer_edge_ids_are_a_format_error():
    # Swap ids are checked like added ones; the swap replay relies on it.
    for key, ids in (("add", [[1]]), ("remove", ["0"])):
        obj = trace_to_json_obj(sample_run()[1])
        obj["records"][0]["swaps"][0][key] = ids
        with pytest.raises(FormatError, match="edge ids must be integers"):
            trace_from_json_obj(obj)


def test_same_seed_gives_identical_traces():
    inst = generate("graphic-parity", n=4, m=6, k=2, seed=2)
    _, first = sliding_local_search(inst, EPS, DELTA, seed=9)
    _, second = sliding_local_search(inst, EPS, DELTA, seed=9)
    assert dumps_canonical(trace_to_json_obj(first)) == dumps_canonical(
        trace_to_json_obj(second)
    )


def test_shift_is_uniform_in_range():
    inst = free_singles([1, 2])
    taus = set()
    for seed in range(30):
        _, trace = sliding_local_search(inst, EPS, DELTA, seed)
        assert 0 <= trace.tau < EPS
        taus.add(trace.tau)
    assert len(taus) == 30


def test_best_of_runs_matches_manual_derivation():
    inst = generate("greedy-trap", k=3, rho=Fraction(3, 10))
    runs, seed = 6, 11
    derived = random.Random(seed)
    seeds = [derived.getrandbits(63) for _ in range(runs)]
    solutions = [sliding_local_search(inst, EPS, DELTA, s)[0] for s in seeds]
    expected = solutions[0]
    for sol in solutions[1:]:
        if sol.weight > expected.weight:
            expected = sol
    best = best_of_runs(inst, EPS, DELTA, runs, seed)
    assert best == expected

    single = best_of_runs(inst, EPS, DELTA, 1, seed)
    assert single == sliding_local_search(inst, EPS, DELTA, seeds[0])[0]


def test_best_of_runs_keeps_a_strictly_heavier_later_run():
    inst = generate("greedy-trap", k=3)
    derived = random.Random(0)
    seeds = [derived.getrandbits(63) for _ in range(4)]
    solutions = [sliding_local_search(inst, EPS, DELTA, s)[0] for s in seeds]
    assert [sol.weight for sol in solutions] == [1, 1, Fraction(21, 10), 1]
    assert best_of_runs(inst, EPS, DELTA, 4, 0) == solutions[2]


def test_sliding_runs_derive_their_seeds_from_a_string_too():
    # ``mpls bench`` seeds each instance's runs with a string.
    inst = generate("set-packing", n=7, m=6, k=3, seed=1)
    derived = random.Random("bench:0:1")
    runs = list(sliding_runs(inst, EPS, DELTA, 3, "bench:0:1", BEST_GAIN))
    assert [trace.seed for _, trace in runs] == [derived.getrandbits(63) for _ in range(3)]
    assert all(trace.rule == BEST_GAIN for _, trace in runs)
    with pytest.raises(ValueError, match="at least one run"):
        best_of_runs(inst, EPS, DELTA, 0, 0)


def test_degenerate_instance_returns_empty_solution():
    inst = free_singles([0, 0, 0])
    sol, trace = sliding_local_search(inst, EPS, DELTA, seed=0)
    assert sol.edges == frozenset()
    assert sol.weight == 0
    assert trace.scheme is None
    assert trace.records == ()
    assert trace.oracle_calls == 0
    with pytest.raises(DegenerateInstanceError):
        compute_markers(inst, EPS, DELTA, Fraction(0))


def test_oracle_count_ignores_instance_warmup():
    inst = generate("set-packing", n=7, m=6, k=3, seed=5)
    _, cold = sliding_local_search(inst, EPS, DELTA, seed=1)
    for _ in range(3):
        inst.is_feasible({0})
    _, warm = sliding_local_search(inst, EPS, DELTA, seed=1)
    assert cold.oracle_calls == warm.oracle_calls
    assert cold == warm


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(0, 12), max_size=8).map(lambda xs: [3 * x + 1 for x in sorted(xs)]),
    st.lists(st.integers(0, 9), min_size=40, max_size=40),
    st.lists(st.frozensets(st.integers(0, 15), max_size=3), min_size=40, max_size=40),
    st.integers(1, 5),
    st.integers(0, 30),
)
def test_light_combinations_walks_the_light_tuples_of_sparse_ids(ids, weights, vertex_sets, size, limit):
    # Ids skip values, and weights and vertex sets are indexed by id, not by position.
    start = frozenset(range(12))
    expected = []
    for pos in combinations(range(len(ids)), size):
        total = sum(weights[ids[i]] for i in pos)
        if total < limit:
            expected.append((pos, total, start.difference(*(vertex_sets[ids[i]] for i in pos))))
    assert list(solver._light_combinations(ids, weights, vertex_sets, start, size, limit)) == expected


def assert_kept(instance, state):
    """The interval state ``state`` equals its recomputation from its edges and the
    solution's vertex set: edges are disjoint, so j is held iff its vertices are.
    The candidates are the edges not held, less singles whose pre-check set the
    oracle refutes; ``fits`` stores no single's refutation, and no pair whose
    pre-check set holds two vertices of one class."""
    edges, conflicts = instance.edges, instance.conflicts
    assert list(state.ids) == sorted(set(state.ids))
    held = [j for j in state.ids if edges[j] <= state.verts]
    assert state.pool == held
    free = [j for j in state.ids if j not in held]
    assert state.cand == [j for j in free if j in state.cand]
    for j in set(free).difference(state.cand):
        assert not instance.matroid.is_independent(state.stripped | edges[j])
    assert all(fit for add, fit in state.fits.items() if len(add) == 1)
    for pair in (add for add in state.fits if len(add) == 2):
        classes = conflicts[pair[0]] + conflicts[pair[1]]
        assert len({c[0] for c in classes}) == len(classes)
        assert state.stripped.isdisjoint(chain.from_iterable(classes))
    assert state.held == {c[0]: j for j in held for c in instance.conflicts[j]}
    assert state.verts == state.stripped.union(*(edges[j] for j in held))
    assert not state.stripped & instance.vertices_of(state.ids)


def reference_swap_search(instance, state, rule, oracle):
    """Swap search that builds every removal set, applies no loss cut and
    keeps no pre-check answer or floor; it counts its queries as the solver's
    does.  It derives the interval's pool and candidates from the solution
    and checks that the kept state holds the same.

    Its sets may hold two vertices of one parallel class, which the run's
    class-free ``oracle`` may take for independent, so each query still
    goes through ``oracle`` but is answered by the matroid's full
    ``_independent``."""
    assert_kept(instance, state)
    asked = []

    def indep(vs):
        asked.append(vs)
        oracle(vs)
        return instance.matroid._independent(vs)

    found = _reference_move(instance, state.verts, state.ids, rule, indep)
    return len(asked), found


def _reference_move(instance, sol_verts, interval_ids, rule, indep):
    wn = instance.weight_numerators
    edges = instance.edges
    pool = [j for j in interval_ids if edges[j] <= sol_verts]
    cand = [j for j in interval_ids if j not in pool]
    if not cand:
        return None

    stripped = sol_verts
    for j in pool:
        stripped = stripped - edges[j]
    max_remove = min(2 * instance.arity, len(pool))

    removal_sizes = range(0, max_remove + 1)
    best = None

    for add_size in (1, 2):
        for add in combinations(cand, add_size):
            gain_add = sum(wn[j] for j in add)
            if gain_add == 0:
                continue  # cannot strictly improve
            add_verts = frozenset().union(*(edges[j] for j in add))
            if pool and not indep(stripped | add_verts):
                continue
            for rem_size in removal_sizes:
                for rem in combinations(pool, rem_size):
                    loss = sum(wn[j] for j in rem)
                    if loss >= gain_add:
                        continue
                    if best is not None and rule == BEST_GAIN:
                        move_key = (-(gain_add - loss), len(add), add, len(rem), rem)
                        best_key = (-best[0], len(best[1]), best[1], len(best[2]), best[2])
                        if move_key >= best_key:
                            continue
                    removed_verts = frozenset().union(*(edges[j] for j in rem)) if rem else frozenset()
                    after = (sol_verts - removed_verts) | add_verts
                    if not indep(after):
                        continue
                    if rule == FIRST_LEX:
                        return add, rem, gain_add - loss, after
                    best = (gain_add - loss, add, rem, after)
    if best is None:
        return None
    return best[1], best[2], best[0], best[3]


def equivalence_instances():
    """Seeded instances with k = 1..3, zero weights and scaled (tied) weights."""
    rng = random.Random(2024)
    out = []
    for k in (1, 2, 3):
        for seed in range(3):
            out.append(generate("set-packing", n=3 * k + 4, m=9, k=k, seed=seed))
            out.append(generate("graphic-parity", n=4, m=7, k=k, seed=seed))
            out.append(generate("k-mi-partition", n=6, k=k, seed=seed))
    for inst in list(out):
        weights = tuple(w if rng.random() < 0.7 else Fraction(0) for w in inst.weights)
        out.append(ParityInstance(inst.num_vertices, inst.edges, weights, inst.matroid, inst.arity))
        out.append(scale_weights(inst, Fraction(1, 10)))
    return out


def random_feasible(inst, rng):
    sol = set()
    order = list(range(inst.num_edges))
    rng.shuffle(order)
    for j in order:
        if rng.random() < 0.6 and inst.is_feasible(sol | {j}):
            sol.add(j)
    return sol


@pytest.mark.parametrize("rule", [FIRST_LEX, BEST_GAIN])
def test_pruned_swap_search_returns_the_unpruned_move(monkeypatch, rule):
    rng = random.Random(7)
    checked = 0
    for inst in equivalence_instances():
        try:
            scheme = compute_markers(inst, EPS, DELTA, EPS * rng.random() / 2)
        except DegenerateInstanceError:
            continue
        weight_ranges = [
            # every edge, so weights differ widely; a random interval; the last one
            WeightInterval(upper=scheme.marker(0), lower=Fraction(0), closed_lower=True),
            interval(scheme, rng.randint(1, scheme.levels)),
            interval(scheme, scheme.levels + 1),
        ]
        for start in (random_feasible(inst, rng), random_feasible(inst, rng)):
            for weight_range in weight_ranges:
                pruned = find_improving_swap(inst, start, weight_range, rule)
                with monkeypatch.context() as m:
                    m.setattr(solver, "_swap_search", reference_swap_search)
                    assert find_improving_swap(inst, start, weight_range, rule) == pruned
                checked += pruned is not None
    assert checked > 50


def doubly_refuted_run(inst, seed, rule):
    """A sliding run's trace, and the number of additions whose first removal
    test and pre-check both failed: there the run asks two queries where the
    reference asks the pre-check alone.  A pre-check set holds no pool vertex
    and lies inside the first removal test asked just before it."""
    search, doubled = solver._swap_search, []

    def counted(instance, state, rule, indep):
        pool_verts, asked = state.verts - state.stripped, []

        def recorded(vs):
            fit = indep(vs)
            asked.append((vs, fit))
            return fit

        found = search(instance, state, rule, recorded)
        doubled.extend(
            b
            for (a, fit_a), (b, fit_b) in zip(asked, asked[1:])
            if not fit_a and not fit_b and b < a and b.isdisjoint(pool_verts)
        )
        return found

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_swap_search", counted)
        _, trace = sliding_local_search(inst, EPS, DELTA, seed, rule)
    return trace, len(doubled)


def assert_same_moves_as_the_reference(inst, seed, rule):
    """The pruned run's moves and result equal the reference's, and it asks at
    most one query more than the reference per doubly refuted addition."""
    pruned, doubled = doubly_refuted_run(inst, seed, rule)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_swap_search", reference_swap_search)
        _, reference = sliding_local_search(inst, EPS, DELTA, seed, rule)
    assert [r.swaps for r in pruned.records] == [r.swaps for r in reference.records]
    assert pruned.final_edges == reference.final_edges
    assert pruned.final_weight == reference.final_weight
    assert pruned.oracle_calls <= reference.oracle_calls + doubled
    return pruned, reference, doubled


@pytest.mark.parametrize("rule", [FIRST_LEX, BEST_GAIN])
def test_pruned_sliding_runs_match_the_unpruned_search(rule):
    for inst in equivalence_instances():
        for seed in (0, 3):
            assert_same_moves_as_the_reference(inst, seed, rule)


def any_oracle_instances():
    """Normal forms of overlapping edges, or k-matroid intersections, under
    oracles of every family and combinator, wrappers included."""
    return st.one_of(
        overlapping_instances().map(lambda raw: make_disjoint(*raw)),
        mixed_intersections().map(lambda case: from_matroid_intersection(*case)),
    )


@settings(max_examples=150, deadline=None)
@given(any_oracle_instances(), st.integers(0, 2**63), st.sampled_from(SWAP_RULES))
def test_pruned_sliding_runs_match_the_unpruned_search_under_any_oracle(inst, seed, rule):
    assert_same_moves_as_the_reference(inst, seed, rule)


class Recorded(PublicOnly):
    """``PublicOnly`` that also keeps each query, in the order asked."""

    def __init__(self, base):
        super().__init__(base)
        self.queried = []

    def is_independent(self, subset):
        self.queried.append(frozenset(subset))
        return super().is_independent(subset)


@pytest.mark.parametrize("rule", [FIRST_LEX, BEST_GAIN])
def test_each_pre_check_is_asked_once_per_interval(rule):
    # A pre-check extends the vertices of the earlier intervals' edges by
    # one or two additions; that set stays fixed for the whole interval.
    for inst in equivalence_instances():
        recorded = Recorded(inst.matroid)
        inst = replace(inst, matroid=recorded)
        inst.feasible_alone  # asked first, so only the search's queries are recorded
        for seed in (0, 3):
            recorded.queried = queried = []
            _, trace = sliding_local_search(inst, EPS, DELTA, seed, rule)
            assert len(queried) == trace.oracle_calls
            prefix, start = frozenset(), 0
            for r in trace.records:
                asked = Counter(queried[start : start + r.oracle_calls])
                start += r.oracle_calls
                for a in range(inst.num_edges):
                    if inst.feasible_alone[a] and trace.scheme.interval_of(inst.weights[a]) == r.index:
                        assert asked[prefix | inst.edges[a]] <= 1
                prefix |= inst.vertices_of(r.added)


@settings(max_examples=150, deadline=None)
@given(any_oracle_instances(), st.integers(0, 2**63))
def test_no_query_of_a_run_holds_two_parallel_elements(inst, seed):
    # The oracle's stated classes, read apart from the instance's table.
    # The runs and branch-and-bound ask the class-free rung, which may
    # misjudge any other set.
    classes = [set(c) for c in inst.matroid._parallel_classes()]
    recorded = Recorded(inst.matroid)
    inst = replace(inst, matroid=recorded)
    inst.feasible_alone  # asked first, so only the searches' queries are recorded
    for rule in SWAP_RULES:
        recorded.queried = queried = []
        _, trace = sliding_local_search(inst, EPS, DELTA, seed, rule)
        assert len(queried) == trace.oracle_calls
        for asked in queried:
            assert all(len(asked & c) < 2 for c in classes), (rule, sorted(asked))
    recorded.queried = queried = []
    brute_force_optimum(inst)
    for asked in queried:
        assert all(len(asked & c) < 2 for c in classes), ("exact", sorted(asked))


def test_a_single_refuted_before_a_pure_addition_is_not_asked_again():
    # x, y and z share one interval.  x holds two sides of a triangle and y
    # its third, so y depends on x through a circuit of three elements, not
    # a parallel pair.  y's search fails: its pre-check holds, but x is too
    # heavy to remove.  z then joins with nothing removed, so y's next
    # search could only test sets that contain one already refuted.
    x, y, z = 0, 1, 2
    weights = [Fraction(10), Fraction("9.9"), Fraction("9.8")]
    triangle = GraphicMatroid(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    inst = make_disjoint(4, [{0, 1}, {2}, {3}], weights, triangle, 2)
    assert not any(inst.conflicts)
    recorded = Recorded(inst.matroid)
    inst = replace(inst, matroid=recorded)
    inst.feasible_alone  # asked first, so only the search's queries are recorded
    recorded.queried = queried = []
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
    (record,) = trace.records
    assert [(m.add, m.remove) for m in record.swaps] == [((x,), ()), ((z,), ())]
    # x alone; y beside x, then y's pre-check; z beside x, never pre-checked.
    # No {x, z} + y at the end.
    of = inst.vertices_of
    assert queried == [of({x}), of({x, y}), of({y}), of({x, z})]


def test_the_pre_check_is_asked_only_after_the_first_removal_test_fails(monkeypatch):
    # h takes the first interval alone; a, y and b share the second, where
    # the pre-check set is h's vertices plus the addition.  h holds two sides
    # of a triangle and y its third, so y fails beside h whatever is removed.
    h, a, y, b = 0, 1, 2, 3
    weights = [Fraction(10), Fraction("1.05"), Fraction(1), Fraction("1.02")]
    graph = GraphicMatroid(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    inst = make_disjoint(5, [{0, 1}, {3}, {2}, {4}], weights, graph, 2)
    recorded = Recorded(inst.matroid)
    inst = replace(inst, matroid=recorded)
    inst.feasible_alone  # asked first, so only the search's queries are recorded
    recorded.queried = queried = []
    states, search = [], solver._swap_search

    def kept(instance, state, rule, indep):
        states.append(state)
        return search(instance, state, rule, indep)

    monkeypatch.setattr(solver, "_swap_search", kept)
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
    assert [[(m.add, m.remove) for m in r.swaps] for r in trace.records] == [
        [((h,), ())],
        [((a,), ()), ((b,), ())],
    ]
    of = inst.vertices_of
    # With an empty pool the first removal test is the pre-check.  y's first
    # test fails, so its pre-check follows at once and refutes it; b's first
    # test holds, so b is never pre-checked.
    assert queried == [of({h}), of({h, a}), of({h, a, y}), of({h, y}), of({h, a, b})]
    # y left the candidates for good, so the last search had none to visit.
    last = states[-1]
    assert last.cand == [] and last.fits == {(a,): True, (b,): True}


def test_a_doubly_refuted_addition_asks_one_query_more_than_the_reference():
    # h takes the first interval alone; a and y share the second.  h holds
    # two sides of a triangle and y its third.  a joins beside h; then y's
    # first removal test, with h and a in, fails, and so does its pre-check,
    # which the reference asks alone.
    h, a, y = 0, 1, 2
    weights = [Fraction(10), Fraction("1.05"), Fraction(1)]
    graph = GraphicMatroid(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    inst = make_disjoint(4, [{0, 1}, {3}, {2}], weights, graph, 2)
    pruned, reference, doubled = assert_same_moves_as_the_reference(inst, 1, FIRST_LEX)
    assert [[(m.add, m.remove) for m in r.swaps] for r in pruned.records] == [[((h,), ())], [((a,), ())]]
    assert (pruned.oracle_calls, reference.oracle_calls, doubled) == (4, 3, 1)


def test_pairs_of_one_class_are_not_stored_on_a_rank_one_uniform():
    # Every pair of these 300 single-vertex edges holds two vertices of the
    # one parallel class.  Storing each pair's refutation took about 6.4 MB.
    n = 300
    weights = [Fraction(1)] * n
    weights[1] = Fraction("1.001")
    inst = make_disjoint(n, [{i} for i in range(n)], weights, UniformMatroid(n, 1), 1)
    inst.conflicts, inst.feasible_alone  # built first, so the peak is the run's own
    tracemalloc.start()
    try:
        _, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (record,) = trace.records
    assert [(m.add, m.remove) for m in record.swaps] == [((0,), ()), ((1,), (0,))]
    assert trace.oracle_calls == 2
    assert peak < 1_000_000


def test_a_removal_move_frees_a_single_refuted_before_it(monkeypatch):
    # y meets only x; p and q each meet x too.  y, p and q are refuted
    # beside x, then the pair (p, q) replaces x, after which y fits.
    x, p, q, y = 0, 1, 2, 3
    edges = [{0, 1, 2}, {0, 3, 4}, {1, 5, 6}, {2, 7, 8}]
    weights = [Fraction(10), Fraction(9), Fraction(9), Fraction("9.9")]
    inst = make_disjoint(9, edges, weights, FreeMatroid(9), 3)
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
    (record,) = trace.records
    assert [(m.add, m.remove) for m in record.swaps] == [((x,), ()), ((p, q), (x,)), ((y,), ())]
    with monkeypatch.context() as m:
        m.setattr(solver, "_swap_search", reference_swap_search)
        _, reference = sliding_local_search(inst, EPS, DELTA, seed=1)
    assert trace.records[0].swaps == reference.records[0].swaps


# Queries and swaps summed over ten scaled runs at the benchmark's
# solve-large sizes, instance and shift both seeded 0..9.  A change to the
# search that keeps its moves and its queries keeps these sums.
SEARCH_WORK = {
    (FIRST_LEX, "set-packing"): (204, 204),
    (FIRST_LEX, "graphic-parity"): (298, 85),
    (FIRST_LEX, "k-mi-partition"): (248, 219),
    (BEST_GAIN, "set-packing"): (356, 113),
    (BEST_GAIN, "graphic-parity"): (312, 38),
    (BEST_GAIN, "k-mi-partition"): (458, 123),
}
SOLVE_LARGE_SIZES = {
    "set-packing": {"n": 60, "m": 40, "k": 2},
    "graphic-parity": {"n": 16, "m": 48, "k": 3},
    "k-mi-partition": {"n": 32, "k": 2},
}


@pytest.mark.parametrize("rule, family", list(SEARCH_WORK))
def test_the_search_asks_and_swaps_as_pinned(rule, family):
    queries = swaps = 0
    for seed in range(10):
        inst = generate(family, seed=seed, **SOLVE_LARGE_SIZES[family])
        _, trace = sliding_local_search(scale_weights(inst, Fraction(1, 10)), EPS, DELTA, seed, rule)
        queries += trace.oracle_calls
        swaps += sum(len(r.swaps) for r in trace.records)
    assert (queries, swaps) == SEARCH_WORK[rule, family]


@pytest.mark.parametrize("rule", [FIRST_LEX, BEST_GAIN])
def test_floors_keep_the_unpruned_moves_at_solve_large_sizes(rule):
    # The scaled runs of SEARCH_WORK.  A removal move clears the floors,
    # and a further search of its interval always follows it; the corpus
    # must hold such moves.
    removals = 0
    for family, sizes in SOLVE_LARGE_SIZES.items():
        for seed in range(10):
            inst = scale_weights(generate(family, seed=seed, **sizes), Fraction(1, 10))
            pruned, _, _ = assert_same_moves_as_the_reference(inst, seed, rule)
            removals += sum(bool(move.remove) for r in pruned.records for move in r.swaps)
    assert removals > 0


def partition_intersection(seed):
    """A 2-matroid intersection of random partition matroids on 12 elements."""
    rng = random.Random(seed)
    weights = [Fraction(rng.randint(0, 99), 7) for _ in range(12)]
    return from_matroid_intersection(random_partition_matroids(12, 2, seed), weights)


# Instances of every generator family and a 2-matroid intersection, by seed.
KEPT_STATE_FAMILIES = {
    "greedy-trap": lambda seed: generate("greedy-trap", k=2 + seed % 3),
    "set-packing": lambda seed: generate("set-packing", n=24, m=16, k=2, seed=seed),
    "graphic-parity": lambda seed: generate("graphic-parity", n=8, m=20, k=3, seed=seed),
    "k-mi-partition": lambda seed: generate("k-mi-partition", n=14, k=2, seed=seed),
    "intersection": partition_intersection,
}


def checked_state_traces(inst, seeds, rule):
    """The traces of sliding runs whose interval state is checked against its
    recomputation before and after every search, so after every move; each
    trace must equal the unchecked run's."""
    search = solver._swap_search

    def checked(instance, state, rule, indep):
        assert_kept(instance, state)
        found = search(instance, state, rule, indep)
        assert_kept(instance, state)
        return found

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_swap_search", checked)
        traces = [sliding_local_search(inst, EPS, DELTA, seed, rule)[1] for seed in seeds]
    assert traces == [sliding_local_search(inst, EPS, DELTA, seed, rule)[1] for seed in seeds]
    return traces


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(KEPT_STATE_FAMILIES)),
    st.integers(0, 2**16),
    st.booleans(),
    st.lists(st.integers(0, 2**63), min_size=1, max_size=3),
)
def test_the_kept_interval_state_equals_its_recomputation(family, seed, scaled, shifts):
    inst = KEPT_STATE_FAMILIES[family](seed)
    if scaled:
        inst = scale_weights(inst, Fraction(1, 10))
    for rule in SWAP_RULES:
        checked_state_traces(inst, shifts, rule)


def test_the_kept_state_is_checked_across_removal_and_pair_moves():
    # First-lex makes removal moves on every family, and best-gain pair
    # moves, so the state is checked after both kinds.
    for family, build in KEPT_STATE_FAMILIES.items():
        moves = {FIRST_LEX: [], BEST_GAIN: []}
        for seed in range(4):
            for rule, found in moves.items():
                for trace in checked_state_traces(build(seed), range(3), rule):
                    found += [move for r in trace.records for move in r.swaps]
        assert any(move.remove for move in moves[FIRST_LEX]), family
        assert any(len(move.add) == 2 for move in moves[BEST_GAIN]), family


# Queries seen through a wrapper that overrides only ``is_independent``:
# one unscaled run (seed 0), one greedy and one exact search, after the
# instance's per-edge feasibility.  Every query the program builds reaches
# such a wrapper, whichever entry of the oracle it calls.  The wrapper
# states its base's parallel classes, so the run and the exact search skip
# the sets they rule out without asking.
PUBLIC_QUERIES = {
    "greedy-trap": ({"k": 3}, (1, 4, 2)),
    "set-packing": ({"n": 12, "m": 20, "k": 3, "seed": 1}, (4, 20, 29)),
    "graphic-parity": ({"n": 6, "m": 20, "k": 3, "seed": 1}, (9, 20, 11)),
    "k-mi-partition": ({"n": 18, "k": 3, "seed": 1}, (7, 18, 46)),
}


def queries_of(counted, work):
    """What ``work`` returns, and the queries ``counted`` saw it ask."""
    before = counted.asked
    result = work()
    return result, counted.asked - before


@pytest.mark.parametrize("family", list(PUBLIC_QUERIES))
def test_a_public_only_wrapper_sees_every_query(family):
    params, pinned = PUBLIC_QUERIES[family]
    base = generate(family, **params)
    counted = PublicOnly(base.matroid)
    inst = replace(base, matroid=counted)
    inst.feasible_alone
    (_, trace), run = queries_of(counted, lambda: sliding_local_search(inst, EPS, DELTA, 0))
    _, greedy_asked = queries_of(counted, lambda: greedy(inst))
    _, exact_asked = queries_of(counted, lambda: brute_force_optimum(inst))
    assert run == trace.oracle_calls and greedy_asked == inst.num_edges
    assert (run, greedy_asked, exact_asked) == pinned


def test_hundred_edge_run_solves_and_verifies_quickly():
    # One interval of this run holds so many solution edges that building
    # every removal set takes seconds, and replaying the trace without the
    # verifier's size cut takes minutes.
    inst = scale_weights(
        build_doc("set-packing", n=150, m=100, k=3, seed=0).normalize(), Fraction(1, 10)
    )
    sol, trace = sliding_local_search(inst, EPS, DELTA, seed=2)
    assert sol.weight == 21724
    assert sum(len(r.swaps) for r in trace.records) == 38
    assert verify_local_optimum(inst, trace)


def tail_instance(dust, seed):
    """Unscaled free-matroid k=3 instance whose weights span nine orders of magnitude.

    One edge of weight 1, ``dust`` edges of weight about 1e-12 on disjoint
    triples, and ten grain edges of weight 1e-9, each on one vertex of
    three random dust edges.  Nearly all of it lands in the tail interval.
    """
    rng = random.Random(seed)
    dust_edges = [frozenset(range(3 + 3 * i, 6 + 3 * i)) for i in range(dust)]
    edges = [frozenset({0, 1, 2}), *dust_edges]
    weights = [Fraction(1)] + [Fraction(rng.randint(50, 150), 10**14) for _ in dust_edges]
    for _ in range(10):
        picked = rng.sample(range(dust), 3)
        edges.append(frozenset(rng.choice(sorted(dust_edges[i])) for i in picked))
        weights.append(Fraction(1, 10**9))
    n = 3 + 3 * dust
    return make_disjoint(n, edges, weights, FreeMatroid(n), 3)


def test_the_tail_instance_takes_only_the_removals_its_copies_name():
    # Each grain holds a copy of a vertex of three dust edges, so it fits
    # only with those three removed.  The copies are parallel, so those are
    # the only removal sets the search builds.
    inst = tail_instance(40, seed=3)
    start = time.perf_counter()
    sol, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
    assert time.perf_counter() - start < 1
    assert sum(len(r.swaps) for r in trace.records) == 50
    assert sol.weight == Fraction(50000000450969, 50000000000000)


def crowded_instance(dust, seed):
    """Unscaled uniform-matroid k=3 instance with a crowded tail and no parallel pair.

    One edge of weight 1 on three vertices, ``dust`` one-vertex edges of
    weight about 1e-12, and ten grain edges of weight 1e-9 on three vertices
    each, all disjoint.  The rank holds the heavy edge and every dust edge,
    so a grain fits only in place of three dust edges, and every circuit
    has ``dust + 4`` elements.
    """
    rng = random.Random(seed)
    n = 3 + dust + 30
    edges = [{0, 1, 2}, *({3 + i} for i in range(dust))]
    edges += [set(range(n - 3 * g, n - 3 * g + 3)) for g in range(10, 0, -1)]
    weights = [Fraction(1)] + [Fraction(rng.randint(50, 150), 10**14) for _ in range(dust)]
    weights += [Fraction(1, 10**9)] * 10
    return make_disjoint(n, edges, weights, UniformMatroid(n, 3 + dust), 3)


def test_tail_swap_search_memory_stays_flat():
    # Many solution edges share the tail interval, so the swap search walks
    # thousands of removal sets, none of which the parallel classes rule
    # out; it must not hold one vertex set per set.
    inst = crowded_instance(20, seed=3)
    assert not any(inst.conflicts)
    tracemalloc.start()
    try:
        _, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.oracle_calls == 1880
    assert peak < 1_000_000


def fresh(inst):
    """The same instance as a new object, with nothing cached or prepared on it."""
    return replace(inst)


def reference_run(instance, epsilon, delta, seed, rule):
    """A sliding run whose scheme comes from the public ``compute_markers`` for the
    run's tau, on a fresh copy of the instance, and whose weight is summed from the
    instance's weights."""
    tau = solver._draw_shift(epsilon, seed)
    try:
        scheme = compute_markers(fresh(instance), epsilon, delta, tau)
    except DegenerateInstanceError:
        scheme = None
    occupied = {} if scheme is None else solver._place_edges(instance, scheme)
    indep = instance.matroid.is_independent
    verts, chosen, records = frozenset(), [], []
    for index, ids in occupied.items():
        state = solver._Interval(instance, ids, verts)
        swaps, calls = [], 0
        while True:
            queries, found = solver._swap_search(instance, state, rule, indep)
            calls += queries
            if found is None:
                break
            add, rem, gain_num, after = found
            state.apply(add, rem, after)
            swaps.append(SwapMove(add, rem, Fraction(gain_num, instance.weight_denominator)))
        verts = state.verts
        chosen += state.pool
        records.append(solver.IntervalRecord(index, tuple(state.pool), tuple(swaps), calls))
    solution = Solution(chosen, sum(instance.weights[j] for j in chosen))
    trace = solver.SolverTrace(
        instance_signature(instance), epsilon, delta, seed, tau, rule, scheme, tuple(records),
        solution.weight,
    )
    return solution, trace


def outcome(run, *args):
    """A run's solution and trace, or the type and message of what it raised."""
    try:
        return run(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# One instance of each generator family and one matroid intersection; the
# Hypothesis test runs them at many (epsilon, delta), so their slots change.
PREPARED = [
    generate("greedy-trap", k=3),
    generate("set-packing", n=9, m=8, k=3, seed=0),
    generate("graphic-parity", n=5, m=8, k=3, seed=1),
    generate("k-mi-partition", n=6, k=3, seed=2),
    from_matroid_intersection(
        random_partition_matroids(7, 2, 3), [Fraction(j * j % 11, 3) for j in range(7)]
    ),
]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(range(len(PREPARED))),
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=2000).filter(
        lambda e: 0 < e < Fraction(1, 2)
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda d: 0 < d < 1),
    st.lists(st.integers(0, 2**63), min_size=1, max_size=3),
)
def test_a_prepared_run_equals_the_run_on_compute_markers(index, epsilon, delta, seeds):
    inst = PREPARED[index]
    for rule in SWAP_RULES:
        for seed in seeds:
            expected = outcome(reference_run, inst, epsilon, delta, seed, rule)
            assert outcome(sliding_local_search, inst, epsilon, delta, seed, rule) == expected


def test_a_replaced_slot_gives_the_runs_of_a_fresh_instance():
    inst = generate("graphic-parity", n=5, m=8, k=3, seed=4)
    first, second = (EPS, DELTA), (Fraction(1, 10), Fraction(1, 1000))
    refused = (Fraction(1, 10**9), DELTA)  # over the marker budget
    for epsilon, delta in (first, second, refused, first, (EPS, second[1])):
        for seed in (0, 5):
            run = outcome(sliding_local_search, inst, epsilon, delta, seed)
            assert run == outcome(sliding_local_search, fresh(inst), epsilon, delta, seed)
        assert outcome(compute_markers, inst, epsilon, delta, Fraction(0)) == outcome(
            compute_markers, fresh(inst), epsilon, delta, Fraction(0)
        )
        if (epsilon, delta) != refused:
            prepared = (epsilon, delta)
        else:
            assert run[0] is LadderBudgetError
        # The slot holds the last ladder prepared; a refusal leaves it as it was.
        scheme = compute_markers(fresh(inst), *prepared, Fraction(0))
        assert vars(inst)["_ladder"] == (prepared, (scheme.max_feasible_weight, scheme.levels))


def test_an_over_budget_ladder_is_refused_alike_on_every_call():
    inst = generate("set-packing", n=7, m=6, k=3, seed=0)
    tiny = Fraction(1, 10**9)
    messages = set()
    for _ in range(3):
        with pytest.raises(LadderBudgetError) as run:
            sliding_local_search(inst, tiny, DELTA, seed=0)
        with pytest.raises(LadderBudgetError) as markers:
            compute_markers(inst, tiny, DELTA, Fraction(0))
        messages |= {str(run.value), str(markers.value)}
    assert len(messages) == 1


def test_a_degenerate_instance_is_degenerate_on_every_call():
    for inst in (free_singles([0, 0, 0]), singles_with_loops([1, 2], [0, 1])):
        messages = set()
        for seed in range(3):
            sol, trace = sliding_local_search(inst, EPS, DELTA, seed)
            assert (sol.edges, sol.weight) == (frozenset(), 0)
            assert (trace.scheme, trace.records) == (None, ())
            with pytest.raises(DegenerateInstanceError) as markers:
                compute_markers(inst, EPS, DELTA, Fraction(0))
            messages.add(str(markers.value))
        assert len(messages) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=10**4),
    st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(99, 100)),
    st.integers(0, 2**53 - 1),
    st.integers(-40, 40),
)
def test_the_budget_of_each_shift_is_the_level_counts(epsilon, delta, bits, offset):
    """Under a budget near the deepest marker's size, a shift's ladder is refused
    exactly when ``_level_count`` with that shift's level allowance refuses it,
    with the same message."""
    inst = generate("set-packing", n=9, m=8, k=3, seed=0)
    tau = Fraction(epsilon.numerator * bits, epsilon.denominator << 53)
    heaviest = max(w for w, ok in zip(inst.weights, inst.feasible_alone) if ok)
    shrink, tail = 1 - epsilon, delta / inst.num_edges
    levels = solver._level_count(shrink, tail, 10**9)
    budget = solver.marker_bits(epsilon, tau, heaviest, levels) + offset
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "MAX_MARKER_BITS", budget)
        allowance = (budget - solver._bits(tau) - solver._bits(heaviest)) // solver._bits(shrink)
        expected = outcome(solver._level_count, shrink, tail, allowance)
        got = outcome(lambda: compute_markers(fresh(inst), epsilon, delta, tau).levels)
    assert got == expected


@pytest.mark.parametrize("seed", [2.5, True, "3"])
def test_a_run_refuses_a_seed_its_trace_could_not_store(seed):
    inst = generate("set-packing", n=9, m=8, k=3, seed=0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sliding_local_search(inst, EPS, DELTA, seed)


@pytest.mark.parametrize("runs", [2.5, True, 3.0])
def test_sliding_runs_refuse_a_run_count_that_is_not_an_int(runs):
    inst = generate("set-packing", n=9, m=8, k=3, seed=0)
    with pytest.raises(ValueError, match="number of runs must be an integer"):
        list(sliding_runs(inst, EPS, DELTA, runs, 0))
    with pytest.raises(ValueError, match="number of runs must be an integer"):
        best_of_runs(inst, EPS, DELTA, runs, 0)


@pytest.mark.parametrize(
    "seed", [None, True, 2.5, (1, 2), b"3"], ids=["none", "bool", "float", "tuple", "bytes"]
)
def test_sliding_runs_refuse_a_seed_that_is_not_an_int_or_str(seed):
    # None would draw fresh seeds on every call; the others are not plain
    # ints or strings, whatever ``random`` makes of them.
    inst = generate("set-packing", n=9, m=8, k=3, seed=0)
    with pytest.raises(ValueError, match="seed must be an integer or a string"):
        list(sliding_runs(inst, EPS, DELTA, 2, seed))
    with pytest.raises(ValueError, match="seed must be an integer or a string"):
        best_of_runs(inst, EPS, DELTA, 2, seed)


@pytest.mark.parametrize("seed", [7, "bench:3:1"])
def test_sliding_runs_repeat_their_runs_for_the_same_seed(seed):
    inst = generate("graphic-parity", n=5, m=8, k=3, seed=2)
    first = list(sliding_runs(inst, EPS, DELTA, 3, seed))
    assert list(sliding_runs(fresh(inst), EPS, DELTA, 3, seed)) == first
    assert best_of_runs(inst, EPS, DELTA, 3, seed) == max(
        (sol for sol, _ in first), key=lambda sol: sol.weight
    )
