import json
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from mpls import solver
from mpls.exact import brute_force_optimum, verify_local_optimum
from mpls.generators import build_doc, generate
from mpls.instance import ParityInstance, RawParityInstance, make_disjoint
from mpls.matroids import FreeMatroid, PartitionMatroid, UniformMatroid
from mpls.serialization import FormatError, dumps_canonical, format_fraction, instance_signature
from mpls.solver import (
    BEST_GAIN,
    FIRST_LEX,
    MAX_MARKER_BITS,
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
    found = solver._swap_search(
        instance,
        sol,
        instance.vertices_of(sol),
        instance.vertices_of(sol.difference(ids)),
        {},
        ids,
        rule,
        instance.matroid.is_independent,
    )
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
    scheme = IntervalScheme(top, epsilon, DELTA, epsilon * Fraction(tau_percent, 100), levels)
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
    assert solver._level_count(epsilon, delta, num_edges, 10**6) == steps + 1
    assert solver._level_count(epsilon, delta, num_edges, steps + 1) == steps + 1
    with pytest.raises(LadderBudgetError):
        solver._level_count(epsilon, delta, num_edges, steps)


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
    # The stored file's first record also counts a query after its swap,
    # which the solver does not ask, so the per-record counts are compared
    # apart.
    inst = generate("greedy-trap", k=3)
    _, trace = sliding_local_search(inst, EPS, DELTA, seed=0)
    back = trace_from_json_obj(json.loads(STORED_TOTALS_TRACE))
    assert [r.oracle_calls for r in back.records] == [2, 3]
    assert [r.oracle_calls for r in trace.records] == [1, 3]
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


def reference_swap_search(instance, sol_set, sol_verts, _stripped, _fits, interval_ids, rule, indep):
    """Swap search that builds every removal set, applies no loss cut and
    keeps no pre-check answer."""
    wn = instance.weight_numerators
    edges = instance.edges
    cand = [j for j in interval_ids if j not in sol_set]
    pool = [j for j in interval_ids if j in sol_set]
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


@pytest.mark.parametrize("rule", [FIRST_LEX, BEST_GAIN])
def test_pruned_sliding_runs_match_the_unpruned_search(monkeypatch, rule):
    for inst in equivalence_instances():
        for seed in (0, 3):
            _, pruned = sliding_local_search(inst, EPS, DELTA, seed, rule)
            with monkeypatch.context() as m:
                m.setattr(solver, "_swap_search", reference_swap_search)
                _, reference = sliding_local_search(inst, EPS, DELTA, seed, rule)
            assert [r.swaps for r in pruned.records] == [r.swaps for r in reference.records]
            assert pruned.final_edges == reference.final_edges
            assert pruned.final_weight == reference.final_weight
            assert pruned.oracle_calls <= reference.oracle_calls


@pytest.mark.parametrize("rule", [FIRST_LEX, BEST_GAIN])
def test_each_pre_check_is_asked_once_per_interval(monkeypatch, rule):
    # A pre-check extends the vertices of the earlier intervals' edges by
    # one or two additions; that set stays fixed for the whole interval.
    for inst in equivalence_instances():
        inst.feasible_alone  # asked first, so only the search's queries are recorded
        oracle = type(inst.matroid)
        ask = oracle.is_independent
        for seed in (0, 3):
            queried = []
            with monkeypatch.context() as m:
                m.setattr(oracle, "is_independent", lambda self, vs: queried.append(vs) or ask(self, vs))
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
    return make_disjoint(RawParityInstance(n, tuple(edges), tuple(weights), FreeMatroid(n), 3))


def test_tail_swap_search_memory_stays_flat():
    # Many solution edges share the tail interval, so the swap search walks
    # thousands of removal sets; it must not hold one vertex set per set.
    inst = tail_instance(20, seed=3)
    tracemalloc.start()
    try:
        _, trace = sliding_local_search(inst, EPS, DELTA, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.oracle_calls == 7081
    assert peak < 1_000_000

