import dataclasses
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from mpls import campaigns, exact, exchange
from mpls.campaigns import (
    _campaign_instance,
    k4_report,
    laminar_campaign,
    near_marker_report,
    rota_campaign,
    trace_campaign,
)
from mpls.cli import DEFAULT_DELTA, DEFAULT_EPSILON, DEFAULT_GAMMA
from mpls.exact import TraceRefuted, brute_force_optimum, check_trace, verify_local_optimum
from mpls.exchange import (
    CLASS_BLOCKED_EARLIER,
    CLASS_DOUBLE,
    ConflictTrace,
    ExchangeBudgetError,
    ExchangeInputError,
    find_rota_exchange,
    k4_non_composability_witness,
    near_marker_bound,
    near_marker_probability,
    refine_laminar,
    verify_conflict_trace,
    verify_k4_witness,
    build_conflict_trace,
)
from mpls.generators import generate
from mpls.instance import ParityInstance, Solution
from mpls.matroids import FreeMatroid, PartitionMatroid, UniformMatroid
from mpls.serialization import parse_fraction
from mpls.solver import SWAP_RULES, SwapMove, compute_markers, sliding_local_search
from conftest import PublicOnly

EPS = Fraction("0.3873")
DELTA = Fraction("0.0001")
GAMMA = Fraction("0.2253")


def test_exchange_certificate_on_uniform_matroid():
    cert = find_rota_exchange(UniformMatroid(6, 3), [{0}, {1, 2}], {3, 4, 5})
    assert cert is not None
    assert [len(p) for p in cert.exchanged] == [1, 2]
    union = frozenset().union(*cert.exchanged)
    assert union <= {3, 4, 5}
    assert len(union) == 3
    cert.verify()


def test_exchange_tolerates_source_target_overlap():
    cert = find_rota_exchange(UniformMatroid(3, 2), [{0}, {1}], {0, 1})
    assert cert is not None
    assert frozenset().union(*cert.exchanged) == {0, 1}


def test_exchange_input_validation():
    m = UniformMatroid(6, 3)
    with pytest.raises(ExchangeInputError):
        find_rota_exchange(m, [{0, 1}, {1}], {3, 4, 5})
    with pytest.raises(ExchangeInputError):
        find_rota_exchange(UniformMatroid(6, 1), [{0}, {1}], {3})
    with pytest.raises(ExchangeInputError):
        find_rota_exchange(UniformMatroid(6, 2), [{0}], {3, 4, 5})
    with pytest.raises(ExchangeInputError):
        find_rota_exchange(m, [{0}, {1}], {3})


def test_exchange_budget_guard():
    m = FreeMatroid(40)
    parts = [frozenset(range(10)), frozenset(range(10, 20))]
    target = frozenset(range(20, 40))
    with pytest.raises(ExchangeBudgetError):
        find_rota_exchange(m, parts, target)


def test_refinement_when_parts_overlap_the_kept_target():
    # Source {0, 2, 3} and target {0, 1, 2, 3} overlap, so the contracted
    # search must shrink the parts before refining.
    m = PartitionMatroid([[0], [1], [2], [3]], [1, 1, 1, 1])
    parts = (frozenset([2]), frozenset([3]), frozenset([0]))
    target = frozenset([0, 1, 2, 3])
    exchange_set = frozenset([0, 1, 2])
    cert = refine_laminar(m, parts, target, exchange_set)
    assert frozenset().union(*cert.exchanged) == exchange_set
    assert [len(p) for p in cert.exchanged] == [1, 1, 1]
    cert.verify()


def test_refinement_input_validation():
    m = FreeMatroid(6)
    with pytest.raises(ExchangeInputError):
        refine_laminar(m, [{0}, {1}], {2, 3}, {2, 4})
    with pytest.raises(ExchangeInputError):
        refine_laminar(m, [{0}, {1}], {2, 3}, {2})


def test_rota_campaign_finds_every_certificate():
    report = rota_campaign(cases=60, seed=7)
    assert report["successes"] == 60
    assert report["failures"] == []


def test_laminar_campaign_refines_every_case():
    report = laminar_campaign(cases=60, seed=13)
    assert report["successes"] == 60
    assert report["failures"] == []


def trap_conflict(seed):
    inst = generate("greedy-trap", k=3, rho=Fraction(3, 10))
    sol, trace = sliding_local_search(inst, EPS, DELTA, seed)
    optimum = brute_force_optimum(inst).optimum
    ct = build_conflict_trace(inst, trace, optimum, GAMMA)
    return inst, sol, ct


def test_conflict_trace_of_trapped_run():
    # seed 0 draws a shift below rho; the solver keeps the heavy edge and
    # every light optimum edge is displaced by an earlier interval.
    inst, sol, ct = trap_conflict(0)
    assert sorted(sol.edges) == [0]
    assert verify_conflict_trace(ct) == []
    assert [r.cls for r in ct.reports] == [CLASS_BLOCKED_EARLIER] * 3
    assert [r.conflict_size for r in ct.reports] == [1, 1, 1]
    assert all(r.near_marker for r in ct.reports)
    assert ct.singles_weight() == 0


def test_conflict_trace_of_recovered_run():
    inst, sol, ct = trap_conflict(2)
    assert sorted(sol.edges) == [1, 2, 3]
    assert verify_conflict_trace(ct) == []
    assert [r.cls for r in ct.reports] == [CLASS_DOUBLE] * 3
    assert [r.conflict_size for r in ct.reports] == [3, 3, 3]
    assert all(r.near_marker is None for r in ct.reports)
    assert ct.singles_weight() <= sol.weight


class Recording(PublicOnly):
    """Counts the queries, as ``PublicOnly`` does, and keeps each queried set."""

    def __init__(self, base):
        super().__init__(base)
        self.queries = []

    def is_independent(self, subset):
        self.queries.append(frozenset(subset))
        return super().is_independent(subset)


def counted_conflict(ct):
    """``ct`` on a copy of its instance whose matroid records the verifier's queries."""
    inst = ct.instance
    counted = Recording(inst.matroid)
    copy = ParityInstance(inst.num_vertices, inst.edges, inst.weights, counted, inst.arity)
    return dataclasses.replace(ct, instance=copy), counted


def test_conflict_trace_verifier_catches_tampering():
    _, _, ct = trap_conflict(0)
    *earlier, last = ct.blocked
    shrunk = (*earlier, last - {min(last)})
    assert verify_conflict_trace(dataclasses.replace(ct, blocked=shrunk)) != []
    # A chain one set long or one set short is one problem, found without a query.
    for chain, sets in (((*ct.blocked, last), 2), (ct.blocked[:-1], 0)):
        forged, counted = counted_conflict(dataclasses.replace(ct, blocked=chain))
        assert verify_conflict_trace(forged) == [
            f"blocked chain has {sets} sets for 1 records that added edges"
        ]
        assert counted.asked == 0


def two_layer_conflict():
    # Two layers: interval 1 adds vertices {1, 3, 11}, interval 3 adds {8, 17, 22}.
    inst = generate("set-packing", n=9, m=8, k=3, seed=5)
    _, trace = sliding_local_search(inst, EPS, DELTA, 2)
    ct = build_conflict_trace(inst, trace, brute_force_optimum(inst).optimum, GAMMA)
    assert [(index, sorted(added)) for index, added, _ in ct.layers] == [
        (1, [1, 3, 11]),
        (3, [8, 17, 22]),
    ]
    assert verify_conflict_trace(ct) == []
    return ct


def test_a_build_derives_each_chain_free_value_once(monkeypatch):
    derived = Counter()
    for name in ("_added", "_padded", "optimum_vertices", "extended_matroid"):
        derive = ConflictTrace.__dict__[name].func

        def counted(ct, name=name, derive=derive):
            derived[name] += 1
            return derive(ct)

        prop = cached_property(counted)
        prop.__set_name__(ConflictTrace, name)
        monkeypatch.setattr(ConflictTrace, name, prop)
    two_layer_conflict()  # builds, then verifies the built trace
    assert derived == {"_added": 1, "_padded": 1, "optimum_vertices": 1, "extended_matroid": 1}


def test_conflict_trace_verifier_reports_a_chain_that_is_not_nested_or_grows_wrongly():
    ct = two_layer_conflict()
    first, second = ct.blocked
    forged = dataclasses.replace(ct, blocked=(first, second - {min(first)}))
    assert verify_conflict_trace(forged) == [
        "blocked sets not nested at interval 3",
        "interval 3: layer grew by 2, solution added 3 vertices",
        "interval 3: prefix plus unblocked optimum is dependent",
    ]
    forged = dataclasses.replace(ct, blocked=(first, first))
    assert verify_conflict_trace(forged) == [
        "interval 3: layer grew by 0, solution added 3 vertices",
        "interval 3: prefix plus unblocked optimum is dependent",
    ]


def test_conflict_trace_verifier_reports_vertices_outside_the_ground_set_unasked():
    ct = two_layer_conflict()
    first, _ = ct.blocked
    outside = frozenset({1000, 1001, 1002})
    forged, counted = counted_conflict(dataclasses.replace(ct, blocked=(first, first | outside)))
    assert verify_conflict_trace(forged) == [
        "blocked set of interval 3 leaves the optimum vertices",
        "interval 3: prefix plus unblocked optimum is dependent",
    ]
    assert counted.queries and not any(query & outside for query in counted.queries)


@pytest.mark.parametrize("ids", [frozenset({99}), frozenset({-1})], ids=["id-99", "id-minus-1"])
def test_conflict_trace_verifier_reports_unknown_optimum_ids_unasked(ids):
    # Python indexing would read -1 as the last edge, and 99 would raise.
    ct = two_layer_conflict()
    forged, counted = counted_conflict(dataclasses.replace(ct, optimum_edges=ids))
    assert verify_conflict_trace(forged) == [
        f"optimum edge ids {sorted(ids)} are not edges of the instance"
    ]
    assert counted.asked == 0


# Each forgery, with the check of exact.check_trace that refuses it.
FORGERIES = {
    "id-99": "added edges",
    "id-minus-1": "added edges",
    "id-twice": "added edges",
    "light-scheme": "heaviest weight",
    "tau-zero": "record indices",
    "levels-plus-40": "level count",
    "forged-swap": "swaps",
}


@pytest.mark.parametrize("forgery", list(FORGERIES))
def test_conflict_trace_refuses_forged_edge_ids_and_scheme(forgery):
    if forgery in ("tau-zero", "levels-plus-40", "forged-swap"):
        # A ladder or a swap the run never used, at the CLI defaults and shift seed 0.
        inst = generate("set-packing", n=9, m=8, k=2, seed=5)
        _, trace = sliding_local_search(inst, DEFAULT_EPSILON, DEFAULT_DELTA, 0)
        if forgery == "tau-zero":
            scheme = dataclasses.replace(trace.scheme, tau=Fraction(0))
            trace = dataclasses.replace(trace, tau=Fraction(0), scheme=scheme)
        elif forgery == "levels-plus-40":
            scheme = dataclasses.replace(trace.scheme, levels=trace.scheme.levels + 40)
            trace = dataclasses.replace(trace, scheme=scheme)
        else:
            first, *rest = trace.records
            first = dataclasses.replace(first, swaps=(SwapMove((99,), (-1,), Fraction(-5)),))
            trace = dataclasses.replace(trace, records=(first, *rest))
    else:
        # The run of shift seed 0 adds edge 0 alone, in its first record.
        inst = generate("greedy-trap", k=3, rho=Fraction(3, 10))
        _, trace = sliding_local_search(inst, EPS, DELTA, 0)
        first, *rest = trace.records
        if forgery == "light-scheme":
            # Below the light optimum edges, which then lie above every marker.
            scheme = dataclasses.replace(trace.scheme, max_feasible_weight=Fraction(1, 2))
            trace = dataclasses.replace(trace, scheme=scheme)
        else:
            extra = {"id-99": 99, "id-minus-1": -1, "id-twice": first.added[0]}[forgery]
            first = dataclasses.replace(first, added=first.added + (extra,))
            trace = dataclasses.replace(trace, records=(first, *rest))
    optimum = brute_force_optimum(inst).optimum
    with pytest.raises(ExchangeInputError, match=FORGERIES[forgery]):
        build_conflict_trace(inst, trace, optimum, GAMMA)
    with pytest.raises(TraceRefuted, match=f"^{FORGERIES[forgery]}:"):
        check_trace(inst, trace)
    assert not verify_local_optimum(inst, trace)


def test_conflict_trace_refuses_negative_gamma_degenerate_run_and_infeasible_optimum():
    inst = generate("greedy-trap", k=3, rho=Fraction(3, 10))
    _, trace = sliding_local_search(inst, EPS, DELTA, 0)
    optimum = brute_force_optimum(inst).optimum
    with pytest.raises(ExchangeInputError, match="gamma must be nonnegative"):
        build_conflict_trace(inst, trace, optimum, Fraction(-1, 10**9))
    everything = Solution(range(inst.num_edges), sum(inst.weights))
    assert not inst.is_feasible(everything.edges)
    with pytest.raises(ExchangeInputError, match="claimed optimum is not feasible"):
        build_conflict_trace(inst, trace, everything, GAMMA)
    # A run on zero weights is degenerate: it checks out but has no intervals.
    edges, weights = (frozenset({0}), frozenset({1})), (Fraction(0),) * 2
    zero = ParityInstance(2, edges, weights, FreeMatroid(2), 1)
    _, degenerate = sliding_local_search(zero, EPS, DELTA, 0)
    assert degenerate.scheme is None and check_trace(zero, degenerate) == {}
    with pytest.raises(ExchangeInputError, match="degenerate trace has no interval structure"):
        build_conflict_trace(zero, degenerate, Solution((), 0), GAMMA)


def test_conflict_trace_verifier_asks_an_empty_layer_nothing():
    # Interval 2 adds no solution vertex, so it has no layer; the verifier
    # asks the optimum and interval 1.
    inst, _, ct = trap_conflict(0)
    _, trace = sliding_local_search(inst, EPS, DELTA, 0)
    assert [(r.index, r.added) for r in trace.records] == [(1, (0,)), (2, ())]
    assert [(index, added) for index, added, _ in ct.layers] == [(1, inst.edges[0])]
    counted_ct, counted = counted_conflict(ct)
    assert verify_conflict_trace(counted_ct) == []
    assert counted.asked == 2


def test_conflict_trace_pads_a_small_optimum_with_coloop_edges():
    # The run takes more vertices than the optimum, so one zero-weight
    # edge of fresh coloop vertices pads the optimum before the exchange.
    inst = generate("set-packing", n=7, m=6, k=3, seed=19)
    _, trace = sliding_local_search(inst, DEFAULT_EPSILON, DEFAULT_DELTA, 0)
    optimum = brute_force_optimum(inst).optimum
    ct = build_conflict_trace(inst, trace, optimum, DEFAULT_GAMMA)
    dummies = [r for r in ct.reports if r.original_edge is None]
    assert len(dummies) == 1
    assert dummies[0].weight == 0
    assert dummies[0].vertices == frozenset(
        range(inst.num_vertices, inst.num_vertices + inst.arity)
    )
    assert verify_conflict_trace(ct) == []


@pytest.mark.parametrize(
    "family, params",
    [
        ("greedy-trap", {"k": 3, "rho": Fraction(3, 10)}),
        ("set-packing", {"n": 7, "m": 6, "k": 3}),
        ("graphic-parity", {"n": 4, "m": 5, "k": 2}),
        ("k-mi-partition", {"n": 4, "k": 2}),
    ],
)
def test_each_derived_own_interval_is_the_one_check_trace_maps(family, params):
    built = 0
    for seed in range(6):
        # The greedy trap is one fixed instance; its runs differ by shift seed.
        inst = generate(family, **params, **({} if family == "greedy-trap" else {"seed": seed}))
        optimum = brute_force_optimum(inst).optimum
        for rule in SWAP_RULES:
            _, trace = sliding_local_search(inst, EPS, DELTA, seed, rule)
            if trace.scheme is None:
                continue
            own = check_trace(inst, trace)
            ct = build_conflict_trace(inst, trace, optimum, GAMMA)
            derived = [(orig, interval) for orig, _, _, interval in ct.edges if orig is not None]
            assert derived == [(j, own[j]) for j in sorted(optimum.edges)]
            assert verify_conflict_trace(ct) == []
            built += 1
    assert built >= 6


def test_trace_campaign_verifies_every_run():
    report = trace_campaign(runs=10, seed=5, epsilon=EPS, delta=DELTA, gamma=GAMMA)
    assert report["successes"] == 10
    assert report["failures"] == []


def test_trace_campaign_checks_a_passing_run_twice(monkeypatch):
    # Once in verify_local_optimum and once in build_conflict_trace.
    checks = []

    def counted_check(*args):
        checks.append(args)
        return check_trace(*args)

    for module in (campaigns, exact, exchange):
        monkeypatch.setattr(module, "check_trace", counted_check)
    report = trace_campaign(runs=4, seed=5, epsilon=EPS, delta=DELTA, gamma=GAMMA)
    assert report["successes"] == 4 and report["degenerate_skipped"] == 0
    assert len(checks) == 2 * 4


def test_trace_campaign_names_the_check_a_forged_trace_fails(monkeypatch):
    forged_levels = []

    def forged_run(*args, **kwargs):
        solution, trace = sliding_local_search(*args, **kwargs)
        if trace.scheme is None:
            return solution, trace
        scheme = dataclasses.replace(trace.scheme, levels=trace.scheme.levels + 40)
        forged_levels.append(scheme.levels)
        return solution, dataclasses.replace(trace, scheme=scheme)

    monkeypatch.setattr(campaigns, "sliding_local_search", forged_run)
    report = trace_campaign(runs=2, seed=5, epsilon=EPS, delta=DELTA, gamma=GAMMA)
    assert report["successes"] == 0
    assert [f["problems"] for f in report["failures"]] == [
        [f"trace fails its check: level count: {levels} is not the instance's"]
        for levels in forged_levels
    ]


def test_near_marker_bound_value():
    bound = near_marker_bound(EPS, GAMMA)
    assert bound == GAMMA / (EPS * (1 + GAMMA))
    assert float(bound) == pytest.approx(0.4748, abs=1e-4)
    assert near_marker_bound(EPS, Fraction(0)) == 0


def test_near_marker_frequencies_stay_under_bound():
    inst = generate("set-packing", n=8, m=7, k=3, seed=11)
    report = near_marker_report(inst, EPS, GAMMA)
    assert report["all_within_bound"]
    assert report["edges"]
    bound = parse_fraction(report["bound"])
    assert all(parse_fraction(e["probability"]) <= bound for e in report["edges"])


def test_greedy_trap_probabilities_are_exact():
    # Light edges of weight 7/10 under a heavy edge of weight 1: with
    # 1 - epsilon = 6127/10000 the base markers are 10000/6127, 1,
    # 6127/10000, ...
    # Marker 1 lies in [7/10, (1 + gamma) 7/10] for tau up to 3/10, and
    # marker 0 never does below epsilon, so the probability is
    # (3/10 - (1 - (1 + gamma) 7/10)) / epsilon = 5257/12910.
    inst = generate("greedy-trap", k=3)
    optimum = brute_force_optimum(inst).optimum
    probabilities = near_marker_probability(inst, optimum, EPS, GAMMA)
    assert probabilities == {j: Fraction(5257, 12910) for j in (1, 2, 3)}
    assert near_marker_bound(EPS, GAMMA) == Fraction(7510000, 15818623)


def sampled_near_frequency(inst, weight, epsilon, gamma, shifts):
    """The near-marker predicate at ``shifts`` midpoint shifts, as a fraction.

    At shift tau the markers are the tau-0 ladder times ``1 - tau``, so the
    edge is near when ``(1 + gamma) w / (1 - tau)`` reaches the tau-0
    marker at or above ``w / (1 - tau)``.
    """
    base = compute_markers(inst, epsilon, DELTA, Fraction(0))
    hits = 0
    for k in range(shifts):
        scaled = weight / (1 - epsilon * Fraction(2 * k + 1, 2 * shifts))
        hits += (1 + gamma) * scaled >= base.marker(base.interval_of(scaled) - 1)
    return Fraction(hits, shifts)


CRITERION_9_CASES = [
    ("set-packing", dict(n=8, m=7, k=3, seed=11)),
    ("graphic-parity", dict(n=5, m=6, k=3, seed=3)),
    ("k-mi-partition", dict(n=5, k=3, seed=2)),
]


@pytest.mark.parametrize("family, params", CRITERION_9_CASES)
def test_exact_probability_matches_a_midpoint_scan(family, params):
    shifts = 1000
    inst = generate(family, **params)
    optimum = brute_force_optimum(inst).optimum
    for gamma in (GAMMA, 1 / (1 - EPS) - 1):
        probabilities = near_marker_probability(inst, optimum, EPS, gamma)
        assert set(probabilities) == set(optimum.edges)
        for j, p in probabilities.items():
            scanned = sampled_near_frequency(inst, inst.weights[j], EPS, gamma, shifts)
            assert abs(p - scanned) <= Fraction(2, shifts)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.fractions(0, 1, max_denominator=1000),
    st.fractions(Fraction(1, 20), Fraction(49, 100), max_denominator=1000),
)
def test_exact_probability_never_exceeds_the_bound(index, share, epsilon):
    inst = _campaign_instance(index, seed=3)
    optimum = brute_force_optimum(inst).optimum
    if optimum.weight == 0:
        return
    gamma = share * (1 / (1 - epsilon) - 1)
    bound = near_marker_bound(epsilon, gamma)
    probabilities = near_marker_probability(inst, optimum, epsilon, gamma)
    assert all(0 <= p <= bound for p in probabilities.values())


def test_gamma_zero_never_counts():
    inst = generate("set-packing", n=8, m=7, k=3, seed=11)
    optimum = brute_force_optimum(inst).optimum
    probabilities = near_marker_probability(inst, optimum, EPS, Fraction(0))
    assert set(probabilities) == set(optimum.edges)
    assert all(p == 0 for p in probabilities.values())


def test_zero_weight_edge_is_never_near_a_marker():
    inst = ParityInstance(
        2,
        (frozenset([0]), frozenset([1])),
        (Fraction(1), Fraction(0)),
        FreeMatroid(2),
        1,
    )
    claimed = Solution(frozenset([0, 1]), Fraction(1))
    probabilities = near_marker_probability(inst, claimed, EPS, GAMMA)
    assert probabilities[1] == 0
    # Marker 1 sits below the top edge for every tau > 0; marker 0,
    # (1 - tau) / (1 - epsilon), reaches (1 + gamma) w once
    # tau >= 1 - (1 + gamma)(1 - epsilon).
    assert probabilities[0] == GAMMA * (1 - EPS) / EPS


def test_estimator_rejects_out_of_range_parameters():
    inst = generate("set-packing", n=8, m=7, k=3, seed=11)
    optimum = brute_force_optimum(inst).optimum
    too_big = 1 / (1 - EPS) - 1 + Fraction(1, 100)
    with pytest.raises(ValueError):
        near_marker_probability(inst, optimum, EPS, too_big)
    with pytest.raises(ValueError):
        near_marker_probability(inst, optimum, Fraction(1), GAMMA)
    with pytest.raises(ExchangeInputError):
        near_marker_probability(inst, Solution(frozenset(range(inst.num_edges)), 0), EPS, GAMMA)


def test_k4_witness_is_frozen_and_verifies():
    w = k4_non_composability_witness()
    assert sorted(w.base_edges) == [0, 1, 2]
    assert (w.first.add, w.first.remove) == ((3,), (0,))
    assert (w.second.add, w.second.remove) == ((4, 5), (1, 2))
    assert w.first.gain == 0 and w.second.gain == 0
    assert verify_k4_witness(w)
    report = k4_report()
    assert report["verified"]
    assert report["base_edges"] == [0, 1, 2]


# Forged witnesses whose feasibility answers are all right, but whose swaps
# overlap or do not act on the base, so their union is no composition.
K4_FORGERIES = {
    "shared-removal": ({0, 1, 2}, ((3,), (0,)), ((4,), (0,))),
    "shared-addition": ({0}, ((2, 3), ()), ((3, 4), ())),
    "addition-inside-base": ({0, 1, 2}, ((0,), ()), ((3,), (0,))),
    "removal-outside-base": ({0, 1, 2}, ((3,), (0, 4)), ((4, 5), (1, 2))),
}


@pytest.mark.parametrize("forgery", list(K4_FORGERIES))
def test_k4_verifier_refuses_swaps_that_overlap_or_leave_the_base(forgery):
    base, (add1, rem1), (add2, rem2) = K4_FORGERIES[forgery]
    real = k4_non_composability_witness()
    inst = real.instance
    applied = [(frozenset(base) - set(rem)) | set(add) for add, rem in ((add1, rem1), (add2, rem2))]
    merged = frozenset(base) - set(rem1) - set(rem2) | set(add1) | set(add2)
    assert inst.is_feasible(base) and all(inst.is_feasible(s) for s in applied)
    assert not inst.is_feasible(merged)
    forged = dataclasses.replace(
        real,
        base_edges=frozenset(base),
        first=SwapMove(add1, rem1, Fraction(len(add1) - len(rem1))),
        second=SwapMove(add2, rem2, Fraction(len(add2) - len(rem2))),
    )
    assert not verify_k4_witness(forged)


def test_k4_verifier_refuses_an_unknown_edge():
    real = k4_non_composability_witness()
    forged = dataclasses.replace(real, first=SwapMove((99,), (0,), Fraction(0)))
    assert not verify_k4_witness(forged)
