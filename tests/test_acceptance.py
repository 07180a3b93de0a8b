"""Acceptance gate for the solver library.

Twelve checks, one test function each, so ``pytest -v`` prints one
pass/fail line per criterion.  Each test prints its measured quantities
before asserting.  Approximation criteria run on unscaled weights;
criterion 6 exercises the scaled path.  Derived thresholds were frozen
from independent exact-oracle runs and are never adjusted to fit.
"""

import math
import random
from fractions import Fraction

import pytest

from mpls.campaigns import (
    approx_ratio,
    k4_report,
    laminar_campaign,
    near_marker_report,
    rota_campaign,
    trace_campaign,
)
from mpls.exact import (
    brute_force_intersection,
    brute_force_optimum,
    verify_local_optimum,
)
from mpls.generators import build_doc, generate, random_partition_matroids
from mpls.solver import scale_weights, sliding_local_search
from test_exact import flat_scan_intersection, flat_scan_optimum, raw_fields

EPSILON = Fraction("0.3873")
WIDE_EPSILON = Fraction("0.49")
DELTA = Fraction("0.0001")
GAMMA = Fraction("0.2253")
SCALE_EPSILON = Fraction(1, 10)

APPROX_INSTANCES = 500
APPROX_SEEDS = 5
RATIO_INSTANCES = 50
RATIO_SEEDS = 200
MEAN_FLOOR = Fraction(10, 36) - Fraction(2, 100)
WIDE_MEAN_FLOOR = Fraction(2 * math.log(2) / 4 - 0.03)
TRAP_SEEDS = 500
TRAP_FLOOR = Fraction(1) / Fraction("2.1")
TRAP_TARGET = Fraction("0.55")  # frozen from a 500-seed exact-ratio run


def _approx_instance(i):
    rng = random.Random(f"approx-corpus:{i}")
    family = ("set-packing", "graphic-parity", "k-mi-partition")[i % 3]
    k = rng.choice((3, 4))
    if family == "set-packing":
        return generate(
            family, n=rng.randint(k, 8), m=rng.randint(4, 10), k=k, seed=rng.getrandbits(32)
        )
    if family == "graphic-parity":
        return generate(
            family, n=rng.randint(3, 5), m=rng.randint(4, 10), k=k, seed=rng.getrandbits(32)
        )
    return generate(family, n=rng.randint(2, 6), k=min(k, 3), seed=rng.getrandbits(32))


@pytest.fixture(scope="module")
def approx_runs():
    """Mixed small corpus with exact optima and five solver runs each."""
    out = []
    for i in range(APPROX_INSTANCES):
        inst = _approx_instance(i)
        exact = brute_force_optimum(inst)
        runs = [
            sliding_local_search(inst, EPSILON, DELTA, seed)
            for seed in range(APPROX_SEEDS)
        ]
        out.append((inst, exact, runs))
    return out


@pytest.fixture(scope="module")
def ratio_corpus():
    """Arity-3 corpus (up to 12 edges) with exact optima."""
    out = []
    for j in range(RATIO_INSTANCES):
        rng = random.Random(f"ratio-corpus:{j}")
        family = ("set-packing", "graphic-parity", "k-mi-partition")[j % 3]
        if family == "set-packing":
            inst = generate(
                family, n=rng.randint(5, 8), m=rng.randint(8, 12), k=3,
                seed=rng.getrandbits(32),
            )
        elif family == "graphic-parity":
            inst = generate(
                family, n=rng.randint(3, 5), m=rng.randint(8, 12), k=3,
                seed=rng.getrandbits(32),
            )
        else:
            inst = generate(family, n=rng.randint(6, 12), k=3, seed=rng.getrandbits(32))
        out.append((inst, brute_force_optimum(inst).optimum.weight))
    return out


def _mean_ratios(corpus, epsilon):
    means = []
    for inst, optimum in corpus:
        total = Fraction(0)
        for seed in range(RATIO_SEEDS):
            sol, _ = sliding_local_search(inst, epsilon, DELTA, seed)
            total += approx_ratio(sol.weight, optimum)
        means.append(total / RATIO_SEEDS)
    return means


def test_criterion_01_every_run_clears_the_arity_floor(approx_runs):
    worst = Fraction(1)
    violations = 0
    for inst, exact, runs in approx_runs:
        for sol, _ in runs:
            ratio = approx_ratio(sol.weight, exact.optimum.weight)
            worst = min(worst, ratio * inst.arity)
            violations += ratio * inst.arity < 1
    total = APPROX_INSTANCES * APPROX_SEEDS
    print(f"criterion 1: {total} runs, min ratio*k {float(worst):.4f}, "
          f"violations {violations}")
    assert violations == 0


def test_criterion_02_every_trace_is_locally_optimal(approx_runs):
    verified = sum(
        verify_local_optimum(inst, trace)
        for inst, _, runs in approx_runs
        for _, trace in runs
    )
    total = APPROX_INSTANCES * APPROX_SEEDS
    print(f"criterion 2: {verified}/{total} traces verified")
    assert verified == total


def test_criterion_03_mean_ratio_at_default_epsilon(ratio_corpus):
    means = _mean_ratios(ratio_corpus, EPSILON)
    print(f"criterion 3: per-instance means min {float(min(means)):.4f} "
          f"aggregate {float(sum(means) / len(means)):.4f} floor {float(MEAN_FLOOR):.4f}")
    assert all(m >= MEAN_FLOOR for m in means)


def test_criterion_04_mean_ratio_at_wide_epsilon(ratio_corpus):
    means = _mean_ratios(ratio_corpus, WIDE_EPSILON)
    print(f"criterion 4: per-instance means min {float(min(means)):.4f} "
          f"aggregate {float(sum(means) / len(means)):.4f} floor {float(WIDE_MEAN_FLOOR):.4f}")
    assert all(m >= WIDE_MEAN_FLOOR for m in means)


def tail_bound_holds(instance, scheme, delta, optimum):
    """Optimum edges lighter than the last positive marker carry at most a
    ``delta`` share of the optimum weight; exact, no tolerance."""
    last_marker = scheme.marker(scheme.levels)
    tail = sum(
        (instance.weights[j] for j in optimum.edges if instance.weights[j] < last_marker),
        Fraction(0),
    )
    return tail <= delta * optimum.weight


def test_criterion_05_discarded_tail_is_negligible(approx_runs):
    checked = held = 0
    for inst, exact, runs in approx_runs:
        for _, trace in runs:
            if trace.scheme is None:
                continue
            checked += 1
            held += tail_bound_holds(inst, trace.scheme, trace.delta, exact.optimum)
    print(f"criterion 5: tail bound held on {held}/{checked} ladders")
    assert checked > 0
    assert held == checked


def test_criterion_06_scaling_bounds_swaps_and_preserves_optima(approx_runs):
    swap_ok = swap_total = 0
    kept = checked = 0
    for inst, exact, _ in approx_runs[:200]:
        scaled = scale_weights(inst, SCALE_EPSILON)
        for seed in (0, 1):
            _, trace = sliding_local_search(scaled, EPSILON, DELTA, seed)
            swaps = sum(len(r.swaps) for r in trace.records)
            swap_total += 1
            swap_ok += swaps <= inst.num_edges ** 2 / SCALE_EPSILON
        scaled_opt = brute_force_optimum(scaled).optimum
        mapped_back = sum((inst.weights[j] for j in scaled_opt.edges), Fraction(0))
        checked += 1
        kept += mapped_back >= (1 - SCALE_EPSILON) * exact.optimum.weight
    print(f"criterion 6: swap budget {swap_ok}/{swap_total}, "
          f"mapped-back optimum {kept}/{checked}")
    assert swap_ok == swap_total
    assert kept == checked


def test_criterion_07_exchange_certificates_always_exist():
    rota = rota_campaign(cases=1000, seed=2026)
    laminar = laminar_campaign(cases=1000, seed=2027)
    print(f"criterion 7: rota {rota['successes']}/1000, "
          f"laminar {laminar['successes']}/1000")
    assert rota["failures"] == [] and rota["successes"] == 1000
    assert laminar["failures"] == [] and laminar["successes"] == 1000


def test_criterion_08_conflict_traces_always_verify():
    report = trace_campaign(runs=100, seed=77, epsilon=EPSILON, delta=DELTA, gamma=GAMMA)
    print(f"criterion 8: {report['successes']}/100 runs verified, "
          f"{report['degenerate_skipped']} degenerate skipped")
    assert report["failures"] == []
    assert report["successes"] == 100


def test_criterion_09_near_marker_frequency_is_bounded():
    cases = [
        ("set-packing", dict(n=8, m=7, k=3, seed=11)),
        ("graphic-parity", dict(n=5, m=6, k=3, seed=3)),
        ("k-mi-partition", dict(n=5, k=3, seed=2)),
    ]
    top_gamma = 1 / (1 - EPSILON) - 1
    for family, params in cases:
        inst = generate(family, **params)
        for gamma in (GAMMA, top_gamma):
            report = near_marker_report(inst, EPSILON, gamma)
            probabilities = [e["probability"] for e in report["edges"]]
            print(f"criterion 9: {family} gamma {float(gamma):.4f} probabilities "
                  f"{probabilities} bound {report['bound']}")
            assert report["edges"]
            assert report["all_within_bound"]


def test_criterion_10_reductions_preserve_optima():
    for i in range(100):
        rng = random.Random(f"reduction:{i}")
        family = "set-packing" if i % 2 == 0 else "graphic-parity"
        if family == "set-packing":
            doc = build_doc(family, n=rng.randint(4, 8), m=rng.randint(3, 9),
                            k=rng.choice((2, 3)), seed=rng.getrandbits(32))
        else:
            doc = build_doc(family, n=rng.randint(3, 5), m=rng.randint(3, 9),
                            k=rng.choice((2, 3)), seed=rng.getrandbits(32))
        # The raw optimum comes from the test-local flat scan, which checks
        # disjointness itself; the library searches only the normal form.
        raw, _ = flat_scan_optimum(raw_fields(doc))
        norm = brute_force_optimum(doc.normalize()).optimum
        assert (raw.weight, raw.edges) == (norm.weight, norm.edges)
    for i in range(100):
        rng = random.Random(f"mi-reduction:{i}")
        n, k = rng.randint(2, 5), rng.choice((2, 3))
        matroids = random_partition_matroids(n, k, rng.getrandbits(32))
        weights = [Fraction(rng.randint(0, 50), rng.choice((1, 2, 4, 10))) for _ in range(n)]
        # The reference asks each matroid directly; the library searches the reduction.
        assert brute_force_intersection(matroids, weights) == flat_scan_intersection(matroids, weights)
    print("criterion 10: 100 normalizations + 100 intersection reductions preserved optima")


def test_criterion_11_two_swap_witness_verifies():
    report = k4_report()
    print(f"criterion 11: base {report['base_edges']}, "
          f"swaps {report['first_swap']} / {report['second_swap']}, "
          f"verified {report['verified']}")
    assert report["verified"] is True


def test_criterion_12_trap_escape_rate_beats_greedy():
    inst = generate("greedy-trap", k=3, rho=Fraction(3, 10))
    optimum = brute_force_optimum(inst).optimum.weight
    total = Fraction(0)
    recovered = 0
    for seed in range(TRAP_SEEDS):
        sol, _ = sliding_local_search(inst, EPSILON, DELTA, seed)
        ratio = approx_ratio(sol.weight, optimum)
        total += ratio
        recovered += ratio == 1
    mean = total / TRAP_SEEDS
    print(f"criterion 12: mean ratio {float(mean):.4f} over {TRAP_SEEDS} seeds "
          f"({recovered} full recoveries), greedy floor {float(TRAP_FLOOR):.4f}, "
          f"frozen target {float(TRAP_TARGET):.2f}")
    assert mean > TRAP_FLOOR + Fraction(5, 100)
    assert mean >= TRAP_TARGET
