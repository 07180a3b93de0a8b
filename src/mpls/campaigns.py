"""Randomized verification campaigns.

Each campaign draws many small random cases, runs one of the structural
checks end to end, and returns a JSON-friendly report.  The CLI's
``verify`` subcommands and the acceptance tests both drive these
functions, so a reported success rate always means the same thing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any

from . import generators
from .exact import TraceRefuted, brute_force_optimum, check_trace, verify_local_optimum
from .exchange import (
    build_conflict_trace,
    find_rota_exchange,
    k4_non_composability_witness,
    near_marker_bound,
    near_marker_probability,
    refine_laminar,
    verify_conflict_trace,
    verify_k4_witness,
)
from .instance import ParityInstance
from .matroids import (
    GraphicMatroid,
    LinearMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
)
from .serialization import format_fraction
from .solver import sliding_local_search

MATROID_FAMILIES = ("uniform", "partition", "graphic", "linear")
# Largest ground set of a random campaign matroid; keeps the exhaustive
# exchange searches small.
MAX_ELEMENTS = 7


def approx_ratio(achieved: Fraction, optimum: Fraction) -> Fraction:
    """Solution weight over optimum weight; 1 when the optimum is zero."""
    if optimum == 0:
        return Fraction(1)
    return Fraction(achieved, optimum)


def random_small_matroid(rng: random.Random) -> MatroidOracle:
    family = rng.choice(MATROID_FAMILIES)
    n = rng.randint(1, MAX_ELEMENTS)
    if family == "uniform":
        return UniformMatroid(n, rng.randint(0, n))
    if family == "partition":
        order = list(range(n))
        rng.shuffle(order)
        blocks: list[list[int]] = []
        i = 0
        while i < n:
            size = min(rng.randint(1, 3), n - i)
            blocks.append(order[i : i + size])
            i += size
        caps = [rng.randint(0, len(b)) for b in blocks]
        return PartitionMatroid(blocks, caps)
    if family == "graphic":
        gv = rng.randint(2, 5)
        edges = [(rng.randrange(gv), rng.randrange(gv)) for _ in range(n)]
        return GraphicMatroid(gv, edges)
    if family == "linear":
        p = rng.choice((2, 3, 5))
        dim = rng.randint(1, 4)
        cols = [[rng.randrange(p) for _ in range(dim)] for _ in range(n)]
        return LinearMatroid(p, cols)
    raise ValueError(f"unknown matroid family {family!r}")


def random_independent_set(oracle: MatroidOracle, rng: random.Random) -> frozenset[int]:
    elements = sorted(oracle.ground)
    rng.shuffle(elements)
    target = rng.randint(0, len(elements))
    chosen: set[int] = set()
    for v in elements:
        if len(chosen) >= target:
            break
        chosen.add(v)
        if not oracle.is_independent(chosen):
            chosen.discard(v)
    return frozenset(chosen)


def _random_partition(s: frozenset[int], rng: random.Random) -> list[frozenset[int]]:
    items = sorted(s)
    rng.shuffle(items)
    if not items:
        return []
    count = rng.randint(1, len(items))
    buckets: list[list[int]] = [[] for _ in range(count)]
    for v in items:
        buckets[rng.randrange(count)].append(v)
    return [frozenset(b) for b in buckets if b]


def _random_exchange_case(
    rng: random.Random,
) -> tuple[MatroidOracle, list[frozenset[int]], frozenset[int]]:
    matroid = random_small_matroid(rng)
    a = random_independent_set(matroid, rng)
    b = random_independent_set(matroid, rng)
    source, target = (a, b) if len(a) <= len(b) else (b, a)
    return matroid, _random_partition(source, rng), target


def rota_campaign(cases: int, seed: int) -> dict[str, Any]:
    """Exchange certificates must exist and verify on every random case."""
    rng = random.Random(seed)
    failures: list[dict[str, Any]] = []
    for case in range(cases):
        matroid, parts, target = _random_exchange_case(rng)
        cert = find_rota_exchange(matroid, parts, target)
        if cert is None:
            failures.append(
                {
                    "case": case,
                    "matroid": type(matroid).__name__,
                    "parts": [sorted(p) for p in parts],
                    "target": sorted(target),
                    "problem": "no certificate found",
                }
            )
    return {
        "campaign": "rota",
        "cases": cases,
        "seed": seed,
        "successes": cases - len(failures),
        "failures": failures,
    }


def laminar_campaign(cases: int, seed: int) -> dict[str, Any]:
    """Whole-set exchanges must refine into per-part pieces every time."""
    rng = random.Random(seed)
    failures: list[dict[str, Any]] = []
    refined = 0
    for case in range(cases):
        matroid, parts, target = _random_exchange_case(rng)
        source = frozenset().union(*parts) if parts else frozenset()
        whole = find_rota_exchange(matroid, [source] if source else [], target)
        if whole is None:
            failures.append({"case": case, "problem": "no whole-set exchange found"})
            continue
        swap_out = whole.exchanged[0] if whole.exchanged else frozenset()
        try:
            refine_laminar(matroid, parts, target, swap_out)
        except Exception as exc:  # noqa: BLE001 - campaign reports, never raises
            failures.append(
                {
                    "case": case,
                    "matroid": type(matroid).__name__,
                    "parts": [sorted(p) for p in parts],
                    "target": sorted(target),
                    "exchange_set": sorted(swap_out),
                    "problem": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        refined += 1
    return {
        "campaign": "laminar",
        "cases": cases,
        "seed": seed,
        "successes": cases - len(failures),
        "refined": refined,
        "failures": failures,
    }


def _campaign_instance(index: int, seed: int) -> ParityInstance:
    """Small mixed-family instance, cheap enough for exact optima."""
    rng = random.Random(f"{seed}:{index}:campaign")
    family = ("set-packing", "graphic-parity", "k-mi-partition")[index % 3]
    k = rng.choice((2, 3))
    sub = rng.getrandbits(32)
    if family == "set-packing":
        return generators.generate(
            family, n=rng.randint(k, 7), m=rng.randint(3, 7), k=k, seed=sub
        )
    if family == "graphic-parity":
        return generators.generate(
            family, n=rng.randint(2, 4), m=rng.randint(3, 7), k=k, seed=sub
        )
    return generators.generate(family, n=rng.randint(2, 6), k=k, seed=sub)


def trace_campaign(
    runs: int,
    seed: int,
    epsilon: Fraction,
    delta: Fraction,
    gamma: Fraction,
) -> dict[str, Any]:
    """Build and verify a conflict trace for every non-degenerate run.

    Each run solves a fresh small instance, verifies that the trace is
    locally optimal (a refuted trace is checked again, to name the failed
    check), computes the exact optimum, builds the conflict trace and
    re-verifies its chain, and finally checks that the singly-blocked
    optimum weight never exceeds the solution weight.
    """
    failures: list[dict[str, Any]] = []
    completed = 0
    degenerate = 0
    attempts = 0
    index = 0
    while completed + len(failures) < runs and attempts < 50 * runs:
        attempts += 1
        instance = _campaign_instance(index, seed)
        index += 1
        solution, trace = sliding_local_search(
            instance, epsilon, delta, seed=seed + index
        )
        if trace.scheme is None:
            degenerate += 1
            continue
        problems: list[str] = []
        if not verify_local_optimum(instance, trace):
            try:  # name the check that refutes the trace, if one does
                check_trace(instance, trace)
            except TraceRefuted as exc:
                problems.append(f"trace fails its check: {exc}")
            else:
                problems.append("trace is not locally optimal")
        optimum = brute_force_optimum(instance)
        if not problems:
            ct = build_conflict_trace(instance, trace, optimum.optimum, gamma)
            problems.extend(verify_conflict_trace(ct))
            if ct.singles_weight() > solution.weight:
                problems.append(
                    "singly-blocked optimum weight exceeds the solution weight"
                )
        if problems:
            failures.append(
                {"run": completed + len(failures), "instance": instance.num_edges, "problems": problems}
            )
        else:
            completed += 1
    return {
        "campaign": "conflict-trace",
        "requested": runs,
        "seed": seed,
        "epsilon": format_fraction(Fraction(epsilon)),
        "gamma": format_fraction(Fraction(gamma)),
        "successes": completed,
        "degenerate_skipped": degenerate,
        "failures": failures,
    }


def near_marker_report(
    instance: ParityInstance,
    epsilon: Fraction,
    gamma: Fraction,
) -> dict[str, Any]:
    """Exact near-marker probabilities for the exact optimum's edges.

    Each probability is compared with the analytic bound as it stands:
    both are exact, so no tolerance is needed.
    """
    optimum = brute_force_optimum(instance).optimum
    probabilities = near_marker_probability(instance, optimum, epsilon, gamma)
    bound = near_marker_bound(epsilon, gamma)
    edges = [
        {
            "edge": j,
            "weight": format_fraction(instance.weights[j]),
            "probability": format_fraction(p),
            "within_bound": p <= bound,
        }
        for j, p in sorted(probabilities.items())
    ]
    return {
        "campaign": "near-marker",
        "epsilon": format_fraction(Fraction(epsilon)),
        "gamma": format_fraction(Fraction(gamma)),
        "bound": format_fraction(bound),
        "edges": edges,
        "all_within_bound": all(e["within_bound"] for e in edges),
    }


def k4_report() -> dict[str, Any]:
    """Search for and verify the two-swap non-composability witness."""
    witness = k4_non_composability_witness()
    return {
        "campaign": "k4-witness",
        "base_edges": sorted(witness.base_edges),
        "first_swap": {
            "add": list(witness.first.add),
            "remove": list(witness.first.remove),
        },
        "second_swap": {
            "add": list(witness.second.add),
            "remove": list(witness.second.remove),
        },
        "verified": verify_k4_witness(witness),
    }
