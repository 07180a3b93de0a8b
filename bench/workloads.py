"""The benchmark's workloads: corpus set-up, one operation, and its checks.

Each workload turns ``--seed`` into a corpus of items with ``setup``
(the part timed as ``setup_s``), runs one operation per item with
``run``, and checks every output with ``check``, which raises
``CheckFailed`` on a wrong answer and returns the (ratio, weight)
samples behind ``mean_ratio`` and ``mean_weight``.  Checks lean on
``checker`` (written apart from the program) and on properties the
method must have; they run outside the timed region.

Corpus make-up is fixed here; only the random content depends on the
seed.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any

import checker
from mpls import exact, serialization, solver
from mpls.cli import DEFAULT_DELTA, DEFAULT_EPSILON, DEFAULT_GAMMA, DEFAULT_SCALE_EPSILON
from mpls.instance import ParityInstance, Solution
from mpls.matroids import GraphicMatroid, LinearMatroid
from mpls.serialization import InstanceDoc
from mpls.solver import BEST_GAIN, FIRST_LEX, SolverTrace
from tracer import Api

RULES = (FIRST_LEX, BEST_GAIN)
POOL_WORKERS = len(os.sched_getaffinity(0))


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def checker_doc(doc: InstanceDoc) -> dict[str, Any]:
    """The checker's view of a generated document, taken from its raw fields."""
    return {
        "k": doc.arity,
        "vertices": doc.num_vertices,
        "edges": [{"verts": sorted(v), "w": w} for v, w in zip(doc.edge_verts, doc.edge_weights)],
        "matroid": doc.matroid_desc,
    }


def ratio(achieved: Fraction, optimum: Fraction) -> Fraction:
    return Fraction(1) if optimum == 0 else achieved / optimum


def require_solution(doc: dict[str, Any], sol: Solution, what: str) -> Fraction:
    """Feasible by the checker, with the weight the program claims."""
    require(checker.feasible(doc, sol.edges), f"{what} is infeasible")
    own = checker.weight(doc, sol.edges)
    require(own == sol.weight, f"{what} reports weight {sol.weight}, edges weigh {own}")
    return own


# ---------------------------------------------------------------- solve-large


@dataclass
class LargeInstance:
    doc: dict[str, Any]
    inst: ParityInstance
    work: ParityInstance  # weights scaled as the CLI does by default
    scaling_checked: bool = False
    greedy_weight: Fraction | None = None


@dataclass
class SolveItem:
    ref: LargeInstance
    shift_seed: int
    audit_trace: bool  # whether verify_local_optimum re-checks this run
    first: tuple | None = None  # fingerprint of the first result


class SolveLarge:
    """One op: one scaled first-lex sliding run on a medium-to-large instance."""

    name = "solve-large"
    FAMILIES = (
        ("set-packing", {"n": 60, "m": 40, "k": 2}),
        ("graphic-parity", {"n": 16, "m": 48, "k": 3}),
        ("k-mi-partition", {"n": 32, "k": 2}),
    )
    INSTANCES_PER_FAMILY = 200
    SHIFTS = 2
    AUDIT_EVERY = 20  # verify_local_optimum on the first run of every 20th instance

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, api: Api) -> list[SolveItem]:
        rng = random.Random(f"{self.name}:{self.seed}")
        items: list[SolveItem] = []
        index = 0
        for family, params in self.FAMILIES:
            for _ in range(self.INSTANCES_PER_FAMILY):
                doc = api.build_doc(family, seed=rng.getrandbits(32), **params)
                inst = api.wrap_instance(doc.normalize())
                ref = LargeInstance(checker_doc(doc), inst, api.scale_weights(inst, DEFAULT_SCALE_EPSILON))
                for s in range(self.SHIFTS):
                    audit = s == 0 and index % self.AUDIT_EVERY == 0
                    items.append(SolveItem(ref, rng.getrandbits(63), audit))
                index += 1
        return items

    def prepare(self, items: list[SolveItem]) -> None:
        pass

    def run(self, api: Api, item: SolveItem) -> tuple[Solution, SolverTrace]:
        return api.sliding_local_search(
            item.ref.work, DEFAULT_EPSILON, DEFAULT_DELTA, item.shift_seed, FIRST_LEX
        )

    def check(self, item: SolveItem, out: tuple[Solution, SolverTrace]) -> list[tuple[Fraction, Fraction]]:
        sol, trace = out
        swaps = tuple((m.add, m.remove) for r in trace.records for m in r.swaps)
        fingerprint = (trace.final_edges, trace.final_weight, trace.oracle_calls, trace.tau, swaps)
        if item.first is not None:
            require(fingerprint == item.first, "a repeated run gave a different result")
            return []
        ref = item.ref
        scaled = ref.work.weights
        require(sol.edges == frozenset(trace.final_edges), "solution and trace disagree")
        require(sol.weight == trace.final_weight, "solution and trace weights disagree")
        if not ref.scaling_checked:
            require(scaled == own_scaled_weights(ref.doc), "scaled weights differ from the grid rounding")
            ref.scaling_checked = True
        replay(ref.doc, scaled, trace)
        require(checker.parity_feasible(ref.doc, trace.final_edges), "final solution is infeasible")
        require(sum((scaled[j] for j in trace.final_edges), Fraction(0)) == trace.final_weight,
                "final weight is not the sum of the scaled edge weights")
        if item.audit_trace:
            require(exact.verify_local_optimum(ref.work, trace), "trace is not locally optimal")
        if ref.greedy_weight is None:
            ref.greedy_weight = require_solution(ref.doc, solver.greedy(ref.inst), "greedy solution")
        achieved = checker.parity_weight(ref.doc, trace.final_edges)
        item.first = fingerprint
        return [(ratio(achieved, ref.greedy_weight), achieved)]


def own_scaled_weights(doc: dict[str, Any]) -> tuple[Fraction, ...]:
    """Weights rounded down onto the grid |E| / (epsilon * W), W the heaviest lone-feasible weight."""
    weights = checker.weights_of(doc)
    heaviest = max(
        (w for j, w in enumerate(weights) if checker.parity_feasible(doc, [j])), default=Fraction(0)
    )
    if heaviest == 0:
        return tuple(weights)
    step = Fraction(len(weights)) / (DEFAULT_SCALE_EPSILON * heaviest)
    return tuple(Fraction((w * step).numerator // (w * step).denominator) for w in weights)


def replay(doc: dict[str, Any], weights: tuple[Fraction, ...], trace: SolverTrace) -> None:
    """Apply the trace's swaps from the empty set and check each one."""
    sol: set[int] = set()
    for record in trace.records:
        for move in record.swaps:
            add, remove = set(move.add), set(move.remove)
            require(move.gain > 0, f"swap {move} does not gain")
            require(remove <= sol and not add & sol, f"swap {move} does not fit the solution")
            gain = sum((weights[j] for j in add), Fraction(0)) - sum(
                (weights[j] for j in remove), Fraction(0)
            )
            require(gain == move.gain, f"swap {move} claims gain {move.gain}, edges give {gain}")
            sol = (sol - remove) | add
            require(checker.parity_feasible(doc, sorted(sol)), f"swap {move} leaves an infeasible set")
        require(set(record.added) <= sol, f"interval {record.index} lists edges not in the solution")
    require(sol == set(trace.final_edges), "replayed swaps do not reach the final edges")
    added = set().union(*(record.added for record in trace.records))
    require(added == sol, "interval records do not add up to the final edges")


# ---------------------------------------------------------------- exact-ratio


@dataclass
class ExactItem:
    doc: dict[str, Any]
    inst: ParityInstance
    shift_seeds: list[int]
    best_seed: int
    matroids: list[Any] = field(default_factory=list)  # intersection instances only
    reference: Fraction | None = None  # optimum weight computed apart from the op
    traces_verified: bool = False


class ExactRatio:
    """One op: one small instance through the ``mpls bench`` flow."""

    name = "exact-ratio"
    FAMILIES = (
        ("set-packing", {"n": 12, "m": 20, "k": 3}),
        ("graphic-parity", {"n": 6, "m": 20, "k": 3}),
        ("k-mi-partition", {"n": 18, "k": 3}),
    )
    PER_KIND = 30
    SHIFTS = 3  # single draws per swap rule; also the best_of_runs run count
    INTERSECTION_ELEMENTS = 14
    GRAPH_VERTICES = 6
    LINEAR_PRIME = 3
    LINEAR_DIM = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, api: Api) -> list[ExactItem]:
        rng = random.Random(f"{self.name}:{self.seed}")
        items: list[ExactItem] = []
        for family, params in self.FAMILIES:
            for _ in range(self.PER_KIND):
                doc = api.build_doc(family, seed=rng.getrandbits(32), **params)
                inst = api.wrap_instance(doc.normalize())
                items.append(self._item(rng, checker_doc(doc), inst))
        for _ in range(self.PER_KIND):
            items.append(self._intersection(api, rng))
        return items

    def _item(self, rng: random.Random, doc: dict[str, Any], inst: ParityInstance, **extra: Any) -> ExactItem:
        shifts = [rng.getrandbits(63) for _ in range(self.SHIFTS)]
        return ExactItem(doc, inst, shifts, rng.getrandbits(63), **extra)

    def _intersection(self, api: Api, rng: random.Random) -> ExactItem:
        """Graphic, GF(3) linear and partition matroids on one ground set."""
        n, v = self.INTERSECTION_ELEMENTS, self.GRAPH_VERTICES
        graph_edges = []
        for _ in range(n):
            a, b = rng.randrange(v), rng.randrange(v - 1)
            graph_edges.append([a, b + (b >= a)])
        columns = [[rng.randrange(self.LINEAR_PRIME) for _ in range(self.LINEAR_DIM)] for _ in range(n)]
        partition = api.random_partition_matroids(n, 1, rng.getrandbits(32))[0]
        weights = [Fraction(rng.randint(0, 9999), 100) for _ in range(n)]
        matroids = [
            GraphicMatroid(v, [tuple(e) for e in graph_edges]),
            LinearMatroid(self.LINEAR_PRIME, columns),
            partition,
        ]
        inst = api.wrap_instance(api.from_matroid_intersection(matroids, weights))
        doc = {
            "matroids": [
                {"family": "graphic", "vertices": v, "edges": graph_edges},
                {"family": "linear", "field_prime": self.LINEAR_PRIME, "columns": columns},
                {
                    "family": "partition",
                    "blocks": [sorted(b) for b in partition.blocks],
                    "capacities": list(partition.capacities),
                },
            ],
            "weights": weights,
        }
        return self._item(rng, doc, inst, matroids=matroids)

    def prepare(self, items: list[ExactItem]) -> None:
        pass

    def run(self, api: Api, item: ExactItem) -> Any:
        inst = item.inst
        optimum = api.brute_force_optimum(inst)
        singles = [
            api.sliding_local_search(inst, DEFAULT_EPSILON, DEFAULT_DELTA, s, rule)
            for s in item.shift_seeds
            for rule in RULES
        ]
        best = api.best_of_runs(
            inst, DEFAULT_EPSILON, DEFAULT_DELTA, self.SHIFTS, item.best_seed, FIRST_LEX,
            max_workers=POOL_WORKERS,
        )
        return optimum, singles, best, api.greedy(inst)

    def check(self, item: ExactItem, out: Any) -> list[tuple[Fraction, Fraction]]:
        result, singles, best, greedy = out
        doc, k = item.doc, item.inst.arity
        if item.reference is None:
            own = checker.max_weight(doc)
            if item.matroids:
                direct = exact.brute_force_intersection(item.matroids, doc["weights"])
                require(direct.weight == own, f"intersection enumeration gives {direct.weight}, checker {own}")
            item.reference = own
        opt = require_solution(doc, result.optimum, "optimum")
        require(opt == item.reference, f"optimum {opt} differs from the enumerated {item.reference}")
        samples = []
        for i, (sol, trace) in enumerate(singles):
            w = require_solution(doc, sol, f"sliding run {i}")
            require(w <= opt, f"sliding run {i} exceeds the optimum")
            require(k * w >= opt, f"sliding run {i} is below optimum / {k}")
            if not item.traces_verified:
                require(exact.verify_local_optimum(item.inst, trace), f"sliding run {i} is not locally optimal")
            samples.append((ratio(w, opt), w))
        item.traces_verified = True
        w = require_solution(doc, best, "best-of-runs solution")
        require(w <= opt and k * w >= opt, "best-of-runs solution outside [optimum / k, optimum]")
        w = require_solution(doc, greedy, "greedy solution")
        require(w <= opt, "greedy solution exceeds the optimum")
        return samples


# ---------------------------------------------------------------- audit


@dataclass
class AuditItem:
    doc: dict[str, Any]
    inst: ParityInstance
    trace: SolverTrace
    optimum: Solution
    corrupted: SolverTrace | None = None
    signature: str = ""
    text: str | None = None  # serialised trace, once the first audit has been checked


class Audit:
    """One op: one solver trace audited as ``mpls verify trace`` does, plus a corrupted copy."""

    name = "audit"
    FAMILIES = (
        ("set-packing", {"n": 10, "m": 10, "k": 3}),
        ("graphic-parity", {"n": 5, "m": 10, "k": 3}),
        ("k-mi-partition", {"n": 10, "k": 3}),
    )
    PER_FAMILY = 60

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, api: Api) -> list[AuditItem]:
        rng = random.Random(f"{self.name}:{self.seed}")
        items: list[AuditItem] = []
        for family, params in self.FAMILIES:
            for _ in range(self.PER_FAMILY):
                doc = api.build_doc(family, seed=rng.getrandbits(32), **params)
                inst = api.wrap_instance(doc.normalize())
                optimum = api.brute_force_optimum(inst).optimum
                for rule in RULES:
                    _, trace = api.sliding_local_search(
                        inst, DEFAULT_EPSILON, DEFAULT_DELTA, rng.getrandbits(63), rule
                    )
                    # A degenerate or empty run leaves nothing to audit or corrupt.
                    if trace.scheme is not None and trace.final_weight > 0:
                        items.append(AuditItem(checker_doc(doc), inst, trace, optimum))
        return items

    def prepare(self, items: list[AuditItem]) -> None:
        for item in items:
            item.corrupted = corrupt(item.trace, item.inst.weights)
            item.signature = serialization.instance_signature(item.inst)

    def run(self, api: Api, item: AuditItem) -> Any:
        text = api.dumps_canonical(api.trace_to_json_obj(item.trace))
        back = api.trace_from_json_obj(json.loads(text))
        local = api.verify_local_optimum(item.inst, back)
        conflict = api.build_conflict_trace(item.inst, back, item.optimum, DEFAULT_GAMMA)
        problems = api.verify_conflict_trace(conflict)
        refuted = not api.verify_local_optimum(item.inst, item.corrupted)
        return text, back, local, conflict, problems, refuted

    def check(self, item: AuditItem, out: Any) -> list[tuple[Fraction, Fraction]]:
        text, back, local, conflict, problems, refuted = out
        trace = item.trace
        require(back == trace, "JSON round trip changed the trace")
        require(back.instance_signature == item.signature, "round-tripped signature differs")
        require(local, "genuine trace rejected")
        require(not problems, f"conflict trace problems: {problems}")
        require(conflict.singles_weight() <= trace.final_weight,
                "singly-blocked optimum weight exceeds the solution weight")
        require(refuted, "corrupted trace accepted")
        if item.text is not None:
            require(text == item.text, "a repeated serialisation gave a different text")
            return []
        require(serialization.dumps_canonical(solver.trace_to_json_obj(back)) == text,
                "re-serialising the round-tripped trace changed its text")
        achieved = require_solution(item.doc, Solution(trace.final_edges, trace.final_weight), "traced solution")
        opt = require_solution(item.doc, item.optimum, "optimum")
        require(opt == checker.max_weight(item.doc), "optimum differs from the enumerated one")
        item.text = text
        return [(ratio(achieved, opt), achieved)]


def corrupt(trace: SolverTrace, weights: tuple[Fraction, ...]) -> SolverTrace:
    """Drop the first positive-weight edge from the first record that added one.

    Adding that edge back is then a one-edge improving swap at its own
    interval, so a sound verifier must reject the copy.
    """
    for i, record in enumerate(trace.records):
        for j in record.added:
            if weights[j] > 0:
                records = list(trace.records)
                records[i] = replace(record, added=tuple(e for e in record.added if e != j))
                return replace(trace, records=tuple(records))
    raise ValueError("trace adds no positive-weight edge")


WORKLOADS = {w.name: w for w in (SolveLarge, ExactRatio, Audit)}
