"""Spans around calls into the program's layers, recorded from outside.

Nothing in the program is edited.  The traced run builds an ``Api`` whose
functions are wrapped in spans, hands every instance a delegating
``TracedOracle`` through the public ``ParityInstance`` constructor, and
rebinds the module attributes through which one layer reaches another
(``instance_signature`` in the solver, exact and exchange modules,
``make_disjoint`` in serialization).  ``Api.untraced()`` gives the same
functions unwrapped, for the runs that measure end-to-end metrics.

A span is (id, parent id, name id, start, end), kept in one flat
``array('d')`` and written when the run ends.  Self time (a span's
duration minus the time its child spans cover) is summed online, per
name, as spans close.  Spans opened in a pool thread of
``best_of_runs`` take the innermost open span of the main thread as
parent; they overlap in wall time, so that parent's own self time is
not meaningful and is not reported.
"""

from __future__ import annotations

import json
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from mpls import exact, exchange, generators, instance, serialization, solver
from mpls.instance import ParityInstance
from mpls.matroids import MatroidOracle

SPAN_FIELDS = ("id", "parent", "name", "start", "end")

# Cross-layer references that the program resolves through a module
# attribute at call time: (module, attribute, span name).
REBOUND = (
    (solver, "instance_signature", "serialization.instance_signature"),
    (exact, "instance_signature", "serialization.instance_signature"),
    (exchange, "instance_signature", "serialization.instance_signature"),
    (serialization, "make_disjoint", "instance.make_disjoint"),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._lock = threading.Lock()  # pool threads of best_of_runs share the totals
        self._local = threading.local()
        self._main_stack: list[list[float]] = []
        self._local.stack = self._main_stack

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._name_ids[name]

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[[dict[str, float], Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around each call while active."""
        nid = self.name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else None
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            frame = [sid, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                with self._lock:
                    self.spans.extend(
                        (sid, -1.0 if parent is None else parent[0], nid, start, end)
                    )
                    self.calls[nid] += 1
                    self.total_s[nid] += duration
                    self.self_s[nid] += duration - frame[1]
                    if parent is not None:
                        parent[1] += duration
            if count is not None:
                with self._lock:
                    count(self.counts, result)
            return result

        return traced

    @contextmanager
    def recording(self) -> Iterator[None]:
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def snapshot(self) -> "Totals":
        with self._lock:
            spans = {
                name: (self.calls[nid], self.total_s[nid], self.self_s[nid])
                for nid, name in enumerate(self.names)
            }
            return Totals(spans, dict(self.counts))

    def write(self, path: Path) -> None:
        """Header line (JSON), then the spans as native float64 rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"fields": SPAN_FIELDS, "names": self.names, "spans": len(self.spans) // 5}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            self.spans.tofile(fh)


@dataclass
class Totals:
    """Per-name span totals (calls, seconds, self seconds) and result counts."""

    spans: dict[str, tuple[int, float, float]]
    counts: dict[str, float]

    FIELDS = ("calls", "total", "self")

    def minus(self, earlier: "Totals") -> "Totals":
        spans = {
            name: tuple(a - b for a, b in zip(now, earlier.spans.get(name, (0, 0.0, 0.0))))
            for name, now in self.spans.items()
        }
        counts = {name: v - earlier.counts.get(name, 0.0) for name, v in self.counts.items()}
        return Totals(spans, counts)

    def field(self, name: str, field: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[self.FIELDS.index(field)]

    def self_shares(self) -> dict[str, float]:
        """Share of all self time spent in each module's spans."""
        by_module: dict[str, float] = defaultdict(float)
        for name, (_, _, own) in self.spans.items():
            by_module[name.split(".")[0]] += own
        total = sum(by_module.values()) or 1.0
        return {m: own / total for m, own in sorted(by_module.items())}


class TracedOracle(MatroidOracle):
    """Delegates every independence query to ``base`` inside a span."""

    __slots__ = ("base", "_query")

    def __init__(self, base: MatroidOracle, tracer: Tracer):
        super().__init__(base.ground)
        self.base = base
        self._query = tracer.wrap("matroids.is_independent", base.is_independent)

    def is_independent(self, subset: Any) -> bool:
        return self._query(subset)

    @property
    def calls(self) -> int:
        return self.base.calls


def _count_run(counts: dict[str, float], result: Any) -> None:
    trace = result[1]
    counts["solver.oracle_calls"] += trace.oracle_calls
    counts["solver.swaps"] += sum(len(r.swaps) for r in trace.records)


def _count_explored(counts: dict[str, float], result: Any) -> None:
    counts["exact.explored"] += result.explored


def _count_bytes(counts: dict[str, float], result: str) -> None:
    counts["serialization.dumps_canonical.bytes"] += len(result.encode("utf-8"))


# Public functions the workloads call: (attribute, module, span name, counter).
CALLS = (
    ("build_doc", generators, "generators.build_doc", None),
    ("random_partition_matroids", generators, "generators.random_partition_matroids", None),
    ("from_matroid_intersection", instance, "instance.from_matroid_intersection", None),
    ("scale_weights", solver, "solver.scale_weights", None),
    ("sliding_local_search", solver, "solver.sliding_local_search", _count_run),
    ("best_of_runs", solver, "solver.best_of_runs", None),
    ("greedy", solver, "solver.greedy", None),
    ("trace_to_json_obj", solver, "solver.trace_to_json_obj", None),
    ("trace_from_json_obj", solver, "solver.trace_from_json_obj", None),
    ("brute_force_optimum", exact, "exact.brute_force_optimum", _count_explored),
    ("verify_local_optimum", exact, "exact.verify_local_optimum", None),
    ("build_conflict_trace", exchange, "exchange.build_conflict_trace", None),
    ("verify_conflict_trace", exchange, "exchange.verify_conflict_trace", None),
    ("dumps_canonical", serialization, "serialization.dumps_canonical", _count_bytes),
)


@dataclass
class Api:
    """The program's functions as the workloads call them."""

    fns: dict[str, Callable[..., Any]]
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if self.tracer is not None:
            self._op_span = self.tracer.wrap("bench.op", lambda fn: fn())

    def __getattr__(self, name: str) -> Callable[..., Any]:
        try:
            return self.fns[name]
        except KeyError:
            raise AttributeError(name) from None

    @classmethod
    def untraced(cls) -> "Api":
        return cls({attr: getattr(module, attr) for attr, module, _, _ in CALLS})

    @classmethod
    def traced(cls, tracer: Tracer) -> "Api":
        return cls(
            {
                attr: tracer.wrap(name, getattr(module, attr), count)
                for attr, module, name, count in CALLS
            },
            tracer,
        )

    def wrap_instance(self, inst: ParityInstance) -> ParityInstance:
        if self.tracer is None:
            return inst
        return ParityInstance(
            num_vertices=inst.num_vertices,
            edges=inst.edges,
            weights=inst.weights,
            matroid=TracedOracle(inst.matroid, self.tracer),
            arity=inst.arity,
        )

    def op(self, fn: Callable[[], Any]) -> Any:
        """Run one operation, recording spans inside it when traced."""
        if self.tracer is None:
            return fn()
        with self.tracer.recording():
            return self._op_span(fn)


@contextmanager
def rebound(tracer: Tracer) -> Iterator[None]:
    """Route cross-layer module attributes through spans, then restore them."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in REBOUND]
    try:
        for module, attr, name in REBOUND:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
