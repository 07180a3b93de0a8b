"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
untraced measurement, then measures again with spans around every call
into the program's layers, and prints the per-layer metrics (per
operation, or per corpus set-up for set-up layers) with the tracing
overhead.  Spans are written to ``bench/out/<workload>.spans``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with a nonzero status and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5  # at least; more while set-up has taken under SETUP_SECONDS
SETUP_SECONDS = 2.0
MIN_ROUNDS = 3
CALIBRATE_EVERY_S = 0.02
REFERENCE_STEPS = 15000
REFERENCE_KERNEL_S = 0.001
MAX_REPORTED_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "mean_ratio": "ratio",
    "mean_weight": "weight",
}
# Per-layer metrics: name -> (span name, field, unit).  Spans are summed
# over the timed operations and divided by their number.
PER_OP_SPANS = {
    "matroids.is_independent.calls": ("matroids.is_independent", "calls", "calls/op"),
    "matroids.is_independent.self_s": ("matroids.is_independent", "self", "s/op"),
    "solver.sliding_local_search.s": ("solver.sliding_local_search", "total", "s/op"),
    "solver.sliding_local_search.self_s": ("solver.sliding_local_search", "self", "s/op"),
    "solver.best_of_runs.s": ("solver.best_of_runs", "total", "s/op"),
    "solver.greedy.s": ("solver.greedy", "total", "s/op"),
    "exact.brute_force_optimum.self_s": ("exact.brute_force_optimum", "self", "s/op"),
    "exact.verify_local_optimum.self_s": ("exact.verify_local_optimum", "self", "s/op"),
    "exchange.build_conflict_trace.s": ("exchange.build_conflict_trace", "total", "s/op"),
    "exchange.verify_conflict_trace.s": ("exchange.verify_conflict_trace", "total", "s/op"),
    "serialization.instance_signature.calls": ("serialization.instance_signature", "calls", "calls/op"),
    "serialization.instance_signature.s": ("serialization.instance_signature", "total", "s/op"),
    "solver.trace_to_json_obj.s": ("solver.trace_to_json_obj", "total", "s/op"),
    "solver.trace_from_json_obj.s": ("solver.trace_from_json_obj", "total", "s/op"),
}
# Counts taken from the program's results, per operation.
PER_OP_COUNTS = {
    "solver.oracle_calls": "calls/op",
    "solver.swaps": "swaps/op",
    "exact.explored": "nodes/op",
    "serialization.dumps_canonical.bytes": "B/op",
}
# Span totals of one traced corpus set-up.
PER_SETUP_SPANS = {
    "generators.build_doc.s": "generators.build_doc",
    "instance.make_disjoint.s": "instance.make_disjoint",
    "instance.from_matroid_intersection.s": "instance.from_matroid_intersection",
    "solver.scale_weights.s": "solver.scale_weights",
}


def load_program() -> None:
    """Import ``mpls`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import mpls
    except ImportError as exc:
        sys.exit(f"bench: cannot import the program from {SRC}: {exc}")
    if SRC not in Path(mpls.__file__).resolve().parents:
        sys.exit(f"bench: imported mpls from {mpls.__file__}, not from {SRC}")


def reference_kernel() -> int:
    """Fixed pure-Python work, apart from the program, that tracks host speed."""
    total = 0
    for i in range(REFERENCE_STEPS):
        total += i * i % 7
    return total


class HostClock:
    """Converts measured host seconds into reference seconds.

    This host's speed swings by up to 1.6x for minutes at a time, which
    no number of repetitions averages away.  So the reference kernel is
    timed at least every ``CALIBRATE_EVERY_S`` of measured time, and every
    measurement is divided by the latest kernel time: a reference second
    is the time the host needs for the kernel's work times
    ``1 / REFERENCE_KERNEL_S``, so the kernel takes 1 ms by definition.
    """

    def __init__(self) -> None:
        self.kernels: list[float] = []
        self._since = math.inf

    def calibrate(self) -> float:
        start = perf_counter()
        reference_kernel()
        self.kernels.append(perf_counter() - start)
        self._since = 0.0
        return self.kernels[-1]

    def kernel(self) -> float:
        """The latest kernel time, refreshed when it has grown stale."""
        return self.calibrate() if self._since >= CALIBRATE_EVERY_S else self.kernels[-1]

    def spent(self, elapsed: float) -> None:
        self._since += elapsed


def reference_seconds(elapsed: float, kernel: float) -> float:
    return elapsed * REFERENCE_KERNEL_S / kernel


class Loop:
    """Whole rounds over the corpus until ``seconds`` of operation time.

    An item's time is the median of its repetitions in reference
    seconds, over at least ``MIN_ROUNDS`` rounds.
    """

    def __init__(self, workload: Any, api: Any, items: list[Any], seconds: float, clock: HostClock):
        self.clock = clock
        self.times: list[list[tuple[float, float]]] = [[] for _ in items]  # (elapsed, kernel)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.samples: list[tuple[Fraction, Fraction]] = []
        self.rounds = 0
        while self.rounds < MIN_ROUNDS or self.busy < seconds:
            for index, item in enumerate(items):
                self._one(workload, api, index, item)
            self.rounds += 1

    def _one(self, workload: Any, api: Any, index: int, item: Any) -> None:
        kernel = self.clock.kernel()
        self.attempted += 1
        start = perf_counter()
        try:
            out = api.op(lambda: workload.run(api, item))
        except Exception:
            self._account(perf_counter() - start)
            self._fail("operation raised")
            return
        elapsed = perf_counter() - start
        self._account(elapsed)
        try:
            samples = workload.check(item, out)
        except Exception:
            self._fail("check failed")
            return
        self.times[index].append((elapsed, kernel))
        if self.rounds == 0:
            self.samples.extend(samples)

    def _account(self, elapsed: float) -> None:
        self.busy += elapsed
        self.clock.spent(elapsed)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"bench: op {self.attempted}: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    @property
    def latencies(self) -> list[float]:
        """Median reference time of every item that succeeded at least once."""
        return [
            statistics.median(reference_seconds(e, k) for e, k in reps)
            for reps in self.times
            if reps
        ]

    @property
    def throughput(self) -> float:
        latencies = self.latencies
        return len(latencies) / sum(latencies) if latencies else 0.0

    @property
    def host_throughput(self) -> float:
        """Completed operations over their unconverted host seconds."""
        return (self.attempted - self.failed) / self.busy


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def mean(values: list[Fraction]) -> float:
    return float(sum(values, Fraction(0)) / len(values))


def end_to_end(workload: Any, seconds: float) -> dict[str, Any]:
    from tracer import Api

    api = Api.untraced()
    clock = HostClock()
    setup_times: list[float] = []  # reference seconds
    host_setup = 0.0
    items: list[Any] = []
    while len(setup_times) < SETUP_REPEATS or host_setup < SETUP_SECONDS:
        items = []  # release the previous corpus before building the next
        gc.collect()
        before = clock.calibrate()
        start = perf_counter()
        items = workload.setup(api)
        elapsed = perf_counter() - start
        host_setup += elapsed
        setup_times.append(reference_seconds(elapsed, (before + clock.calibrate()) / 2))
    workload.prepare(items)
    loop = Loop(workload, api, items, seconds, clock)
    latencies = loop.latencies
    values = dict.fromkeys(END_TO_END, 0.0)  # what is left when no operation succeeded
    correct = len(latencies) >= 2 and bool(loop.samples)
    if correct:
        values.update(
            throughput_ops_per_s=loop.throughput,
            op_p50_ms=1000 * statistics.median(latencies),
            op_p90_ms=1000 * statistics.quantiles(latencies, n=10)[8],
            mean_ratio=mean([r for r, _ in loop.samples]),
            mean_weight=mean([w for _, w in loop.samples]),
        )
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: metric(value, END_TO_END[name]) for name, value in values.items()}
    print(f"bench: {loop.rounds} rounds, {len(setup_times)} set-ups; reference kernel "
          f"{1000 * min(clock.kernels):.3f} to {1000 * max(clock.kernels):.3f} ms, median "
          f"{1000 * statistics.median(clock.kernels):.3f} ms; all repetitions "
          f"{loop.host_throughput:.2f} ops per host second", file=sys.stderr)
    return result(loop, metrics, correct=correct)


def per_layer(workload: Any, seconds: float) -> dict[str, Any]:
    from tracer import Api, Tracer, rebound

    api = Api.untraced()
    items = workload.setup(api)
    workload.prepare(items)
    plain = Loop(workload, api, items, seconds, HostClock())
    items = []
    gc.collect()

    tracer = Tracer()
    traced_api = Api.traced(tracer)
    with rebound(tracer):
        with tracer.recording():
            items = workload.setup(traced_api)
        at_setup = tracer.snapshot()
        workload.prepare(items)
        loop = Loop(workload, traced_api, items, seconds, HostClock())
    ops = loop.attempted
    spent = tracer.snapshot().minus(at_setup)

    metrics = {}
    for name, (span, field, unit) in PER_OP_SPANS.items():
        metrics[name] = metric(spent.field(span, field) / ops, unit)
    for name, unit in PER_OP_COUNTS.items():
        metrics[name] = metric(spent.counts.get(name, 0.0) / ops, unit)
    calls = spent.counts.get("solver.oracle_calls", 0.0)
    swaps = spent.counts.get("solver.swaps", 0.0)
    metrics["solver.swaps_per_oracle_call"] = metric(swaps / calls if calls else 0.0, "ratio")
    for name, span in PER_SETUP_SPANS.items():
        metrics[name] = metric(at_setup.field(span, "total"), "s/setup")
    ratio = loop.throughput / plain.throughput if plain.throughput else 0.0
    metrics["tracing.throughput_ratio"] = metric(ratio, "ratio")

    shares = spent.self_shares()
    print("bench: self-time shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}),
          file=sys.stderr)
    if plain.host_throughput:
        print(f"bench: traced / untraced throughput in host seconds "
              f"{loop.host_throughput / plain.host_throughput:.4f}", file=sys.stderr)
    tracer.write(HERE / "out" / f"{workload.name}.spans")
    return result(loop, metrics, correct=bool(loop.samples) and bool(plain.samples),
                  attempted=plain.attempted, failed=plain.failed)


def result(loop: Loop, metrics: dict[str, Any], correct: bool, attempted: int = 0, failed: int = 0) -> dict[str, Any]:
    return {
        "correct": correct,
        "attempted": loop.attempted + attempted,
        "failed": loop.failed + failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    measure = per_layer if args.trace else end_to_end
    print(json.dumps(measure(workload, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
