"""Command line interface.

Subcommands: ``gen`` (write instance documents), ``solve`` (run one
algorithm on one instance), ``bench`` (ratio table over a generated
corpus), ``exact`` (canonical brute-force optimum), and ``verify``
(randomized structural checks: rota, laminar, trace, badprob, k4).

Exit codes: 0 on success, 1 on usage or input errors, 2 when a checked
invariant is violated (approximation floor, exchange existence, trace
soundness, probability bound, witness verification).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import math
import os
import stat
import sys
import time
from contextlib import ExitStack
from fractions import Fraction
from itertools import chain
from typing import IO, Any, Callable, Iterable

from . import campaigns, generators
from .exact import SizeLimitExceeded, brute_force_optimum
from .instance import InstanceError, ParityInstance
from .serialization import (
    FormatError,
    dumps_canonical,
    format_fraction,
    load_instance_doc,
    parse_fraction,
)
from .solver import (
    DEFAULT_DELTA,
    FIRST_LEX,
    SWAP_RULES,
    DegenerateInstanceError,
    LadderBudgetError,
    greedy,
    scale_weights,
    sliding_local_search,
    sliding_runs,
    trace_to_json_obj,
)

USAGE_EXIT = 1
VIOLATION_EXIT = 2

DEFAULT_EPSILON = Fraction("0.3873")
DEFAULT_GAMMA = Fraction("0.2253")
DEFAULT_SCALE_EPSILON = Fraction(1, 10)
# Most shift draws one ``--runs`` may ask for; the runs execute one after
# another, so the time grows with each run.
MAX_RUNS = 10_000


class UsageError(ValueError):
    """A flag value outside the range that other flags allow."""


class _Parser(argparse.ArgumentParser):
    """Bad usage exits 1 with one ``mpls: error:`` line; 2 is kept for violations.

    Flags are spelled in full, so a removed flag such as ``--scale`` is
    refused rather than read as a prefix of ``--scale-epsilon``.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> Any:
        self.exit(USAGE_EXIT, f"mpls: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fraction_in(low: Fraction, high: Fraction) -> Callable[[str], Fraction]:
    """Argument type: a rational strictly between ``low`` and ``high``."""

    def parse(text: str) -> Fraction:
        value = _fraction(text)
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"{text} is not in ({low}, {high})")
        return value

    return parse


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is less than 1")
    return value


def _runs(text: str) -> int:
    value = _at_least_one(text)
    if value > MAX_RUNS:
        raise argparse.ArgumentTypeError(f"{text} is more than {MAX_RUNS}")
    return value


_epsilon = _fraction_in(Fraction(0), Fraction(1, 2))  # the solver's range
_unit = _fraction_in(Fraction(0), Fraction(1))


def _emit(*targets: tuple[str | Iterable[str], str | None]) -> None:
    """Write each ``(text, out)``: a text, or texts one by one as they are
    produced, to stdout for ``None`` or ``-``, else to the file ``out``.

    Every file is opened before any text is written, and no regular file
    is emptied until all are open; if one cannot be opened, the files this
    call made are removed, so a refused target leaves no file and no output.
    """
    with ExitStack() as stack:
        files: list[IO[str]] = []
        made: list[str] = []
        try:
            for _, out in targets:
                if out is None or out == "-":
                    files.append(sys.stdout)
                    continue
                existed = os.path.lexists(out)
                files.append(stack.enter_context(open(out, "a", encoding="utf-8")))
                if not existed:
                    made.append(out)
        except OSError:
            stack.close()
            for path in made:
                os.remove(path)
            raise
        for f, (texts, _) in zip(files, targets):
            if f is not sys.stdout and stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate(0)
            f.writelines((texts,) if isinstance(texts, str) else texts)


def _add_family_args(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument(
        "--gen",
        required=required,
        choices=sorted(generators.FAMILIES),
        help="instance generator family",
    )
    p.add_argument("--k", type=int, help="generator arity")
    p.add_argument("--rho", type=_fraction, help="greedy-trap light-edge discount")
    p.add_argument("--n", type=int, help="generator size (vertices / elements)")
    p.add_argument("--m", type=int, help="generator edge count")


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", nargs="?", help="instance JSON file")
    _add_family_args(p, required=False)


def _family_seeded(family: str) -> bool:
    return "seed" in inspect.signature(generators.FAMILIES[family]).parameters


def _gen_kwargs(args: argparse.Namespace, seed: int | None = None) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for key in ("k", "rho", "n", "m"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if _family_seeded(args.gen):
        params["seed"] = args.seed if seed is None else seed
    return params


def _load_source(args: argparse.Namespace) -> tuple[str, ParityInstance]:
    if args.instance and args.gen:
        raise FormatError("give an instance file or --gen, not both")
    if args.gen:
        doc = generators.build_doc(args.gen, **_gen_kwargs(args))
        return doc.name, doc.normalize()
    if args.instance:
        doc = load_instance_doc(args.instance)
        try:
            return doc.name, doc.normalize()
        except InstanceError as exc:
            raise FormatError(f"invalid instance in {args.instance}: {exc}") from exc
    raise FormatError("an instance file or --gen is required")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
    p.add_argument("--delta", type=_unit, default=DEFAULT_DELTA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--runs", type=_runs, default=1, help="keep the best of N independent shift draws"
    )
    p.add_argument("--swap-rule", choices=sorted(SWAP_RULES), default=FIRST_LEX)
    p.add_argument(
        "--no-scale",
        dest="scale",
        action="store_false",
        help="solve on the exact weights instead of rounding them onto an integer grid",
    )
    p.add_argument("--scale-epsilon", type=_unit, default=DEFAULT_SCALE_EPSILON)


def _ratio_floor(arity: int, scaled: bool, scale_epsilon: Fraction) -> Fraction:
    floor = Fraction(1, arity)
    if scaled:
        floor *= 1 - scale_epsilon
    return floor


def _optimum_weight(inst: ParityInstance) -> Fraction | None:
    """The exact optimum weight, or None when the search passes ``EXACT_BUDGET``."""
    try:
        return brute_force_optimum(inst).optimum.weight
    except SizeLimitExceeded:
        return None


def _fraction_or_none(value: Fraction | None) -> str | None:
    return None if value is None else format_fraction(value)


def cmd_gen(args: argparse.Namespace) -> int:
    # A deterministic family would give the same document for every seed.
    count = args.count if _family_seeded(args.gen) else 1
    texts = (
        dumps_canonical(
            generators.build_doc(args.gen, **_gen_kwargs(args, seed=args.seed + i)).to_json_obj()
        )
        for i in range(count)
    )
    first = next(texts)  # a bad flag fails here, before --out is created
    _emit((chain((first,), texts), args.out))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    if args.trace_out and (args.algo == "greedy" or args.runs > 1):
        raise UsageError("--trace-out writes one sliding run's trace; drop --algo greedy and --runs")
    if args.trace_out and args.out not in (None, "-") and (
        os.path.realpath(args.trace_out) == os.path.realpath(args.out)
    ):
        raise UsageError("--out and --trace-out name the same file")
    name, inst = _load_source(args)
    work = scale_weights(inst, args.scale_epsilon) if args.scale else inst
    algo = args.algo
    if algo == "sliding" and args.runs > 1:
        algo = "best-of-runs"

    start = time.perf_counter()
    tau = None
    swaps = None
    if algo == "greedy":
        chosen = greedy(work)
        calls = work.num_edges  # one query per edge
        seed_used = None
    elif algo == "best-of-runs":
        # The first heaviest run, as best_of_runs picks it.
        calls, chosen = 0, None
        for sol, run in sliding_runs(
            work, args.epsilon, args.delta, args.runs, args.seed, args.swap_rule
        ):
            calls += run.oracle_calls
            if chosen is None or sol.weight > chosen.weight:
                chosen = sol
        seed_used = args.seed
    else:
        chosen, trace = sliding_local_search(
            work, args.epsilon, args.delta, args.seed, args.swap_rule
        )
        calls = trace.oracle_calls
        tau = trace.tau
        swaps = sum(len(r.swaps) for r in trace.records)
        seed_used = args.seed
    wall = time.perf_counter() - start

    achieved = sum((inst.weights[j] for j in chosen.edges), Fraction(0))
    optimum = ratio = None
    status = "ok"
    if args.exact:
        optimum = _optimum_weight(inst)
        if optimum is None:
            status = "skipped"
        else:
            ratio = campaigns.approx_ratio(achieved, optimum)
            if ratio < _ratio_floor(inst.arity, args.scale, args.scale_epsilon):
                status = "ratio-violation"

    obj: dict[str, Any] = {
        "instance": name,
        "algo": algo,
        "seed": seed_used,
        "tau": _fraction_or_none(tau),
        "weight": format_fraction(achieved),
        "optimum": _fraction_or_none(optimum),
        "ratio": _fraction_or_none(ratio),
        "oracle_calls": calls,
        "swaps": swaps,
        "status": status,
    }
    if args.timings:
        obj["wall_time_s"] = wall
    targets = [(dumps_canonical(obj), args.out)]
    if args.trace_out:
        targets.insert(0, (dumps_canonical(trace_to_json_obj(trace)), args.trace_out))
    _emit(*targets)
    return VIOLATION_EXIT if status == "ratio-violation" else 0


def cmd_exact(args: argparse.Namespace) -> int:
    name, inst = _load_source(args)
    try:
        result = brute_force_optimum(inst)
    except SizeLimitExceeded as exc:
        obj: dict[str, Any] = {"instance": name, "status": "skipped", "reason": str(exc)}
        _emit((dumps_canonical(obj), args.out))
        return 0
    obj = {
        "instance": name,
        "status": "ok",
        "weight": format_fraction(result.optimum.weight),
        "edges": sorted(result.optimum.edges),
        "explored": result.explored,
    }
    _emit((dumps_canonical(obj), args.out))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    rows: list[dict[str, str]] = []
    any_violation = False
    for i in range(args.count):
        doc = generators.build_doc(args.gen, **_gen_kwargs(args, seed=args.seed + i))
        inst = doc.normalize()
        work = scale_weights(inst, args.scale_epsilon) if args.scale else inst
        optimum = _optimum_weight(inst)
        status = "skipped" if optimum is None else "ok"

        if args.algo == "greedy":
            solutions = [greedy(work)]
        else:
            runs = sliding_runs(
                work, args.epsilon, args.delta, args.runs, f"bench:{args.seed}:{i}", args.swap_rule
            )
            solutions = [sol for sol, _ in runs]
        ratios: list[Fraction] = []
        floor = _ratio_floor(inst.arity, args.scale, args.scale_epsilon)
        for chosen in solutions:
            achieved = sum((inst.weights[j] for j in chosen.edges), Fraction(0))
            if optimum is not None:
                ratio = campaigns.approx_ratio(achieved, optimum)
                ratios.append(ratio)
                if ratio < floor:
                    status = "ratio-violation"
                    any_violation = True

        k = inst.arity
        row = {
            "instance": doc.name,
            "algo": args.algo,
            "runs": str(len(solutions)),
            "status": status,
            "mean_ratio": "",
            "min_ratio": "",
            "max_ratio": "",
            "floor_k": f"{1 / k:.6f}",
            "floor_910": f"{10 / (9 * (k + 1)):.6f}",
            "floor_2ln2": f"{2 * math.log(2) / (k + 1):.6f}",
        }
        if ratios:
            mean = sum(ratios, Fraction(0)) / len(ratios)
            row["mean_ratio"] = f"{float(mean):.6f}"
            row["min_ratio"] = f"{float(min(ratios)):.6f}"
            row["max_ratio"] = f"{float(max(ratios)):.6f}"
        rows.append(row)
        if not _family_seeded(args.gen):
            break

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit((buf.getvalue(), args.out))
    return VIOLATION_EXIT if any_violation else 0


def cmd_verify(args: argparse.Namespace) -> int:
    what = args.what
    if what == "rota":
        report = campaigns.rota_campaign(args.count, args.seed)
        bad = bool(report["failures"])
    elif what == "laminar":
        report = campaigns.laminar_campaign(args.count, args.seed)
        bad = bool(report["failures"])
    elif what == "trace":
        if args.gamma < 0:
            raise UsageError(f"--gamma {args.gamma} is negative")
        report = campaigns.trace_campaign(
            args.count, args.seed, args.epsilon, args.delta, args.gamma
        )
        bad = bool(report["failures"]) or report["successes"] < args.count
    elif what == "badprob":
        top = 1 / (1 - args.epsilon) - 1
        if not 0 <= args.gamma <= top:
            raise UsageError(
                f"--gamma {args.gamma} is not in [0, {top}] for --epsilon {args.epsilon}"
            )
        _, inst = _load_source(args)
        report = campaigns.near_marker_report(inst, args.epsilon, args.gamma)
        bad = not report["all_within_bound"]
    else:
        report = campaigns.k4_report()
        bad = not report["verified"]
    _emit((dumps_canonical(report), args.out))
    return VIOLATION_EXIT if bad else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mpls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = _Parser(add_help=False)
    out.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen", help="write instance documents", parents=[out])
    _add_family_args(p_gen, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--count", type=_at_least_one, default=1, help="instances (seeds seed..seed+count-1)"
    )
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run one algorithm on one instance", parents=[out])
    _add_source_args(p_solve)
    _add_solver_args(p_solve)
    p_solve.add_argument("--algo", choices=("sliding", "greedy"), default="sliding")
    p_solve.add_argument(
        "--exact", action="store_true", help="also compute the optimum and ratio"
    )
    p_solve.add_argument("--timings", action="store_true", help="include wall time in output")
    p_solve.add_argument("--trace-out", default=None, help="write the solver trace as JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_exact = sub.add_parser("exact", help="canonical brute-force optimum", parents=[out])
    _add_source_args(p_exact)
    p_exact.add_argument("--seed", type=int, default=0)
    p_exact.set_defaults(func=cmd_exact)

    p_bench = sub.add_parser("bench", help="ratio table over a generated corpus", parents=[out])
    _add_family_args(p_bench, required=True)
    _add_solver_args(p_bench)
    p_bench.add_argument("--algo", choices=("sliding", "greedy"), default="sliding")
    p_bench.add_argument("--count", type=_at_least_one, default=5)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="randomized structural checks")
    vsub = p_verify.add_subparsers(dest="what", required=True)
    for name in ("rota", "laminar"):
        p = vsub.add_parser(name, parents=[out])
        p.add_argument("--count", type=_at_least_one, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_verify)
    p_trace = vsub.add_parser("trace", parents=[out])
    p_trace.add_argument("--count", type=_at_least_one, default=25)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
    p_trace.add_argument("--delta", type=_unit, default=DEFAULT_DELTA)
    p_trace.add_argument("--gamma", type=_fraction, default=DEFAULT_GAMMA)
    p_trace.set_defaults(func=cmd_verify)
    p_bad = vsub.add_parser("badprob", parents=[out])
    _add_source_args(p_bad)
    p_bad.add_argument("--seed", type=int, default=0, help="generator seed")
    p_bad.add_argument("--epsilon", type=_unit, default=DEFAULT_EPSILON)
    p_bad.add_argument("--gamma", type=_fraction, default=DEFAULT_GAMMA)
    p_bad.set_defaults(func=cmd_verify)
    p_k4 = vsub.add_parser("k4", parents=[out])
    p_k4.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        FormatError,
        InstanceError,
        LadderBudgetError,
        DegenerateInstanceError,
        SizeLimitExceeded,
        UsageError,
        generators.GeneratorError,
        OSError,
    ) as exc:
        print(f"mpls: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
