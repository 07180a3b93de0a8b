"""Fuzzing the command line with mutated instance documents and flags,
and the trace loader, verifier and conflict trace with mutated traces.

Every command line case must exit 0, or exit 1 with exactly one
``mpls: error:`` line on stderr: no traceback and no violation exit,
whatever the input.  Sizes are drawn either small or far past
``MAX_VERTICES``, so no case builds much or runs for long.  A mutated
trace is loaded or refused with ``FormatError``; a loaded one is judged
or refused only with the errors each function declares, and the
conflict trace refuses it exactly when ``check_trace`` does.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mpls.cli import DEFAULT_DELTA, DEFAULT_EPSILON, DEFAULT_GAMMA, main
from mpls.exact import (
    TraceMismatch,
    TraceRefuted,
    brute_force_optimum,
    check_trace,
    verify_local_optimum,
)
from mpls.exchange import ConflictTraceError, ExchangeInputError, build_conflict_trace
from mpls.generators import build_doc, generate
from mpls.serialization import FormatError, format_fraction
from mpls.solver import SolverTrace, sliding_local_search, trace_from_json_obj, trace_to_json_obj

# Stands for an integer too long for Python to parse; it is swapped into
# the file text, since ``json.dumps`` cannot write such an integer either.
LONG_INTEGER = "<long integer>"

BASE_DOCS = [
    build_doc("set-packing", n=6, m=5, k=3, seed=1).to_json_obj(),
    build_doc("graphic-parity", n=4, m=5, k=2, seed=2).to_json_obj(),
    build_doc("k-mi-partition", n=4, k=2, seed=3).to_json_obj(),
    build_doc("greedy-trap", k=2).to_json_obj(),
    {
        "k": 2,
        "vertices": 4,
        "edges": [{"verts": [0, 1], "w": "3/2"}, {"verts": [2, 3], "w": "1"}],
        # 41 and 43 have no inverse modulo the composite moduli drawn below.
        "matroid": {"family": "linear", "field_prime": 3, "columns": [[41, 0], [0, 1], [1, 1], [43, 2]]},
        "name": "linear",
    },
    {
        "k": 1,
        "vertices": 3,
        "edges": [{"verts": [v], "w": str(v + 1)} for v in range(3)],
        "matroid": {"family": "uniform", "n": 3, "r": 2},
        "name": "uniform",
    },
]

COUNTS = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([100_001, 10**9, 10**18, -(10**9), LONG_INTEGER]),
)
WEIGHTS = st.sampled_from(
    [
        "1/3", "0.35", "-1", "1/0", "nan", "inf", "x", "", "1e400", "1e-1001", "1e-900",
        f"1/{2**3001}", str(2**3001), f"{2**2999}/3", "0x10", "1_000",
    ]
)
MODULI = st.sampled_from([1681, 1763, 4, 1, 0, -7, 65521, 65537, 2**61 - 1, 3])
FAMILIES = st.sampled_from(["free", "uniform", "partition", "graphic", "linear", "cubic", "", None])
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    COUNTS,
    WEIGHTS,
    st.sampled_from([0.5, -1.5, 1e300, float("inf"), float("nan")]),
    st.lists(st.integers(-2, 6), max_size=4),
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["verts", "w", "family", "n"]), st.integers(-1, 3), max_size=2),
)
MATROID_KEYS = ["family", "n", "r", "field_prime", "columns", "blocks", "capacities", "vertices", "edges"]


def mutate(data, doc):
    """Apply one drawn mutation to ``doc`` in place; may return a new root."""
    kind = data.draw(st.sampled_from(["top", "drop", "edge", "weight", "matroid", "root"]))
    if kind == "root":
        return data.draw(JUNK)
    if not isinstance(doc, dict):
        return doc
    if kind == "top":
        doc[data.draw(st.sampled_from(["k", "vertices", "edges", "matroid", "name"]))] = data.draw(
            st.one_of(COUNTS, JUNK)
        )
    elif kind == "drop":
        doc.pop(data.draw(st.sampled_from(["k", "vertices", "edges", "matroid", "name"])), None)
    elif kind in ("edge", "weight"):
        edges = doc.get("edges")
        if isinstance(edges, list) and edges:
            edge = edges[data.draw(st.integers(0, len(edges) - 1))]
            if isinstance(edge, dict):
                if kind == "weight":
                    edge["w"] = data.draw(WEIGHTS)
                else:
                    edge[data.draw(st.sampled_from(["verts", "w"]))] = data.draw(JUNK)
    else:
        matroid = doc.get("matroid")
        if isinstance(matroid, dict):
            key = data.draw(st.sampled_from(MATROID_KEYS))
            if key == "family":
                matroid[key] = data.draw(FAMILIES)
            elif key == "field_prime":
                matroid[key] = data.draw(MODULI)
            else:
                matroid[key] = data.draw(JUNK)
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    code, out, err = run_main(argv)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert code == 1, (argv, code, err)
        assert out == "", (argv, out)
        assert err.startswith("mpls: error: ") and err.count("\n") == 1, (argv, err)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_zero_or_one_with_one_error_line(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(BASE_DOCS))))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data, doc)
    text = json.dumps(doc).replace(json.dumps(LONG_INTEGER), "1" + "0" * 5000)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(text, encoding="utf-8")
        assert_clean_exit(["exact", str(path)])
        assert_clean_exit(["solve", str(path), "--no-scale"])


SIZE_FLAGS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["100001", "1000000", "1000000000", "1" + "0" * 5000, "1.5", "x", ""]),
)
RATIO_FLAGS = st.sampled_from(
    ["0", "1/2", "0.5", "-0.1", "1", "2", "nan", "inf", "x", "", "1e-9", "1e-1000000000", "0.49", "1/3"]
)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["greedy-trap", "set-packing", "graphic-parity", "k-mi-partition"]),
    sizes=st.dictionaries(st.sampled_from(["--k", "--n", "--m"]), SIZE_FLAGS),
    ratios=st.dictionaries(st.sampled_from(["--epsilon", "--delta"]), RATIO_FLAGS),
)
def test_out_of_range_generator_and_solver_flags_exit_zero_or_one(family, sizes, ratios):
    source = ["--gen", family]
    for flag, value in sizes.items():
        source += [flag, value]
    solver = []
    for flag, value in ratios.items():
        solver += [flag, value]
    assert_clean_exit(["exact", *source])
    assert_clean_exit(["solve", *source, *solver, "--no-scale"])


VERIFY_COUNTS = st.one_of(
    st.integers(-2, 40).map(str),
    st.sampled_from(["1.5", "x", "", "0x10", "1" + "0" * 5000]),
)
SEEDS = st.one_of(
    st.integers(-(10**9), 10**9).map(str),
    st.sampled_from(
        [str(2**64), "-" + str(2**64), "1" + "0" * 4000, "1" + "0" * 5000, "1.5", "x", ""]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    what=st.sampled_from(["rota", "laminar", "trace", "badprob"]),
    count=VERIFY_COUNTS,
    seed=SEEDS,
)
def test_verify_count_and_seed_flags_exit_zero_or_one(what, count, seed):
    if what == "badprob":  # it takes a generator seed and no count
        source = ["--gen", "set-packing", "--n", "7", "--m", "6"]
        assert_clean_exit(["verify", what, *source, "--seed", seed])
    else:
        assert_clean_exit(["verify", what, "--count", count, "--seed", seed])


def _trace_case(family, **params):
    inst = generate(family, **params)
    _, trace = sliding_local_search(inst, DEFAULT_EPSILON, DEFAULT_DELTA, 0)
    return inst, trace_to_json_obj(trace), brute_force_optimum(inst).optimum


TRACE_CASES = [
    _trace_case("set-packing", n=9, m=8, k=2, seed=5),
    _trace_case("graphic-parity", n=6, m=9, k=2, seed=2),
    _trace_case("k-mi-partition", n=6, k=3, seed=2),
]
TRACE_KEYS = [
    "instance_signature", "epsilon", "delta", "seed", "tau", "rule", "scheme",
    "record_layout", "records", "final_weight",
]
RECORD_KEYS = ["index", "added", "swaps", "oracle_calls"]
EDGE_IDS = st.one_of(st.integers(-2, 9), st.sampled_from([99, 10**6, -(10**9)]))
TRACE_VALUES = st.one_of(
    JUNK,
    WEIGHTS,
    st.lists(EDGE_IDS, max_size=4),
    st.sampled_from(["0.3873", "0.0001", "0", "1/3", "0.49", "first-lex", "best-gain", "occupied"]),
)


def mutate_trace(data, obj, weights):
    """Apply one drawn mutation to a trace object in place; may return a new root."""
    kind = data.draw(
        st.sampled_from(["top", "drop", "scheme", "record", "added", "swap", "records", "root"])
    )
    if kind == "root":
        return data.draw(JUNK)
    if not isinstance(obj, dict):
        return obj
    if kind == "top":
        obj[data.draw(st.sampled_from(TRACE_KEYS))] = data.draw(TRACE_VALUES)
    elif kind == "drop":
        obj.pop(data.draw(st.sampled_from(TRACE_KEYS)), None)
    elif kind == "scheme":
        if isinstance(obj.get("scheme"), dict):
            key = data.draw(st.sampled_from(["max_feasible_weight", "levels"]))
            obj["scheme"][key] = data.draw(
                st.one_of(st.sampled_from(weights), st.integers(-2, 30), COUNTS, TRACE_VALUES)
            )
    else:
        records = obj.get("records")
        if not isinstance(records, list) or not records:
            return obj
        i = data.draw(st.integers(0, len(records) - 1))
        record = records[i]
        if kind == "records":
            move = data.draw(st.sampled_from(["drop", "repeat", "swap"]))
            if move == "drop":
                del records[i]
            elif move == "repeat":
                records.insert(i, json.loads(json.dumps(record)))
            else:
                records[i], records[-1] = records[-1], records[i]
        elif isinstance(record, dict):
            if kind == "record":
                record[data.draw(st.sampled_from(RECORD_KEYS))] = data.draw(
                    st.one_of(st.integers(-2, 30), TRACE_VALUES)
                )
            elif kind == "added":
                if isinstance(record.get("added"), list):
                    record["added"].append(data.draw(EDGE_IDS))
            elif isinstance(record.get("swaps"), list) and record["swaps"]:
                swap = data.draw(st.sampled_from(record["swaps"]))
                if isinstance(swap, dict):
                    key = data.draw(st.sampled_from(["add", "remove", "gain"]))
                    if key == "gain":
                        values = st.one_of(st.sampled_from(weights), WEIGHTS, JUNK)
                    else:
                        values = st.one_of(st.lists(EDGE_IDS, min_size=1, max_size=3), JUNK)
                    swap[key] = data.draw(values)
    return obj


@settings(max_examples=800, deadline=None)
@given(data=st.data())
def test_mutated_traces_load_verify_and_explain_or_raise_declared_errors(data):
    inst, genuine, optimum = data.draw(st.sampled_from(TRACE_CASES))
    obj = json.loads(json.dumps(genuine))
    weights = [format_fraction(w) for w in inst.weights]
    for _ in range(data.draw(st.integers(1, 3))):
        obj = mutate_trace(data, obj, weights)
    try:
        trace = trace_from_json_obj(obj)
    except FormatError:
        return
    assert isinstance(trace, SolverTrace)
    try:
        assert isinstance(verify_local_optimum(inst, trace), bool)
    except TraceMismatch:
        pass
    try:
        check_trace(inst, trace)
        refuted = False
    except (TraceMismatch, TraceRefuted):
        refuted = True
    try:
        build_conflict_trace(inst, trace, optimum, DEFAULT_GAMMA)
        refused = False
    except ExchangeInputError:
        refused = True
    except ConflictTraceError:
        refused = False
    assert refused == refuted
