import csv
import hashlib
import json
import os
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from mpls import cli, exact
from mpls.cli import DEFAULT_DELTA, DEFAULT_EPSILON, DEFAULT_SCALE_EPSILON, main
from mpls.exact import TraceMismatch, check_trace, verify_local_optimum
from mpls.generators import generate
from mpls.instance import InstanceError
from mpls.serialization import load_instance_doc, parse_fraction
from mpls.serialization import dumps_canonical
from mpls.solver import scale_weights, sliding_local_search, trace_from_json_obj, trace_to_json_obj

GEN_ARGS = ["--gen", "set-packing", "--n", "7", "--m", "6", "--k", "3"]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_gen_then_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", *GEN_ARGS, "--seed", "4", "--out", str(path)]) == 0
    code, out = run(
        capsys, ["solve", str(path), "--no-scale", "--exact", "--seed", "1"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "ok"
    assert rec["algo"] == "sliding"
    assert rec["seed"] == 1
    assert parse_fraction(rec["ratio"]) >= Fraction(1, 3)
    assert parse_fraction(rec["tau"]) < Fraction("0.3873")
    assert rec["oracle_calls"] > 0


def test_solve_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["solve", *GEN_ARGS, "--seed", "2", "--exact", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timings_flag_adds_wall_time(capsys):
    code, out = run(capsys, ["solve", *GEN_ARGS, "--timings"])
    assert code == 0
    rec = json.loads(out)
    assert rec["wall_time_s"] >= 0
    code, out = run(capsys, ["solve", *GEN_ARGS])
    assert "wall_time_s" not in json.loads(out)


def test_gen_count_writes_distinct_documents(capsys):
    code, out = run(capsys, ["gen", *GEN_ARGS, "--count", "3"])
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 3
    assert len({d["name"] for d in docs}) == 3


def test_gen_count_writes_each_seed_in_turn(tmp_path, capsys):
    singles = ""
    for seed in (5, 6, 7):
        code, out = run(capsys, ["gen", *GEN_ARGS, "--seed", str(seed)])
        assert code == 0
        singles += out
    code, out = run(capsys, ["gen", *GEN_ARGS, "--seed", "5", "--count", "3"])
    assert code == 0
    assert out == singles
    path = tmp_path / "three.json"
    assert main(["gen", *GEN_ARGS, "--seed", "5", "--count", "3", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == singles


def test_gen_flag_error_creates_no_file(tmp_path, capsys):
    path = tmp_path / "never.json"
    # 1e-1000 is a rational the flag reads, but 1 - rho is past the loader's weight budget.
    for flags in (["--gen", "set-packing", "--k", "0"], ["--gen", "greedy-trap", "--rho", "1e-1000"]):
        assert main(["gen", *flags, "--out", str(path)]) == 1
        assert not path.exists()
        assert capsys.readouterr().err.count("\n") == 1


def test_gen_memory_does_not_grow_with_count(tmp_path):
    # Each document is written as soon as it is built, so ten times the
    # documents must not take ten times the memory.
    argv = ["gen", "--gen", "set-packing", "--n", "60", "--m", "40", "--k", "3"]
    peaks = {}
    for count in (50, 500):
        tracemalloc.start()
        try:
            assert main([*argv, "--count", str(count), "--out", str(tmp_path / "docs.json")]) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[500] < 1.5 * peaks[50]


def test_gen_collapses_unseeded_families(capsys):
    code, out = run(capsys, ["gen", "--gen", "greedy-trap", "--k", "3", "--count", "5"])
    assert code == 0
    assert len(out.splitlines()) == 1


def test_exact_on_greedy_trap(capsys):
    code, out = run(capsys, ["exact", "--gen", "greedy-trap", "--k", "3"])
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "ok"
    assert rec["weight"] == "2.1"
    assert rec["edges"] == [1, 2, 3]
    assert rec["explored"] == 9
    assert "method" not in rec


def test_exact_skips_oversized_instances(capsys):
    # 5,000 edges: the search ends at its budget, and its depth is no recursion limit.
    code, out = run(
        capsys, ["exact", "--gen", "set-packing", "--n", "300", "--m", "5000", "--k", "3"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "skipped"
    assert rec["reason"].startswith("the exact search passed its budget of 4194304 steps")


def test_greedy_algo_has_no_shift(capsys):
    code, out = run(capsys, ["solve", *GEN_ARGS, "--algo", "greedy"])
    assert code == 0
    rec = json.loads(out)
    assert rec["algo"] == "greedy"
    assert rec["seed"] is None and rec["tau"] is None and rec["swaps"] is None


def test_multiple_runs_switch_to_best_of(capsys):
    code, out = run(capsys, ["solve", *GEN_ARGS, "--runs", "3", "--exact"])
    assert code == 0
    rec = json.loads(out)
    assert rec["algo"] == "best-of-runs"
    assert rec["status"] == "ok"


def test_best_of_runs_counts_only_the_runs_own_queries(capsys):
    # The count is the sum of the runs' traces, whose seeds best_of_runs
    # derives from --seed; per-edge feasibility lookups are not in it.
    code, out = run(capsys, ["solve", *GEN_ARGS, "--no-scale", "--seed", "3", "--runs", "3"])
    assert code == 0
    inst = generate("set-packing", n=7, m=6, k=3, seed=3)
    derive = random.Random(3)
    traces = [
        sliding_local_search(inst, DEFAULT_EPSILON, DEFAULT_DELTA, derive.getrandbits(63))[1]
        for _ in range(3)
    ]
    assert json.loads(out)["oracle_calls"] == sum(t.oracle_calls for t in traces)


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    assert (
        main(["bench", *GEN_ARGS, "--count", "2", "--runs", "3", "--out", str(out)])
        == 0
    )
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == [
        "instance",
        "algo",
        "runs",
        "status",
        "mean_ratio",
        "min_ratio",
        "max_ratio",
        "floor_k",
        "floor_910",
        "floor_2ln2",
    ]
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["min_ratio"]) >= float(row["floor_k"])


# `mpls bench` with greedy, and on the unseeded greedy trap, whose one
# instance gives one row for any --count, as printed.
BENCH_HEADER = "instance,algo,runs,status,mean_ratio,min_ratio,max_ratio,floor_k,floor_910,floor_2ln2\n"
PINNED_BENCH = {
    "greedy": (
        [*GEN_ARGS, "--count", "2", "--algo", "greedy"],
        BENCH_HEADER
        + "set-packing-n7-m6-k3-s0,greedy,1,ok,1.000000,1.000000,1.000000,0.333333,0.277778,0.346574\n"
        + "set-packing-n7-m6-k3-s1,greedy,1,ok,1.000000,1.000000,1.000000,0.333333,0.277778,0.346574\n",
    ),
    "unseeded-family": (
        ["--gen", "greedy-trap", "--k", "3", "--count", "3"],
        BENCH_HEADER
        + "greedy-trap-k3-rho0.3,sliding,1,ok,0.476190,0.476190,0.476190,0.333333,0.277778,0.346574\n",
    ),
}


@pytest.mark.parametrize("argv, text", PINNED_BENCH.values(), ids=PINNED_BENCH.keys())
def test_bench_prints_the_pinned_csv(capsys, argv, text):
    assert run(capsys, ["bench", *argv]) == (0, text)


def test_trace_out_verifies_against_the_instance(tmp_path):
    trace_path = tmp_path / "trace.json"
    assert (
        main(
            [
                "solve",
                *GEN_ARGS,
                "--seed",
                "6",
                "--no-scale",
                "--out",
                str(tmp_path / "rec.json"),
                "--trace-out",
                str(trace_path),
            ]
        )
        == 0
    )
    trace = trace_from_json_obj(json.loads(trace_path.read_text()))
    # --seed names both the generator draw and the solver shift
    inst = generate("set-packing", n=7, m=6, k=3, seed=6)
    assert verify_local_optimum(inst, trace)


def test_trace_out_belongs_to_the_scaled_instance_unless_no_scale(tmp_path):
    inst_path, trace_path = tmp_path / "inst.json", tmp_path / "trace.json"
    assert main(["gen", *GEN_ARGS, "--seed", "4", "--out", str(inst_path)]) == 0
    inst = load_instance_doc(inst_path).normalize()
    scaled = scale_weights(inst, DEFAULT_SCALE_EPSILON)
    for flags, own, other in (([], scaled, inst), (["--no-scale"], inst, scaled)):
        argv = ["solve", str(inst_path), *flags, "--out", str(tmp_path / "rec.json")]
        assert main([*argv, "--trace-out", str(trace_path)]) == 0
        trace = trace_from_json_obj(json.loads(trace_path.read_text()))
        check_trace(own, trace)
        with pytest.raises(TraceMismatch):
            check_trace(other, trace)


# `mpls solve --gen greedy-trap --k 3 --no-scale --trace-out FILE`, as written
# since traces stopped storing their final edges and query total.  Each edge
# of the second interval holds a copy of a vertex of the first's edge, so
# that interval's search asks nothing.
TRAP_TRACE = (
    '{"delta":"0.0001","epsilon":"0.3873","final_weight":"1","instance_signature":"2ae22326ea45d9f4",'
    '"record_layout":"occupied","records":[{"added":[0],"index":1,"oracle_calls":1,'
    '"swaps":[{"add":[0],"gain":"1","remove":[]}]},{"added":[],"index":2,"oracle_calls":0,'
    '"swaps":[]}],"rule":"first-lex","scheme":{"levels":23,"max_feasible_weight":"1"},"seed":0,'
    '"tau":"0.149205484936038568621885502807344892062246799468994140625"}\n'
)


def test_trace_out_writes_the_pinned_text(tmp_path):
    path = tmp_path / "trace.json"
    argv = ["solve", "--gen", "greedy-trap", "--k", "3", "--no-scale", "--out", str(tmp_path / "rec.json")]
    assert main([*argv, "--trace-out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == TRAP_TRACE
    _, trace = sliding_local_search(generate("greedy-trap", k=3), DEFAULT_EPSILON, DEFAULT_DELTA, 0)
    assert dumps_canonical(trace_to_json_obj(trace)) == TRAP_TRACE


# sha256 of the `mpls solve --gen FAMILY ... --seed 1 --swap-rule RULE --trace-out`
# text at the benchmark's solve-large sizes.  A change to the search that keeps
# its moves, queries and trace layout keeps these bytes.
SOLVE_LARGE_TRACES = {
    ("first-lex", "set-packing"): "8d6932d8760f4770c72f772fea7fee3fc294c7e5e89f4b5e8fa053ab370d8af4",
    ("first-lex", "graphic-parity"): "0c2e82f9f23c58eb01c2bd4bca8e22639f5ee954b1bfbe4c4c4a4770670b3f6e",
    ("first-lex", "k-mi-partition"): "3f2e3ae96483507bd431b8d210b71603d41c50796670be4981afa385569c7359",
    ("best-gain", "set-packing"): "b9f65bcbd3854fb58d776c712a5e6942e5a104fc31c33df2e1fea1914ac0e9a8",
    ("best-gain", "graphic-parity"): "5640b30cd6003fac6451373301ce5df55d916c7a5b11ed43f8877ac15269555d",
    ("best-gain", "k-mi-partition"): "403e9e6584f6e26002a49015491c7b3ece504e9064f0f92d3543249d3b8eb689",
}
SOLVE_LARGE_ARGS = {
    "set-packing": ["--n", "60", "--m", "40", "--k", "2"],
    "graphic-parity": ["--n", "16", "--m", "48", "--k", "3"],
    "k-mi-partition": ["--n", "32", "--k", "2"],
}


@pytest.mark.parametrize("rule, family", list(SOLVE_LARGE_TRACES))
def test_trace_out_at_solve_large_sizes_writes_the_pinned_text(tmp_path, rule, family):
    path = tmp_path / "trace.json"
    argv = ["solve", "--gen", family, *SOLVE_LARGE_ARGS[family], "--seed", "1", "--swap-rule", rule]
    assert main([*argv, "--out", str(tmp_path / "rec.json"), "--trace-out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SOLVE_LARGE_TRACES[rule, family]
    assert text == dumps_canonical(trace_to_json_obj(trace_from_json_obj(json.loads(text))))


@pytest.mark.parametrize("flags", [["--algo", "greedy"], ["--runs", "2"]], ids=["greedy", "runs"])
def test_trace_out_without_one_sliding_run_exits_one_before_solving(tmp_path, capsys, monkeypatch, flags):
    # Neither greedy nor a best of several runs has one trace to write.
    path = tmp_path / "trace.json"
    monkeypatch.setattr(cli, "_load_source", lambda args: pytest.fail("the instance was loaded"))
    assert main(["solve", "--gen", "greedy-trap", "--k", "3", *flags, "--trace-out", str(path)]) == 1
    assert_one_error_line(capsys)
    assert not path.exists()


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_trace_out_prints_no_result_line(tmp_path, capsys, where):
    # The trace is written before the result, so a refused path leaves stdout empty.
    path = tmp_path / "missing" / "trace.json" if where == "missing-dir" else tmp_path
    assert main(["solve", *GEN_ARGS, "--trace-out", str(path)]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("refused", ["--out", "--trace-out"])
def test_a_refused_file_target_writes_no_file(tmp_path, capsys, refused, existing):
    # Both targets are opened before either is written, and neither is emptied
    # before both are open; the one that opened is removed if this run made it.
    kept = tmp_path / "kept.json"
    if existing:
        kept.write_text("old\n")
    targets = {"--out": kept, "--trace-out": kept, refused: tmp_path / "missing" / "x.json"}
    argv = ["solve", "--gen", "greedy-trap", "--k", "3"]
    for flag, path in targets.items():
        argv += [flag, str(path)]
    assert main(argv) == 1
    assert_one_error_line(capsys)
    assert [path.name for path in tmp_path.iterdir()] == (["kept.json"] if existing else [])
    assert not existing or kept.read_text() == "old\n"


def test_out_may_name_a_device(tmp_path, capsys):
    # A device is opened, never emptied.
    trace = tmp_path / "trace.json"
    assert main(["solve", *GEN_ARGS, "--out", os.devnull, "--trace-out", str(trace)]) == 0
    assert capsys.readouterr() == ("", "")
    assert trace.read_text().startswith('{"delta":')


def test_out_and_trace_out_naming_one_file_exit_one(tmp_path, capsys):
    path = tmp_path / "both.json"
    argv = ["solve", *GEN_ARGS, "--out", str(path), "--trace-out", str(tmp_path / "." / "both.json")]
    assert main(argv) == 1
    assert_one_error_line(capsys)
    assert not path.exists()


def test_verify_k4(capsys):
    code, out = run(capsys, ["verify", "k4"])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_badprob(capsys):
    code, out = run(capsys, ["verify", "badprob", *GEN_ARGS, "--seed", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_within_bound"] is True
    assert rep["edges"]


def test_verify_badprob_is_exact_and_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "badprob", "--gen", "greedy-trap", "--k", "3", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert [parse_fraction(e["probability"]) for e in rep["edges"]] == [
        Fraction(5257, 12910)
    ] * 3
    assert parse_fraction(rep["bound"]) == Fraction(7510000, 15818623)
    assert rep["all_within_bound"] is True


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1


def test_badprob_on_an_oversized_instance_exits_one_with_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(exact, "EXACT_BUDGET", 1000)  # a refusal without the full budget's work
    argv = ["verify", "badprob", "--gen", "set-packing", "--n", "30", "--m", "30", "--k", "3"]
    assert main(argv) == 1
    assert_one_error_line(capsys)


def test_badprob_on_zero_weights_exits_one_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "edges": [{"verts": [0], "w": "0"}, {"verts": [1], "w": "0"}],
        "k": 1,
        "matroid": {"family": "free", "n": 2},
        "name": "zero",
        "vertices": 2,
    }))
    assert main(["verify", "badprob", str(path)]) == 1
    assert_one_error_line(capsys)


def test_oversized_instances_are_still_skipped_by_solve_and_bench(capsys, monkeypatch):
    monkeypatch.setattr(exact, "EXACT_BUDGET", 1000)  # a refusal without the full budget's work
    big = ["--gen", "set-packing", "--n", "30", "--m", "30", "--k", "3"]
    code, out = run(capsys, ["solve", *big, "--exact"])
    assert code == 0
    assert json.loads(out)["status"] == "skipped"
    code, out = run(capsys, ["bench", *big, "--count", "1"])
    assert code == 0
    assert list(csv.DictReader(out.splitlines()))[0]["status"] == "skipped"


def test_verify_rota_small(capsys):
    code, out = run(capsys, ["verify", "rota", "--count", "10", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["successes"] == 10


def doc_bytes(matroid, vertices=2):
    return json.dumps({
        "edges": [{"verts": [0], "w": "1"}, {"verts": [1], "w": "2"}],
        "k": 1,
        "matroid": matroid,
        "name": "two-edges",
        "vertices": vertices,
    }).encode()


def linear(modulus):
    # 41 has no inverse modulo 41 * 43 or 41 * 41; 65537 is prime but past
    # the bound that keeps the primality check cheap.
    return {"family": "linear", "field_prime": modulus, "columns": [[41, 0], [1, 0]]}


BAD_FILES = {
    "modulus-1763": doc_bytes(linear(1763)),
    "modulus-1681": doc_bytes(linear(1681)),
    "modulus-65537": doc_bytes(linear(65537)),
    "vertices-1e9": doc_bytes({"family": "free", "n": 10**9}, vertices=10**9),
    "free-n-1e9": doc_bytes({"family": "free", "n": 10**9}),
    "uniform-n-1e9": doc_bytes({"family": "uniform", "n": 10**9, "r": 1}),
    "not-utf8": b"\xff\xfe{}",
    "deep-nesting": b"[" * 100_000,
    "long-integer": b'{"k": 1' + b"0" * 5000 + b"}",
    "float-weight": doc_bytes({"family": "free", "n": 2}).replace(b'"w": "1"', b'"w": 0.1'),
    "float-vertices": doc_bytes({"family": "free", "n": 2}, vertices=2.0),
    "bool-arity": doc_bytes({"family": "free", "n": 2}).replace(b'"k": 1', b'"k": true'),
    "negative-vertices": json.dumps(
        {"k": 1, "vertices": -2, "edges": [], "matroid": {"family": "free", "n": 0}}
    ).encode(),
}


@pytest.mark.parametrize("content", BAD_FILES.values(), ids=BAD_FILES.keys())
@pytest.mark.parametrize("argv", [["exact"], ["solve", "--no-scale"]], ids=["exact", "no-scale"])
def test_bad_instance_files_exit_one_with_one_error_line_within_a_second(
    tmp_path, capsys, content, argv
):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    start = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert time.perf_counter() - start < 1
    assert_one_error_line(capsys)


def edges_of(*verts):
    return [{"verts": list(v), "w": "1"} for v in verts]


RAW_REFUSALS = {
    "arity-0": ({"k": 0}, "arity must be at least 1"),
    "empty-edge": ({"edges": edges_of([], [1])}, "edge 0 has 0 vertices, arity bound is 1"),
    "edge-past-arity": (
        {"edges": edges_of([0], [0, 1])}, "edge 1 has 2 vertices, arity bound is 1"
    ),
    "vertex-out-of-range": ({"edges": edges_of([0], [2])}, "edge 1 uses unknown vertices"),
    "negative-vertex": ({"edges": edges_of([-1], [1])}, "edge 0 uses unknown vertices"),
    "ground-size": (
        {"matroid": {"family": "free", "n": 3}}, "matroid ground set must equal the vertex set"
    ),
}


@pytest.mark.parametrize("change, message", RAW_REFUSALS.values(), ids=RAW_REFUSALS.keys())
def test_raw_instance_refusals_exit_one_with_their_message(tmp_path, capsys, change, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**json.loads(doc_bytes({"family": "free", "n": 2})), **change}))
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        load_instance_doc(path).normalize()
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mpls: error: invalid instance in {path}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--gen", "greedy-trap", "--k", "100000"],
        ["exact", "--gen", "greedy-trap", "--k", "100000"],
        ["solve", "--gen", "set-packing", "--n", "9", "--m", "10000000", "--k", "3"],
        ["exact", "--gen", "graphic-parity", "--n", "1000000", "--m", "3", "--k", "2"],
        ["gen", "--gen", "k-mi-partition", "--n", "1000", "--k", "1000"],
    ],
    ids=["trap-gen", "trap-exact", "packing-m", "graphic-n", "k-mi"],
)
def test_huge_generator_sizes_exit_one_within_a_second(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    assert_one_error_line(capsys)


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus-flag"])
    assert exc.value.code == 1


def test_input_errors_exit_one(tmp_path, capsys):
    assert main(["solve"]) == 1
    assert main(["solve", "--gen", "greedy-trap", "--n", "5"]) == 1
    missing = tmp_path / "nope.json"
    assert main(["solve", str(missing)]) == 1
    both = tmp_path / "inst.json"
    both.write_text("{}")
    assert main(["solve", str(both), "--gen", "set-packing"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", *GEN_ARGS, "--epsilon", "0.6"],
        ["solve", *GEN_ARGS, "--epsilon", "0"],
        ["solve", *GEN_ARGS, "--epsilon", "1e-1000000000"],
        ["solve", *GEN_ARGS, "--delta", "1"],
        ["solve", *GEN_ARGS, "--scale-epsilon", "-1/10"],
        ["solve", *GEN_ARGS, "--runs", "0"],
        ["bench", *GEN_ARGS, "--count", "0"],
        ["gen", *GEN_ARGS, "--count", "-2"],
        ["verify", "trace", "--epsilon", "1/2"],
        ["verify", "badprob", *GEN_ARGS, "--tau-samples", "5"],
        # removed flags and choices
        ["exact", *GEN_ARGS, "--method", "subset-enum"],
        ["exact", *GEN_ARGS, "--exact-limit", "5"],
        ["solve", *GEN_ARGS, "--exact", "--exact-limit", "5"],
        ["bench", *GEN_ARGS, "--exact-limit", "5"],
        ["solve", *GEN_ARGS, "--algo", "best-of-runs"],
        ["verify", "rota", "--max-elements", "0"],
        ["verify", "laminar", "--max-elements", "0"],
        ["solve", *GEN_ARGS, "--runs", "10001"],
        ["bench", *GEN_ARGS, "--runs", "10001"],
        ["solve", *GEN_ARGS, "--scale"],
        ["solve", *GEN_ARGS, "--scale", "1/10"],
        # digits of other scripts, which would slip past the exponent bound
        ["solve", *GEN_ARGS, "--epsilon", "1e-\u0662\u0660\u0660\u0660"],
        ["verify", "trace", "--count", "1", "--epsilon", "\u0660.\u0663"],
    ],
)
def test_out_of_range_flags_exit_one_with_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "badprob", *GEN_ARGS, "--gamma", "5"],
        ["verify", "trace", "--count", "2", "--gamma", "-1"],
    ],
)
def test_gamma_out_of_range_exits_one_with_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1


def test_non_integer_arity_in_a_file_exits_one_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", *GEN_ARGS, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["k"] = "x"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1


def test_huge_exponent_in_a_file_exits_one_within_a_second(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", *GEN_ARGS, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["edges"][0]["w"] = "1e-1000000000"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["solve", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1


def test_tiny_epsilon_exits_one_within_a_second(capsys):
    start = time.perf_counter()
    assert main(["solve", *GEN_ARGS, "--epsilon", "1e-9"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1


def test_ladder_budget_error_names_the_size_of_epsilon(capsys):
    # A 1,001-digit denominator stays out of the one error line.
    assert main(["solve", "--gen", "greedy-trap", "--k", "3", "--epsilon", "1e-1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize(
    "argv", [["exact"], ["solve"], ["solve", "--no-scale"]], ids=["exact", "solve", "no-scale"]
)
def test_weights_too_long_to_print_exit_one_with_one_error_line(tmp_path, capsys, argv):
    # Each weight prints in about 2,500 digits, but their sums would need
    # about 15,000, past the 4,300 digits Python prints.
    path = tmp_path / "inst.json"
    assert main(["gen", *GEN_ARGS, "--seed", "4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    for i, edge in enumerate(doc["edges"]):
        edge["w"] = f"1/{10**2500 + 2 * i + 1}"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpls: error: ")
    assert captured.err.count("\n") == 1
