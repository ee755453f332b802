"""End-to-end runs through cli.main with in-process argv."""

import concurrent.futures
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeplace.cli as cli
import treeplace.solver as solver
from treeplace.cli import AGGREGATE_NOTICE, build_parser, main
from treeplace.placement import PlacementResult
from tests.conftest import FIXTURES, load_fixture_text

WORKED = str(FIXTURES / "worked_example.json")
SHARED = str(FIXTURES / "shared_link.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_worked_example(capsys):
    code, out, err = run(capsys, "solve", WORKED)
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["replicas"] == ["a", "b", "c", "g", "i", "k", "p"]
    assert doc["count"] == 7
    assert "trace" not in doc
    assert err == ""


def test_solve_trace_flag(capsys):
    code, out, _ = run(capsys, "solve", WORKED, "--trace")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert len(trace) == 19
    assert trace[0] == ["__r_plus__", 0, ["a"]]


def test_solve_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", WORKED, "--out", str(a)]) == 0
    assert main(["solve", WORKED, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_solve_infeasible_precheck(tmp_path, capsys):
    doc = {
        "W": 50,
        "nodes": [
            {"id": "r", "parent": None, "kind": "internal"},
            {"id": "c", "parent": "r", "kind": "client", "bw": 2, "w": 9, "q": 2},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 2
    body = json.loads(out)
    assert body["feasible"] is False
    assert body["reason"] == "client link bandwidth"
    assert body["details"] == [["c", "link-bandwidth", 9, 2]]


def test_solve_reports_a_broken_root_check_as_one_error_line(capsys, monkeypatch):
    """A placement that leaves load at the root is a solver defect: exit 1,
    one ``error:`` line, and no ``"feasible": false`` document."""
    monkeypatch.setattr(solver, "place_replicas", lambda table: PlacementResult([], table))
    code, out, err = run(capsys, "solve", WORKED)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
def test_solve_reports_a_failed_self_check_as_one_defect_line(tmp_path, capsys, monkeypatch, mode):
    """A placement the independent verifier rejects is a solver defect: exit
    1, one ``SOLVER DEFECT`` line naming a violation, and no document."""
    verify = cli.verify_placement
    monkeypatch.setattr(cli, "verify_placement", lambda inst, replicas, mode: verify(inst, set(), mode=mode))
    dest = tmp_path / "out.json"
    code, out, err = run(capsys, "solve", WORKED, "--mode", mode, "--out", str(dest))
    assert code == 1
    assert out == ""
    lines = [line for line in err.splitlines() if line != AGGREGATE_NOTICE]
    assert len(lines) == 1 and lines[0].startswith(f"SOLVER DEFECT: solution failed independent verification ({mode}): ")
    assert "RuleViolation(kind='unserved'" in lines[0]
    assert not dest.exists()


def test_solve_aggregate_prints_notice(capsys):
    code, out, err = run(capsys, "solve", SHARED, "--mode", "aggregate")
    assert code == 0
    assert AGGREGATE_NOTICE in err
    assert json.loads(out)["replicas"] == ["s"]


def test_solve_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(load_fixture_text("shared_link.json")))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0
    assert json.loads(out)["replicas"] == ["r"]


def test_verify_roundtrip(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert main(["solve", WORKED, "--out", str(sol)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", WORKED, str(sol))
    assert code == 0
    assert json.loads(out)["feasible"] is True


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
@pytest.mark.parametrize("fixture", ["worked_example", "shared_link"])
def test_verify_report_matches_stored_text(tmp_path, capsys, fixture, mode):
    """The whole report document, link flows included, pinned byte for byte."""
    inst = str(FIXTURES / f"{fixture}.json")
    sol = tmp_path / "sol.json"
    assert main(["solve", inst, "--out", str(sol)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", inst, str(sol), "--mode", mode)
    assert out == (GOLDEN / f"verify.{fixture}.{mode}.json").read_text(encoding="utf-8")
    assert code == (0 if json.loads(out)["feasible"] else 2)


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
@pytest.mark.parametrize("fixture", ["worked_example", "shared_link"])
def test_inspect_matches_stored_text(capsys, fixture, mode):
    """The rendered tables, pinned byte for byte."""
    code, out, _ = run(capsys, "inspect", str(FIXTURES / f"{fixture}.json"), "--mode", mode)
    assert code == 0
    assert out == (GOLDEN / f"inspect.{fixture}.{mode}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
def test_inspect_of_a_random_300_node_document_matches_stored_text(capsys, mode):
    """Tables of a generated tree (``gen --seed 2 --internal 120 --clients 180
    --capacity 30 --shape random --weights 0:5 --qos 1:8 --bandwidth 5:14``),
    pinned byte for byte: mixed qos and narrow links give rows that change
    past index 1 and many infinite rows, whose equip sets are printed too."""
    code, out, _ = run(capsys, "inspect", str(GOLDEN / "random300.json"), "--mode", mode)
    assert code == 0
    assert out == (GOLDEN / f"inspect.random300.{mode}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
@pytest.mark.parametrize("fixture", ["worked_example", "shared_link"])
def test_solve_trace_matches_stored_text(capsys, fixture, mode):
    """The solution with its placement trace, pinned byte for byte."""
    code, out, _ = run(capsys, "solve", str(FIXTURES / f"{fixture}.json"), "--mode", mode, "--trace")
    assert code == 0
    assert out == (GOLDEN / f"solve-trace.{fixture}.{mode}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
def test_solve_trace_of_a_random_300_node_document_matches_stored_text(capsys, mode):
    """The trace visits each node's children in child-list order, so this
    pins the star's child lists on a tree with merged leaves at many nodes."""
    code, out, _ = run(capsys, "solve", str(GOLDEN / "random300.json"), "--mode", mode, "--trace")
    assert code == 0
    assert out == (GOLDEN / f"solve-trace.random300.{mode}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("document", ["worked_example", "shared_link", "random300"])
def test_transform_matches_stored_text(capsys, document):
    """The star-tree document, pinned byte for byte."""
    path = GOLDEN / "random300.json" if document == "random300" else FIXTURES / f"{document}.json"
    code, out, _ = run(capsys, "transform", str(path))
    assert code == 0
    assert out == (GOLDEN / f"transform.{document}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("enabled", [True, False])
def test_solve_pauses_the_collector_and_restores_it(capsys, monkeypatch, enabled):
    import gc

    import treeplace.cli as cli

    seen = []
    solve = cli.solve_instance

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_instance", recording)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(capsys, "solve", WORKED)[0] == 0
        after_solve = gc.isenabled()
        assert run(capsys, "solve", "/nonexistent/path.json")[0] == 1
        after_error = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after_solve is enabled and after_error is enabled


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("solve", SHARED), id="False"),
        pytest.param(("solve", SHARED, "--trace"), id="True"),
        pytest.param(("bench", "--sizes", "40"), id="bench"),
    ],
)
def test_solve_frees_the_star_tree_before_the_self_check(capsys, monkeypatch, argv):
    """``bench`` times ``solve`` itself, so it frees the tree as ``solve`` does."""
    import weakref

    stars, alive = [], []
    transform, verify = solver.transform_to_star, cli.verify_placement

    def keeping(inst):
        star = transform(inst)
        stars.append(weakref.ref(star))
        return star

    def checking(*args, **kwargs):
        alive.append(stars[-1]() is not None)
        return verify(*args, **kwargs)

    monkeypatch.setattr(solver, "transform_to_star", keeping)
    monkeypatch.setattr(cli, "verify_placement", checking)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and ('"trace"' in out) is ("--trace" in argv)
    assert alive == [False]


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
def test_solve_self_check_builds_no_assignment_or_link_flows(capsys, monkeypatch, mode):
    """The report's views are built on first read; the self-check reads
    only the verdict, so neither is built in a solve."""
    reports, verify = [], cli.verify_placement

    def keeping(*args, **kwargs):
        reports.append(verify(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_placement", keeping)
    code, _, _ = run(capsys, "solve", WORKED, "--mode", mode)
    assert code == 0 and len(reports) == 1
    assert "assignment" not in vars(reports[0]) and "link_flows" not in vars(reports[0])


def test_cli_identity_finds_a_tree_identical_to_itself(capsys):
    """A smoke test of ``tests/cli_identity.py``, which runs outside Tier-1:
    this checkout's ``src`` against itself on the worked example."""
    from tests import cli_identity

    assert cli_identity.main([str(cli_identity.OWN_SRC), "--document", WORKED]) == 0
    out = capsys.readouterr().out
    assert out == "commands 14 (each on both trees), mismatches 0\n"


def test_verify_rejects_bad_set(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"replicas": []}))
    code, out, _ = run(capsys, "verify", WORKED, str(sol))
    assert code == 2
    report = json.loads(out)
    assert report["feasible"] is False
    assert report["violations"]


def test_verify_malformed_solution_is_usage_error(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"not": "a solution"}))
    code, _, err = run(capsys, "verify", WORKED, str(sol))
    assert code == 1
    assert "replicas" in err


def test_oracle_agrees_with_solver(capsys):
    code, out, _ = run(capsys, "oracle", SHARED)
    assert code == 0
    doc = json.loads(out)
    assert doc["minimum"] == 1
    assert doc["witness"] == ["r"]


def test_oracle_infeasible_exit(tmp_path, capsys):
    doc = {
        "W": 50,
        "nodes": [
            {"id": "r", "parent": None, "kind": "internal"},
            {"id": "c", "parent": "r", "kind": "client", "bw": 2, "w": 9, "q": 2},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "oracle", str(path))
    assert code == 2
    assert json.loads(out)["minimum"] is None


def test_oracle_guard_is_an_error(tmp_path, capsys):
    gen = tmp_path / "big.json"
    assert main(["gen", "--internal", "25", "--clients", "40", "--out", str(gen)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "oracle", str(gen))
    assert code == 1
    assert "guard" in err


def test_gen_round_trips_through_solve(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--seed", "3", "--capacity", "60", "--out", str(inst)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", str(inst))
    assert code in (0, 2)
    assert json.loads(out)["feasible"] in (True, False)


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--seed", "11", "--shape", "balanced", "--branching", "2:2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_the_whole_text_in_pieces(tmp_path, capsys, monkeypatch):
    """``gen`` and ``gen --fictivize`` write, one piece of nodes at a time,
    exactly the text ``serialize_instance`` gives, to a file and to stdout."""
    from treeplace.generator import GenConfig, fictivize, generate, parse_dual_role
    from treeplace.instance import serialize_instance

    pieces = []
    real = cli.serialized_pieces

    def counted(inst):
        for piece in real(inst, 7):
            pieces.append(piece)
            yield piece

    monkeypatch.setattr(cli, "serialized_pieces", counted)
    argv = ["gen", "--seed", "4", "--internal", "12", "--clients", "20", "--shape", "balanced"]
    want = serialize_instance(generate(GenConfig(seed=4, internal=12, clients=20, capacity=20, shape="balanced")))
    path = tmp_path / "inst.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == want
    assert len(pieces) == -(-32 // 7)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == want

    net = tmp_path / "net.json"
    assert main(["gen", "--dual-role", "--seed", "5", "--internal", "9", "--out", str(net)]) == 0
    code, out, _ = run(capsys, "gen", "--fictivize", str(net))
    assert code == 0
    assert out == serialize_instance(fictivize(parse_dual_role(net.read_text(encoding="utf-8"))))


def test_gen_dual_role_and_fictivize(tmp_path, capsys):
    net = tmp_path / "net.json"
    inst = tmp_path / "inst.json"
    assert main(["gen", "--dual-role", "--seed", "5", "--internal", "6",
                 "--capacity", "9", "--out", str(net)]) == 0
    assert main(["gen", "--fictivize", str(net), "--out", str(inst)]) == 0
    capsys.readouterr()
    doc = json.loads(inst.read_text())
    assert any(n["id"].endswith("_req") for n in doc["nodes"])
    # the rewritten document is a normal instance the solver accepts
    assert main(["solve", str(inst)]) in (0, 2)
    capsys.readouterr()


_DUAL_ROOT = {"id": "a", "parent": None, "bw": 3, "demand": [2, 1]}


@pytest.mark.parametrize(
    "doc",
    [
        {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "b", "parent": "zz", "bw": 3, "demand": [1, 1]}]},
        {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "b", "parent": "a", "bw": 3, "demand": [1]}]},
        {"capacity": 9, "nodes": [_DUAL_ROOT, 5]},
        {"capacity": "x", "nodes": [_DUAL_ROOT]},
        {"capacity": 9, "nodes": {"a": _DUAL_ROOT}},
        {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "", "parent": "a", "bw": 3, "demand": [1, 1]}]},
        {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "a", "parent": "a", "bw": 3, "demand": [1, 1]}]},
        {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "b", "parent": 7, "bw": 3, "demand": [1, 1]}]},
        {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "b", "parent": "a", "bw": 2.5, "demand": [1, 1]}]},
    ],
    ids=["unknown-parent", "one-element-demand", "non-object-node", "string-capacity",
         "non-array-nodes", "empty-id", "duplicate-id", "non-string-parent", "non-integer-bw"],
)
def test_gen_fictivize_rejects_hostile_documents(tmp_path, capsys, doc):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gen", "--fictivize", str(net))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("demand", [[-3, 1], [2, -4]], ids=["negative-weight", "negative-qos"])
def test_gen_fictivize_rejects_negative_demand(tmp_path, capsys, demand):
    doc = {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "b", "parent": "a", "bw": 3, "demand": demand}]}
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gen", "--fictivize", str(net))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "'b'" in err and "_req" not in err


def test_gen_fictivize_validates_the_rewritten_instance(tmp_path, capsys):
    # schema-clean, but the rewrite has two roots
    doc = {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "b", "parent": None, "bw": 3, "demand": [1, 1]}]}
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gen", "--fictivize", str(net))
    assert code == 1
    assert out == ""
    assert err.startswith("error: [root-count]")


@pytest.mark.parametrize(
    "demand, copies",
    [([10**4299, 1], 12), ([2, 10**4300 - 1], 1)],
    ids=["summed-demand", "qos-plus-one"],
)
def test_gen_fictivize_rejects_a_rewrite_past_the_digit_limit(tmp_path, capsys, demand, copies):
    """Each number of the dual-role document has at most 4,300 digits, but
    a stand-in client's link (the summed demand) or its ``q + 1`` has
    4,301: one ``error:`` line, exit 1, and no output file."""
    nodes = [{"id": f"n{k:02d}", "parent": f"n{(k - 1) // 2:02d}" if k else None, "bw": 5, "demand": demand}
             for k in range(copies)]
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"capacity": 10**4299, "nodes": nodes}))
    out_path = tmp_path / "inst.json"
    code, out, err = run(capsys, "gen", "--fictivize", str(net), "--out", str(out_path))
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_bad_branching_syntax(capsys):
    code, _, err = run(capsys, "gen", "--branching", "nope")
    assert code == 1


def test_transform_emits_star_document(capsys):
    code, out, _ = run(capsys, "transform", WORKED)
    assert code == 0
    doc = json.loads(out)
    leaves = {n["id"]: n for n in doc["nodes"] if n["kind"] == "leaf"}
    # merged client bundle rides an unbounded (null) link
    assert leaves["x"]["bw"] is None
    assert leaves["x"]["eligible"] is False
    assert leaves["x"]["origin"] == {"clients": ["x", "x2"], "internal": None}
    assert leaves["l"]["origin"] == {"clients": ["zl"], "internal": "l"}


def test_transform_infeasible(tmp_path, capsys):
    doc = {
        "W": 3,
        "nodes": [
            {"id": "r", "parent": None, "kind": "internal"},
            {"id": "c1", "parent": "r", "kind": "client", "bw": 9, "w": 2, "q": 1},
            {"id": "c2", "parent": "r", "kind": "client", "bw": 9, "w": 2, "q": 1},
        ],
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "transform", str(path))
    assert code == 2
    assert "bundle demand exceeds capacity" in err


def test_inspect_renders_tables(capsys):
    code, out, _ = run(capsys, "inspect", WORKED)
    assert code == 0
    assert "leaf contributions" in out
    assert "internal nodes" in out
    assert "inf" in out
    assert "m(t(v))" in out
    assert "{b,c}" in out  # the root equip set at index 0


@pytest.mark.parametrize("mode", ["per-bundle", "aggregate"])
def test_a_qos_past_the_depth_costs_no_more_than_the_depth(tmp_path, capsys, mode):
    """Phase 1 and ``inspect`` size their rows by the tree's depth, not by the
    largest qos: a client with q = 10**12 answers as one with q = 10 on a tree
    of depth 3, and at once."""
    outs = []
    for q in (10, 10**12):
        path = tmp_path / f"q{q}.json"
        path.write_text(json.dumps({
            "W": 10,
            "nodes": [
                {"id": "r", "parent": None, "kind": "internal"},
                {"id": "a", "parent": "r", "kind": "internal", "bw": 9},
                {"id": "b", "parent": "a", "kind": "internal", "bw": 4},
                {"id": "c", "parent": "b", "kind": "client", "bw": 6, "w": 6, "q": q},
                {"id": "d", "parent": "b", "kind": "client", "bw": 3, "w": 3, "q": q},
                {"id": "e", "parent": "a", "kind": "client", "bw": 8, "w": 8, "q": q},
                {"id": "f", "parent": "r", "kind": "client", "bw": 5, "w": 1, "q": 1},
            ],
        }))
        runs = [run(capsys, command, str(path), "--mode", mode) for command in ("solve", "inspect")]
        assert [code for code, _, _ in runs] == [0, 0]
        outs.append([out for _, out, _ in runs])
    assert outs[0] == outs[1]


def test_inspect_infeasible(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "W": 50,
        "nodes": [
            {"id": "r", "parent": None, "kind": "internal"},
            {"id": "c", "parent": "r", "kind": "client", "bw": 2, "w": 9, "q": 2},
        ],
    }))
    code, _, err = run(capsys, "inspect", str(path))
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("command", ["transform", "inspect"])
def test_infeasible_line_names_every_screen_finding(tmp_path, capsys, command):
    path = tmp_path / "screened.json"
    path.write_text(json.dumps({
        "W": 5,
        "nodes": [
            {"id": "r", "parent": None, "kind": "internal"},
            {"id": "c", "parent": "r", "kind": "client", "bw": 1, "w": 3, "q": 1},
            {"id": "d", "parent": "r", "kind": "client", "bw": 9, "w": 9, "q": 1},
        ],
    }))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == (
        "infeasible: client link bandwidth: ["
        "PrecheckFinding(client='c', kind='link-bandwidth', demand=3, limit=1), "
        "PrecheckFinding(client='d', kind='capacity', demand=9, limit=5)]\n"
    )


def test_bench_tiny_sweep(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "40,80", "--qos", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("N=")]
    assert len(lines) == 2
    assert lines[0].startswith("N=40 L=2 t=")


def test_bench_rejects_garbage(capsys):
    code, _, err = run(capsys, "bench", "--sizes", "abc")
    assert code == 1
    code, _, err = run(capsys, "bench", "--sizes", ",")
    assert code == 1


def test_compare_small_range(capsys):
    code, out, _ = run(capsys, "compare", "--seeds", "0:4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(": agree " in l for l in lines[:-1])
    assert lines[-1] == "agreed 5/5"


@pytest.mark.parametrize(
    "cpus, jobs, pools",
    [(3, 1000, [3]), (8, 2, [2]), (None, 1000, []), (4, 1, [])],
)
def test_compare_caps_jobs_at_the_cpu_count(monkeypatch, capsys, cpus, jobs, pools):
    """The pool starts all its workers at once, so --jobs is capped at the
    cpu count; a cap of 1 runs in this process. The fake pool only records
    its size and maps in this process."""
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "compare", "--seeds", "0:2", "--jobs", str(jobs))
    assert code == 0
    assert out.splitlines()[-1] == "agreed 3/3"
    assert made == pools


def fresh_interpreter(probe: str) -> str:
    """The standard output of ``python -c probe``, with this package on the path."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_start_up_loads_no_process_pool():
    """Only ``compare --jobs`` imports the pool, and only the commands that
    run them load the generator and the oracle, so a solve pays for none of
    them; nor for ``dataclasses`` and the ``inspect`` it pulls in."""
    probe = (
        "import sys, treeplace.cli as c; c.build_parser(); "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'treeplace.generator', "
        "'treeplace.oracle', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    assert fresh_interpreter(probe) == "[]\n"


def test_an_unknown_public_name_is_an_attribute_error():
    import treeplace

    with pytest.raises(AttributeError, match="no_such_name"):
        treeplace.no_such_name


def test_every_public_name_resolves_on_first_access():
    probe = (
        "import sys, treeplace as t; loaded = 'treeplace.generator' in sys.modules; "
        "missing = [n for n in t.__all__ if getattr(t, n, None) is None]; "
        "from treeplace import generate, brute_force_min; "
        "print(loaded, missing, generate.__module__, brute_force_min.__module__)"
    )
    assert fresh_interpreter(probe) == "False [] treeplace.generator treeplace.oracle\n"


def test_gen_and_bench_call_the_module_global_generate():
    """A tracer reads ``cli.generate`` before any command runs and puts a
    wrapper in its place; ``gen`` and ``bench`` must then call the wrapper."""
    probe = (
        "import os, treeplace.cli as c; original = c.generate; calls = []\n"
        "def wrapper(cfg):\n"
        "    calls.append(cfg.seed)\n"
        "    return original(cfg)\n"
        "c.generate = wrapper\n"
        "codes = [c.main(['gen', '--seed', '3', '--out', os.devnull]),"
        " c.main(['bench', '--sizes', '40', '--seed', '5'])]\n"
        "print(codes, calls)"
    )
    assert fresh_interpreter(probe).splitlines()[-1] == "[0, 0] [3, 5]"


def test_bench_times_the_solve_pipeline(tmp_path):
    """``bench`` runs ``treeplace solve``: a tracer's wrappers of
    ``cli.solve_instance`` and ``cli.verify_placement`` see one call each
    per document, and the stages come in pipeline order."""
    path = tmp_path / "bench.json"
    probe = (
        "import treeplace.cli as c; calls = []\n"
        "def wrap(name, fn):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "c.solve_instance = wrap('solve', c.solve_instance)\n"
        "c.verify_placement = wrap('verify', c.verify_placement)\n"
        f"code = c.main(['bench', '--sizes', '40', '--json', {str(path)!r}])\n"
        "print(code, calls)"
    )
    out = fresh_interpreter(probe).splitlines()
    assert out[-1] == "0 ['solve', 'verify']"
    stages = [line.split()[0] for line in out if line.startswith("  ")]
    assert stages == ["read", "parse", "transform", "phase1", "place", "root_check", "verify", "write"]
    (run_doc,) = json.loads(path.read_text())["runs"]
    assert sorted(run_doc["seconds"]) == sorted(run_doc["ns_per_node"]) == sorted(stages)


def test_compare_bad_seed_spec(capsys):
    code, _, err = run(capsys, "compare", "--seeds", "x:y")
    assert code == 1
    assert "bad seed range" in err


def test_compare_empty_seed_range(capsys):
    assert run(capsys, "compare", "--seeds", "5:3") == (1, "", "error: empty seed range\n")


def test_compare_reports_a_disagreement_and_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_instance", lambda inst: PlacementResult([], None))
    code, out, _ = run(capsys, "compare", "--seeds", "3", "--jobs", "1")  # seed 3 needs 2
    assert (code, out) == (2, "seed 3: DISAGREE solver=0 oracle=2\nagreed 0/1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--seeds", "0:3", "--max-internal", value, "--jobs", jobs)
        for value in ("1", "0", "-1")
        for jobs in ("1", "2")
    ]
    + [
        ("compare", "--seeds", "0", "--max-clients", "0"),
        ("gen", "--internal", "0"),
        ("gen", "--capacity", "0"),
        ("oracle", "--max-internal", "-1", WORKED),
        ("bench", "--sizes", "40", "--qos", "0"),
        ("bench", "--sizes", "0"),
        ("bench", "--sizes", "-5"),
        ("gen", "--dual-role", "--capacity", "0"),
        ("gen", "--dual-role", "--internal", "0"),
    ],
)
def test_out_of_range_numbers_give_one_error_line(capsys, argv):
    """With ``--jobs 2`` the pool re-raises the worker's error in ``main``."""
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["solve"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/path.json")
    assert code == 1
    assert "error:" in err


_HOSTILE_ARGV = {
    "solve": ("solve", "{doc}"),
    "verify-solution": ("verify", WORKED, "{doc}"),
    "verify-instance": ("verify", "{doc}", WORKED),
    "gen-fictivize": ("gen", "--fictivize", "{doc}"),
    "transform": ("transform", "{doc}"),
    "inspect": ("inspect", "{doc}"),
    "oracle": ("oracle", "{doc}"),
}
# Each integer has 4,300 digits, the bundle weight of s and its load 4,301.
_HUGE_SUM_DOC = json.dumps({"W": 9 * 10**4299, "nodes": [
    {"id": "r", "parent": None, "kind": "internal"},
    {"id": "s", "parent": "r", "kind": "internal", "bw": 1},
    {"id": "c1", "parent": "s", "kind": "client", "bw": 6 * 10**4299, "w": 6 * 10**4299, "q": 3},
    {"id": "c2", "parent": "s", "kind": "client", "bw": 6 * 10**4299, "w": 6 * 10**4299, "q": 3},
]})


@pytest.mark.parametrize(
    "content, argv",
    [
        pytest.param(content, argv, id=f"{content}-{name}")
        for content in ("deep", "not-utf8", "long-int")
        for name, argv in _HOSTILE_ARGV.items()
    ] + [
        pytest.param("huge-sum", argv, id=f"huge-sum-{name}")
        for name, argv in [
            ("solve", ("solve", "{doc}")),
            ("transform", ("transform", "{doc}")),
            ("inspect", ("inspect", "{doc}")),
            ("verify", ("verify", "{doc}", "{sol}")),
        ]
    ],
)
def test_hostile_documents_give_one_error_line(tmp_path, capsys, argv, content):
    """A document nested 200,000 levels deep, one that is not UTF-8 at all,
    one with a 5,000-digit integer, or one whose integers are within the
    interpreter's 4,300-digit limit for text but whose bundle weight and
    server load are past it: exit 1, one ``error:`` line, no traceback."""
    path = tmp_path / "hostile.json"
    solution = tmp_path / "solution.json"
    if content == "deep":
        path.write_text("[" * 200_000 + "]" * 200_000)
    elif content == "long-int":
        path.write_text('{"W": ' + "7" * 5_000 + ', "nodes": []}')
    elif content == "huge-sum":
        path.write_text(_HUGE_SUM_DOC)
        solution.write_text('{"replicas": ["s"]}')
    else:
        path.write_bytes(b'{"W": 3, "nodes": [{"id": "\xff\xfe"}]}')
    code, out, err = run(capsys, *(a.format(doc=path, sol=solution) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# --- fuzzing: any document through main() ---------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_NAMES = [f"v{k}" for k in range(9)]
_VALUES = st.none() | st.integers(-2, 12) | st.sampled_from(_NAMES) | _JSON


@st.composite
def _trees(draw, dual_role: bool) -> dict:
    """A valid tree document (instance, or dual-role network) of 2-9 nodes;
    with one field then overwritten, added or dropped half of the time, so
    that validation, the transform, phase 1 and the verifier all run."""
    size = draw(st.integers(2, 9))
    ids = draw(st.permutations(_NAMES))[:size]
    up = [None] + [draw(st.integers(0, i - 1)) for i in range(1, size)]
    nodes = []
    for i, node_id in enumerate(ids):
        bw = None if i == 0 else draw(st.integers(0, 12))
        node = {"id": node_id, "parent": None if i == 0 else ids[up[i]], "bw": bw}
        leaf = i not in up
        if dual_role:
            node["demand"] = [draw(st.integers(0, 9)), draw(st.integers(0, 4))] if leaf else None
        else:
            node["kind"] = "client" if leaf else "internal"
            if leaf:
                node.update(w=draw(st.integers(0, 9)), q=draw(st.integers(1, 5)))
            if bw is None:
                del node["bw"]
        nodes.append(node)
    doc = {"capacity" if dual_role else "W": draw(st.integers(1, 20)), "nodes": nodes}
    if draw(st.booleans()):
        where = nodes[draw(st.integers(0, size - 1))] if draw(st.booleans()) else doc
        field = draw(st.sampled_from(sorted(where) + ["x"]))
        if draw(st.booleans()):
            where.pop(field, None)
        else:
            where[field] = draw(_VALUES)
    return doc


_SOLUTIONS = st.fixed_dictionaries(
    {"replicas": st.lists(st.sampled_from("abcdgijkx") | _JSON, max_size=4) | _JSON}
)
_DOCUMENTS = st.binary(max_size=64) | st.one_of(
    _JSON, _trees(False), _trees(True), _SOLUTIONS
).map(lambda d: json.dumps(d).encode())


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    solution = folder / "solution.json"
    solution.write_text(json.dumps({"replicas": _NAMES[::2]}))
    return folder / "doc.json", str(solution)


@given(doc=_DOCUMENTS)
@settings(max_examples=150, deadline=None)
def test_any_document_exits_cleanly(fuzz_paths, doc):
    """Any byte string or JSON value, as an instance, a solution or a
    dual-role document: exit status 0, 1 or 2 and no traceback."""
    path, solution = fuzz_paths
    path.write_bytes(doc)
    path = str(path)
    for argv in (
        ["solve", path], ["solve", path, "--mode", "aggregate", "--trace"],
        ["verify", path, solution], ["verify", WORKED, path],
        ["transform", path], ["inspect", path], ["gen", "--fictivize", path],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv


def _readme_synopsis() -> dict[str, str]:
    """The README's CLI code block, one joined line per subcommand."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("treeplace "):
            name = line.split()[1]
            synopsis[name] = line
        else:  # an indented continuation of the subcommand above
            synopsis[name] += " " + line.strip()
    return synopsis


def test_readme_synopsis_lists_every_long_option():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    synopsis = _readme_synopsis()
    assert sorted(synopsis) == sorted(subparsers.choices)
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    assert re.search(rf"{opt}(?![\w-])", synopsis[name]), (name, opt)
