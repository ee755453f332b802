"""End-to-end runs through cli.main with in-process argv."""

import concurrent.futures
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeplace.cli as cli
from treeplace.cli import AGGREGATE_NOTICE, main
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
@pytest.mark.parametrize("fixture", ["worked_example", "shared_link"])
def test_solve_trace_matches_stored_text(capsys, fixture, mode):
    """The solution with its placement trace, pinned byte for byte."""
    code, out, _ = run(capsys, "solve", str(FIXTURES / f"{fixture}.json"), "--mode", mode, "--trace")
    assert code == 0
    assert out == (GOLDEN / f"solve-trace.{fixture}.{mode}.json").read_text(encoding="utf-8")


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
    ],
    ids=["unknown-parent", "one-element-demand", "non-object-node", "string-capacity"],
)
def test_gen_fictivize_rejects_hostile_documents(tmp_path, capsys, doc):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gen", "--fictivize", str(net))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_gen_fictivize_validates_the_rewritten_instance(tmp_path, capsys):
    # schema-clean, but the rewrite has two roots
    doc = {"capacity": 9, "nodes": [_DUAL_ROOT, {"id": "b", "parent": None, "bw": 3, "demand": [1, 1]}]}
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gen", "--fictivize", str(net))
    assert code == 1
    assert out == ""
    assert err.startswith("error: [root-count]")


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


def test_compare_bad_seed_spec(capsys):
    code, _, err = run(capsys, "compare", "--seeds", "x:y")
    assert code == 1
    assert "bad seed range" in err


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
