"""The benchmark's runs wrap and read program names; keep them working.

``perfbench/tracing.py`` replaces the functions listed in its ``WRAPPED``
table and reads attributes of the objects they return, and
``perfbench/child.py`` repeats ``treeplace solve`` through the program's
own calls. A rename in the program would break the benchmark without
failing any other test.
"""

import importlib.util
import json
import sys

import pytest

import treeplace.cli as cli
from treeplace.instance import MODES, parse_instance
from treeplace.solver import solve_instance
from tests.conftest import FIXTURES, load_fixture_text

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", FIXTURES.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# child.py imports its neighbour as ``tracing``, so perfbench/ goes on the path
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_child", FIXTURES.parent / "perfbench" / "child.py"
)
child = importlib.util.module_from_spec(_SPEC)
_saved_path = sys.path.copy()
sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
try:
    _SPEC.loader.exec_module(child)
finally:
    sys.path[:] = _saved_path

_INFEASIBLE = json.dumps({"W": 3, "nodes": [
    {"id": "r", "parent": None, "kind": "internal"},
    {"id": "c1", "parent": "r", "kind": "client", "bw": 9, "w": 2, "q": 1},
    {"id": "c2", "parent": "r", "kind": "client", "bw": 9, "w": 2, "q": 1},
]})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fixture", ["worked_example.json", "shared_link.json"])
def test_traced_solve_reads_the_program(tmp_path, capsys, fixture, mode):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _span in tracing.WRAPPED]
    tracer = tracing.Tracer()
    out_path = tmp_path / "out.json"
    try:
        tracer.install()
        code = cli.main(["solve", str(FIXTURES / fixture), "--mode", mode,
                         "--out", str(out_path)])
        metrics = tracer.metrics(1.0, 0.0, 0.0)
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
    capsys.readouterr()
    assert all(getattr(module, attr) is fn for module, attr, fn in saved)
    assert code == 0

    inst = parse_instance(load_fixture_text(fixture))
    out = solve_instance(inst, mode=mode)
    assert json.loads(out_path.read_text())["count"] == out.cardinality
    assert metrics["instance.nodes"] == len(inst.nodes)
    assert metrics["transform.star_nodes"] == len(out.star.nodes)
    assert metrics["transform.eligible_leaves"] + metrics["transform.merged_leaves"] == len(
        out.star.leaves
    )
    assert metrics["transform.max_depth"] == max(out.star.depth.values())
    assert metrics["contribution.L"] == out.star.max_leaf_qos
    assert metrics["contribution.cells"] >= len(out.star.nodes)
    assert metrics["placement.replicas"] == out.cardinality
    assert metrics["verifier.link_flow_entries"] > 0
    for stage in ("parse", "solve", "transform", "phase1", "place", "root_check", "write"):
        assert stage in tracer.total, stage
    assert metrics[f"verifier.verify_placement_s.{mode}"] > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("doc", ["worked_example.json", "shared_link.json", "infeasible"])
def test_batch_solve_writes_what_solve_writes(tmp_path, capsys, doc, mode):
    """The small-batch workload's ``solve_like_cli`` gives the bytes that
    ``treeplace solve --out`` writes."""
    path = tmp_path / "doc.json"
    path.write_text(_INFEASIBLE if doc == "infeasible" else load_fixture_text(doc))
    out_path = tmp_path / "out.json"
    code = cli.main(["solve", str(path), "--mode", mode, "--out", str(out_path)])
    capsys.readouterr()
    assert code == (2 if doc == "infeasible" else 0)
    assert child.solve_like_cli(path.read_text(), mode).encode() == out_path.read_bytes()
