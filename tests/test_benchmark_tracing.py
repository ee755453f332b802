"""The benchmark's traced run wraps and reads program names; keep them working.

``perfbench/tracing.py`` replaces the functions listed in its ``WRAPPED``
table and reads attributes of the objects they return. A rename in the
program would break the benchmark without failing any other test.
"""

import importlib.util
import json

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
    assert metrics["transform.max_depth"] == max(out.star.depths)
    assert metrics["contribution.L"] == out.star.max_leaf_qos
    assert metrics["contribution.cells"] >= len(out.star.nodes)
    assert metrics["placement.replicas"] == out.cardinality
    assert metrics["verifier.link_flow_entries"] > 0
    for stage in ("parse", "solve", "transform", "phase1", "place", "root_check", "write"):
        assert stage in tracer.total, stage
    assert metrics[f"verifier.verify_placement_s.{mode}"] > 0
