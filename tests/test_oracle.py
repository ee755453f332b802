import json

import pytest

from treeplace.errors import GuardExceededError
from treeplace.generator import GenConfig, generate
from treeplace.instance import parse_instance
from treeplace.oracle import DEFAULT_MAX_INTERNAL, brute_force_min
from treeplace.solver import solve_instance
from tests.reference import dual_role_brute_force_min


def test_worked_example_exhaustive(worked_example):
    res = brute_force_min(worked_example)
    assert res.feasible
    assert res.minimum == 7
    assert res.optima == 4
    assert res.explored == 26333
    out = solve_instance(worked_example)
    assert set(out.replicas) == set(res.witness)


def test_witness_is_sorted(worked_example):
    res = brute_force_min(worked_example)
    assert list(res.witness) == sorted(res.witness)


def test_infeasible_has_no_minimum():
    # demand exceeds the only client's uplink
    inst = parse_instance(
        json.dumps(
            {
                "W": 50,
                "nodes": [
                    {"id": "r", "parent": None, "kind": "internal"},
                    {"id": "c", "parent": "r", "kind": "client", "bw": 2, "w": 5, "q": 3},
                ],
            }
        )
    )
    res = brute_force_min(inst)
    assert not res.feasible
    assert res.minimum is None
    assert res.witness is None
    assert res.optima == 0


def test_guard_refuses_wide_instances():
    cfg = GenConfig(seed=3, internal=DEFAULT_MAX_INTERNAL + 2, clients=30, capacity=100)
    inst = generate(cfg)
    with pytest.raises(GuardExceededError):
        brute_force_min(inst)


def test_guard_is_adjustable():
    small = generate(GenConfig(seed=5, internal=4, clients=6, capacity=60))
    with pytest.raises(GuardExceededError):
        brute_force_min(small, max_internal=3)
    res = brute_force_min(small, max_internal=4)
    assert res.explored > 0


def test_determinism(worked_example):
    a = brute_force_min(worked_example)
    b = brute_force_min(worked_example)
    assert (a.minimum, a.witness, a.optima, a.explored) == (
        b.minimum,
        b.witness,
        b.optima,
        b.explored,
    )


# --- dual-role variant: every node may host and serves itself for free ---


def test_dual_role_single_node_self_hosts():
    res = dual_role_brute_force_min({"a": (5, 0)}, {"a": None}, {}, capacity=5)
    assert res.minimum == 1
    assert res.witness == ("a",)


def test_dual_role_capacity_too_small():
    res = dual_role_brute_force_min({"a": (5, 0)}, {"a": None}, {}, capacity=4)
    assert not res.feasible
    assert res.minimum is None


def test_dual_role_shares_when_range_allows():
    # b can reach a within 1 hop, so one copy at a suffices
    demand = {"a": (2, 0), "b": (3, 1)}
    parents = {"a": None, "b": "a"}
    res = dual_role_brute_force_min(demand, parents, {"b": 10}, capacity=5)
    assert res.minimum == 1
    assert res.witness == ("a",)
    # starve the link and each node must host its own copy
    res = dual_role_brute_force_min(demand, parents, {"b": 2}, capacity=5)
    assert res.minimum == 2
