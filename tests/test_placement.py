import json

import pytest

from treeplace.contribution import run_phase1
from treeplace.errors import ContractViolationError, InfeasibleError
from treeplace.instance import ARTIFICIAL_ROOT_ID, NodeSpec, parse_instance
from treeplace.placement import (
    REASON_ROOT_OVERLOAD,
    PlacementResult,
    place_replicas,
    root_workload_check,
)
from treeplace.solver import solve_instance
from treeplace.transform import StarTree, transform_to_star
from tests.reference import instance_of

# Expected call sequence on the worked example: preorder, children in id
# order, equipped children restart at index 0, the rest inherit i+1.
WORKED_TRACE = (
    ("__r_plus__", 0, ("a",)),
    ("a", 0, ("b", "c")),
    ("b", 0, ()),
    ("e", 1, ()),
    ("l", 2, ()),
    ("f", 1, ()),
    ("c", 0, ("g", "i")),
    ("g", 0, ()),
    ("m", 1, ()),
    ("n", 1, ()),
    ("h", 1, ()),
    ("i", 0, ()),
    ("x", 1, ()),
    ("d", 1, ("k",)),
    ("j", 2, ("p",)),
    ("o", 3, ()),
    ("p", 0, ()),
    ("k", 0, ()),
    ("y", 2, ()),
)


def test_worked_example_placement(worked_example):
    star = transform_to_star(worked_example)
    table = run_phase1(star)
    result = place_replicas(star, table)
    assert result.replicas == ("a", "b", "c", "g", "i", "k", "p")
    assert result.cardinality == table.min_replica_count == 7
    assert result.trace == WORKED_TRACE


def test_result_trace_follows_the_walk(worked_example):
    star = transform_to_star(worked_example)
    result = place_replicas(star, run_phase1(star))
    assert result.trace == place_replicas(star, run_phase1(star)).trace
    # same replicas, one visit fewer (the merged leaf y, d's last child, cut
    # out of the walk): the traces differ
    kids = list(star.kids)
    d = star.index["d"]
    assert star.ids[kids[d][-1]] == "y"
    kids[d] = kids[d][:-1]
    cut = StarTree(star.capacity, star.ids, star.parents, star.bws, star.weights, star.qoses,
                   star.eligibles, star.bundles, kids, star.depths, star.preorder, star.max_leaf_qos)
    shorter = PlacementResult(result.replicas, result.cardinality, cut, result.table)
    assert shorter.replicas == result.replicas
    assert shorter.trace == result.trace[:-1]


def test_worked_example_increments_index_at_d(worked_example):
    """d is skipped at level 0, so its visit carries i=1 and places k."""
    star = transform_to_star(worked_example)
    result = place_replicas(star, run_phase1(star))
    assert ("d", 1, ("k",)) in result.trace


def test_trace_indices_match_equipped_distance(worked_example):
    star = transform_to_star(worked_example)
    result = place_replicas(star, run_phase1(star))
    equipped = set(result.replicas)
    parent = {n.id: n.parent for n in star.nodes}
    for node, idx, _placed in result.trace:
        # the index is the hop count to the nearest equipped node on the
        # way up, the node itself included (the artificial root ends the walk)
        cur, hops = node, 0
        while cur != ARTIFICIAL_ROOT_ID and cur not in equipped:
            cur, hops = parent[cur], hops + 1
        assert idx == hops, node


def test_root_check_passes_on_worked_example(worked_example):
    star = transform_to_star(worked_example)
    result = place_replicas(star, run_phase1(star))
    root_workload_check(star, result)  # must not raise


@pytest.mark.parametrize(
    "replicas, load",
    [
        ((), 59),  # nothing absorbs any demand
        (("a",), 59),  # the old root takes everything
        (("b", "c"), 27),  # d's subtree reaches the unequipped root
        (("a", "b"), 52),
        (("g", "i", "k", "p"), 30),
        (("a", "x"), 59),  # a merged bundle cannot serve itself
    ],
)
def test_root_check_names_the_load_left_at_the_root(worked_example, replicas, load):
    """Doctored sets: the detail is the old root with its own load when it
    is equipped, else the demand nothing below it absorbs."""
    star = transform_to_star(worked_example)
    placed = place_replicas(star, run_phase1(star))
    result = PlacementResult(replicas, placed.cardinality, star, placed.table)
    with pytest.raises(InfeasibleError) as err:
        root_workload_check(star, result)
    assert err.value.reason == REASON_ROOT_OVERLOAD
    assert err.value.details == (("a", load),)


def test_root_check_accepts_a_non_optimal_set_that_fits(worked_example):
    star = transform_to_star(worked_example)
    replicas = ("a", "b", "c", "d", "e", "g", "j")
    placed = place_replicas(star, run_phase1(star))
    result = PlacementResult(replicas, placed.cardinality, star, placed.table)
    root_workload_check(star, result)  # must not raise


def test_single_leaf_micro():
    """One suppressed client under the root: the root itself is forced."""
    inst = parse_instance(
        json.dumps(
            {
                "W": 10,
                "nodes": [
                    {"id": "r", "parent": None, "kind": "internal"},
                    {"id": "c1", "parent": "r", "kind": "client", "bw": 5, "w": 3, "q": 2},
                ],
            }
        )
    )
    star = transform_to_star(inst)
    table = run_phase1(star)
    assert table.table(ARTIFICIAL_ROOT_ID).e_row[0] == ("r",)
    result = place_replicas(star, table)
    assert result.cardinality == 1
    # the replica lives on an eligible leaf, which keeps the id of the
    # original internal node it replaced
    assert result.replicas == ("r",)


def test_deep_path_tree_no_recursion_limit():
    """10^5-node path: both phases must cope without Python recursion."""
    n = 100_000
    nodes = [NodeSpec("n%06d" % 0, None, "internal")]
    for k in range(1, n):
        nodes.append(NodeSpec("n%06d" % k, "n%06d" % (k - 1), "internal", bw=10))
    nodes.append(NodeSpec("leafc", "n%06d" % (n - 1), "client", bw=10, w=4, q=3))
    inst = instance_of(10, nodes)
    out = solve_instance(inst)
    assert out.cardinality == 1
    # served within 3 hops of the bottom of the chain
    assert out.replicas[0] >= "n%06d" % (n - 4)


def test_map_rejects_ineligible_leaf(worked_example):
    """A table that equips the merged leaf x is a solver bug, not a placement."""
    star = transform_to_star(worked_example)
    table = run_phase1(star)
    table.segments[star.root] = [(0, 0, (star.index["x"],))]
    with pytest.raises(ContractViolationError, match="ineligible leaf 'x'"):
        place_replicas(star, table)
