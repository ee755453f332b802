import copy
import itertools
import json

import pytest

from treeplace.contribution import run_phase1
from treeplace.errors import ContractViolationError, InfeasibleError
from treeplace.generator import SHAPES, GenConfig, generate, small_corpus_config
from treeplace.instance import ARTIFICIAL_ROOT_ID, MODE_AGGREGATE, MODE_PER_BUNDLE, NodeSpec, parse_instance
from treeplace.placement import PlacementResult, place_replicas, root_workload_check
from treeplace.solver import solve_instance
from treeplace.transform import StarTree, transform_to_star
from tests import reference
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
    result = place_replicas(table)
    assert result.replicas == ("a", "b", "c", "g", "i", "k", "p")
    assert result.placed == sorted(star.index[r] for r in result.replicas)
    assert result.star is star
    assert result.cardinality == table.min_replica_count == 7
    assert result.trace == WORKED_TRACE


def test_result_trace_follows_the_walk(worked_example):
    star = transform_to_star(worked_example)
    result = place_replicas(run_phase1(star))
    assert result.trace == place_replicas(run_phase1(star)).trace
    # same replicas, one visit fewer (the merged leaf y, d's last child, cut
    # out of the walk): the traces differ
    kids = list(star.kids)
    d = star.index["d"]
    assert star.ids[kids[d][-1]] == "y"
    kids[d] = kids[d][:-1]
    cut = StarTree(star.capacity, star.ids, star.parents, star.bws, star.weights, star.qoses,
                   star.eligibles, star.bundles, kids, star.order, star.max_leaf_qos)
    cut_table = copy.copy(result.table)
    cut_table.star = cut
    shorter = PlacementResult(result.placed, cut_table)
    assert shorter.replicas == result.replicas
    assert shorter.trace == result.trace[:-1]


def test_worked_example_increments_index_at_d(worked_example):
    """d is skipped at level 0, so its visit carries i=1 and places k."""
    star = transform_to_star(worked_example)
    result = place_replicas(run_phase1(star))
    assert ("d", 1, ("k",)) in result.trace


def test_trace_indices_match_equipped_distance(worked_example):
    star = transform_to_star(worked_example)
    result = place_replicas(run_phase1(star))
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
    result = place_replicas(run_phase1(star))
    root_workload_check(result)  # must not raise


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
    """Doctored sets are a solver defect, not an infeasible instance: the
    message names the old root with its own load when it is equipped, else
    the demand nothing below it absorbs."""
    star = transform_to_star(worked_example)
    result = PlacementResult(sorted(star.index[r] for r in replicas), run_phase1(star))
    with pytest.raises(ContractViolationError, match=rf"old root 'a' is left with load {load}\b"):
        root_workload_check(result)


def test_root_check_accepts_a_non_optimal_set_that_fits(worked_example):
    star = transform_to_star(worked_example)
    replicas = ("a", "b", "c", "d", "e", "g", "j")
    result = PlacementResult(sorted(star.index[r] for r in replicas), run_phase1(star))
    assert result.replicas == replicas
    root_workload_check(result)  # must not raise


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
    result = place_replicas(table)
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
        place_replicas(table)


def test_a_count_the_tables_do_not_keep_is_a_defect(worked_example):
    """Placement checks the replicas it finds against the tables' count."""
    table = run_phase1(transform_to_star(worked_example))
    table.min_replica_count += 1
    with pytest.raises(ContractViolationError, match="placed 7 replicas, tables promised 8"):
        place_replicas(table)


def _small_corpus_stars():
    """The star trees of the feasible small-corpus seeds 0-499."""
    for seed in range(500):
        try:
            yield transform_to_star(generate(small_corpus_config(seed)))
        except InfeasibleError:
            continue


def _generated_stars():
    """The star trees of generated 10^3-node trees of each shape, with mixed
    qos and narrow links."""
    for seed in range(6):
        yield transform_to_star(generate(
            GenConfig(seed=seed, internal=400, clients=600, capacity=30, shape=SHAPES[seed % 3],
                      weight_range=(0, 5), qos_range=(1, 10), bandwidth_range=(5, 20))
        ))


class _Unreadable:
    """Stands in for the segments of a node with no replica below it."""

    def __init__(self, node: int):
        self.node = node

    def _fail(self, *_args):
        raise AssertionError(f"placement read the segments of replica-free star node {self.node}")

    __iter__ = __reversed__ = __getitem__ = __len__ = _fail


@pytest.mark.parametrize("mode", [MODE_PER_BUNDLE, MODE_AGGREGATE])
def test_placement_reads_no_replica_free_subtree(mode):
    """With the segments of every node whose subtree holds no replica
    (m = 0) made unreadable, placement still finds the same replicas."""
    blinded = 0
    for star in itertools.chain(_small_corpus_stars(), _generated_stars()):
        table = run_phase1(star, mode=mode)
        blind = copy.copy(table)
        blind.segments = [segs if m else _Unreadable(v)
                          for v, (segs, m) in enumerate(zip(table.segments, table.m))]
        assert place_replicas(blind).placed == place_replicas(table).placed
        blinded += sum(1 for v in star.order if not table.m[v])
    assert blinded > 3_000, blinded


def _root_check_outcome(check, result: PlacementResult) -> str | None:
    try:
        check(result)
    except ContractViolationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mode", [MODE_PER_BUNDLE, MODE_AGGREGATE])
def test_root_check_matches_the_preorder_reference(mode):
    """The walk down from the old root passes, or raises with the same
    message, exactly where the full top-down pass does: on every
    small-corpus placement, with each replica dropped in turn (the old
    root's among them), and with every merged bundle listed as a replica
    as well, which equips nothing."""
    seen = {"raised": 0, "old root dropped": 0, "merged listed": 0}
    for star in _small_corpus_stars():
        result = place_replicas(run_phase1(star, mode=mode))
        (old_root,) = star.kids[star.root]
        merged = [v for v in star.order if star.weights[v] is not None and not star.eligibles[v]]
        doctored = [result.placed, sorted(result.placed + merged)]
        for gone in result.placed:
            kept = [r for r in result.placed if r != gone]
            doctored += [kept, sorted(kept + merged)]
            seen["old root dropped"] += gone == old_root
        for placed in doctored:
            doctored_result = PlacementResult(placed, result.table)
            want = _root_check_outcome(reference.root_workload_check, doctored_result)
            assert _root_check_outcome(root_workload_check, doctored_result) == want, doctored_result.replicas
            seen["raised"] += want is not None
        seen["merged listed"] += bool(merged)
    assert min(seen.values()) > 50, seen
