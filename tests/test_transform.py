import collections
import json
import random

import pytest

from treeplace.errors import InfeasibleError
from treeplace.generator import GenConfig, generate, small_corpus_config
from treeplace.instance import KIND_CLIENT, MODES, SHAPES, NetworkInstance, parse_instance
from treeplace.solver import solve_instance
from treeplace.transform import (
    ARTIFICIAL_ROOT_ID,
    REASON_BUNDLE,
    REASON_CAPACITY,
    REASON_LINK,
    UNBOUNDED,
    PrecheckFinding,
    star_to_document,
    transform_to_star,
)
from treeplace.verifier import verify_placement
from tests import reference
from tests.reference import clients_of, nodes_by_id


def build(w, nodes):
    return parse_instance(json.dumps({"W": w, "nodes": nodes}))


def client(id, parent, w, q, bw=99):
    return {"id": id, "parent": parent, "kind": "client", "bw": bw, "w": w, "q": q}


def internal(id, parent, bw=None):
    d = {"id": id, "parent": parent, "kind": "internal"}
    if bw is not None:
        d["bw"] = bw
    return d


def test_artificial_root_shape(worked_example):
    star = transform_to_star(worked_example)
    root = nodes_by_id(star)[ARTIFICIAL_ROOT_ID]
    assert root.id == ARTIFICIAL_ROOT_ID
    assert root.parent is None
    kids = tuple(star.ids[k] for k in star.kids[star.index[ARTIFICIAL_ROOT_ID]])
    assert kids == ("a",)
    assert nodes_by_id(star)["a"].bw == 0  # the flow-blocking link


def test_worked_example_star_shape(worked_example):
    """Suppression and compression land exactly where expected."""
    star = transform_to_star(worked_example)
    leaves = {n.id: n.leaf for n in star.leaves}
    assert sorted(leaves) == ["f", "h", "i", "k", "l", "m", "n", "o", "p", "x", "y"]
    internals = sorted(n.id for n in star.nodes if n.leaf is None)
    assert internals == [ARTIFICIAL_ROOT_ID, "a", "b", "c", "d", "e", "g", "j"]
    # the original instance really has 16 internal nodes
    assert len(worked_example.internal_ids) == 16

    # suppressed: parent had only clients, stays eligible, qos drops by one
    assert leaves["l"].eligible
    assert leaves["l"].origin_internal == "l"
    assert leaves["l"].origin_clients == ("zl",)
    assert (leaves["l"].weight, leaves["l"].qos) == (3, 2)
    assert nodes_by_id(star)["l"].bw == 4  # keeps the original parent link

    # compressed: mixed children, merged clients stay a client bundle
    x = leaves["x"]
    assert not x.eligible
    assert x.origin_internal is None
    assert x.origin_clients == ("x", "x2")
    assert (x.weight, x.qos) == (3, 1)
    assert nodes_by_id(star)["x"].bw == UNBOUNDED

    y = leaves["y"]
    assert not y.eligible and (y.weight, y.qos) == (8, 2)

    p = leaves["p"]
    assert p.eligible and (p.weight, p.qos) == (12, 3)
    assert p.origin_clients == ("zp1", "zp2")


def test_demand_conserved(worked_example):
    star = transform_to_star(worked_example)
    assert sum(n.leaf.weight for n in star.leaves) == sum(
        c.w for c in clients_of(worked_example)
    )


@pytest.mark.parametrize("seed", range(15))
def test_demand_conserved_generated(seed):
    # weights capped below the bandwidth floor so the precheck cannot trip
    inst = generate(
        GenConfig(seed=seed, internal=6, clients=9, capacity=50, weight_range=(1, 4))
    )
    star = transform_to_star(inst)
    assert sum(n.leaf.weight for n in star.leaves) == sum(c.w for c in clients_of(inst))
    # every original client is accounted for exactly once
    seen = [c for n in star.leaves for c in n.leaf.origin_clients]
    assert sorted(seen) == sorted(c.id for c in clients_of(inst))


def test_depths(worked_example):
    star = transform_to_star(worked_example)
    d = star.depth
    assert d[ARTIFICIAL_ROOT_ID] == 0
    assert d["a"] == 1
    assert d["b"] == d["c"] == d["d"] == 2
    assert d["l"] == 4 and d["p"] == 4 and d["x"] == 3


@pytest.mark.parametrize("mode", MODES)
def test_a_solve_builds_no_depth(worked_example, shared_link, mode):
    """Phase 1, placement and the root check read no depth, so a solve
    leaves the ``depth`` view unbuilt. ``order`` starts at the root and
    lists every star node that is not a hole once, each after its parent."""
    insts = [worked_example, shared_link]
    insts += [generate(GenConfig(seed=seed, internal=400, clients=600, capacity=60, shape=shape,
                                 bandwidth_range=(8, 20)))
              for seed, shape in enumerate(SHAPES)]
    for inst in insts:
        star = solve_instance(inst, mode=mode).star
        assert "depth" not in vars(star)
        assert star.order[0] == star.root
        seen = {star.root}
        for v in star.order[1:]:
            assert star.parents[v] in seen and v not in seen, star.ids[v]
            seen.add(v)
        assert len(seen) == len(star.order)
        assert seen == {v for v, up in enumerate(star.parents) if up >= 0} | {star.root}


@pytest.mark.parametrize("shape", SHAPES)
def test_child_lists_are_the_internal_children_plus_the_merged_leaf(shape):
    """Each star internal node lists its original internal children and, if
    it also has clients, its merged leaf (its smallest client), in id order;
    the artificial root lists the old root. Leaves and holes list nothing."""
    inst = generate(GenConfig(seed=5, internal=400, clients=600, capacity=60, shape=shape,
                              bandwidth_range=(8, 20)))
    star = transform_to_star(inst)
    inner = collections.defaultdict(list)
    clients = collections.defaultdict(list)
    for v, (kind, up) in enumerate(zip(inst.kinds, inst.parent_index)):
        (clients if kind == KIND_CLIENT else inner)[up].append(inst.ids[v])
    merged = 0
    for v, node in enumerate(star.ids):
        kids = [star.ids[k] for k in star.kids[v]]
        if v == star.root:
            assert kids == inner[-1]
        elif star.weights[v] is None and star.parents[v] >= 0:
            expect = inner[inst.index[node]] + clients[inst.index[node]][:1]
            assert kids == sorted(expect), node
            merged += bool(clients[inst.index[node]])
        else:
            assert kids == [], node
    assert merged > 0


def test_precheck_failure_raises_link_reason():
    inst = build(
        10,
        [internal("r", None), client("c1", "r", w=6, q=1, bw=4)],
    )
    with pytest.raises(InfeasibleError) as err:
        transform_to_star(inst)
    assert err.value.reason == REASON_LINK
    assert err.value.details[0].client == "c1"


def test_precheck_failure_raises_capacity_reason():
    inst = build(4, [internal("r", None), client("c1", "r", w=6, q=1, bw=9)])
    with pytest.raises(InfeasibleError) as err:
        transform_to_star(inst)
    assert err.value.reason == REASON_CAPACITY


def test_screen_findings_come_in_client_id_order():
    # clients of two parents interleave in id order; c3 fails both checks
    inst = build(
        8,
        [
            internal("r", None),
            internal("s", "r", bw=50),
            internal("t", "r", bw=50),
            client("c1", "t", w=9, q=2),
            client("c2", "s", w=1, q=2),
            client("c3", "s", w=12, q=2, bw=10),
            client("c4", "t", w=3, q=2, bw=2),
        ],
    )
    with pytest.raises(InfeasibleError) as err:
        transform_to_star(inst)
    assert err.value.reason == REASON_LINK
    assert err.value.details == (
        PrecheckFinding("c1", "capacity", 9, 8),
        PrecheckFinding("c3", "link-bandwidth", 12, 10),
        PrecheckFinding("c3", "capacity", 12, 8),
        PrecheckFinding("c4", "link-bandwidth", 3, 2),
    )
    assert all(type(f) is PrecheckFinding for f in err.value.details)


@pytest.mark.parametrize(
    "w,bw,reason,kind,limit",
    [(4, 3, REASON_LINK, "link-bandwidth", 3), (11, 20, REASON_CAPACITY, "capacity", 10)],
)
def test_screened_client_wins_over_an_overweight_bundle(w, bw, reason, kind, limit):
    inst = build(
        10,
        [
            internal("r", None),
            internal("s", "r", bw=50),
            client("a", "s", w=6, q=2),
            client("b", "s", w=6, q=2),  # the bundle weighs 12 > W
            internal("t", "r", bw=50),
            client("c", "t", w=w, q=2, bw=bw),
        ],
    )
    with pytest.raises(InfeasibleError) as err:
        transform_to_star(inst)
    assert err.value.reason == reason
    assert err.value.details == (PrecheckFinding("c", kind, w, limit),)


def test_screen_matches_the_reference_precheck():
    seen = set()
    for seed in range(3000):
        base = generate(small_corpus_config(seed, max_internal=12, max_clients=16))
        columns = (base.ids, base.parents, base.kinds, base.bws, base.ws, base.qs)
        for capacity in (base.capacity, max(1, base.capacity // 3)):
            inst = NetworkInstance(capacity, *columns)
            findings = tuple(reference.precheck_client_links(inst))
            try:
                transform_to_star(inst)
            except InfeasibleError as exc:
                got = (exc.reason, exc.details)
            else:
                got = None
            if findings:
                link = any(kind == "link-bandwidth" for _, kind, _, _ in findings)
                assert got == (REASON_LINK if link else REASON_CAPACITY, findings)
            else:
                assert got is None or got[0] == REASON_BUNDLE
            seen.add(got and got[0])
    assert seen == {None, REASON_LINK, REASON_CAPACITY, REASON_BUNDLE}


def _tight_instance(seed: int, shape: str, nodes: int) -> NetworkInstance:
    """A generated instance with W at its heaviest sibling bundle, give or
    take one, and links as narrow as the demands. Client links are widened
    to their own demand, except one demanding client's in a quarter of draws."""
    rng = random.Random(seed)
    internal = nodes // 2
    base = generate(GenConfig(seed, internal, nodes - internal, capacity=1, shape=shape,
                              weight_range=(0, 8), qos_range=(1, 4), bandwidth_range=(1, 16)))
    ws, bws = base.ws, list(base.bws)
    bundles: collections.Counter = collections.Counter()
    clients = [v for v, kind in enumerate(base.kinds) if kind == KIND_CLIENT]
    for v in clients:
        bundles[base.parents[v]] += ws[v]
        bws[v] = max(bws[v], ws[v])
    if rng.random() < 0.25:
        v = rng.choice([v for v in clients if ws[v]])
        bws[v] = ws[v] - 1
    capacity = max(1, max(bundles.values()) + rng.choice((-1, 0, 0, 1)))
    return NetworkInstance(capacity, base.ids, base.parents, base.kinds, bws, ws, base.qs)


def test_screen_is_exact_at_real_sizes():
    """Needs no oracle, so it holds at any size: the screen passes exactly
    when the set of all internal nodes verifies, and exactly when a solve
    returns a placement that verifies. Each mode and shape runs at six
    sizes from 10^2 to 10^4 nodes."""
    seen = set()
    for seed in range(36):
        mode, shape = MODES[seed % 2], SHAPES[seed // 2 % 3]
        nodes = round(10 ** (2 + 2 * (seed // 6) / 5))
        inst = _tight_instance(seed, shape, nodes)
        try:
            transform_to_star(inst)
        except InfeasibleError:
            screened = False
        else:
            screened = True
        everywhere = verify_placement(inst, set(inst.internal_ids), mode).feasible
        try:
            placed = solve_instance(inst, mode)
        except InfeasibleError:
            solved = False
        else:
            solved = verify_placement(inst, set(placed.replicas), mode).feasible
        assert screened == everywhere == solved, (seed, mode, shape, nodes)
        seen.add((mode, screened))
    assert len(seen) == 4, seen


def test_merged_bundle_over_capacity_is_infeasible():
    # each client fits alone, the forced merge does not
    inst = build(
        10,
        [
            internal("r", None),
            internal("s", "r", bw=50),
            client("c1", "s", w=6, q=2),
            client("c2", "s", w=6, q=2),
        ],
    )
    with pytest.raises(InfeasibleError) as err:
        transform_to_star(inst)
    assert err.value.reason == REASON_BUNDLE
    assert err.value.details == (("s", 12),)


def test_zero_weight_bundle_keeps_qos_of_all_clients():
    # no demanding client: the fallback range comes from the full group
    inst = build(
        10,
        [
            internal("r", None),
            internal("s", "r", bw=7),
            client("c1", "s", w=0, q=2, bw=3),
            client("c2", "s", w=0, q=5, bw=3),
        ],
    )
    star = transform_to_star(inst)
    node = nodes_by_id(star)["s"]
    assert (node.parent, node.bw) == ("r", 7)
    assert node.leaf.weight == 0
    assert node.leaf.qos == 1  # min(2, 5) - 1
    assert node.leaf.eligible
    assert node.leaf.origin_internal == "s"
    assert node.leaf.origin_clients == ("c1", "c2")


def test_suppression_ignores_zero_weight_qos_when_demand_exists():
    inst = build(
        10,
        [
            internal("r", None),
            internal("s", "r", bw=7),
            client("c1", "s", w=0, q=1, bw=3),
            client("c2", "s", w=4, q=5, bw=9),
        ],
    )
    leaf = nodes_by_id(transform_to_star(inst))["s"].leaf
    # the q=1 client has no demand, so it must not tighten the range
    assert (leaf.weight, leaf.qos) == (4, 4)
    assert leaf.eligible


def test_compression_takes_min_qos_without_decrement():
    inst = build(
        10,
        [
            internal("r", None),
            internal("s", "r", bw=7),
            client("c2", "s", w=4, q=5, bw=9),
            client("c9", "s", w=1, q=2, bw=3),
            internal("t", "s", bw=6),
            client("z", "t", w=1, q=3, bw=3),
        ],
    )
    star = transform_to_star(inst)
    node = nodes_by_id(star)["c2"]  # smallest client id names the merge
    assert (node.parent, node.bw) == ("s", UNBOUNDED)
    leaf = node.leaf
    assert leaf.id == "c2"
    assert (leaf.weight, leaf.qos) == (5, 2)
    assert not leaf.eligible
    assert leaf.origin_internal is None
    assert leaf.origin_clients == ("c2", "c9")
    assert "c9" not in nodes_by_id(star)
    assert tuple(star.ids[k] for k in star.kids[star.index["s"]]) == ("c2", "t")


def test_star_document_uses_null_for_unbounded(worked_example):
    text = star_to_document(transform_to_star(worked_example))
    doc = json.loads(text)
    assert doc["root_plus"] == ARTIFICIAL_ROOT_ID
    by_id = {n["id"]: n for n in doc["nodes"]}
    assert by_id["x"]["bw"] is None  # compressed leaves ride a free link
    assert by_id["l"]["bw"] == 4
    assert by_id["x"]["origin"]["clients"] == ["x", "x2"]
    # stable output, the stock encoder's bytes
    assert text == star_to_document(transform_to_star(worked_example))
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_single_client_instance():
    inst = build(10, [internal("r", None), client("c1", "r", w=3, q=2, bw=5)])
    star = transform_to_star(inst)
    # r had only clients: suppressed into an eligible leaf below r+
    leaf = nodes_by_id(star)["r"]
    assert leaf.leaf is not None and leaf.leaf.eligible
    assert leaf.parent == ARTIFICIAL_ROOT_ID
    assert leaf.bw == 0
    assert (leaf.leaf.weight, leaf.leaf.qos) == (3, 1)
