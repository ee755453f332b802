import json
import random

import pytest

from treeplace.errors import InfeasibleError, StructureError
from treeplace.generator import SHAPES, GenConfig, generate, small_corpus_config
from treeplace.instance import ARTIFICIAL_ROOT_ID, parse_instance
from treeplace.solver import solve_instance
from treeplace.transform import transform_to_star
from treeplace.verifier import MODE_AGGREGATE, verify_placement
from tests import reference
from tests.reference import clients_of, nodes_by_id, verify_star_placement


def tiny(w=3, q=1, bw=9, W=10):
    return parse_instance(
        json.dumps(
            {
                "W": W,
                "nodes": [
                    {"id": "r", "parent": None, "kind": "internal"},
                    {"id": "s", "parent": "r", "kind": "internal", "bw": 9},
                    {"id": "t", "parent": "s", "kind": "internal", "bw": 9},
                    {"id": "c1", "parent": "t", "kind": "client", "bw": bw, "w": w, "q": q},
                ],
            }
        )
    )


def test_closest_picks_equipped_parent():
    report = verify_placement(tiny(q=1), {"t"})
    assert report.assignment == {"c1": "t"}
    assert report.violations == ()


def test_closest_prefers_nearest_of_several():
    assert verify_placement(tiny(q=3), {"r", "s", "t"}).assignment["c1"] == "t"
    assert verify_placement(tiny(q=3), {"r", "s"}).assignment["c1"] == "s"


def test_out_of_range_replica_is_unserved():
    # only replica is 2 hops up but q=1
    report = verify_placement(tiny(q=1), {"s"})
    assert report.assignment == {"c1": None}
    assert [(v.kind, v.location, v.amount) for v in report.violations] == [("unserved", "c1", 3)]


def test_empty_replica_set_reports_unserved():
    report = verify_placement(tiny(), set())
    assert not report.feasible
    assert report.violations[0].kind == "unserved"


def test_zero_weight_client_never_needs_service():
    report = verify_placement(tiny(w=0), set())
    assert report.feasible
    assert report.assignment == {"c1": None}


def test_capacity_violation_reports_excess():
    report = verify_placement(tiny(w=9, W=6, q=2), {"s"})
    kinds = [(v.kind, v.location, v.amount) for v in report.violations]
    assert ("capacity", "s", 3) in kinds


def test_bandwidth_client_edge_checked():
    report = verify_placement(tiny(w=8, bw=5, W=20), {"t"})
    assert [(v.kind, v.location, v.amount) for v in report.violations] == [
        ("bandwidth", "c1", 3)
    ]


def test_replicas_must_be_internal():
    with pytest.raises(StructureError):
        verify_placement(tiny(), {"c1"})
    with pytest.raises(StructureError):
        verify_placement(tiny(), {"ghost"})


def test_unknown_mode():
    with pytest.raises(ValueError):
        verify_placement(tiny(), {"t"}, mode="strictest")


def test_worked_example_solution_report(worked_example):
    out = solve_instance(worked_example)
    report = verify_placement(worked_example, set(out.replicas))
    assert report.feasible
    assert report.server_loads == {
        "a": 12, "b": 7, "c": 11, "g": 7, "i": 7, "k": 3, "p": 12,
    }
    # the two merged x-clients are both served at c
    assert report.assignment["x"] == "c"
    assert report.assignment["x2"] == "c"
    doc = report.to_document()
    assert doc["feasible"] is True
    assert doc["violations"] == []


def test_loads_sum_to_demands_when_served(worked_example):
    out = solve_instance(worked_example)
    report = verify_placement(worked_example, set(out.replicas))
    assert sum(report.server_loads.values()) == sum(c.w for c in clients_of(worked_example))


def test_shared_link_gap(shared_link):
    """Same replica set, different semantics: the shared edge only
    overflows when the two 6-weight bundles are summed."""
    lit = verify_placement(shared_link, {"r"})
    assert lit.feasible
    agg = verify_placement(shared_link, {"r"}, mode=MODE_AGGREGATE)
    assert [(v.kind, v.location, v.amount) for v in agg.violations] == [
        ("bandwidth", "s", 2)
    ]
    assert agg.link_flows["s"]["total"] == 12
    assert agg.link_flows["s"]["parts"] == [["t1", 6], ["t2", 6]]


def test_aggregate_feasible_implies_per_bundle():
    for seed in range(60):
        inst = generate(small_corpus_config(seed))
        internal = list(inst.internal_ids)
        rng = random.Random(seed)
        replicas = set(rng.sample(internal, rng.randint(0, len(internal))))
        agg = verify_placement(inst, replicas, mode=MODE_AGGREGATE)
        if agg.feasible:
            assert verify_placement(inst, replicas).feasible, (seed, sorted(replicas))


def test_star_equivalence_on_random_subsets():
    """Per-bundle feasibility must survive normalization unchanged."""
    checked = 0
    for seed in range(60):
        inst = generate(small_corpus_config(seed))
        try:
            star = transform_to_star(inst)
        except InfeasibleError:
            continue
        eligible = sorted(
            n.id
            for n in star.nodes
            if (n.leaf is None and n.id != ARTIFICIAL_ROOT_ID)
            or (n.leaf is not None and n.leaf.eligible)
        )
        by_id = nodes_by_id(star)
        rng = random.Random(seed)
        for _ in range(8):
            sub = frozenset(rng.sample(eligible, rng.randint(0, len(eligible))))
            ok_star, _ = verify_star_placement(star, sub)
            original = {
                by_id[s].leaf.origin_internal if by_id[s].leaf else s
                for s in sub
            }
            assert ok_star == verify_placement(inst, original).feasible
            checked += 1
    assert checked > 200


def test_report_document_is_sorted(worked_example):
    out = solve_instance(worked_example)
    doc = verify_placement(worked_example, set(out.replicas)).to_document()
    assert list(doc["assignment"]) == sorted(doc["assignment"])
    assert list(doc["server_loads"]) == sorted(doc["server_loads"])
    assert list(doc["link_flows"]) == sorted(doc["link_flows"])


@pytest.mark.parametrize("mode", ["per-bundle", MODE_AGGREGATE])
def test_report_matches_the_id_walking_reference(mode):
    """Reports on random replica subsets equal the reference's, field by
    field and in order, link flows included: on the small corpus and on
    generated 10^3-node instances, whose subsets leave clients unserved,
    servers over capacity and links over bandwidth. Served siblings
    always share one server."""
    instances = []
    for seed in range(80):
        cfg = small_corpus_config(seed)
        if seed % 4 == 3:
            cfg = GenConfig(seed=seed, internal=60, clients=90, capacity=25,
                            shape=("balanced", "path", "random")[seed % 3],
                            weight_range=(0, 6), qos_range=(1, 5), bandwidth_range=(2, 14))
        instances.append((seed, generate(cfg), 6))
    for seed in range(6):
        cfg = GenConfig(seed=seed, internal=400, clients=600, capacity=30, shape=SHAPES[seed % 3],
                        weight_range=(0, 5), qos_range=(1, 10), bandwidth_range=(5, 20))
        instances.append((seed, generate(cfg), 4))
    compared = 0
    kinds = {"unserved": 0, "capacity": 0, "bandwidth": 0}
    for seed, inst, subsets in instances:
        internal = list(inst.internal_ids)
        rng = random.Random(seed)
        for _ in range(subsets):
            replicas = set(rng.sample(internal, rng.randint(0, len(internal))))
            got = verify_placement(inst, replicas, mode=mode)
            want = reference.verify_placement(inst, replicas, mode)
            assert list(got.assignment.items()) == list(want["assignment"].items())
            assert list(got.server_loads.items()) == list(want["server_loads"].items())
            assert got.violations == want["violations"]
            assert got.link_flows == want["link_flows"]
            bundle_servers: dict = {}
            for client in clients_of(inst):
                server = got.assignment[client.id]
                if server is not None:
                    assert bundle_servers.setdefault(client.parent, server) == server
            for v in got.violations:
                kinds[v.kind] += 1
            compared += 1
    assert compared == 504
    assert min(kinds.values()) > 100, kinds
