"""The checker's own tests: each check must reject the fault it is meant for.

    python3 -m pytest perfbench/test_checker.py
"""

import json
import random

import checker
import docgen


def client(cid, parent, w, q, bw=10):
    return {"id": cid, "parent": parent, "kind": "client", "bw": bw, "w": w, "q": q}


def internal(nid, parent, bw=10):
    node = {"id": nid, "parent": parent, "kind": "internal"}
    if parent is not None:
        node["bw"] = bw
    return node


def three_branches(b_bw=10):
    """Root r over a, b, c, each with one client; c's client reaches only c.

    Optimum 3 (c, plus a or b or r for each of x and y; r cannot take both).
    """
    return checker.Instance({"W": 10, "nodes": [
        internal("r", None), internal("a", "r"), internal("b", "r", bw=b_bw), internal("c", "r"),
        client("x", "a", 6, 2), client("y", "b", 5, 2), client("z", "c", 1, 1)]})


def answer(replicas, count=None, mode=checker.PER_BUNDLE):
    return {"feasible": True, "mode": mode, "replicas": sorted(replicas),
            "count": len(replicas) if count is None else count}


def checks(inst, result, mode=checker.PER_BUNDLE, **kw):
    return {name for name, _ in checker.solution_faults(inst, result, mode, **kw)}


def test_optimal_answer_passes_every_check():
    inst = three_branches()
    assert checker.exhaustive_min(inst, checker.PER_BUNDLE) == 3
    assert checks(inst, answer({"a", "b", "c"}), optimum=3) == set()
    assert checks(inst, answer({"a", "c", "r"}), optimum=3) == set()


def test_dropped_replica_leaves_a_client_unserved():
    assert "unserved" in checks(three_branches(), answer({"a", "c"}))


def test_redundant_replica_fails_necessity():
    assert checks(three_branches(), answer({"a", "b", "c", "r"})) == {"necessity"}


def test_overloaded_server_fails_capacity():
    assert checks(three_branches(), answer({"c", "r"})) == {"capacity"}


def test_oversubscribed_link_fails_bandwidth_per_bundle():
    assert checks(three_branches(b_bw=4), answer({"a", "c", "r"})) == {"bandwidth"}


def test_oversubscribed_link_fails_bandwidth_in_aggregate_mode_only():
    # Two bundles of 5 and 4 share the link m -> r of bandwidth 8.
    inst = checker.Instance({"W": 10, "nodes": [
        internal("r", None), internal("m", "r", bw=8), internal("a", "m"), internal("b", "m"),
        client("x", "a", 5, 3), client("y", "b", 4, 3)]})
    assert checks(inst, answer({"r"}), checker.PER_BUNDLE) == set()
    assert checks(inst, answer({"r"}, mode=checker.AGGREGATE), checker.AGGREGATE) == {"bandwidth"}


def test_wrong_count_fails_count():
    assert checks(three_branches(), answer({"a", "b", "c"}, count=2)) == {"count"}


def test_unsorted_or_non_internal_replicas_fail_format():
    inst = three_branches()
    result = answer({"a", "b", "c"})
    result["replicas"] = ["c", "b", "a"]
    assert checks(inst, result) == {"format"}
    assert checks(inst, answer({"a", "b", "x"})) == {"format"}


def test_too_few_replicas_fail_lower_bound():
    # Demand 10 + 10 with W = 10 needs two servers; one replica is too few.
    inst = checker.Instance({"W": 10, "nodes": [
        internal("r", None), client("x", "r", 10, 1), client("y", "r", 10, 1)]})
    assert "lower_bound" in checks(inst, answer({"r"}))


def test_non_optimal_small_answer_fails_optimum_only():
    # {a, b} is feasible and no single replica can go, but {r} serves both.
    inst = checker.Instance({"W": 10, "nodes": [
        internal("r", None), internal("a", "r"), internal("b", "r"),
        client("x", "a", 5, 2), client("y", "b", 5, 2)]})
    optimum = checker.exhaustive_min(inst, checker.PER_BUNDLE)
    assert optimum == 1
    assert checks(inst, answer({"a", "b"})) == set()
    assert checks(inst, answer({"a", "b"}), optimum=optimum) == {"optimum"}
    assert checks(inst, answer({"r"}), optimum=optimum) == set()


def test_infeasible_verdicts_are_compared_with_the_search():
    # A bundle of 12 cannot fit W = 10 on any server.
    inst = checker.Instance({"W": 10, "nodes": [
        internal("r", None), client("x", "r", 6, 1), client("y", "r", 6, 1)]})
    assert checker.exhaustive_min(inst, checker.PER_BUNDLE) is None
    verdict = {"feasible": False, "mode": checker.PER_BUNDLE}
    assert checks(inst, verdict, optimum=None) == set()
    assert checks(inst, verdict, optimum=2) == {"optimum"}
    assert checks(inst, verdict) == {"optimum"}  # large instances are feasible by construction
    assert checks(three_branches(), answer({"a", "b", "c"}), optimum=None) == {"optimum"}


def test_redundancy_shortcut_matches_removal_by_brute_force():
    rng = random.Random(5)
    for capacity, nodes in docgen.small_batch(11, 300):
        inst = checker.Instance({"W": capacity, "nodes": nodes})
        chosen = {n for n in inst.internal if rng.random() < 0.5}
        if not checker.feasible(inst, chosen, checker.PER_BUNDLE):
            continue
        slow = [r for r in sorted(chosen)
                if checker.feasible(inst, chosen - {r}, checker.PER_BUNDLE)]
        assert checker.redundant_replicas(inst, chosen) == slow


def test_document_text_is_the_canonical_json():
    for capacity, nodes in docgen.small_batch(3, 20):
        doc = {"W": capacity, "nodes": sorted(nodes, key=lambda n: n["id"])}
        assert docgen.document_text(capacity, nodes) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_document_checks_reject_doctored_documents():
    mk = dict(internal=3, clients=2, capacity=10, weights=(1, 3), qos=(2, 2), bandwidth=(5, 9))
    good = {"W": 10, "nodes": [internal("n0", None, None), internal("n1", "n0", 5),
                               internal("n2", "n0", 9), client("c0", "n1", 1, 2, bw=5),
                               client("c1", "n2", 3, 2, bw=6)]}
    good["nodes"].sort(key=lambda n: n["id"])
    assert checker.document_faults(good, **mk) == []
    heavy = json.loads(json.dumps(good))
    heavy["nodes"][0]["w"] = 4
    assert checker.document_faults(heavy, **mk)
    bare = json.loads(json.dumps(good))
    bare["nodes"] = [n for n in bare["nodes"] if n["id"] != "c1"]
    assert any("childless" in f for f in checker.document_faults(bare, **mk))
    assert checker.document_faults(good, **dict(mk, clients=3))


def test_generated_workload_documents_are_valid_trees():
    capacity, nodes = docgen.deep(1)
    internal_count = sum(1 for n in nodes if n["kind"] == "internal")
    faults = checker.document_faults(
        {"W": capacity, "nodes": sorted(nodes, key=lambda n: n["id"])},
        internal=internal_count, clients=len(nodes) - internal_count, capacity=40,
        weights=docgen.DEEP["weights"], qos=docgen.DEEP["qos"], bandwidth=docgen.DEEP["bandwidth"])
    assert faults == []
