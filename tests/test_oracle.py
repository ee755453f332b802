import json
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from treeplace.errors import GuardExceededError, InfeasibleError
from treeplace.generator import SHAPES, GenConfig, generate
from treeplace.instance import KIND_CLIENT, MODE_AGGREGATE, MODE_PER_BUNDLE, NetworkInstance, parse_instance
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


# --- metamorphic relations, past the oracle's reach ---------------------
#
# After Chen, Cheung & Yiu (HKUST-CS98-01): with no ground truth at a few
# hundred to 1e3 nodes, per-bundle optimality still fixes how the count
# moves. Relaxing one constraint of a feasible instance keeps it feasible
# and cannot raise the count; renaming the nodes changes nothing; and an
# aggregate-feasible set is per-bundle feasible, so it bounds the count.


def _count(inst, mode=MODE_PER_BUNDLE):
    try:
        return solve_instance(inst, mode=mode).cardinality
    except InfeasibleError:
        return None


def _with(inst, capacity=None, **columns):
    """A copy of ``inst`` with W and any of its columns replaced."""
    cols = {c: list(getattr(inst, c)) for c in ("ids", "parents", "kinds", "bws", "ws", "qs")}
    cols.update(columns)
    return NetworkInstance(capacity or inst.capacity, *cols.values())


@st.composite
def _instances(draw):
    internal = draw(st.integers(100, 330))
    return generate(GenConfig(
        seed=draw(st.integers(0, 2**32)),
        internal=internal,
        clients=draw(st.integers(internal, 2 * internal)),
        capacity=draw(st.integers(12, 40)),
        shape=draw(st.sampled_from(SHAPES)),
        weight_range=(0, 6),
        qos_range=(1, draw(st.integers(1, 6))),
        bandwidth_range=(6, draw(st.integers(6, 30))),
    ))


@settings(max_examples=80, deadline=None)
@given(inst=_instances(), data=st.data())
def test_metamorphic_relations(inst, data):
    count = _count(inst)
    n = len(inst.ids)

    order = data.draw(st.permutations(range(n)), label="relabel order")
    new = [f"v{n - k:04d}" for k in order]  # the simplest order draw reverses the ids
    assume(new != sorted(new))
    index = inst.index
    parents = [None if p is None else new[index[p]] for p in inst.parents]
    assert _count(_with(inst, ids=new, parents=parents)) == count

    aggregate = _count(inst, MODE_AGGREGATE)
    if aggregate is not None:
        assert count is not None and count <= aggregate
    event("feasible" if count is not None else "infeasible")
    if count is None:
        return

    step = data.draw(st.integers(1, 20), label="step")
    clients = [v for v in range(n) if inst.kinds[v] == KIND_CLIENT]
    link = data.draw(st.sampled_from([v for v in range(n) if inst.parents[v] is not None]), label="link")
    client = data.draw(st.sampled_from(clients), label="client")
    demanding = data.draw(st.sampled_from([v for v in clients if inst.ws[v]] or clients), label="demanding")

    def bumped(column, at, by):
        return [x + by if v == at else x for v, x in enumerate(column)]

    relaxed = {
        "W up": _with(inst, capacity=inst.capacity + step),
        "bw up": _with(inst, bws=bumped(inst.bws, link, step)),
        "q up": _with(inst, qs=bumped(inst.qs, client, step)),
        "w down": _with(inst, ws=bumped(inst.ws, demanding, -min(step, inst.ws[demanding]))),
    }
    for name, other in relaxed.items():
        got = _count(other)
        assert got is not None and got <= count, (name, got, count)


def test_metamorphic_relations_at_a_hundred_thousand_nodes():
    """The same relations on one fixed 10^5-node instance, W and links tight
    enough that each relaxation, made at a random half of the nodes, lowers
    the count. Seven solves, about 3.5 s on two shared Xeon cores."""
    inst = generate(GenConfig(seed=0, internal=40_000, clients=60_000, capacity=30, shape="random",
                              weight_range=(0, 5), qos_range=(1, 8), bandwidth_range=(5, 12)))
    count = _count(inst)
    assert count is not None and count <= _count(inst, MODE_AGGREGATE)

    rng = random.Random(0)
    n = len(inst.ids)
    new = [f"v{k:06d}" for k in rng.sample(range(n), n)]
    index = inst.index
    parents = [None if p is None else new[index[p]] for p in inst.parents]
    assert _count(_with(inst, ids=new, parents=parents)) == count

    def some(column, change):
        return [change(x) if x is not None and rng.random() < 0.5 else x for x in column]

    relaxed = {
        "W up": _with(inst, capacity=inst.capacity + 3),
        "bw up": _with(inst, bws=some(inst.bws, lambda bw: bw + 3)),
        "q up": _with(inst, qs=some(inst.qs, lambda q: q + 1)),
        "w down": _with(inst, ws=some(inst.ws, lambda w: max(w - 1, 0))),
    }
    for name, other in relaxed.items():
        got = _count(other)
        assert got is not None and got < count, (name, got, count)


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
