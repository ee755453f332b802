import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeplace import contribution
from treeplace.contribution import (
    INFINITE,
    MODE_AGGREGATE,
    MODE_PER_BUNDLE,
    NodeTable,
    equip_row,
    run_phase1,
)
from treeplace.errors import ContractViolationError, InfeasibleError
from treeplace.generator import SHAPES, GenConfig, generate, small_corpus_config
from treeplace.instance import parse_instance
from treeplace.transform import StarLeaf, transform_to_star
from tests.reference import leaf_contribution, min_bw_on_path, nodes_by_id

INF = INFINITE

# Hand-derived expected tables for the shipped worked example. Keys are
# star-tree node ids; rows run over the hop index i. See
# fixtures/README.md for how these values were fixed.
LEAF_ROWS = {
    "l": (3, 3, 3, INF, INF),
    "f": (4, 4, 4, INF),
    "x": (3, 3, INF, INF),
    "m": (2, 2, 2, 2, INF),
    "n": (5, 5, INF, INF, INF),
    "h": (8, 8, 8, INF),
    "i": (7, INF, INF, INF),
    "o": (4, 4, 4, 4, INF),
    "p": (12, 12, 12, 12, INF),
    "k": (3, INF, INF, INF),
    "y": (8, 8, 8, INF),
}

INTERNAL_ROWS = {
    "e": ((3, 3, INF, INF), ((), (), ("l",), ("l",)), 0),
    "g": ((7, INF, INF, INF), ((), ("n",), ("n",), ("m", "n")), 0),
    "j": ((4, 4, 4, INF), (("p",), ("p",), ("p",), ("o", "p")), 1),
    "b": ((7, INF, INF), ((), ("e",), ("e", "f")), 0),
    "c": ((11, INF, INF), (("g", "i"), ("g", "h", "i"), ("g", "h", "i")), 2),
    "d": ((12, 12, INF), (("k",), ("k",), ("j", "k")), 2),
    "a": ((12, INF), (("b", "c"), ("b", "c", "d")), 6),
    "__r_plus__": (((0,)), (("a",),), 7),
}


def leaf(w, qos, eligible=True):
    return StarLeaf(
        id="L", weight=w, qos=qos, eligible=eligible, origin_internal=None, origin_clients=()
    )


# --- unit: leaf formula ---------------------------------------------------


def test_leaf_row_narrated_case():
    """w=3, q=2, tight first edge: finite up to the qos, then infinite."""
    lf = leaf(3, 2)
    row = [leaf_contribution(lf, i, 4 if i else INF) for i in range(5)]
    assert row == [3, 3, 3, INF, INF]


def test_leaf_contribution_blocked_by_bandwidth():
    assert leaf_contribution(leaf(5, 4), 1, 4) == INF
    assert leaf_contribution(leaf(5, 4), 1, 5) == 5


def test_zero_weight_leaf_contributes_zero_everywhere():
    for hops, bw in [(0, INF), (1, 0), (3, 0), (9, 2)]:
        assert leaf_contribution(leaf(0, 1), hops, bw) == 0


# --- unit: greedy selection (the equip_row kernel) -------------------------


def test_greedy_two_children_removes_biggest():
    assert equip_row(["o", "p"], [4, 12], [True, True], 15) == (("p",), 4)


def test_greedy_tie_breaks_on_smallest_id():
    assert equip_row(["zz", "aa"], [9, 9], [True, True], 10) == (("aa",), 9)


def test_greedy_ineligible_overload_exhausts():
    assert equip_row(["x"], [20], [False], 15) == ((), INF)
    assert equip_row(["x"], [20], [False], 15, e0_size=0) == ((), INF)


def test_greedy_unremovable_infinite_exhausts():
    assert equip_row(["x", "a"], [INF, 2], [False, True], 15) == (("a",), INF)
    assert equip_row(["x", "a"], [INF, 2], [False, True], 15, e0_size=1) == (("a",), INF)


def test_greedy_empty_children():
    assert equip_row([], [], [], 3) == ((), 0)


@given(
    items=st.lists(
        st.tuples(
            st.one_of(st.integers(0, 40), st.just(INF)),
            st.integers(0, 20),
            st.booleans(),
        ),
        max_size=12,
    ),
    bound=st.integers(0, 60),
)
@settings(max_examples=300, deadline=None)
def test_greedy_properties(items, bound):
    keys = [f"k{num:02d}_{j}" for j, (_c, num, _e) in enumerate(items)]
    values = [c for c, _num, _e in items]
    elig = [e for _c, _num, e in items]
    by_key = dict(zip(keys, zip(values, elig)))
    selected, residual = equip_row(keys, values, elig, bound)
    if residual == INF:
        # ran out of eligible children: infinite at every row
        assert equip_row(keys, values, elig, bound, len(selected)) == (selected, INF)
        # everything eligible is in, and the rest still does not fit
        assert set(selected) == {k for k, e in zip(keys, elig) if e}
        left = [c for k, c in zip(keys, values) if k not in set(selected)]
        assert any(c == INF for c in left) or sum(left) > bound
        return
    # only eligible children are ever picked, each at most once, ascending
    assert len(set(selected)) == len(selected)
    assert all(by_key[k][1] for k in selected)
    assert list(selected) == sorted(selected)
    left = [c for k, c in zip(keys, values) if k not in set(selected)]
    assert residual == sum(left) <= bound
    # greedy certificate: putting any chosen child back breaks the bound
    for k in selected:
        c = by_key[k][0]
        assert c == INF or residual + c > bound
    # a deeper row keeps c only at row 0's equip-set size
    assert equip_row(keys, values, elig, bound, len(selected)) == (selected, residual)
    assert equip_row(keys, values, elig, bound, len(selected) + 1) == (selected, INF)


@given(
    items=st.lists(st.tuples(st.one_of(st.integers(0, 40), st.just(INF)), st.booleans()), max_size=10),
    bound=st.integers(0, 60),
    e0_size=st.integers(0, 6),
)
@settings(max_examples=300, deadline=None)
def test_row_known_infinite_without_the_greedy(items, bound, e0_size):
    """Every infinite child must be equipped, so a deeper row is infinite
    when more children are infinite than row 0 equipped (the test phase 1
    makes before calling the kernel), or when one of them is ineligible
    (the kernel runs out of eligible children)."""
    values = [c for c, _e in items]
    elig = [e for _c, e in items]
    infinite = [e for c, e in items if c == INF]
    assume(len(infinite) > e0_size or not all(infinite))
    assert equip_row(list(range(len(items))), values, elig, bound, e0_size)[1] == INF


@pytest.mark.parametrize("mode", [MODE_PER_BUNDLE, MODE_AGGREGATE])
@pytest.mark.parametrize(
    "s_demand, e0, c0", [(4, (), 9), (6, ("s",), 5)], ids=["row-0-equips-nothing", "row-0-equips-s"]
)
def test_a_merged_leaf_infinite_at_row_1_stops_its_parent(mode, s_demand, e0, c0):
    """r's merged bundle (qos 1) is infinite one hop past r, so r's row 1 is
    infinite: when row 0 equips s, as many children are infinite as row 0
    equips and the greedy finds the row infinite by running out of eligible
    children. Phase 1 stores ``(1, inf, ())`` and stops; ``table`` runs on
    past the stop, and its row 1 equips s, the one eligible child."""
    doc = {"W": 10, "nodes": [
        {"id": "R", "parent": None, "kind": "internal"},
        {"id": "r", "parent": "R", "kind": "internal", "bw": 20},
        {"id": "s", "parent": "r", "kind": "internal", "bw": 20},
        {"id": "cr", "parent": "r", "kind": "client", "bw": 20, "w": 5, "q": 1},
        {"id": "cs", "parent": "s", "kind": "client", "bw": 20, "w": s_demand, "q": 3},
    ]}
    star = transform_to_star(parse_instance(json.dumps(doc)))
    table = run_phase1(star, mode=mode)
    r = star.index["r"]
    assert [star.eligibles[k] for k in star.kids[r]] == [False, True]
    assert table.segments[r] == [(0, c0, tuple(star.index[k] for k in e0)), (1, INF, ())]
    rows = table.table("r")
    assert rows.c_row == (c0, INF, INF)
    assert rows.e_row == (e0, ("s",), ("s",))


# --- unit: internal-node row ----------------------------------------------


def test_internal_update_narrated_j():
    e_set, c_val = equip_row(["o", "p"], [4, 12], [True, True], bound=15)
    assert e_set == ("p",)
    assert c_val == 4


def test_internal_update_narrated_c():
    e_set, c_val = equip_row(
        ["g", "h", "i", "x"], [INF, 8, INF, 3], [True, True, True, False], bound=15
    )
    assert len(e_set) == 2
    assert e_set == ("g", "i")
    assert c_val == 11


def test_internal_update_exhausted_at_zero_is_infinite():
    e_set, c_val = equip_row(["x"], [20], [False], bound=15)
    assert c_val == INF
    assert e_set == ()


def test_phase1_reports_an_infinite_row_zero_as_a_defect(worked_example):
    """A transformed tree never exhausts a row 0; one whose leaves are all
    made ineligible does, and phase 1 names the node instead of calling
    the instance infeasible."""
    star = transform_to_star(worked_example)
    for v in star.order:
        if star.weights[v] is not None:
            star.eligibles[v] = False
    with pytest.raises(ContractViolationError, match=r"row 0 of '\w+'"):
        run_phase1(star)


def test_internal_update_exhausted_deeper_is_infinite():
    e_set, c_val = equip_row(["x"], [20], [False], bound=15, e0_size=0)
    assert c_val == INF
    assert e_set == ()


def test_internal_update_set_growth_is_infinite():
    # fits, but only by equipping more children than level 0 used
    e_set, c_val = equip_row(["u", "v"], [9, 9], [True, True], bound=10, e0_size=0)
    assert e_set == ("u",)
    assert c_val == INF


# --- worked example, full tables -----------------------------------------


def test_worked_example_leaf_rows(worked_example):
    table = run_phase1(transform_to_star(worked_example))
    for node, row in LEAF_ROWS.items():
        assert table.table(node).c_row == row, node


def test_worked_example_internal_rows(worked_example):
    table = run_phase1(transform_to_star(worked_example))
    for node, (c_row, e_row, m) in INTERNAL_ROWS.items():
        got = table.table(node)
        assert got.c_row == c_row, node
        assert got.e_row == e_row, node
        assert got.m_value == m, node
    assert table.min_replica_count == 7


def test_worked_example_table_deterministic(worked_example):
    star = transform_to_star(worked_example)
    one, two = run_phase1(star), run_phase1(star)
    for node in one.nodes():
        assert one.table(node) == two.table(node)


def test_min_bw_on_path(worked_example):
    star = transform_to_star(worked_example)
    assert min_bw_on_path(star, "p", 0) == INF
    assert min_bw_on_path(star, "p", 1) == 14
    assert min_bw_on_path(star, "p", 2) == 13
    assert min_bw_on_path(star, "p", 3) == 12
    with pytest.raises(ValueError):
        min_bw_on_path(star, "p", 5)


def test_table_rows_stop_at_the_qos_ceiling(worked_example):
    # l sits at depth 4 = L + 1, so its rows run to its depth
    table = run_phase1(transform_to_star(worked_example))
    assert table.table("l") == NodeTable("l", 4, (3, 3, 3, INF, INF), ((),) * 5, 0)
    # d, a leaf of qos 1 (so L = 1) at depth 5: rows end at index L + 1,
    # and the last one stands for every deeper index (c's row 2 reads d's 3)
    nodes = [{"id": "r", "parent": None, "kind": "internal"}]
    nodes += [{"id": k, "parent": p, "kind": "internal", "bw": 9} for p, k in zip("rabc", "abcd")]
    nodes.append({"id": "z", "parent": "d", "kind": "client", "bw": 9, "w": 2, "q": 2})
    star = transform_to_star(parse_instance(json.dumps({"W": 5, "nodes": nodes})))
    table = run_phase1(star)
    assert star.max_leaf_qos == 1
    assert table.table("d") == NodeTable("d", 5, (2, 2, INF), ((), (), ()), 0)
    assert table.table("c") == NodeTable("c", 4, (2, INF, INF), ((), ("d",), ("d",)), 0)


def test_aggregate_mode_tightens_bound(shared_link):
    star = transform_to_star(shared_link)
    lit = run_phase1(star)
    agg = run_phase1(star, mode=MODE_AGGREGATE)
    # two 6-weight bundles over a shared bw-10 edge: fine per-bundle,
    # impossible in aggregate without a replica at s
    assert lit.table("s").c_row[1] == 12
    assert agg.table("s").c_row[1] == INF
    assert lit.min_replica_count == agg.min_replica_count == 1


def test_unknown_mode_rejected(shared_link):
    with pytest.raises(ValueError):
        run_phase1(transform_to_star(shared_link), mode="strict")


def test_rows_past_zero_are_computed_only_where_inputs_change(monkeypatch):
    """Every bundle has qos 0, so each child value changes at index 1 and
    never again, and per-bundle mode has no bound drops: row 0 is the one
    greedy call per internal node."""
    doc = {"W": 10, "nodes": [
        {"id": "r", "parent": None, "kind": "internal"},
        {"id": "a", "parent": "r", "kind": "internal", "bw": 9},
        {"id": "u", "parent": "r", "kind": "internal", "bw": 9},
        {"id": "s", "parent": "a", "kind": "internal", "bw": 9},
        {"id": "t", "parent": "a", "kind": "internal", "bw": 9},
    ] + [
        {"id": f"c{p}", "parent": p, "kind": "client", "bw": 5, "w": 2, "q": 1}
        for p in "stu"
    ]}
    star = transform_to_star(parse_instance(json.dumps(doc)))
    calls = []
    real = contribution.equip_row
    monkeypatch.setattr(
        contribution, "equip_row",
        lambda keys, values, elig, bound, e0_size=None:
            calls.append(e0_size) or real(keys, values, elig, bound, e0_size),
    )
    table = run_phase1(star)
    internal = [v for v in star.order if star.weights[v] is None]
    assert len(internal) == 3  # the artificial root, r and a
    assert calls == [None] * len(internal)  # row 0 only
    assert table.min_replica_count == 3
    assert table.table("a").c_row == (0, 0)
    assert table.table("a").e_row == (("s", "t"), ("s", "t"))


# --- randomized invariants (small sample; the large battery lives in the
# acceptance suite) --------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_rows_monotone_and_capped(seed):
    inst = generate(
        GenConfig(seed=seed, internal=7, clients=10, capacity=30, weight_range=(0, 5))
    )
    try:
        star = transform_to_star(inst)
        table = run_phase1(star)
    except InfeasibleError:
        return
    for node in table.nodes():
        t = table.table(node)
        for a, b in zip(t.c_row, t.c_row[1:]):
            assert a <= b  # INF compares greatest
        for ea, eb in zip(t.e_row, t.e_row[1:]):
            assert len(ea) <= len(eb)
        for i, c in enumerate(t.c_row):
            if c != INF:
                assert c <= star.capacity
                assert len(t.e_row[i]) == len(t.e_row[0])


@pytest.mark.parametrize("seed", range(20))
def test_leaf_rows_match_leaf_contribution(seed):
    """Every stored leaf cell is leaf_contribution over the path minimum."""
    inst = generate(
        GenConfig(seed=seed, internal=9, clients=14, capacity=60, weight_range=(0, 6),
                  qos_range=(1, 5), bandwidth_range=(2, 9))
    )
    try:
        star = transform_to_star(inst)
    except InfeasibleError:
        return
    table = run_phase1(star)
    for node in star.leaves:
        row = table.table(node.id).c_row
        expect = tuple(
            leaf_contribution(node.leaf, i, min_bw_on_path(star, node.id, i))
            for i in range(len(row))
        )
        assert row == expect, node.id


@pytest.mark.parametrize("mode", [MODE_PER_BUNDLE, MODE_AGGREGATE])
@pytest.mark.parametrize("shape", SHAPES)
def test_stored_rows_equal_the_kernel_on_clamped_child_values(shape, mode):
    """Every internal row i, computed or carried over from row i - 1, is one
    call of the kernel ``equip_row`` on the children's values at i + 1
    (clamped to their last row) under the mode's bound, computed afresh for
    that row. So the change points, the stop and the row sharing of
    ``_internal_rows`` are checked against the plain definition; the values
    themselves are checked against ``CountLoadDP`` in ``test_count_load_dp``.
    Mixed qos and narrow links make rows change past index 1, so the change
    points are exercised."""
    checked = changed = 0
    for seed in range(30):
        inst = generate(
            GenConfig(seed=seed, internal=24, clients=40, capacity=20, shape=shape,
                      weight_range=(0, 3), qos_range=(1, 8), bandwidth_range=(3, 10))
        )
        try:
            star = transform_to_star(inst)
            table = run_phase1(star, mode=mode)
        except InfeasibleError:
            continue
        by_id = nodes_by_id(star)
        for node in table.nodes():
            if by_id[node].leaf is not None:
                continue
            got = table.table(node)
            kids = [star.ids[k] for k in star.kids[star.index[node]]]
            rows = {k: table.table(k).c_row for k in kids}
            elig = [by_id[k].leaf is None or by_id[k].leaf.eligible for k in kids]
            for i in range(len(got.c_row)):
                values = [rows[k][min(i + 1, len(rows[k]) - 1)] for k in kids]
                bound = star.capacity
                if mode == MODE_AGGREGATE and i > 0:
                    bound = min(bound, min_bw_on_path(star, node, i))
                e0_size = None if i == 0 else len(got.e_row[0])
                expect = equip_row(kids, values, elig, bound, e0_size)
                assert (got.e_row[i], got.c_row[i]) == expect, (seed, node, i)
                checked += 1
                if i >= 2 and (got.c_row[i], got.e_row[i]) != (got.c_row[i - 1], got.e_row[i - 1]):
                    changed += 1
    assert checked > 1000 and changed > 100, (checked, changed)


def _rows_past_the_stop(star, mode):
    """Check phase 1's stored rows against ``table``'s, which run on past
    each internal node's first infinite row: the finite change points are
    ``table``'s rows, and only the last one may be infinite, with every
    row after it infinite too. Returns how many rows lie past the stops."""
    table = run_phase1(star, mode=mode)
    ids = star.ids
    past = 0
    for v in star.order:
        if star.weights[v] is not None:
            continue
        full = table.table(ids[v])
        segs = table.segments[v]
        ends = [seg[0] for seg in segs[1:]] + [len(full.c_row)]
        for n, ((start, c, e), end) in enumerate(zip(segs, ends)):
            if c == INF:
                assert n == len(segs) - 1 and n > 0, (ids[v], segs)
                assert set(full.c_row[start:]) == {INF}, ids[v]
                past += len(full.c_row) - start - 1
            else:
                assert full.c_row[start:end] == (c,) * (end - start), ids[v]
                assert full.e_row[start:end] == (tuple(ids[k] for k in e),) * (end - start), ids[v]
    return past


def _corpus_stars():
    """The star trees of the oracle corpus (seeds 0-499) and of generated
    10^3-node trees of each shape with mixed qos and narrow links."""
    for seed in range(500):
        try:
            yield transform_to_star(generate(small_corpus_config(seed)))
        except InfeasibleError:
            continue
    for seed in range(6):
        inst = generate(
            GenConfig(seed=seed, internal=400, clients=600, capacity=30, shape=SHAPES[seed % 3],
                      weight_range=(0, 5), qos_range=(1, 10), bandwidth_range=(5, 20))
        )
        yield transform_to_star(inst)


@pytest.mark.parametrize("mode", [MODE_PER_BUNDLE, MODE_AGGREGATE])
def test_phase1_stops_only_where_every_later_row_is_infinite(mode):
    """The stop's lemma, on the corpus of ``_corpus_stars``."""
    past = sum(_rows_past_the_stop(star, mode) for star in _corpus_stars())
    assert past > 1000, past


@pytest.mark.parametrize("mode", [MODE_PER_BUNDLE, MODE_AGGREGATE])
def test_every_change_point_lies_within_depth_and_L_plus_one(mode):
    """Why phase 1 clips no row: every stored segment of ``v`` starts at
    ``i <= min(depth(v), L + 1)``. A leaf's walk ends at the old root's
    zero-bandwidth link and one hop past its qos; an internal node's change
    points are its children's one hop lower and its path bounds' drops.
    On the corpus of ``_corpus_stars``; both limits are reached."""
    reached = {"depth": 0, "L + 1": 0}
    for star in _corpus_stars():
        segments = run_phase1(star, mode=mode).segments
        depth = star.depth
        top = star.max_leaf_qos + 1
        for v in star.order:
            d = depth[star.ids[v]]
            last = segments[v][-1][0]
            assert last <= min(d, top), (star.ids[v], segments[v], d, top)
            if last:
                reached["depth"] += last == d
                reached["L + 1"] += last == top
    assert min(reached.values()) > 0, reached


@pytest.mark.parametrize("mode", [MODE_PER_BUNDLE, MODE_AGGREGATE])
def test_equal_stored_rows_share_one_list(mode):
    """Phase 1 gives all leaves with equal rows one list, and all internal
    nodes that equip nothing and then stop, ``[(0, c, ()), (i, inf, ())]``,
    one list per ``(c, i)``; other internal nodes keep lists of their own."""
    inst = generate(GenConfig(seed=3, internal=400, clients=600, capacity=30, weight_range=(0, 5),
                              qos_range=(1, 10), bandwidth_range=(5, 20)))
    star = transform_to_star(inst)
    segments = run_phase1(star, mode=mode).segments
    lists: dict = {}  # (leaf, rows) -> ids of the list objects holding them
    nodes = {True: 0, False: 0}
    for v in star.order:
        segs = segments[v]
        leaf = star.weights[v] is not None
        plain = len(segs) == 2 and segs[0][2] == () and segs[1][1] == INF
        lists.setdefault((leaf, leaf or plain, tuple(segs)), set()).add(id(segs))
        nodes[leaf or plain] += 1
    shared = {key: ids for key, ids in lists.items() if key[1]}
    assert all(len(ids) == 1 for ids in shared.values())
    assert sum(len(ids) for key, ids in lists.items() if not key[1]) == nodes[False] > 0
    assert len(shared) * 2 < nodes[True]  # most such nodes reuse a list
