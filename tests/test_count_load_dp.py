"""The exact count/load DP (``tests.reference.CountLoadDP``) as the reference
for the solver's minimum and for phase 1's values, in both modes.

The DP runs on the original tree and uses no star tree and no greedy, so it
shares no idea with phase 1 beyond the problem itself. It reaches sizes the
brute-force oracle cannot.
"""

import random

import pytest

from treeplace.contribution import INFINITE, run_phase1
from treeplace.errors import InfeasibleError
from treeplace.generator import SHAPES, GenConfig, generate, small_corpus_config
from treeplace.instance import ARTIFICIAL_ROOT_ID, MODE_AGGREGATE, MODE_PER_BUNDLE, MODES
from treeplace.oracle import brute_force_min
from treeplace.solver import solve_instance
from treeplace.transform import transform_to_star
from tests import hunt_aggregate
from tests.reference import CountLoadDP


def _generated(seeds):
    """Generated 10^3-node instances, the shapes in turn, with mixed qos and
    links narrow enough that the two modes' minimums part."""
    for seed in seeds:
        yield generate(
            GenConfig(seed=seed, internal=400, clients=600, capacity=30, shape=SHAPES[seed % 3],
                      weight_range=(0, 5), qos_range=(1, 10), bandwidth_range=(5, 20))
        )


@pytest.mark.parametrize("mode", MODES)
def test_dp_minimum_equals_the_oracle_on_the_small_corpus(mode):
    feasible = 0
    for seed in range(500):
        inst = generate(small_corpus_config(seed))
        truth = brute_force_min(inst, mode).minimum
        assert CountLoadDP(inst, mode).minimum == truth, seed
        feasible += truth is not None
    assert 100 < feasible < 400, feasible


def test_dp_minimum_equals_the_solver_count_at_a_thousand_nodes():
    """On every shape, in both modes; and the modes differ somewhere, so the
    aggregate bound is exercised."""
    differ = 0
    for inst in _generated(range(9)):
        counts = {}
        for mode in MODES:
            counts[mode] = CountLoadDP(inst, mode).minimum
            assert solve_instance(inst, mode).cardinality == counts[mode], mode
        differ += counts[MODE_PER_BUNDLE] != counts[MODE_AGGREGATE]
    assert differ > 0


@pytest.mark.parametrize("mode", MODES)
def test_every_phase1_cell_is_the_dp_least_load_at_the_tables_count(mode):
    """For each original internal node v (a star internal node or an
    eligible leaf) with ``m = table(v).m_value``: row 0 is the least load on
    v when it is equipped and its subtree holds m + 1 replicas, and row
    ``i >= 1`` the least load the subtree pushes i hops up with v not
    equipped and m replicas below it, for every ``i < depth(v)`` (deeper
    rows name the artificial root). ``table`` re-derives the rows past
    phase 1's stop. Merged leaves have no DP state; their values are
    checked through their parents' cells."""
    cells = finite = 0
    small = (generate(small_corpus_config(seed)) for seed in range(500))
    for inst in (*small, *_generated(range(6))):
        try:
            star = transform_to_star(inst)
        except InfeasibleError:
            continue
        table = run_phase1(star, mode=mode)
        dp = CountLoadDP(inst, mode)
        depth = star.depth
        for v in star.order:
            node = star.ids[v]
            if node == ARTIFICIAL_ROOT_ID or not star.eligibles[v]:
                continue
            rows = table.table(node)
            m, c_row = rows.m_value, rows.c_row
            assert c_row[0] == dp.equipped_load(node, m + 1), (node, 0)
            for i in range(1, depth[node]):
                c = c_row[min(i, len(c_row) - 1)]  # rows past L + 1 equal row L + 1
                assert c == dp.pushed_load(node, i, m), (node, i)
                finite += c != INFINITE
            cells += depth[node]
    assert cells > 100_000 and finite > 10_000, (cells, finite)


def test_the_hunt_runs_its_first_draws():
    """A smoke test of ``tests/hunt_aggregate.py``, which runs outside Tier-1:
    its first 20 draws of seed 0 meet ``CountLoadDP`` in both modes, and the
    draws include feasible instances whose two modes differ."""
    rng = random.Random(0)
    feasible = differ = 0
    for k in range(20):
        inst = generate(hunt_aggregate.draw(rng, seed=k))
        exact = {mode: CountLoadDP(inst, mode).minimum for mode in MODES}
        for mode in MODES:
            assert hunt_aggregate.solver_count(inst, mode) == exact[mode], (k, mode)
        feasible += exact[MODE_PER_BUNDLE] is not None
        differ += exact[MODE_PER_BUNDLE] != exact[MODE_AGGREGATE]
    assert feasible > 0 and differ > 0, (feasible, differ)
