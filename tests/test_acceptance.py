"""Acceptance gate: nine release criteria, one verdict line each.

Every test prints `ACCEPTANCE <n> <name>: PASS|FAIL` straight to the
terminal (bypassing capture) and then asserts. Criterion 9 is a
non-blocking experiment: it always reports, and only fails if the
experiment itself could not run.

The two expensive corpora (500-seed oracle comparison, 1000-instance
invariant battery) are built once and shared across criteria via
module-level caches so their cost is attributed to the first criterion
that needs them.
"""

import random
import time
from pathlib import Path

import pytest

from treeplace.cli import bench_config
from treeplace.contribution import (
    INFINITE,
    MODE_AGGREGATE,
    equip_row,
    run_phase1,
)
from treeplace.errors import InfeasibleError
from treeplace.generator import (
    GenConfig,
    SHAPES,
    fictivize,
    generate,
    generate_dual_role,
    small_corpus_config,
)
from treeplace.oracle import brute_force_min
from treeplace.solver import solve_instance
from treeplace.transform import StarLeaf, transform_to_star
from treeplace.verifier import verify_placement
from tests.reference import dual_role_brute_force_min, leaf_contribution, nodes_by_id

INF = INFINITE

EXPECTED_REPLICAS = ("a", "b", "c", "g", "i", "k", "p")

# Hand-derived tables for fixtures/worked_example.json (see the fixture
# README for the derivation and the errata against the original hand
# tabulation). Frozen here independently of the other test modules.
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
    "__r_plus__": ((0,), (("a",),), 7),
}


def _speak(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


# --- shared corpora -------------------------------------------------------

_CACHE: dict = {}


def corpus500():
    """(seed, instance, solve-output-or-None, oracle result) for 500 seeds."""
    if "corpus" not in _CACHE:
        rows = []
        for seed in range(500):
            inst = generate(small_corpus_config(seed))
            try:
                out = solve_instance(inst)
            except InfeasibleError:
                out = None
            rows.append((seed, inst, out, brute_force_min(inst)))
        _CACHE["corpus"] = rows
    return _CACHE["corpus"]


def _battery_stream():
    """Deterministic mixed stream: three oracle-sized configs, then one larger."""
    k = 0
    while True:
        if k % 4 == 3:
            rng = random.Random(71_000 + k)
            internal = rng.randint(12, 40)
            yield GenConfig(
                seed=71_000 + k,
                internal=internal,
                clients=rng.randint(internal, internal * 2),
                capacity=rng.randint(15, 60),
                shape=rng.choice(SHAPES),
                branching=(2, rng.randint(2, 4)),
                weight_range=(0, 6),
                qos_range=(1, rng.randint(2, 6)),
                bandwidth_range=(2, rng.randint(5, 30)),
            )
        else:
            yield small_corpus_config(1000 + k)
        k += 1


def battery():
    """At least 1000 instances whose phase-1 tables exist, plus solutions."""
    if "battery" not in _CACHE:
        rows = []
        stream = _battery_stream()
        attempts = 0
        while len(rows) < 1000 and attempts < 4000:
            attempts += 1
            inst = generate(next(stream))
            try:
                star = transform_to_star(inst)
                table = run_phase1(star)
            except InfeasibleError:
                continue
            try:
                out = solve_instance(inst)
            except InfeasibleError:
                out = None
            rows.append((inst, star, table, out))
        _CACHE["battery"] = rows
    return _CACHE["battery"]


# --- criteria -------------------------------------------------------------


def test_criterion_1_narrated_micro_tables(capsys):
    start = time.perf_counter()

    lf = StarLeaf(id="L", weight=3, qos=2, eligible=True,
                  origin_internal=None, origin_clients=())
    row = tuple(leaf_contribution(lf, i, 4 if i else INF) for i in range(5))
    ok = row == (3, 3, 3, INF, INF)

    e_set, c_val = equip_row(["o", "p"], [4, 12], [True, True], bound=15)
    ok = ok and e_set == ("p",) and c_val == 4

    e_set, c_val = equip_row(["g", "h", "i", "x"], [INF, 8, INF, 3],
                             [True, True, True, False], bound=15)
    ok = ok and len(e_set) == 2 and c_val == 11

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _speak(capsys, 1, "narrated-micro-tables", ok, f"{elapsed * 1000:.0f}ms")


def test_criterion_2_worked_example_reconstruction(capsys, worked_example):
    start = time.perf_counter()

    out = solve_instance(worked_example)
    ok = tuple(sorted(out.replicas)) == EXPECTED_REPLICAS and out.cardinality == 7

    table = run_phase1(transform_to_star(worked_example))
    for node, row in LEAF_ROWS.items():
        ok = ok and table.table(node).c_row == row
    for node, (c_row, e_row, m) in INTERNAL_ROWS.items():
        got = table.table(node)
        ok = ok and got.c_row == c_row and got.e_row == e_row
        ok = ok and got.m_value == m

    readme = Path(__file__).resolve().parent.parent / "fixtures" / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    ok = ok and "C(b,0)" in text and "e(c,1)" in text  # errata documented

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _speak(capsys, 2, "worked-example-reconstruction", ok, f"{elapsed * 1000:.0f}ms")


def test_criterion_3_optimality_vs_oracle(capsys):
    start = time.perf_counter()
    disagree = []
    feasible = 0
    for seed, _inst, out, truth in corpus500():
        ours = out.cardinality if out is not None else None
        if ours != truth.minimum:
            disagree.append((seed, ours, truth.minimum))
        if truth.feasible:
            feasible += 1
    elapsed = time.perf_counter() - start
    ok = not disagree and elapsed < 300
    detail = (
        f"500/500 agree, {feasible} feasible / {500 - feasible} infeasible, "
        f"{elapsed:.1f}s"
    )
    if disagree:
        detail = f"disagreements {disagree[:3]}"
    _speak(capsys, 3, "optimality-vs-oracle", ok, detail)


def test_criterion_4_solutions_verify_clean(capsys):
    bad = []
    checked = 0
    for _seed, inst, out, _truth in corpus500():
        if out is None:
            continue
        checked += 1
        report = verify_placement(inst, set(out.replicas))
        if report.violations:
            bad.append((inst, report.violations[0]))
    for inst, _star, _table, out in battery():
        if out is None:
            continue
        checked += 1
        report = verify_placement(inst, set(out.replicas))
        if report.violations:
            bad.append((inst, report.violations[0]))
    ok = not bad and checked > 0
    _speak(capsys, 4, "solutions-verify-clean", ok,
           f"{checked} solutions, 0 violations" if ok else f"{bad[0]}")


def test_criterion_5_invariant_battery(capsys):
    problems: list[str] = []
    rows = battery()
    for inst, star, table, out in rows:
        bound = star.capacity
        by_id = nodes_by_id(star)
        for node in table.nodes():
            t = table.table(node)
            for a, b in zip(t.c_row, t.c_row[1:]):
                if a > b:
                    problems.append(f"C not monotone at {node}")
            for ea, eb in zip(t.e_row, t.e_row[1:]):
                if len(ea) > len(eb):
                    problems.append(f"|e| not monotone at {node}")
            for i, c in enumerate(t.c_row):
                if c != INF and len(t.e_row[i]) != len(t.e_row[0]):
                    problems.append(f"finite C with grown e-set at {node}")
            if by_id[node].leaf is None:
                # greedy certificate: no equipped child could be put back
                for x in t.e_row[0]:
                    val = table.table(x).c_row[1]
                    if val != INF and t.c_row[0] + val <= bound:
                        problems.append(f"e({node},0) not minimal: {x}")
        if out is not None:
            if len(out.replicas) != table.min_replica_count:
                problems.append("placed count != m(T*)")
    ok = len(rows) >= 1000 and not problems
    detail = f"{len(rows)} instances, 0 failures" if ok else \
        f"{len(rows)} instances, {problems[:3]}"
    _speak(capsys, 5, "invariant-battery", ok, detail)


def bench_once(n: int, qos: int, seed: int = 7) -> float:
    """Wall-clock seconds to solve one generated instance of ~n nodes."""
    inst = generate(bench_config(n, qos, seed))
    start = time.perf_counter()
    solve_instance(inst)
    return time.perf_counter() - start


def test_criterion_6_scaling(capsys):
    # Measurement hygiene, mirroring what timeit does: drop the corpora
    # the earlier criteria cached, warm up, and keep the collector out
    # of the timed region. The runs of both sizes are interleaved, so that
    # the shared cores' speed drifting between phases moves both minimums.
    import gc

    _CACHE.clear()
    gc.collect()
    bench_once(10_000, 8)
    gc.disable()
    t5s, t4s, l2s = [], [], []
    try:
        for k in range(5):
            if k % 2 == 0:  # 3 runs at 1e5, spread over the 5 rounds
                t5s.append(bench_once(100_000, 8))
            t4s.append(bench_once(10_000, 8))
            l2s.append(bench_once(10_000, 2))
    finally:
        gc.enable()
    t5, t4, l2 = min(t5s), min(t4s), min(l2s)
    ratio = t5 / t4
    growth = t4 / max(l2, 1e-9)
    ok = t5 < 5.0 and ratio < 15.0 and t4 <= 1.5 * 4 * max(l2, 1e-3)
    _speak(
        capsys, 6, "scaling", ok,
        f"t(1e5,L=8)={t5:.2f}s, 10x-ratio={ratio:.1f}, "
        f"L-growth {growth:.2f}x vs 6.0x allowed",
    )


def test_criterion_7_bandwidth_semantics_gap(capsys, shared_link):
    lit = verify_placement(shared_link, {"r"})
    agg = verify_placement(shared_link, {"r"}, mode=MODE_AGGREGATE)
    found = [(v.kind, v.location, v.amount) for v in agg.violations]
    ok = lit.feasible and found == [("bandwidth", "s", 2)]
    _speak(capsys, 7, "bandwidth-semantics-gap", ok,
           f"per-bundle feasible, aggregate excess {found}")


def test_criterion_8_dual_role_reduction(capsys):
    mismatches = []
    total = 120
    for seed in range(total):
        net = generate_dual_role(seed, size=1 + seed % 8, capacity=2 + seed % 10)
        truth = dual_role_brute_force_min(
            net.demand, net.parents, net.bandwidth, net.capacity
        )
        try:
            ours = solve_instance(fictivize(net)).cardinality
        except InfeasibleError:
            ours = None
        if ours != truth.minimum:
            mismatches.append((seed, ours, truth.minimum))
    ok = not mismatches and total >= 100
    detail = f"{total}/{total} agree" if ok else f"mismatches {mismatches[:3]}"
    _speak(capsys, 8, "dual-role-reduction", ok, detail)


def test_criterion_9_aggregate_mode_report(capsys):
    agree = 0
    total = 300
    diverging = []
    for seed in range(total):
        inst = generate(small_corpus_config(seed))
        try:
            ours = solve_instance(inst, mode=MODE_AGGREGATE).cardinality
        except InfeasibleError:
            ours = None
        truth = brute_force_min(inst, mode=MODE_AGGREGATE).minimum
        if ours == truth:
            agree += 1
        else:
            diverging.append(seed)
    detail = f"report only: {agree}/{total} agree in aggregate mode"
    if diverging:
        detail += f", diverging seeds {diverging[:5]}"
    # Non-blocking: the criterion asks for a report, not a gate.
    _speak(capsys, 9, "aggregate-mode-experiment", agree + len(diverging) == total,
           detail)
