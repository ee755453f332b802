import hashlib
import json
import random
import tracemalloc

import pytest

from treeplace.cli import bench_config
from treeplace.errors import ConfigError
from treeplace.generator import (
    DualRoleNetwork,
    GenConfig,
    _below,
    _belows,
    _shuffle,
    fictivize,
    generate,
    generate_dual_role,
    parse_dual_role,
    serialize_dual_role,
    small_corpus_config,
)
from treeplace.instance import parse_instance, serialize_instance, validate_instance
from treeplace.solver import solve_instance
from tests.reference import dual_role_brute_force_min


def test_same_seed_same_document():
    cfg = GenConfig(seed=42, internal=6, clients=9, capacity=30)
    assert serialize_instance(generate(cfg)) == serialize_instance(generate(cfg))


@pytest.mark.parametrize(
    "cfg,digest",
    [
        (GenConfig(seed=3, internal=400, clients=600, capacity=50, shape="balanced",
                   branching=(1, 4)), "048de11f5162303da401a2b3af7c641577b29fdd"),
        (GenConfig(seed=4, internal=300, clients=120, capacity=50, shape="path"),
         "fbf1af7fc012712043de568c8c785b53c3e2b4e7"),
        (GenConfig(seed=5, internal=400, clients=600, capacity=50, shape="random"),
         "da19fad6e2343bcbf84bd288ecad020dd2351b9a"),
    ],
    ids=["balanced", "path", "random"],
)
def test_documents_are_pinned(cfg, digest):
    """Seeded documents stay byte-identical: same draws, same order, same text."""
    assert hashlib.sha1(serialize_instance(generate(cfg)).encode()).hexdigest() == digest


def _sha1(texts) -> str:
    h = hashlib.sha1()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


_WIDTHS = range(1, 71)  # powers of two and 2**k + 1 up to 65 among them


@pytest.mark.parametrize("seed", range(10))
def test_below_draws_what_random_draws(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for lo in (0, 5):
        for width in _WIDTHS:
            assert lo + _below(ours.getrandbits, width) == theirs.randint(lo, lo + width - 1)
            assert _below(ours.getrandbits, width) == theirs.randrange(width)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", range(10))
def test_belows_draws_what_random_draws(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    widths = [*_WIDTHS, *reversed(_WIDTHS), *([1] * 9), *([17] * 9)]
    assert _belows(ours.getrandbits, iter(widths)) == [theirs.randrange(n) for n in widths]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", range(10))
def test_shuffle_swaps_what_random_swaps(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for length in range(41):
        mine, stock = list(range(length)), list(range(length))
        _shuffle(ours.getrandbits, mine)
        theirs.shuffle(stock)
        assert mine == stock
    assert ours.getstate() == theirs.getstate()


def test_small_corpus_is_pinned():
    """The oracle gate's documents: every draw of `small_corpus_config` and `generate`."""
    texts = (serialize_instance(generate(small_corpus_config(seed))) for seed in range(500))
    assert _sha1(texts) == "48d52140dc60f4208cfffb00ff3e2782df773794"


@pytest.mark.parametrize(
    "size,digest",
    [(10, "117d41757a01b25866cdaa119d4a23cfdb76cc2c"),
     (200, "4100c266e930580fa8f943c2ec1392348c120141")],
)
def test_dual_role_documents_are_pinned(size, digest):
    texts = (serialize_dual_role(generate_dual_role(seed, size, 7)) for seed in range(5))
    assert _sha1(texts) == digest


def test_width_one_ranges_still_draw():
    """A one-value range still takes bits from the stream, so later draws depend on it."""
    cfg = GenConfig(seed=6, internal=50, clients=80, capacity=30, shape="balanced",
                    branching=(1, 1), weight_range=(0, 0), qos_range=(8, 8))
    assert _sha1([serialize_instance(generate(cfg))]) == "79f4d7a8b26fad2c2fc0f26c667e4c89f51efb52"


def test_bench_documents_are_pinned():
    text = serialize_instance(generate(bench_config(10**4, 8, 7)))
    assert _sha1([text]) == "b6c22d2b541e343a750dda46ff6e618958c2a99a"


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(seed=3, internal=1600, clients=2400, capacity=50, shape="balanced"),
        GenConfig(seed=5, internal=1600, clients=2400, capacity=50, shape="random"),
        GenConfig(seed=4, internal=1600, clients=2400, capacity=50, shape="path"),
    ],
    ids=["balanced", "random", "path"],
)
def test_generate_peaks_near_the_size_of_its_instance(cfg):
    """The skeleton, the draws and the unsorted columns are freed before the
    constructor's sort and the validation, so the traced peak stays near
    what the returned instance keeps (about 1.3x; 1.9-2.1x with them alive)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst = generate(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not inst.violations
    assert peak - base < 1.5 * (kept - base)


def test_different_seeds_differ():
    a = GenConfig(seed=1, internal=6, clients=9, capacity=30)
    b = GenConfig(seed=2, internal=6, clients=9, capacity=30)
    assert serialize_instance(generate(a)) != serialize_instance(generate(b))


def test_path_shape_is_a_chain():
    inst = generate(GenConfig(seed=0, internal=5, clients=3, capacity=30, shape="path"))
    parents = {n.id: n.parent for n in inst.nodes if n.kind == "internal"}
    assert parents == {
        "n000": None, "n001": "n000", "n002": "n001", "n003": "n002", "n004": "n003",
    }


def test_balanced_shape_respects_branching():
    inst = generate(
        GenConfig(seed=4, internal=15, clients=10, capacity=30, shape="balanced",
                  branching=(2, 2))
    )
    kids: dict[str, int] = {}
    for n in inst.nodes:
        if n.kind == "internal" and n.parent is not None:
            kids[n.parent] = kids.get(n.parent, 0) + 1
    assert kids and all(v <= 2 for v in kids.values())


def test_random_shape_is_valid_and_covered():
    for seed in range(10):
        inst = generate(GenConfig(seed=seed, internal=7, clients=8, capacity=30))
        assert validate_instance(inst) == []
        with_kids = {n.parent for n in inst.nodes if n.parent is not None}
        internal = {n.id for n in inst.nodes if n.kind == "internal"}
        assert internal <= with_kids  # no childless internal survives


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(shape="star"),
        dict(internal=0),
        dict(clients=0),
        dict(capacity=0),
        dict(qos_range=(0, 2)),
        dict(branching=(0, 2)),
        dict(weight_range=(5, 1)),
    ],
)
def test_config_rejections(kwargs):
    base = dict(seed=1, internal=4, clients=5, capacity=20)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        generate(GenConfig(**base))


def test_too_few_clients_for_skeleton():
    cfg = GenConfig(seed=1, internal=5, clients=1, capacity=20,
                    shape="balanced", branching=(4, 4))
    with pytest.raises(ConfigError, match="childless"):
        generate(cfg)


def test_small_corpus_configs_always_generate():
    for seed in range(50):
        inst = generate(small_corpus_config(seed))
        assert validate_instance(inst) == []


# --- dual-role generation and the client/server rewrite -------------------


def chain3() -> DualRoleNetwork:
    return DualRoleNetwork(
        capacity=10,
        parents={"a": None, "b": "a", "c": "b"},
        bandwidth={"a": 99, "b": 5, "c": 5},
        demand={"a": (2, 0), "b": (3, 1), "c": (4, 1)},
    )


def test_fictivize_shape():
    inst = fictivize(chain3())
    internal = sorted(n.id for n in inst.nodes if n.kind == "internal")
    clients = {n.id: n for n in inst.nodes if n.kind == "client"}
    assert internal == ["a", "b", "c"]
    assert sorted(clients) == ["a_req", "b_req", "c_req"]
    # stand-ins keep the weight, gain one hop, and ride a link that
    # cannot bind (total demand = 9)
    assert (clients["a_req"].w, clients["a_req"].q, clients["a_req"].bw) == (2, 1, 9)
    assert (clients["b_req"].w, clients["b_req"].q, clients["b_req"].bw) == (3, 2, 9)
    assert (clients["c_req"].w, clients["c_req"].q, clients["c_req"].bw) == (4, 2, 9)


def test_fictivize_prunes_demandless_subtrees():
    net = DualRoleNetwork(
        capacity=10,
        parents={"a": None, "b": "a", "dead": "a", "deader": "dead"},
        bandwidth={"a": 9, "b": 9, "dead": 9, "deader": 9},
        demand={"b": (3, 0)},
    )
    inst = fictivize(net)
    ids = {n.id for n in inst.nodes}
    assert ids == {"a", "b", "b_req"}


def test_fictivize_keeps_demandless_ancestors():
    # a has no demand of its own but must stay: it is on b's path
    inst = fictivize(
        DualRoleNetwork(
            capacity=10,
            parents={"a": None, "b": "a"},
            bandwidth={"a": 9, "b": 4},
            demand={"b": (3, 1)},
        )
    )
    assert {n.id for n in inst.nodes} == {"a", "b", "b_req"}


def test_fictivize_zero_demand_everywhere():
    net = DualRoleNetwork(
        capacity=10,
        parents={"a": None},
        bandwidth={"a": 9},
        demand={"a": (0, 2)},
    )
    with pytest.raises(ConfigError, match="no demand"):
        fictivize(net)


def test_chain3_solution_matches_dual_brute_force():
    net = chain3()
    expect = dual_role_brute_force_min(net.demand, net.parents, net.bandwidth, net.capacity)
    got = solve_instance(fictivize(net))
    assert expect.minimum == len(got.replicas)


def test_dual_role_generation_deterministic():
    a = generate_dual_role(seed=9, size=6, capacity=8)
    b = generate_dual_role(seed=9, size=6, capacity=8)
    assert serialize_dual_role(a) == serialize_dual_role(b)
    assert any(w for w, _ in a.demand.values())


def test_dual_role_document_round_trip():
    net = generate_dual_role(seed=11, size=5, capacity=7)
    text = serialize_dual_role(net)
    back = parse_dual_role(text)
    assert back == net
    assert serialize_dual_role(back) == text


def _columns(inst) -> tuple:
    return inst.capacity, inst.ids, inst.parents, inst.kinds, inst.bws, inst.ws, inst.qs


@pytest.mark.parametrize("size", [10, 200])
def test_pinned_dual_role_documents_round_trip_through_fictivize(size):
    """On the pinned seeds: the dual-role text reads back to itself, and the
    fictivized instance reads back to the same columns and the same text."""
    for seed in range(5):
        text = serialize_dual_role(generate_dual_role(seed, size, 7))
        net = parse_dual_role(text)
        assert serialize_dual_role(net) == text
        inst = fictivize(net)
        doc = serialize_instance(inst)
        back = parse_instance(doc)
        assert _columns(back) == _columns(inst)
        assert serialize_instance(back) == doc


def _reference_dual_role_text(net: DualRoleNetwork) -> str:
    """The document text as the stock encoder writes it."""
    nodes = [
        {"id": nid, "parent": net.parents[nid], "bw": net.bandwidth[nid],
         "demand": list(net.demand[nid]) if nid in net.demand else None}
        for nid in sorted(net.parents)
    ]
    return json.dumps({"capacity": net.capacity, "nodes": nodes}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "net",
    [
        generate_dual_role(seed=4, size=40, capacity=9),
        chain3(),
        # values no parser has vetted: the writer must still match the encoder
        DualRoleNetwork(
            capacity="x",
            parents={"r\u00e9seau": None, "b\n\"": "r\u00e9seau", "c": 7},
            bandwidth={"r\u00e9seau": None, "b\n\"": 2.5, "c": True},
            demand={"b\n\"": [1, False], "c": (3, [4, {"z": 1, "a": None}]), "r\u00e9seau": ()},
        ),
        DualRoleNetwork(capacity=3, parents={}, bandwidth={}, demand={}),
    ],
    ids=["generated", "chain3", "odd-values", "no-nodes"],
)
def test_dual_role_text_matches_stock_encoder(net):
    assert serialize_dual_role(net) == _reference_dual_role_text(net)
