import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeplace.cli as cli
import treeplace.instance as instance_module
from treeplace.errors import InfeasibleError, MalformedDocumentError, RoleError, StructureError
from treeplace.generator import GenConfig, generate, small_corpus_config
from treeplace.instance import (
    ARTIFICIAL_ROOT_ID,
    KIND_CLIENT,
    KIND_INTERNAL,
    MODES,
    NodeSpec,
    json_text,
    parse_instance,
    require_valid,
    serialize_instance,
    serialized_pieces,
    validate_instance,
)
from treeplace.solver import solve_instance
from treeplace.transform import transform_to_star
from treeplace.verifier import verify_placement
from tests import reference
from tests.conftest import FIXTURES, load_fixture_text
from tests.reference import instance_of

MINIMAL = {
    "W": 10,
    "nodes": [
        {"id": "r", "parent": None, "kind": "internal"},
        {"id": "c", "parent": "r", "kind": "client", "bw": 5, "w": 3, "q": 1},
    ],
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


def test_parse_minimal():
    inst = parse_instance(json.dumps(MINIMAL))
    assert inst.capacity == 10
    assert [n.id for n in inst.nodes if n.parent is None] == ["r"]
    assert [c.id for c in reference.clients_of(inst)] == ["c"]
    assert inst.internal_ids == ("r",)


def test_round_trip_is_canonical(worked_example):
    text = serialize_instance(worked_example)
    again = parse_instance(text)
    assert (again.capacity, again.nodes) == (worked_example.capacity, worked_example.nodes)
    assert serialize_instance(again) == text
    assert text.endswith("\n")


def test_round_trip_generated():
    for seed in range(10):
        inst = generate(GenConfig(seed=seed, internal=5, clients=8, capacity=20))
        again = parse_instance(serialize_instance(inst))
        assert (again.capacity, again.nodes) == (inst.capacity, inst.nodes)


def test_node_order_is_normalized():
    a = instance_of(5, (
        NodeSpec("b", "a", "client", bw=1, w=1, q=1),
        NodeSpec("a", None, "internal"),
    ))
    assert [n.id for n in a.nodes] == ["a", "b"]
    b = instance_of(5, reversed(a.nodes))
    assert (b.capacity, b.nodes) == (a.capacity, a.nodes)


@pytest.mark.parametrize(
    "mangle,exc",
    [
        (lambda d: d.update(extra=1), MalformedDocumentError),
        (lambda d: d.pop("W"), MalformedDocumentError),
        (lambda d: d.update(W="ten"), MalformedDocumentError),
        (lambda d: d.update(W=True), MalformedDocumentError),
        (lambda d: d.update(nodes={}), MalformedDocumentError),
        (lambda d: d["nodes"][0].update(color="red"), MalformedDocumentError),
        (lambda d: d["nodes"][0].pop("parent"), MalformedDocumentError),
        (lambda d: d["nodes"][1].update(kind="server"), MalformedDocumentError),
        (lambda d: d["nodes"][1].update(w="3"), MalformedDocumentError),
        (lambda d: d["nodes"][1].update(w=None), RoleError),
        (lambda d: d["nodes"][1].update(q=0), RoleError),
        (lambda d: d["nodes"][0].update(w=1), RoleError),
        (lambda d: d["nodes"][1].update(parent=None), StructureError),  # two roots
        (lambda d: d["nodes"][1].update(parent="ghost"), StructureError),
        (lambda d: d["nodes"][1].update(id="r"), StructureError),  # duplicate
        (lambda d: d["nodes"][1].update(id="__r_plus__"), StructureError),
        (lambda d: d["nodes"][0].update(bw=4), StructureError),  # root bw
        (lambda d: d.update(W=0), StructureError),
    ],
)
def test_parse_rejects(mangle, exc):
    d = doc()
    mangle(d)
    with pytest.raises(exc):
        parse_instance(json.dumps(d))


def test_parse_rejects_invalid_json():
    with pytest.raises(MalformedDocumentError):
        parse_instance("{nope")


def test_client_with_children_is_role_error():
    d = doc()
    d["nodes"].append({"id": "x", "parent": "c", "kind": "client", "bw": 1, "w": 1, "q": 1})
    with pytest.raises(RoleError):
        parse_instance(json.dumps(d))


def test_childless_internal_rejected():
    d = doc()
    d["nodes"].append({"id": "s", "parent": "r", "kind": "internal", "bw": 4})
    with pytest.raises(StructureError, match="no children"):
        parse_instance(json.dumps(d))


def test_cycle_detected_without_recursion():
    # a <-> b cycle detached from the root
    d = doc()
    d["nodes"] += [
        {"id": "u", "parent": "v", "kind": "internal", "bw": 1},
        {"id": "v", "parent": "u", "kind": "internal", "bw": 1},
    ]
    inst = instance_of(10, (
        NodeSpec(n["id"], n.get("parent"), n["kind"], n.get("bw"), n.get("w"), n.get("q"))
        for n in d["nodes"]
    ))
    codes = {v.code for v in validate_instance(inst)}
    assert "cycle" in codes


def test_validate_clean_instance_returns_nothing(worked_example, shared_link):
    assert validate_instance(worked_example) == []
    assert validate_instance(shared_link) == []


def test_zero_weight_client_is_valid():
    d = doc()
    d["nodes"][1]["w"] = 0
    inst = parse_instance(json.dumps(d))
    assert reference.clients_of(inst)[0].w == 0


def test_zero_bandwidth_edge_is_valid():
    # bw 0 starves the link but the document is well-formed
    d = doc()
    d["nodes"][1]["bw"] = 0
    assert reference.nodes_by_id(parse_instance(json.dumps(d)))["c"].bw == 0


def _screen_findings(d):
    """The findings the transform raises for document ``d``."""
    with pytest.raises(InfeasibleError) as err:
        transform_to_star(parse_instance(json.dumps(d)))
    return err.value.details


def test_precheck_flags_demand_over_link():
    d = doc()
    d["nodes"][1].update(w=7, bw=5)
    assert [(f.client, f.kind, f.demand, f.limit) for f in _screen_findings(d)] == [
        ("c", "link-bandwidth", 7, 5)
    ]


def test_precheck_flags_demand_over_capacity():
    d = doc(W=4)
    d["nodes"][1].update(w=5, bw=9)
    assert [(f.client, f.kind) for f in _screen_findings(d)] == [("c", "capacity")]


def test_precheck_clean(worked_example):
    star = transform_to_star(worked_example)
    assert star.ids == worked_example.ids + [ARTIFICIAL_ROOT_ID]


def _reference_serialization(inst):
    """The canonical text as the stock encoder writes it."""
    nodes = []
    for n in inst.nodes:
        entry = {"id": n.id, "parent": n.parent, "kind": n.kind}
        for key in ("bw", "w", "q"):
            if getattr(n, key) is not None:
                entry[key] = getattr(n, key)
        nodes.append(entry)
    return json.dumps({"W": inst.capacity, "nodes": nodes}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "inst",
    [
        instance_of(5, (
            NodeSpec("r\u00e9seau", None, "internal"),
            NodeSpec("\u00fcber \"c\"\n\U0001f600", "r\u00e9seau", "client", bw=3, w=1, q=2),
        )),
        # unvalidated values: the writer must still match the encoder
        instance_of("x", (NodeSpec("a", None, "internal", bw=2.5),)),
        instance_of(True, (NodeSpec("a", 7, "client", w=False, q=[1, {"z": 2, "b": None}]),)),
        instance_of(3, ()),
        # the edges of the one-template-per-node path
        instance_of(9, (
            NodeSpec("r", None, "internal"),
            NodeSpec("a", "r", "client", bw=True, w=1, q=2),
            NodeSpec("b", "r", "client", bw=3, w=False, q=2),
            NodeSpec("c", "r", "client", bw=3, w=1, q=True),
        )),
        instance_of(9, (NodeSpec("r", None, "internal"), NodeSpec("s", "r", "internal", bw=4, w=0))),
        instance_of(9, (NodeSpec("r", None, "internal", bw=5), NodeSpec("c", "r", "client", bw=3, w=1, q=2))),
        instance_of(9, (NodeSpec("r", None, "internal"), NodeSpec("t", None, "internal"))),
        instance_of(9, (NodeSpec("r", None, "internal"),
                        NodeSpec("c", "r", "".join(["cli", "ent"]), bw=3, w=1, q=2))),
    ],
    ids=["non-ascii", "string-capacity", "odd-values", "no-nodes", "bool-fields",
         "internal-with-w", "root-with-bw", "two-roots", "equal-kind-string"],
)
def test_serialize_matches_stock_encoder(inst):
    assert serialize_instance(inst) == _reference_serialization(inst)


def test_serialize_matches_stock_encoder_on_fixtures_and_generated(worked_example, shared_link):
    insts = [worked_example, shared_link]
    insts += [
        generate(GenConfig(seed=seed, internal=30, clients=40, capacity=50, shape=shape))
        for seed, shape in enumerate(("balanced", "path", "random"))
    ]
    for inst in insts:
        assert serialize_instance(inst) == _reference_serialization(inst)


@pytest.fixture
def validate_calls(monkeypatch):
    """The instances validate_instance is called on, in call order."""
    calls = []
    real = instance_module.validate_instance

    def counting(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(instance_module, "validate_instance", counting)
    return calls


def test_parse_then_solve_validates_once(worked_example, validate_calls):
    inst = parse_instance(serialize_instance(worked_example))
    solve_instance(inst)
    solve_instance(inst)
    assert validate_calls == [inst]


def test_instance_built_in_code_is_validated_on_transform(validate_calls):
    inst = instance_of(10, (
        NodeSpec("r", None, "internal"),
        NodeSpec("c", "r", "client", bw=5, w=3, q=1),
    ))
    assert solve_instance(inst).cardinality == 1
    assert validate_calls == [inst]


def test_invalid_instance_built_in_code_is_rejected():
    inst = instance_of(10, (
        NodeSpec("r", None, "internal"),
        NodeSpec("s", None, "internal"),
        NodeSpec("c", "r", "client", bw=5, w=3, q=1),
    ))
    expected = "; ".join(str(v) for v in validate_instance(inst))
    assert "[root-count]" in expected and "[childless-internal] at 's'" in expected
    for stage in (transform_to_star, solve_instance):
        with pytest.raises(StructureError) as err:
            stage(inst)
        assert str(err.value) == expected
    # a role finding first: the stages raise what require_valid raises
    inst = instance_of(10, (
        NodeSpec("r", None, "internal"),
        NodeSpec("c", "r", "client", bw=5, w=3, q=0),
    ))
    with pytest.raises(RoleError) as want:
        require_valid(inst)
    assert str(want.value) == "[client-fields] at 'c': client needs integer q >= 1"
    for stage in (transform_to_star, solve_instance):
        with pytest.raises(RoleError) as err:
            stage(inst)
        assert str(err.value) == str(want.value)


# --- the columnar instance against its NodeSpec reference -------------------

_IDS = ("a", "b", "c", "d", "e", ARTIFICIAL_ROOT_ID)
_FIELD = st.one_of(st.none(), st.integers(-2, 6), st.booleans(), st.just("3"))


@st.composite
def _node_lists(draw):
    """Arbitrary small node lists: duplicate and reserved ids, zero or
    several roots, unknown and self parents, cycles and orphans, role
    faults and bad bw/w/q values all occur."""
    specs = []
    for _ in range(draw(st.integers(0, 7))):
        specs.append(NodeSpec(
            draw(st.sampled_from(_IDS)),
            draw(st.one_of(st.none(), st.sampled_from(_IDS + ("ghost",)))),
            draw(st.sampled_from((KIND_CLIENT, KIND_INTERNAL))),
            draw(_FIELD), draw(_FIELD), draw(_FIELD),
        ))
    return specs


@settings(max_examples=600, deadline=None)
@given(capacity=st.one_of(st.integers(-1, 9), st.just("x")), nodes=_node_lists())
def test_validation_matches_the_nodespec_reference(capacity, nodes):
    inst = instance_of(capacity, nodes)
    assert validate_instance(inst) == reference.validate_instance(inst)


def test_validation_matches_the_reference_on_generated_and_doctored_trees():
    for seed in range(40):
        inst = generate(small_corpus_config(seed))
        assert validate_instance(inst) == reference.validate_instance(inst) == []
        nodes = list(inst.nodes)
        movable = [k for k, n in enumerate(nodes) if n.parent is not None]
        k = movable[seed % len(movable)]
        # re-hang one node below one of its descendants (or itself): a cycle
        below = {nodes[k].id}
        for n in nodes:  # id order is not tree order, so repeat until stable
            for m in nodes:
                if m.parent in below:
                    below.add(m.id)
        target = sorted(below)[seed % len(below)]
        nodes[k] = NodeSpec(nodes[k].id, target, nodes[k].kind, 3, nodes[k].w, nodes[k].q)
        doctored = instance_of(inst.capacity, nodes)
        found = validate_instance(doctored)
        assert found == reference.validate_instance(doctored)
        assert any(v.code == "cycle" for v in found)


def test_unsorted_document_parses_like_its_sorted_form(worked_example):
    doc = json.loads(load_fixture_text("worked_example.json"))
    doc["nodes"].reverse()
    shuffled = parse_instance(json.dumps(doc))
    assert (shuffled.capacity, shuffled.nodes) == (worked_example.capacity, worked_example.nodes)
    assert shuffled.ids == sorted(shuffled.ids)
    assert serialize_instance(shuffled) == serialize_instance(worked_example)


def test_duplicate_ids_keep_their_input_order():
    first = NodeSpec("a", None, "internal")
    second = NodeSpec("a", "a", "client", bw=1, w=1, q=1)
    for nodes, expect in (([first, second], (first, second)), ([second, first], (second, first))):
        inst = instance_of(5, [NodeSpec("b", "a", "client", 1, 1, 1)] + nodes)
        assert inst.nodes[:2] == expect


@pytest.mark.parametrize("mode", MODES)
def test_solve_verify_and_write_build_no_nodespec_views(tmp_path, capsys, mode):
    """Neither the library stages nor ``treeplace solve`` read the ``nodes`` view."""
    text = serialize_instance(parse_instance(load_fixture_text("worked_example.json")))
    inst = parse_instance(text)
    out = solve_instance(inst, mode=mode)
    report = verify_placement(inst, set(out.replicas), mode=mode)
    assert report.feasible and report.link_flows
    assert serialize_instance(inst) == text
    assert "nodes" not in vars(inst)

    parsed = []
    real = cli.parse_instance

    def keep(text):
        parsed.append(real(text))
        return parsed[-1]

    cli.parse_instance = keep
    try:
        code = cli.main(["solve", str(FIXTURES / "worked_example.json"), "--mode", mode,
                         "--trace", "--out", str(tmp_path / "out.json")])
    finally:
        cli.parse_instance = real
    capsys.readouterr()
    assert code == 0
    assert "nodes" not in vars(parsed[0])


# --- the node-at-a-time reader and writer -----------------------------------


def _instances_of_every_size():
    specs = [NodeSpec("r", None, "internal")]
    specs += [NodeSpec(f"c{k}", "r", "client", bw=3, w=1, q=2) for k in range(8)]
    odd = NodeSpec("x", "r", "client", bw=2.5, w=True, q=[1])  # written field by field
    yield from (instance_of(7, specs[:n]) for n in (0, 1, 2, 9))
    yield instance_of(7, specs[:1] + [odd])
    yield generate(GenConfig(seed=8, internal=40, clients=70, capacity=30, shape="random"))


def test_pieces_join_to_the_whole_text():
    for inst in _instances_of_every_size():
        text = serialize_instance(inst)
        n = len(inst.ids)
        for size in {1, 2, max(n - 1, 1), max(n, 1), n + 1}:
            pieces = list(serialized_pieces(inst, size))
            assert "".join(pieces) == text
            assert len(pieces) == max(1, -(-n // size))


def _stock_parse(text):
    """The capacity and the columns, as the stock decoder and the schema check give them."""
    doc = json.loads(text)
    inst = instance_module.NetworkInstance(doc["W"], *instance_module._columns(doc["nodes"]))
    return inst.capacity, (inst.ids, inst.parents, inst.kinds, inst.bws, inst.ws, inst.qs)


def _parsed(inst):
    return inst.capacity, (inst.ids, inst.parents, inst.kinds, inst.bws, inst.ws, inst.qs)


def test_parse_gives_the_columns_of_the_stock_decoder(worked_example, shared_link):
    texts = [serialize_instance(worked_example), serialize_instance(shared_link)]
    texts += [serialize_instance(generate(small_corpus_config(seed))) for seed in range(20)]
    doc = json.loads(texts[0])
    doc["nodes"].reverse()  # unsorted input
    texts.append(json.dumps(doc))
    for text in texts:
        inst = parse_instance(text)
        assert _parsed(inst) == _stock_parse(text)
        assert all(kind is KIND_CLIENT or kind is KIND_INTERNAL for kind in inst.kinds)


_NODE = {"id": "a", "parent": None, "kind": "internal"}
_ROOTED = '{"id": "r", "parent": null, "kind": "internal"}'
_CLIENT = '{"id": "c", "parent": "r", "kind": "client", "bw": 1, "w": 1, "q": 1}'


def _with(path, value):
    d = doc()
    *steps, last = path
    where = d
    for step in steps:
        where = where[step]
    where[last] = value
    return json.dumps(d)


@pytest.mark.parametrize(
    "text, message",
    [
        (_with(["W"], _NODE), "'W' must be an integer"),
        (_with(["nodes", 1, "kind"], _NODE),
         "node 'c' has unknown kind {'id': 'a', 'parent': None, 'kind': 'internal'}"),
        (_with(["nodes", 1, "id"], _NODE), "node id must be a non-empty string"),
        (_with(["nodes", 1, "parent"], _NODE), "parent of 'c' must be a string or null"),
        (json.dumps(_NODE), "unknown document fields: ['id', 'kind', 'parent']"),
        ('{"W": 3, "nodes": [' + _ROOTED + ", " + _CLIENT + ", x]}",
         "invalid JSON: Expecting value: line 1 column 140 (char 139)"),
        ('{"W": 3, "nodes": [' + _ROOTED + ", " + _CLIENT + "]} x",
         "invalid JSON: Extra data: line 1 column 141 (char 140)"),
        ('{"W": 3, "nodes": [' + _ROOTED + ", [], " + _CLIENT + "]}", "node entries must be objects"),
        ('{"W": 3, "nodes": [' + _ROOTED + "], " + '"W": ' + _ROOTED + "}", "'W' must be an integer"),
        ('{"W": 3, "nodes": [' + _ROOTED + ', {"z": ' + _ROOTED + "}]}", "unknown node fields: ['z']"),
        ('{"W": 3, "nodes": [' + _ROOTED + '], "x": ' + _ROOTED + "}", "unknown document fields: ['x']"),
        (_with(["nodes", 1, "bw"], 1.5), "field 'bw' of 'c' must be an integer"),
        (_with(["nodes", 1, "q"], "2"), "field 'q' of 'c' must be an integer"),
    ],
    ids=["node-as-W", "node-as-kind", "node-as-id", "node-as-parent", "node-as-document",
         "syntax-error-after-nodes", "extra-data", "entry-not-an-object", "duplicate-W",
         "node-in-unknown-field", "node-in-unknown-document-field", "float-bw", "string-q"],
)
def test_hook_specific_malformed_documents_keep_their_message(text, message):
    with pytest.raises(MalformedDocumentError) as err:
        parse_instance(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        # the last value of a duplicated key wins, as in the stock decoder
        '{"W": 3, "nodes": [{"id": "q", "id": "r", "parent": null, "kind": "internal"}, ' + _CLIENT + "]}",
        '{"W": 3, "nodes": [' + _ROOTED + '], "W": 4, "nodes": [' + _ROOTED + ", " + _CLIENT + "]}",
        '{"W": 3, "nodes": [], "nodes": [' + _ROOTED + ", " + _CLIENT + "]}",
        '{"nodes": [' + _ROOTED + ", " + _CLIENT + '], "W": ' + _ROOTED + ', "W": 5}',
    ],
    ids=["duplicate-node-key", "duplicate-nodes-array", "empty-then-full-nodes", "node-as-first-W"],
)
def test_duplicate_keys_parse_as_the_stock_decoder_reads_them(text):
    assert _parsed(parse_instance(text)) == _stock_parse(text)


def test_parse_peak_is_below_the_stock_decoders():
    """Each node's dict is freed as it is decoded: parse, columns and
    validation included, peaks below ``json.loads`` alone."""
    text = serialize_instance(generate(cli.bench_config(10**4, 8, 7)))

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn(text)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    stock, decoded = peak(json.loads)
    del decoded
    ours, inst = peak(parse_instance)
    assert len(inst.ids) == 10_000
    assert ours < stock


@settings(max_examples=200, deadline=None)
@given(value=st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=16,
))
def test_json_text_matches_the_stock_encoder(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    assert json_text([value], "  ") == json.dumps([value], indent=2, sort_keys=True).replace("\n", "\n  ")


class _Word(str):
    pass


class _Count(int):
    pass


class _Table(dict):
    pass


def test_json_text_writes_subclasses_as_the_stock_encoder_does():
    value = _Table(b=[NodeSpec("r", None, "internal"), _Word("w\u00e9"), _Count(7)], a=(True, 2.5, {1: 2}))
    assert json_text(value, "    ") == json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n    ")
