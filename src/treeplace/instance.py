"""Problem instances: a rooted tree of internal nodes with client leaves.

An instance is a tree network. Internal nodes may host replicas, clients
sit at the leaves and issue ``w`` requests that must be served by a
replica within ``q`` hops up the tree. Every non-root node has a
bandwidth limit on the link to its parent, and every replica server has
the same capacity ``W``.

The document format is JSON::

    {
      "W": 15,
      "nodes": [
        {"id": "r", "parent": null, "kind": "internal"},
        {"id": "s", "parent": "r", "kind": "internal", "bw": 9},
        {"id": "c1", "parent": "s", "kind": "client", "bw": 4, "w": 3, "q": 2}
      ]
    }

Unknown fields are rejected. The id ``__r_plus__`` is reserved for the
artificial root added by the transformation stage. In memory an instance
is per-index columns, in id order, and ``NetworkInstance(capacity, ids,
parents, kinds, bws, ws, qs)`` is its one constructor: the parser and the
generator build the columns, parse, validation, the transform, the
verifier and the writer read them, and ``NodeSpec`` records are views.
An instance defines no equality of its own.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, le
from typing import Any, Iterator, NamedTuple

from .errors import MalformedDocumentError, RoleError, StructureError

ARTIFICIAL_ROOT_ID = "__r_plus__"
RESERVED_NODE_IDS = frozenset({ARTIFICIAL_ROOT_ID})

KIND_CLIENT = "client"
KIND_INTERNAL = "internal"

# Bandwidth semantics, shared by the solver and the verifier.
MODE_PER_BUNDLE = "per-bundle"
MODE_AGGREGATE = "aggregate"
MODES = (MODE_PER_BUNDLE, MODE_AGGREGATE)

# The generator's tree shapes and the oracle's size guard, here so that the
# CLI's parser loads neither module.
SHAPES = ("balanced", "path", "random")
DEFAULT_MAX_INTERNAL = 20

_NODE_FIELDS = {"id", "parent", "kind", "bw", "w", "q"}
_TOP_FIELDS = {"W", "nodes"}

# Violation codes that indicate a role problem rather than a shape problem.
_ROLE_CODES = frozenset(
    {"root-role", "client-children", "client-fields", "internal-fields"}
)


class NodeSpec(NamedTuple):
    """One tree node as written in the document."""

    id: str
    parent: str | None
    kind: str
    bw: int | None = None  # link to parent; None only on the root
    w: int | None = None  # request count, clients only
    q: int | None = None  # QoS hop limit, clients only


class Violation(NamedTuple):
    """One validation finding; ``code`` is stable, ``message`` is for humans."""

    code: str
    node: str | None
    message: str

    def __str__(self) -> str:
        where = f" at {self.node!r}" if self.node is not None else ""
        return f"[{self.code}]{where}: {self.message}"


class NetworkInstance:
    """An instance held as per-index columns, in ascending id order.

    ``ids``, ``parents`` (an id or None), ``kinds``, ``bws``, ``ws`` and
    ``qs`` hold one entry per node; treat them as read-only. The
    constructor takes the six columns over as they are when they arrive
    id-sorted, and otherwise puts them in order by a stable sort
    (duplicate ids keep their input order), so serialization is
    canonical. Instances compare by identity.

    ``index`` (id -> index), ``parent_index`` and the ``NodeSpec`` view
    ``nodes`` are built on first read; no stage of a solve reads ``nodes``.
    The derived accessors assume the instance passed validation; check
    ``violations`` first for untrusted data.
    """

    def __init__(
        self, capacity: int, ids: list, parents: list, kinds: list, bws: list, ws: list, qs: list
    ) -> None:
        columns = (ids, parents, kinds, bws, ws, qs)
        if not all(map(le, ids, islice(ids, 1, None))):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            columns = tuple([col[k] for k in order] for col in columns)
        self.capacity = capacity
        self.ids, self.parents, self.kinds, self.bws, self.ws, self.qs = columns

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The :func:`validate_instance` verdict, computed once per instance."""
        return tuple(validate_instance(self))

    @cached_property
    def index(self) -> dict[str, int]:
        """id -> index; a duplicated id maps to its last index."""
        return dict(zip(self.ids, range(len(self.ids))))

    @cached_property
    def parent_index(self) -> list[int]:
        """The parent's index per node: -1 on a root and for an unknown parent."""
        return list(map(self.index.get, self.parents, repeat(-1)))

    @cached_property
    def nodes(self) -> tuple[NodeSpec, ...]:
        return tuple(map(NodeSpec, self.ids, self.parents, self.kinds, self.bws, self.ws, self.qs))

    @cached_property
    def internal_ids(self) -> tuple[str, ...]:
        return tuple(i for i, kind in zip(self.ids, self.kinds) if kind != KIND_CLIENT)


def load_document(text: str, what: str) -> Any:
    """``json.loads(text)``, raising MalformedDocumentError that starts with ``what``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedDocumentError(f"{what}: arrays or objects nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past the digit limit
        raise MalformedDocumentError(f"{what}: {exc}") from exc


# What a node-object hook returns for a node it has taken into the columns.
_TAKEN = object()


def _node_taker(columns: tuple[list, ...], reject):
    """A function that schema-checks one decoded node object.

    A node that passes has its six fields appended to ``columns`` and the
    function returns ``_TAKEN``; otherwise it returns ``reject(raw,
    message)`` for the first check that fails, with nothing appended. A
    message is formatted only for that check (for unknown fields, only by
    ``reject``: the message is then a function of ``raw``). ``type(v) is
    int`` is exactly "a JSON integer" (a bool is not one). Kinds are stored
    as the module's constants, so the decoded strings are not kept.
    """
    ids, parents, kinds, bws, ws, qs = columns
    add_id, add_parent, add_kind = ids.append, parents.append, kinds.append
    add_bw, add_w, add_q = bws.append, ws.append, qs.append

    def take(raw: dict):
        if not raw.keys() <= _NODE_FIELDS:
            # the document root fails here too, so this message is formatted on demand
            return reject(raw, _unknown_node_fields)
        if "id" not in raw or "kind" not in raw:
            return reject(raw, "node needs 'id' and 'kind'")
        if "parent" not in raw:
            return reject(raw, f"node {raw.get('id')!r} needs 'parent'")
        node_id = raw["id"]
        if not isinstance(node_id, str) or node_id == "":
            return reject(raw, "node id must be a non-empty string")
        parent = raw["parent"]
        if parent is not None and not isinstance(parent, str):
            return reject(raw, f"parent of {node_id!r} must be a string or null")
        kind = raw["kind"]
        if kind not in (KIND_CLIENT, KIND_INTERNAL):
            return reject(raw, f"node {node_id!r} has unknown kind {kind!r}")
        bw = raw.get("bw")
        if bw is not None and type(bw) is not int:
            return reject(raw, f"field 'bw' of {node_id!r} must be an integer")
        w = raw.get("w")
        if w is not None and type(w) is not int:
            return reject(raw, f"field 'w' of {node_id!r} must be an integer")
        q = raw.get("q")
        if q is not None and type(q) is not int:
            return reject(raw, f"field 'q' of {node_id!r} must be an integer")
        add_id(node_id)
        add_parent(parent)
        add_kind(KIND_CLIENT if kind == KIND_CLIENT else KIND_INTERNAL)
        add_bw(bw)
        add_w(w)
        add_q(q)
        return _TAKEN

    return take


def _unknown_node_fields(raw: dict) -> str:
    return f"unknown node fields: {sorted(set(raw) - _NODE_FIELDS)}"


def _keep(raw: dict, _message) -> dict:
    return raw


def _raise(raw: dict, message):
    raise MalformedDocumentError(message if type(message) is str else message(raw))


def _columns(raws: list) -> tuple[list, ...]:
    """The six node columns of a decoded ``nodes`` array, schema-checked."""
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    take = _node_taker(columns, _raise)
    for raw in raws:
        if not isinstance(raw, dict):
            raise MalformedDocumentError("node entries must be objects")
        take(raw)
    return columns


def parse_instance(text: str) -> NetworkInstance:
    """Parse and validate an instance document.

    Raises MalformedDocumentError for syntax/schema problems,
    StructureError for tree-shape problems and RoleError for node-role
    problems. The returned instance always passes validation, and keeps
    that verdict (see ``NetworkInstance.violations``).

    The decoder hands each node object to a hook that takes it into the
    columns, so no node's dict outlives its decoding. Anything unusual (a
    syntax error, another root, a node the hook rejects, an object taken
    outside the ``nodes`` array) decodes the text again with the stock
    decoder and checks that by the same rules, so every message is the
    stock path's.
    """
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    try:
        doc = json.JSONDecoder(object_hook=_node_taker(columns, _keep)).decode(text)
    except (ValueError, RecursionError):  # a syntax or digit-limit error, or deep nesting
        doc = None
    if not (
        type(doc) is dict
        and doc.keys() == _TOP_FIELDS
        and type(doc["W"]) is int
        and type(doc["nodes"]) is list
        and len(doc["nodes"]) == doc["nodes"].count(_TAKEN) == len(columns[0])
    ):
        doc = load_document(text, "invalid JSON")
        if not isinstance(doc, dict):
            raise MalformedDocumentError("document root must be an object")
        if not doc.keys() <= _TOP_FIELDS:
            raise MalformedDocumentError(f"unknown document fields: {sorted(set(doc) - _TOP_FIELDS)}")
        if "W" not in doc or "nodes" not in doc:
            raise MalformedDocumentError("document needs 'W' and 'nodes'")
        if type(doc["W"]) is not int:
            raise MalformedDocumentError("'W' must be an integer")
        if not isinstance(doc["nodes"], list):
            raise MalformedDocumentError("'nodes' must be an array")
        columns = _columns(doc["nodes"])
    capacity = doc["W"]
    del text, doc  # frees the text and any decoded node objects before validation
    inst = NetworkInstance(capacity, *columns)
    require_valid(inst)
    return inst


def require_valid(inst: NetworkInstance) -> None:
    """Raise unless ``inst`` validates: RoleError when the first finding is
    a role problem, StructureError otherwise, naming every finding."""
    violations = inst.violations
    if violations:
        exc = RoleError if violations[0].code in _ROLE_CODES else StructureError
        raise exc("; ".join(str(v) for v in violations))


def json_text(value: Any, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written at indent ``pad``.

    Strings, None, bools, ints, lists, tuples and dicts with string keys
    (subclasses included, as the encoder takes them) are written here, in
    the order and byte for byte as the standard library's pure-Python
    indenting encoder writes them; anything else (a float, a dict with
    other keys) goes through the encoder itself, re-indented.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        inner = pad + "  "
        enc = encode_basestring_ascii
        items = [enc(key) + ": " + json_text(item, inner) for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


# One node block each, fields in key order, for a non-root node whose
# id and parent are strings and whose numbers are exact ints.
_CLIENT_BLOCK = (
    '    {\n      "bw": %d,\n      "id": %s,\n      "kind": "client",\n      "parent": %s,'
    '\n      "q": %d,\n      "w": %d\n    }'
)
_INTERNAL_BLOCK = '    {\n      "bw": %d,\n      "id": %s,\n      "kind": "internal",\n      "parent": %s\n    }'

# Nodes per piece when a document is written in pieces: about 250 KB of text.
WRITE_SLICE_NODES = 2048


def _node_blocks(rows: Iterator[tuple]) -> list[str]:
    """The text blocks of the nodes in ``rows``, ``(id, parent, kind, bw,
    w, q)`` each, in the document's fixed key order (``bw``, ``id``,
    ``kind``, ``parent``, ``q``, ``w``). A client or non-root internal node
    of exact strings and ints is one ``%`` template; any other node is
    written field by field through :func:`json_text`."""
    pad = " " * 6
    enc = encode_basestring_ascii
    blocks = []
    for node_id, parent, kind, bw, w, q in rows:
        if type(parent) is str and type(node_id) is str and type(bw) is int:
            if kind is KIND_CLIENT and type(w) is int and type(q) is int:
                blocks.append(_CLIENT_BLOCK % (bw, enc(node_id), enc(parent), q, w))
                continue
            if kind is KIND_INTERNAL and w is None and q is None:
                blocks.append(_INTERNAL_BLOCK % (bw, enc(node_id), enc(parent)))
                continue
        block = "    {\n      "
        if bw is not None:
            block += '"bw": ' + json_text(bw, pad) + ",\n      "
        block += '"id": ' + json_text(node_id, pad)
        block += ',\n      "kind": ' + json_text(kind, pad)
        block += ',\n      "parent": ' + json_text(parent, pad)
        if q is not None:
            block += ',\n      "q": ' + json_text(q, pad)
        if w is not None:
            block += ',\n      "w": ' + json_text(w, pad)
        blocks.append(block + "\n    }")
    return blocks


def _piece(blocks: list[str], lead: str, last: bool) -> str:
    """Node blocks joined into one piece of the text, after ``lead``, and
    closing the document if ``last``; one join writes the whole piece."""
    blocks[0] = lead + blocks[0]
    if last:
        blocks[-1] += "\n  ]\n}\n"
    return ",\n".join(blocks)


def _head(inst: NetworkInstance) -> str:
    return '{\n  "W": ' + json_text(inst.capacity, "  ") + ',\n  "nodes": '


def serialized_pieces(inst: NetworkInstance, size: int = WRITE_SLICE_NODES) -> Iterator[str]:
    """The text of :func:`serialize_instance` in consecutive pieces, each
    formatted when asked for and holding the blocks of at most ``size``
    nodes, so that a writer holds one piece at a time."""
    n = len(inst.ids)
    if not n:
        yield _head(inst) + "[]\n}\n"
        return
    rows = zip(inst.ids, inst.parents, inst.kinds, inst.bws, inst.ws, inst.qs)
    lead = _head(inst) + "[\n"
    for start in range(0, n, size):
        yield _piece(_node_blocks(islice(rows, size)), lead, start + size >= n)
        lead = ",\n"


def serialize_instance(inst: NetworkInstance) -> str:
    """Canonical document text: key-sorted, id-sorted nodes, newline-terminated.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``
    of the document, written directly from the columns instead of through
    the encoder's pure-Python indenting path; :func:`serialized_pieces`
    gives the same text in pieces.
    """
    blocks = _node_blocks(zip(inst.ids, inst.parents, inst.kinds, inst.bws, inst.ws, inst.qs))
    if not blocks:
        return _head(inst) + "[]\n}\n"
    return _piece(blocks, _head(inst) + "[\n", True)


def validate_instance(inst: NetworkInstance) -> list[Violation]:
    """Check every typed invariant; empty list means the instance is valid.

    Works on arbitrary instances (duplicates, cycles ...), on the columns,
    ``index`` and ``parent_index``. The rare findings (duplicate or
    reserved ids, unknown or self parents) are looked for node by node
    only where a whole-column test shows there are some.
    """
    out: list[Violation] = []
    add = lambda code, node, msg: out.append(Violation(code, node, msg))  # noqa: E731

    if not (isinstance(inst.capacity, int) and inst.capacity >= 1):
        add("capacity", None, f"capacity W must be a positive integer, got {inst.capacity!r}")

    ids, parents, index, ups = inst.ids, inst.parents, inst.index, inst.parent_index
    duplicates = len(index) != len(ids)
    # a view's isdisjoint walks the smaller set: membership of the reserved ids
    if duplicates or not index.keys().isdisjoint(RESERVED_NODE_IDS):
        seen: set[str] = set()
        for node_id in ids:
            if node_id in seen:
                add("duplicate-id", node_id, "node id appears more than once")
            seen.add(node_id)
            if node_id in RESERVED_NODE_IDS:
                add("reserved-id", node_id, "node id is reserved for the artificial root")

    roots = parents.count(None)
    if roots != 1:
        add("root-count", None, f"expected exactly one root (parent null), found {roots}")
    unknown = ups.count(-1) != roots  # -1 marks the roots and the unknown parents
    if unknown or any(map(eq, ids, parents)):
        for node_id, parent in zip(ids, parents):
            if parent is not None and parent not in index:
                add("unknown-parent", node_id, f"parent {parent!r} does not exist")
            if parent == node_id:
                add("cycle", node_id, "node is its own parent")

    # Reachability from the root doubles as cycle detection. With one root,
    # unique ids and known parents, each round of pointer jumping doubles
    # the hops that ``above`` looks up (the root is its own parent there),
    # so after log2(n) rounds a node maps to the root exactly when the
    # root is one of its ancestors.
    if roots == 1 and not unknown and not duplicates:
        root = parents.index(None)
        above = ups.copy()
        above[root] = root
        for _round in range(len(ids).bit_length()):
            if above.count(root) == len(ids):
                break
            above = list(map(above.__getitem__, above))
        else:
            for node_id, top in zip(ids, above):
                if top != root:
                    add("cycle", node_id, "node is not reachable from the root (cycle or orphan)")

    has_children = set(parents)
    n_clients = 0
    for node_id, parent, kind, bw, w, q in zip(ids, parents, inst.kinds, inst.bws, inst.ws, inst.qs):
        is_root = parent is None
        if kind == KIND_CLIENT:
            n_clients += 1
            if is_root:
                add("root-role", node_id, "root must be an internal node")
            if node_id in has_children:
                add("client-children", node_id, "clients must be leaves")
            if not (isinstance(w, int) and w >= 0):
                add("client-fields", node_id, "client needs integer w >= 0")
            if not (isinstance(q, int) and q >= 1):
                add("client-fields", node_id, "client needs integer q >= 1")
        else:
            if w is not None or q is not None:
                add("internal-fields", node_id, "internal nodes carry no w/q")
            if node_id not in has_children:
                add("childless-internal", node_id, "internal node has no children")
        if is_root:
            if bw is not None:
                add("root-bw", node_id, "root has no parent link, bw must be absent")
        elif not (isinstance(bw, int) and bw >= 0):
            add("bw", node_id, "non-root node needs integer bw >= 0")

    if n_clients == 0:
        add("no-client", None, "instance needs at least one client")
    if n_clients == len(ids):
        add("no-internal", None, "instance needs at least one internal node")
    return out

