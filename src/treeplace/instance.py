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
from typing import Any, NamedTuple

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
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"{what}: {exc}") from exc
    except RecursionError:
        raise MalformedDocumentError(f"{what}: arrays or objects nested too deeply") from None
    except ValueError as exc:  # such as an integer literal past the interpreter's digit limit
        raise MalformedDocumentError(f"{what}: {exc}") from None


def _columns(raws: list) -> tuple[list, ...]:
    """The six node columns of a decoded ``nodes`` array, schema-checked.

    A message is formatted only for the check that fails. ``type(v) is int``
    is exactly "a JSON integer" (a bool is not one). Kinds are stored as the
    module's constants, so the decoded strings are not kept.
    """
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    ids, parents, kinds, bws, ws, qs = columns
    for raw in raws:
        if not isinstance(raw, dict):
            raise MalformedDocumentError("node entries must be objects")
        if not raw.keys() <= _NODE_FIELDS:
            raise MalformedDocumentError(f"unknown node fields: {sorted(set(raw) - _NODE_FIELDS)}")
        if "id" not in raw or "kind" not in raw:
            raise MalformedDocumentError("node needs 'id' and 'kind'")
        if "parent" not in raw:
            raise MalformedDocumentError(f"node {raw.get('id')!r} needs 'parent'")
        node_id = raw["id"]
        if not isinstance(node_id, str) or node_id == "":
            raise MalformedDocumentError("node id must be a non-empty string")
        parent = raw["parent"]
        if parent is not None and not isinstance(parent, str):
            raise MalformedDocumentError(f"parent of {node_id!r} must be a string or null")
        kind = raw["kind"]
        if kind not in (KIND_CLIENT, KIND_INTERNAL):
            raise MalformedDocumentError(f"node {node_id!r} has unknown kind {kind!r}")
        bw = raw.get("bw")
        if bw is not None and type(bw) is not int:
            raise MalformedDocumentError(f"field 'bw' of {node_id!r} must be an integer")
        w = raw.get("w")
        if w is not None and type(w) is not int:
            raise MalformedDocumentError(f"field 'w' of {node_id!r} must be an integer")
        q = raw.get("q")
        if q is not None and type(q) is not int:
            raise MalformedDocumentError(f"field 'q' of {node_id!r} must be an integer")
        ids.append(node_id)
        parents.append(parent)
        kinds.append(KIND_CLIENT if kind == KIND_CLIENT else KIND_INTERNAL)
        bws.append(bw)
        ws.append(w)
        qs.append(q)
    return columns


def parse_instance(text: str) -> NetworkInstance:
    """Parse and validate an instance document.

    Raises MalformedDocumentError for syntax/schema problems,
    StructureError for tree-shape problems and RoleError for node-role
    problems. The returned instance always passes validation, and keeps
    that verdict (see ``NetworkInstance.violations``).
    """
    doc = load_document(text, "invalid JSON")
    del text  # frees the document text unless the caller still holds it
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
    # popped, so that the decoded node objects are freed before validation
    inst = NetworkInstance(doc["W"], *_columns(doc.pop("nodes")))
    require_valid(inst)
    return inst


def require_valid(inst: NetworkInstance) -> None:
    """Raise unless ``inst`` validates: RoleError when the first finding is
    a role problem, StructureError otherwise, naming every finding."""
    violations = inst.violations
    if violations:
        exc = RoleError if violations[0].code in _ROLE_CODES else StructureError
        raise exc("; ".join(str(v) for v in violations))


def _json_value(value: Any, pad: str) -> str:
    """``value`` as the indented, key-sorted encoder writes it at indent ``pad``."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    # Anything else (a bool, a float, a value no validation has vetted):
    # the encoder itself, re-indented to where the value sits.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


# One node block each, fields in key order, for a non-root node whose
# id and parent are strings and whose numbers are exact ints.
_CLIENT_BLOCK = (
    '    {\n      "bw": %d,\n      "id": %s,\n      "kind": "client",\n      "parent": %s,'
    '\n      "q": %d,\n      "w": %d\n    }'
)
_INTERNAL_BLOCK = '    {\n      "bw": %d,\n      "id": %s,\n      "kind": "internal",\n      "parent": %s\n    }'


def serialize_instance(inst: NetworkInstance) -> str:
    """Canonical document text: key-sorted, id-sorted nodes, newline-terminated.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``
    of the document, written directly from the columns in its fixed key
    order (``bw``, ``id``, ``kind``, ``parent``, ``q``, ``w``) instead of
    through the encoder's pure-Python indenting path. A client or non-root
    internal node of exact strings and ints is one ``%`` template; any
    other node is written field by field through ``_json_value``.
    """
    pad = " " * 6
    enc = encode_basestring_ascii
    blocks = []
    columns = (inst.ids, inst.parents, inst.kinds, inst.bws, inst.ws, inst.qs)
    for node_id, parent, kind, bw, w, q in zip(*columns):
        if type(parent) is str and type(node_id) is str and type(bw) is int:
            if kind is KIND_CLIENT and type(w) is int and type(q) is int:
                blocks.append(_CLIENT_BLOCK % (bw, enc(node_id), enc(parent), q, w))
                continue
            if kind is KIND_INTERNAL and w is None and q is None:
                blocks.append(_INTERNAL_BLOCK % (bw, enc(node_id), enc(parent)))
                continue
        block = "    {\n      "
        if bw is not None:
            block += '"bw": ' + _json_value(bw, pad) + ",\n      "
        block += '"id": ' + _json_value(node_id, pad)
        block += ',\n      "kind": ' + _json_value(kind, pad)
        block += ',\n      "parent": ' + _json_value(parent, pad)
        if q is not None:
            block += ',\n      "q": ' + _json_value(q, pad)
        if w is not None:
            block += ',\n      "w": ' + _json_value(w, pad)
        blocks.append(block + "\n    }")
    head = '{\n  "W": ' + _json_value(inst.capacity, "  ") + ',\n  "nodes": '
    if not blocks:
        return head + "[]\n}\n"
    blocks[0] = head + "[\n" + blocks[0]  # so that one join writes the whole text
    blocks[-1] += "\n  ]\n}\n"
    return ",\n".join(blocks)


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
    if duplicates or not RESERVED_NODE_IDS.isdisjoint(index):
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

