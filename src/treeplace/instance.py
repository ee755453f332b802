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
artificial root added by the transformation stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter
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

_NODE_FIELDS = {"id", "parent", "kind", "bw", "w", "q"}
_TOP_FIELDS = {"W", "nodes"}

# Violation codes that indicate a role problem rather than a shape problem.
_ROLE_CODES = frozenset(
    {"root-role", "client-children", "client-fields", "internal-fields"}
)


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """One tree node as written in the document."""

    id: str
    parent: str | None
    kind: str
    bw: int | None = None  # link to parent; None only on the root
    w: int | None = None  # request count, clients only
    q: int | None = None  # QoS hop limit, clients only

    @property
    def is_client(self) -> bool:
        return self.kind == KIND_CLIENT


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation finding; ``code`` is stable, ``message`` is for humans."""

    code: str
    node: str | None
    message: str

    def __str__(self) -> str:
        where = f" at {self.node!r}" if self.node is not None else ""
        return f"[{self.code}]{where}: {self.message}"


@dataclass(frozen=True)
class NetworkInstance:
    """An immutable validated-or-validatable instance.

    Node order is normalized to ascending id so that value equality and
    serialization are canonical. The derived accessors (``by_id``,
    ``clients`` ...) assume the instance passed validation; check
    ``violations`` first for untrusted data.
    """

    capacity: int
    nodes: tuple[NodeSpec, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.nodes, key=attrgetter("id")))
        object.__setattr__(self, "nodes", ordered)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The :func:`validate_instance` verdict, computed once per instance."""
        return tuple(validate_instance(self))

    @cached_property
    def by_id(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def clients(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.is_client)

    @cached_property
    def internal_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if not n.is_client)


class PrecheckFinding(NamedTuple):
    client: str
    kind: str  # "link-bandwidth" | "capacity"
    demand: int
    limit: int


def _node_from_mapping(raw: Any) -> NodeSpec:
    # Plain checks: a message is formatted only for the check that fails.
    # Values come from json.loads, so ``type(v) is int`` is exactly "a JSON
    # integer" (a bool is not one).
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
    for key in ("bw", "w", "q"):
        val = raw.get(key)
        if val is not None and type(val) is not int:
            raise MalformedDocumentError(f"field {key!r} of {node_id!r} must be an integer")
    return NodeSpec(node_id, parent, kind, raw.get("bw"), raw.get("w"), raw.get("q"))


def parse_instance(text: str) -> NetworkInstance:
    """Parse and validate an instance document.

    Raises MalformedDocumentError for syntax/schema problems,
    StructureError for tree-shape problems and RoleError for node-role
    problems. The returned instance always passes validation, and keeps
    that verdict (see ``NetworkInstance.violations``).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
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
    nodes = tuple(map(_node_from_mapping, doc["nodes"]))
    inst = NetworkInstance(capacity=doc["W"], nodes=nodes)
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


def serialize_instance(inst: NetworkInstance) -> str:
    """Canonical document text: key-sorted, id-sorted nodes, newline-terminated.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``
    of the document, written directly in its fixed key order (``bw``,
    ``id``, ``kind``, ``parent``, ``q``, ``w``) instead of through the
    encoder's pure-Python indenting path.
    """
    pad = " " * 6
    blocks = []
    for n in inst.nodes:
        lines = []
        if n.bw is not None:
            lines.append('"bw": ' + _json_value(n.bw, pad))
        lines.append('"id": ' + _json_value(n.id, pad))
        lines.append('"kind": ' + _json_value(n.kind, pad))
        lines.append('"parent": ' + _json_value(n.parent, pad))
        if n.q is not None:
            lines.append('"q": ' + _json_value(n.q, pad))
        if n.w is not None:
            lines.append('"w": ' + _json_value(n.w, pad))
        blocks.append("    {\n      " + ",\n      ".join(lines) + "\n    }")
    nodes = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
    return '{\n  "W": ' + _json_value(inst.capacity, "  ") + ',\n  "nodes": ' + nodes + "\n}\n"


def validate_instance(inst: NetworkInstance) -> list[Violation]:
    """Check every typed invariant; empty list means the instance is valid.

    Works on arbitrary instances (duplicates, cycles ...) without relying
    on the cached derived accessors.
    """
    out: list[Violation] = []
    add = lambda code, node, msg: out.append(Violation(code, node, msg))  # noqa: E731

    if not (isinstance(inst.capacity, int) and inst.capacity >= 1):
        add("capacity", None, f"capacity W must be a positive integer, got {inst.capacity!r}")

    seen: set[str] = set()
    for n in inst.nodes:
        if n.id in seen:
            add("duplicate-id", n.id, "node id appears more than once")
        seen.add(n.id)
        if n.id in RESERVED_NODE_IDS:
            add("reserved-id", n.id, "node id is reserved for the artificial root")

    by_id = {n.id: n for n in inst.nodes}
    roots = [n for n in inst.nodes if n.parent is None]
    if len(roots) != 1:
        add("root-count", None, f"expected exactly one root (parent null), found {len(roots)}")
    for n in inst.nodes:
        if n.parent is not None and n.parent not in by_id:
            add("unknown-parent", n.id, f"parent {n.parent!r} does not exist")
        if n.parent == n.id:
            add("cycle", n.id, "node is its own parent")

    children: dict[str, list[str]] = {}  # only nodes that have children
    for n in inst.nodes:
        if n.parent is not None:
            children.setdefault(n.parent, []).append(n.id)

    # Reachability from the root doubles as cycle detection. With one root
    # and unique ids each node sits in exactly one child list, so the walk
    # meets every reachable node once.
    if len(roots) == 1 and not any(v.code in ("unknown-parent", "duplicate-id") for v in out):
        order = [roots[0].id]
        for cur in order:
            order.extend(children.get(cur, ()))
        if len(order) != len(inst.nodes):
            reached = set(order)
            for n in inst.nodes:
                if n.id not in reached:
                    add("cycle", n.id, "node is not reachable from the root (cycle or orphan)")

    n_clients = 0
    n_internal = 0
    for n in inst.nodes:
        is_root = n.parent is None
        if n.kind == KIND_CLIENT:
            n_clients += 1
            if is_root:
                add("root-role", n.id, "root must be an internal node")
            if n.id in children:
                add("client-children", n.id, "clients must be leaves")
            if not (isinstance(n.w, int) and n.w >= 0):
                add("client-fields", n.id, "client needs integer w >= 0")
            if not (isinstance(n.q, int) and n.q >= 1):
                add("client-fields", n.id, "client needs integer q >= 1")
        else:
            n_internal += 1
            if n.w is not None or n.q is not None:
                add("internal-fields", n.id, "internal nodes carry no w/q")
            if n.id not in children:
                add("childless-internal", n.id, "internal node has no children")
        if is_root:
            if n.bw is not None:
                add("root-bw", n.id, "root has no parent link, bw must be absent")
        elif not (isinstance(n.bw, int) and n.bw >= 0):
            add("bw", n.id, "non-root node needs integer bw >= 0")

    if n_clients == 0:
        add("no-client", None, "instance needs at least one client")
    if n_internal == 0:
        add("no-internal", None, "instance needs at least one internal node")
    return out


def precheck_client_links(inst: NetworkInstance) -> list[PrecheckFinding]:
    """Fast infeasibility screen on client edges and the shared capacity.

    A client whose demand exceeds its own link bandwidth can never be
    served; a client whose demand exceeds W can never fit on any server.
    Findings are sorted by client id; an empty list means the screen
    passed. Tightening any bandwidth can only grow the finding set.
    """
    out: list[PrecheckFinding] = []
    for c in inst.clients:  # id-sorted already
        assert c.w is not None and c.bw is not None
        if c.w > c.bw:
            out.append(PrecheckFinding(c.id, "link-bandwidth", c.w, c.bw))
        if c.w > inst.capacity:
            out.append(PrecheckFinding(c.id, "capacity", c.w, inst.capacity))
    return out
