"""Tree normalization: collapse client leaves into star leaves.

The solver core works on a normalized tree in which every leaf is a
``StarLeaf`` bundle of sibling clients and an artificial root sits above
the original root behind a zero-bandwidth link. Three rules, applied to
the original tree in one pass:

* an artificial root (id ``__r_plus__``) is added above the root, with
  bandwidth 0 on the new link so that no demand may flow past the root;
* a parent whose children are all clients becomes a leaf itself
  (weight = summed demand, qos = min client qos - 1, replica-eligible);
* a parent with mixed children gets its client children merged into a
  single ineligible leaf (weight = summed demand, qos = min client qos,
  unbounded bandwidth on the artificial merged link).

Zero-demand clients are excluded from the qos aggregation: an empty
bundle constrains nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any

from .errors import ContractViolationError, InfeasibleError, StructureError
from .instance import (
    ARTIFICIAL_ROOT_ID,
    KIND_CLIENT,
    NetworkInstance,
    NodeSpec,
    precheck_client_links,
)

UNBOUNDED = math.inf  # bandwidth/contribution value that never binds

REASON_LINK = "client link bandwidth"
REASON_CAPACITY = "client demand exceeds capacity"
REASON_BUNDLE = "bundle demand exceeds capacity"
REASON_QOS = "qos exhausted"


@dataclass(frozen=True, slots=True)
class StarLeaf:
    """A bundle of sibling clients, attached where their parent was.

    ``eligible`` leaves stand in for a former internal node (the parent
    itself) and may host a replica; ineligible leaves are pure client
    merges and may not. ``origin_internal``/``origin_clients`` record
    the original node ids the leaf replaces.
    """

    id: str
    weight: int
    qos: int
    eligible: bool
    origin_internal: str | None
    origin_clients: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class StarNode:
    id: str
    parent: str | None
    bw: int | float | None  # bandwidth of the link to parent; None on the root
    leaf: StarLeaf | None  # None for internal nodes

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None


@dataclass(frozen=True)
class StarTree:
    """The normalized tree. Every leaf is a StarLeaf; root is artificial."""

    capacity: int
    root_plus: str
    nodes: tuple[StarNode, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.nodes, key=attrgetter("id")))
        object.__setattr__(self, "nodes", ordered)

    @cached_property
    def by_id(self) -> dict[str, StarNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {}
        for n in self.nodes:
            if n.parent is not None:
                table.setdefault(n.parent, []).append(n.id)
        # id-sorted via node order
        return {n.id: tuple(table.get(n.id, ())) for n in self.nodes}

    @cached_property
    def depth(self) -> dict[str, int]:
        """Hop count from each node up to the artificial root (which is 0)."""
        out: dict[str, int] = {self.root_plus: 0}
        stack = list(self.children[self.root_plus])
        while stack:
            cur = stack.pop()
            out[cur] = out[self.by_id[cur].parent] + 1  # type: ignore[index]
            stack.extend(self.children[cur])
        return out

    @cached_property
    def leaves(self) -> tuple[StarNode, ...]:
        return tuple(n for n in self.nodes if n.is_leaf)

    @cached_property
    def max_leaf_qos(self) -> int:
        return max(n.leaf.qos for n in self.leaves)  # type: ignore[union-attr]

    @cached_property
    def back_map(self) -> dict[str, tuple[str, ...]]:
        """Star node id -> original node ids it represents."""
        out: dict[str, tuple[str, ...]] = {}
        for n in self.nodes:
            if n.id == self.root_plus:
                out[n.id] = ()
            elif n.leaf is None:
                out[n.id] = (n.id,)
            else:
                origin = () if n.leaf.origin_internal is None else (n.leaf.origin_internal,)
                out[n.id] = origin + n.leaf.origin_clients
        return out


class _TreeBuilder:
    """Mutable partial star tree used while the rules are applied."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.nodes: dict[str, StarNode] = {}

    def add(self, node: StarNode) -> None:
        if node.id in self.nodes:
            raise ContractViolationError(f"star node {node.id!r} added twice")
        self.nodes[node.id] = node

    def freeze(self) -> StarTree:
        return StarTree(
            capacity=self.capacity,
            root_plus=ARTIFICIAL_ROOT_ID,
            nodes=tuple(self.nodes.values()),
        )


def add_artificial_root(inst: NetworkInstance) -> _TreeBuilder:
    """Start a builder containing the artificial root and the old root.

    The new link gets bandwidth 0 so no residual demand may cross it.
    Calling this on a tree that already contains the artificial root is
    a contract violation.
    """
    if ARTIFICIAL_ROOT_ID in (n.id for n in inst.nodes):
        raise ContractViolationError("artificial root already present")
    builder = _TreeBuilder(inst.capacity)
    builder.add(StarNode(id=ARTIFICIAL_ROOT_ID, parent=None, bw=None, leaf=None))
    return builder


def _bundle(parent: NodeSpec, clients: list[NodeSpec], *, suppressed: bool, leaf_id: str) -> StarLeaf:
    # ``clients`` come in ascending id order, as NetworkInstance.children lists them.
    weight = sum(c.w for c in clients)  # type: ignore[misc]
    demanding = [c.q for c in clients if c.w]  # zero-demand clients constrain nothing
    base = min(demanding) if demanding else min(c.q for c in clients)  # type: ignore[type-var]
    qos = base - 1 if suppressed else base
    client_ids = tuple(c.id for c in clients)
    if qos < 0:
        raise InfeasibleError(REASON_QOS, ((leaf_id, client_ids),))
    return StarLeaf(
        id=leaf_id,
        weight=weight,
        qos=qos,
        eligible=suppressed,
        origin_internal=parent.id if suppressed else None,
        origin_clients=client_ids,
    )


def suppress_clients(parent: NodeSpec, clients: list[NodeSpec]) -> StarLeaf:
    """Parent of an all-client family becomes an eligible leaf bundle.

    ``clients`` are the parent's client children in ascending id order.
    The -1 on the qos accounts for the hop from the vanished clients up
    to the parent. Raises InfeasibleError("qos exhausted") if that drives
    the qos below zero (impossible for validated instances, where q >= 1).
    """
    return _bundle(parent, clients, suppressed=True, leaf_id=parent.id)


def compress_clients(parent: NodeSpec, clients: list[NodeSpec]) -> StarLeaf:
    """Merge the client children of a mixed parent into one ineligible leaf.

    ``clients`` are the parent's client children in ascending id order.
    The merged leaf reuses the smallest client id and hangs from the
    parent behind an unbounded artificial link: the first physical link
    its bundle shares with anything is parent -> grandparent.
    """
    return _bundle(parent, clients, suppressed=False, leaf_id=clients[0].id)


def transform_to_star(inst: NetworkInstance) -> StarTree:
    """Normalize a validated instance into a StarTree.

    Raises StructureError, naming every finding, when the instance does
    not validate; the verdict is the one the instance keeps, so a parsed
    instance is not validated again. Raises InfeasibleError when the
    precheck fails or some merged bundle exceeds the shared capacity (the
    closest policy sends a whole bundle to a single server, so weight > W
    can never be served).
    """
    if inst.violations:
        raise StructureError("; ".join(str(v) for v in inst.violations))
    findings = precheck_client_links(inst)
    if findings:
        reason = (
            REASON_LINK
            if any(f.kind == "link-bandwidth" for f in findings)
            else REASON_CAPACITY
        )
        raise InfeasibleError(reason, tuple(findings))

    builder = add_artificial_root(inst)
    root_id = inst.root.id
    heavy: list[tuple[str, int]] = []
    for node in inst.nodes:
        if node.kind == KIND_CLIENT:
            continue
        kids = inst.children[node.id]
        client_kids = [k for k in kids if k.kind == KIND_CLIENT]
        link_bw: int | float = 0 if node.id == root_id else node.bw  # type: ignore[assignment]
        parent_id = ARTIFICIAL_ROOT_ID if node.id == root_id else node.parent
        if client_kids and len(client_kids) == len(kids):
            leaf = suppress_clients(node, client_kids)
            builder.add(StarNode(id=leaf.id, parent=parent_id, bw=link_bw, leaf=leaf))
            if leaf.weight > inst.capacity:
                heavy.append((leaf.id, leaf.weight))
        else:
            builder.add(StarNode(id=node.id, parent=parent_id, bw=link_bw, leaf=None))
            if client_kids:
                leaf = compress_clients(node, client_kids)
                builder.add(StarNode(id=leaf.id, parent=node.id, bw=UNBOUNDED, leaf=leaf))
                if leaf.weight > inst.capacity:
                    heavy.append((leaf.id, leaf.weight))
    if heavy:
        raise InfeasibleError(REASON_BUNDLE, tuple(sorted(heavy)))

    star = builder.freeze()
    _check_star(star, inst)
    return star


def _check_star(star: StarTree, inst: NetworkInstance) -> None:
    # Structural invariants; any failure here is a transform bug.
    for node in star.nodes:
        kids = star.children[node.id]
        if node.is_leaf and kids:
            raise ContractViolationError(f"star leaf {node.id!r} has children")
        if not node.is_leaf and not kids and node.id != star.root_plus:
            raise ContractViolationError(f"star internal {node.id!r} lost its children")
    total = sum(n.leaf.weight for n in star.leaves)  # type: ignore[union-attr]
    original = sum(c.w for c in inst.clients)  # type: ignore[misc]
    if total != original:
        raise ContractViolationError("demand not conserved by the transformation")


def star_to_document(star: StarTree) -> str:
    """Serialize a StarTree; unbounded bandwidth becomes JSON null."""
    nodes: list[dict[str, Any]] = []
    for n in star.nodes:
        entry: dict[str, Any] = {"id": n.id, "parent": n.parent}
        if n.parent is not None:
            entry["bw"] = None if n.bw == UNBOUNDED else n.bw
        if n.leaf is None:
            entry["kind"] = "internal"
        else:
            entry["kind"] = "leaf"
            entry["weight"] = n.leaf.weight
            entry["qos"] = n.leaf.qos
            entry["eligible"] = n.leaf.eligible
            entry["origin"] = {
                "internal": n.leaf.origin_internal,
                "clients": list(n.leaf.origin_clients),
            }
        nodes.append(entry)
    doc = {"W": star.capacity, "root_plus": star.root_plus, "nodes": nodes}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
