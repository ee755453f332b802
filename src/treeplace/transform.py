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

The result is built once as flat per-index arrays (see ``StarTree``);
phase 1, placement and the root check run on those int indices, and ids
come back only at output.
"""

from __future__ import annotations

import json
import math
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .errors import InfeasibleError
from .instance import (
    ARTIFICIAL_ROOT_ID,
    KIND_CLIENT,
    NetworkInstance,
    precheck_client_links,
    require_valid,
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


@dataclass(frozen=True, eq=False)
class StarTree:
    """The normalized tree as flat per-index arrays; the root is artificial.

    A star index is the node's position in the instance's id-sorted node
    list: a star internal node keeps its own index, an eligible leaf the
    index of the parent it replaces (and its id), a merged leaf the index
    of its smallest client. The artificial root takes index ``len(nodes)``.
    Clients folded into a bundle leave holes (``depths[v] == -1``). So
    index order is id order, and projecting a replica back onto the
    original tree is the identity on indices.

    The solver stages read the arrays. The id-keyed views (``index``,
    ``nodes``, ``depth``, ``leaves``) are built on first read
    only.
    """

    capacity: int
    ids: list[str]  # index -> id
    parents: list[int]  # -1 on the root and on holes
    bws: list  # link to the parent: int, UNBOUNDED (merged leaf) or None (root)
    weights: list  # bundle weight on leaves, None elsewhere
    qoses: list[int]  # bundle qos on leaves
    eligibles: list[bool]  # may host a replica: internal nodes and eligible leaves
    bundles: list  # the bundled client indices (ascending) on leaves, None elsewhere
    kids: list[tuple[int, ...]]  # id-ordered child indices
    depths: list[int]  # hops up to the root; -1 on holes
    preorder: list[int]  # parents before children, siblings in id order
    max_leaf_qos: int

    @property
    def root(self) -> int:
        return len(self.ids) - 1

    @cached_property
    def index(self) -> dict[str, int]:
        """Star node id -> index."""
        ids = self.ids
        return {ids[v]: v for v in self.preorder}

    @cached_property
    def id_order(self) -> list[int]:
        """Star indices in ascending id order."""
        return sorted(self.preorder, key=self.ids.__getitem__)

    def _node(self, v: int) -> StarNode:
        ids = self.ids
        parent = self.parents[v]
        leaf = None
        if self.weights[v] is not None:
            eligible = self.eligibles[v]
            leaf = StarLeaf(
                id=ids[v],
                weight=self.weights[v],
                qos=self.qoses[v],
                eligible=eligible,
                origin_internal=ids[v] if eligible else None,
                origin_clients=tuple(ids[c] for c in self.bundles[v]),
            )
        return StarNode(ids[v], None if parent < 0 else ids[parent], self.bws[v], leaf)

    @cached_property
    def nodes(self) -> tuple[StarNode, ...]:
        return tuple(map(self._node, self.id_order))

    @cached_property
    def depth(self) -> dict[str, int]:
        """Hop count from each node up to the artificial root (which is 0)."""
        return {self.ids[v]: self.depths[v] for v in self.id_order}

    @cached_property
    def leaves(self) -> tuple[StarNode, ...]:
        return tuple(n for n in self.nodes if n.leaf is not None)


def _bundle_figures(inst: NetworkInstance, clients: list, *, suppressed: bool, leaf_id: str) -> tuple:
    """Weight and qos of the leaf that bundles the client indices ``clients``.

    ``clients`` are one parent's client children in ascending id order.
    A suppressed bundle (the parent of an all-client family becomes an
    eligible leaf) takes min client qos - 1, for the hop from the
    vanished clients up to the parent; a merged bundle of a mixed parent
    keeps min client qos. Raises InfeasibleError("qos exhausted") if the
    qos drops below zero (impossible for validated instances, where
    q >= 1).
    """
    ws, qs = inst.ws, inst.qs
    weight = 0
    q_any = q_demanding = UNBOUNDED
    for c in clients:  # one plain loop: most bundles hold one to three clients
        q = qs[c]
        if q < q_any:
            q_any = q
        if ws[c]:
            weight += ws[c]
            if q < q_demanding:
                q_demanding = q
    # zero-demand clients constrain nothing, unless no client demands
    qos = (q_demanding if weight else q_any) - (1 if suppressed else 0)
    if qos < 0:
        raise InfeasibleError(REASON_QOS, ((leaf_id, tuple(inst.ids[c] for c in clients)),))
    return weight, qos


def transform_to_star(inst: NetworkInstance) -> StarTree:
    """Normalize a validated instance into a StarTree.

    Raises as :func:`require_valid` does (RoleError or StructureError,
    naming every finding) when the instance does not validate; the
    verdict is the one the instance keeps, so a parsed instance is not
    validated again. Raises InfeasibleError when the precheck fails or
    some merged bundle exceeds the shared capacity (the closest policy
    sends a whole bundle to a single server, so weight > W can never be
    served). Reads the instance's columns and its int parent column.
    """
    require_valid(inst)
    findings = precheck_client_links(inst)
    if findings:
        reason = (
            REASON_LINK
            if any(f.kind == "link-bandwidth" for f in findings)
            else REASON_CAPACITY
        )
        raise InfeasibleError(reason, tuple(findings))

    kinds = inst.kinds
    root = len(kinds)
    ids = inst.ids + [ARTIFICIAL_ROOT_ID]
    ups = [root if up < 0 else up for up in inst.parent_index]  # the old root hangs below r+
    # the original child lists, split by kind, id-ordered because the indices are
    client_kids: list = [None] * (root + 1)
    inner_kids: list = [None] * (root + 1)
    for v, kind, up in zip(range(root), kinds, ups):
        lists = client_kids if kind == KIND_CLIENT else inner_kids
        if lists[up] is None:
            lists[up] = [v]
        else:
            lists[up].append(v)

    size = root + 1
    parents = [-1] * size
    bws: list = [None] * size
    weights: list = [None] * size
    qoses = [0] * size
    eligibles = [True] * size
    bundles: list = [None] * size
    kids: list[tuple[int, ...]] = [()] * size
    kids[root] = tuple(inner_kids[root])
    capacity = inst.capacity
    heavy: list[tuple[str, int]] = []
    max_qos = 0
    for v, kind, up, bw in zip(range(root), kinds, ups, inst.bws):
        if kind == KIND_CLIENT:
            continue
        parents[v] = up
        bws[v] = 0 if up == root else bw
        inner = inner_kids[v]
        clients = client_kids[v]
        if inner is None:
            leaf = v  # suppressed: the node itself becomes an eligible leaf
        elif clients is None:
            kids[v] = tuple(inner)
            continue
        else:
            leaf = clients[0]  # compressed: a merged leaf behind an unbounded link
            insort(inner, leaf)
            kids[v] = tuple(inner)
            parents[leaf] = v
            bws[leaf] = UNBOUNDED
            eligibles[leaf] = False
        weight, qos = _bundle_figures(inst, clients, suppressed=leaf == v, leaf_id=ids[leaf])
        weights[leaf] = weight
        qoses[leaf] = qos
        bundles[leaf] = clients
        max_qos = max(max_qos, qos)
        if weight > capacity:
            heavy.append((ids[leaf], weight))
    if heavy:
        raise InfeasibleError(REASON_BUNDLE, tuple(sorted(heavy)))

    depths = [-1] * size
    depths[root] = 0
    preorder: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        preorder.append(v)
        below = kids[v]
        if below:
            d = depths[v] + 1
            for c in below:
                depths[c] = d
            stack.extend(reversed(below))

    return StarTree(
        capacity=capacity,
        ids=ids,
        parents=parents,
        bws=bws,
        weights=weights,
        qoses=qoses,
        eligibles=eligibles,
        bundles=bundles,
        kids=kids,
        depths=depths,
        preorder=preorder,
        max_leaf_qos=max_qos,
    )


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
    doc = {"W": star.capacity, "root_plus": ARTIFICIAL_ROOT_ID, "nodes": nodes}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
