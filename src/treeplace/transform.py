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

The pass that builds the original child lists also screens every client
(demand over its own link or W) and raises before it allocates the star
arrays; a sibling bundle heavier than W fails the screen too. The screen
is exact in both modes: equipping every internal node serves each bundle
one hop up, at its own parent, across only its clients' own links.

The result is built once as flat per-index arrays (see ``StarTree``);
phase 1, placement and the root check run on those int indices, and ids
come back only at output.
"""

from __future__ import annotations

import math
from bisect import insort
from functools import cached_property
from typing import Any, NamedTuple

from .errors import InfeasibleError
from .instance import ARTIFICIAL_ROOT_ID, KIND_CLIENT, NetworkInstance, json_text, require_valid

UNBOUNDED = math.inf  # bandwidth/contribution value that never binds

REASON_LINK = "client link bandwidth"
REASON_CAPACITY = "client demand exceeds capacity"
REASON_BUNDLE = "bundle demand exceeds capacity"


class PrecheckFinding(NamedTuple):
    """A client that no placement can serve: its demand exceeds its own
    link (``link-bandwidth``) or the capacity W (``capacity``)."""

    client: str
    kind: str  # "link-bandwidth" | "capacity"
    demand: int
    limit: int


class StarLeaf(NamedTuple):
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


class StarNode(NamedTuple):
    id: str
    parent: str | None
    bw: int | float | None  # bandwidth of the link to parent; None on the root
    leaf: StarLeaf | None  # None for internal nodes


class StarTree:
    """The normalized tree as flat per-index arrays; the root is artificial.

    A star index is the node's position in the instance's id-sorted node
    list: a star internal node keeps its own index, an eligible leaf the
    index of the parent it replaces (and its id), a merged leaf the index
    of its smallest client. The artificial root takes index ``len(nodes)``.
    Clients folded into a bundle leave holes, which ``order`` skips. So
    index order is id order, and projecting a replica back onto the
    original tree is the identity on indices.

    ``kids`` holds the lists the transform groups the internal children in,
    each with its merged leaf inserted in id order; treat them as read-only.
    The solver stages read the arrays. The id-keyed views (``index``,
    ``nodes``, ``depth``, ``leaves``) are built on first read only.
    """

    def __init__(self, capacity: int, ids: list[str], parents: list[int], bws: list, weights: list,
                 qoses: list[int], eligibles: list[bool], bundles: list, kids: list[list[int] | tuple],
                 order: list[int], max_leaf_qos: int):
        self.capacity = capacity
        self.ids = ids  # index -> id
        self.parents = parents  # -1 on the root and on holes
        self.bws = bws  # link to the parent: int, UNBOUNDED (merged leaf) or None (root)
        self.weights = weights  # bundle weight on leaves, None elsewhere
        self.qoses = qoses  # bundle qos on leaves
        self.eligibles = eligibles  # may host a replica: internal nodes and eligible leaves
        self.bundles = bundles  # the bundled client indices (ascending) on leaves, None elsewhere
        self.kids = kids  # id-ordered child index lists on internal nodes, () elsewhere
        self.order = order  # parents before children
        self.max_leaf_qos = max_leaf_qos

    @property
    def root(self) -> int:
        return len(self.ids) - 1

    @cached_property
    def index(self) -> dict[str, int]:
        """Star node id -> index."""
        ids = self.ids
        return {ids[v]: v for v in self.order}

    @cached_property
    def id_order(self) -> list[int]:
        """Star indices in ascending id order."""
        return sorted(self.order, key=self.ids.__getitem__)

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
        hops = [0] * len(self.ids)
        parents = self.parents
        for v in self.order[1:]:
            hops[v] = hops[parents[v]] + 1
        return {self.ids[v]: hops[v] for v in self.id_order}

    @cached_property
    def leaves(self) -> tuple[StarNode, ...]:
        return tuple(n for n in self.nodes if n.leaf is not None)


def transform_to_star(inst: NetworkInstance) -> StarTree:
    """Normalize a validated instance into a StarTree.

    Raises as :func:`require_valid` does (RoleError or StructureError,
    naming every finding) when the instance does not validate; the
    verdict is the one the instance keeps, so a parsed instance is not
    validated again. Raises InfeasibleError, before it builds any star
    array, when some client's demand exceeds its own link or W: the
    details are ``PrecheckFinding`` records in client-id order, and the
    reason is the link one if any finding is. Raises it too when some
    bundle exceeds W, as one server takes a whole bundle. Reads the
    instance's columns and its int parent column.
    """
    require_valid(inst)
    kinds, ws, qs, capacity = inst.kinds, inst.ws, inst.qs, inst.capacity
    root = len(kinds)
    # the original child lists, split by kind, id-ordered because the indices are; the old
    # root's parent index -1 files it under r+, and the internal ones become the star's kids
    client_kids: list = [()] * (root + 1)
    kids: list = [()] * (root + 1)
    findings: list[PrecheckFinding] = []
    for v, kind, up, bw, w in zip(range(root), kinds, inst.parent_index, inst.bws, ws):
        if kind == KIND_CLIENT:
            if w > bw:
                findings.append(PrecheckFinding(inst.ids[v], "link-bandwidth", w, bw))
            if w > capacity:
                findings.append(PrecheckFinding(inst.ids[v], "capacity", w, capacity))
            lists = client_kids
        else:
            lists = kids
        if lists[up]:
            lists[up].append(v)
        else:
            lists[up] = [v]
    if findings:
        link = any(f.kind == "link-bandwidth" for f in findings)
        raise InfeasibleError(REASON_LINK if link else REASON_CAPACITY, tuple(findings))

    ids = inst.ids + [ARTIFICIAL_ROOT_ID]
    size = root + 1
    parents = [-1] * size
    bws: list = [None] * size
    weights: list = [None] * size
    qoses = [0] * size
    eligibles = [True] * size
    bundles: list = [None] * size
    heavy: list[tuple[str, int]] = []
    max_qos = 0
    for v, kind, up, bw in zip(range(root), kinds, inst.parent_index, inst.bws):
        if kind == KIND_CLIENT:
            continue
        parents[v] = up
        bws[v] = bw
        clients = client_kids[v]
        if not kids[v]:
            leaf = v  # suppressed: the node itself becomes an eligible leaf
        elif not clients:
            continue
        else:
            leaf = clients[0]  # compressed: a merged leaf behind an unbounded link
            insort(kids[v], leaf)
            parents[leaf] = v
            bws[leaf] = UNBOUNDED
            eligibles[leaf] = False
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
        # Zero-demand clients constrain nothing, unless no client demands. A
        # suppressed bundle loses the hop from its clients up to v; validated
        # clients have q >= 1, so its qos is at least 0.
        qos = (q_demanding if weight else q_any) - (1 if leaf == v else 0)
        weights[leaf] = weight
        qoses[leaf] = qos
        bundles[leaf] = clients
        max_qos = max(max_qos, qos)
        if weight > capacity:
            heavy.append((ids[leaf], weight))
    if heavy:
        raise InfeasibleError(REASON_BUNDLE, tuple(sorted(heavy)))
    (old_root,) = kids[root]  # hangs below r+, behind a zero-bandwidth link
    parents[old_root], bws[old_root] = root, 0

    order = [root]
    for v in order:
        order += kids[v]

    return StarTree(capacity, ids, parents, bws, weights, qoses, eligibles, bundles,
                    kids, order, max_qos)


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
    return json_text(doc) + "\n"
