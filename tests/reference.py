"""Reference specifications the tests compare the program with.

Each function here states a rule the plain way, on the ``NodeSpec`` view
and the id-keyed maps of ``nodes_by_id`` and ``clients_of``, and shares
no code with the program's own version:

* ``validate_instance`` and ``verify_placement`` walk ``NodeSpec``
  objects by id, as the program did before it ran on per-index columns;
* ``verify_star_placement`` checks a replica set directly on a star tree;
* ``dual_role_brute_force_min`` is the exhaustive minimum on the
  dual-role model, where every node may both demand and serve;
* ``min_bw_on_path`` and ``leaf_contribution`` are the leaf row formula
  that phase 1 inlines as an upward walk;
* ``greedy_e_set`` and ``internal_node_update`` are the internal row rule
  that phase 1's ``equip_row`` kernel computes in one call.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple

from treeplace.contribution import REASON_EXHAUSTED
from treeplace.errors import GuardExceededError, InfeasibleError, StructureError
from treeplace.instance import (
    ARTIFICIAL_ROOT_ID,
    KIND_CLIENT,
    MODE_AGGREGATE,
    MODES,
    RESERVED_NODE_IDS,
    NetworkInstance,
    NodeSpec,
    Violation,
)
from treeplace.oracle import DEFAULT_MAX_INTERNAL, OracleResult
from treeplace.transform import StarLeaf, StarTree
from treeplace.verifier import RuleViolation

INFINITE = math.inf


def nodes_by_id(tree: NetworkInstance | StarTree) -> dict:
    """id -> record, over an instance's ``NodeSpec`` or a star tree's ``StarNode`` view."""
    return {n.id: n for n in tree.nodes}


def clients_of(inst: NetworkInstance) -> tuple[NodeSpec, ...]:
    """The client ``NodeSpec`` records, in id order."""
    return tuple(n for n in inst.nodes if n.kind == KIND_CLIENT)


def instance_of(capacity, nodes: Iterable[NodeSpec]) -> NetworkInstance:
    """The instance whose columns hold ``nodes``, one ``NodeSpec`` per node."""
    nodes = tuple(nodes)
    return NetworkInstance(capacity, *([getattr(n, f) for n in nodes] for f in NodeSpec._fields))


# --- instance validation --------------------------------------------------


def validate_instance(inst: NetworkInstance) -> list[Violation]:
    """Every typed invariant, checked node by node on ``inst.nodes``."""
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


# --- the verifier, by id ----------------------------------------------------


def closest_assignment(
    inst: NetworkInstance, replicas: set[str]
) -> tuple[dict[str, str | None], list[RuleViolation]]:
    """Each demanding client's nearest replica ancestor within q hops."""
    by_id = nodes_by_id(inst)
    assignment: dict[str, str | None] = {}
    violations: list[RuleViolation] = []
    for client in clients_of(inst):
        if client.w == 0:
            assignment[client.id] = None
            continue
        found = None
        cur = client.parent
        for _hop in range(client.q):
            if cur is None:
                break
            if cur in replicas:
                found = cur
                break
            cur = by_id[cur].parent
        assignment[client.id] = found
        if found is None:
            violations.append(RuleViolation("unserved", client.id, client.w))
    return assignment, violations


def _bundles(inst: NetworkInstance) -> list[tuple[str, list[NodeSpec]]]:
    groups: dict[str, list[NodeSpec]] = {}
    for client in clients_of(inst):
        groups.setdefault(client.parent, []).append(client)
    return sorted(groups.items())


def _link_crossings(inst: NetworkInstance, assignment: dict[str, str | None]):
    """``(child-end id, label, flow)`` for every link a served flow crosses."""
    by_id = nodes_by_id(inst)
    for client in clients_of(inst):
        if client.w and assignment.get(client.id):
            yield client.id, client.id, client.w
    for parent_id, members in _bundles(inst):
        served = [c for c in members if assignment.get(c.id)]
        if not served:
            continue
        server = assignment[served[0].id]
        bundle_flow = sum(c.w for c in served)
        assert all(assignment[c.id] == server for c in served)
        cur = parent_id
        while cur != server:
            yield cur, parent_id, bundle_flow
            cur = by_id[cur].parent


def link_flows(inst: NetworkInstance, assignment: dict[str, str | None]) -> dict[str, dict]:
    parts: dict[str, list[tuple[str, int]]] = {}
    for child_end, label, flow in _link_crossings(inst, assignment):
        parts.setdefault(child_end, []).append((label, flow))
    out: dict[str, dict] = {}
    for child_end in sorted(parts):
        ordered = sorted(parts[child_end])
        out[child_end] = {
            "total": sum(f for _, f in ordered),
            "parts": [[label, f] for label, f in ordered],
        }
    return out


def verify_placement(inst: NetworkInstance, replicas, mode: str) -> dict:
    """The report's fields (``link_flows`` included) as a plain dict."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    replica_set = set(replicas)
    by_id = nodes_by_id(inst)
    stray = {r for r in replica_set if r not in by_id or by_id[r].kind == KIND_CLIENT}
    if stray:
        raise StructureError(f"replica set contains non-internal nodes: {sorted(stray)}")

    assignment, violations = closest_assignment(inst, replica_set)
    loads: dict[str, int] = {r: 0 for r in sorted(replica_set)}
    for cid, server in assignment.items():
        if server is not None:
            loads[server] += by_id[cid].w
    for server in sorted(loads):
        if loads[server] > inst.capacity:
            violations.append(RuleViolation("capacity", server, loads[server] - inst.capacity))

    link_load: dict[str, int] = {}
    aggregate = mode == MODE_AGGREGATE
    for child_end, _label, flow in _link_crossings(inst, assignment):
        if aggregate:
            link_load[child_end] = link_load.get(child_end, 0) + flow
        elif flow > link_load.get(child_end, 0):
            link_load[child_end] = flow
    for child_end, load in link_load.items():
        bw = by_id[child_end].bw
        if load > bw:
            violations.append(RuleViolation("bandwidth", child_end, load - bw))

    return {
        "mode": mode,
        "assignment": assignment,
        "server_loads": loads,
        "violations": tuple(sorted(violations, key=lambda v: (v.kind, v.location))),
        "link_flows": link_flows(inst, assignment),
    }


# --- the star tree ----------------------------------------------------------


def verify_star_placement(
    star: StarTree, replicas: set[str] | frozenset[str]
) -> tuple[bool, list[RuleViolation]]:
    """Per-bundle feasibility of a replica set directly on a star tree.

    For any replica set the verdict must match verify_placement on the
    original instance with the same (projected) set. Eligible leaves may
    serve themselves at distance zero.
    """
    by_id = nodes_by_id(star)
    replica_set = set(replicas)
    violations: list[RuleViolation] = []
    loads: dict[str, int] = {}
    for leaf_node in star.leaves:
        leaf = leaf_node.leaf
        assert leaf is not None
        if leaf.weight == 0:
            continue
        server = None
        cur: str | None = leaf_node.id
        path_min: int | float = INFINITE
        for _hop in range(leaf.qos + 1):
            if cur is None or cur == ARTIFICIAL_ROOT_ID:
                break
            if cur in replica_set:
                server = cur
                break
            path_min = min(path_min, by_id[cur].bw)
            cur = by_id[cur].parent
        if server is None:
            violations.append(RuleViolation("unserved", leaf_node.id, leaf.weight))
            continue
        if leaf.weight > path_min:
            violations.append(
                RuleViolation("bandwidth", leaf_node.id, int(leaf.weight - path_min))
            )
        loads[server] = loads.get(server, 0) + leaf.weight
    for server in sorted(loads):
        if loads[server] > star.capacity:
            violations.append(RuleViolation("capacity", server, loads[server] - star.capacity))
    return (not violations, violations)


def min_bw_on_path(star: StarTree, node_id: str, hops: int) -> int | float:
    """Smallest bandwidth on the ``hops``-edge path from a node upward.

    ``hops = 0`` is the empty path (unbounded). Raises ValueError when
    the path would run past the artificial root.
    """
    v = star.index[node_id]
    if hops < 0 or hops > star.depths[v]:
        raise ValueError(f"path of {hops} hops from {node_id!r} is out of range")
    best: int | float = INFINITE
    for _ in range(hops):
        best = min(best, star.bws[v])
        v = star.parents[v]
    return best


def leaf_contribution(leaf: StarLeaf, hops: int, path_min_bw: int | float) -> int | float:
    """Workload a leaf bundle pushes onto the ancestor ``hops`` above it.

    Finite exactly when the ancestor is within the bundle's qos range and
    the bundle fits through every link on the way. Zero-demand bundles
    constrain nothing and contribute 0 at every index.
    """
    if leaf.weight == 0:
        return 0
    if hops <= leaf.qos and leaf.weight <= path_min_bw:
        return leaf.weight
    return INFINITE


class GreedyResult(NamedTuple):
    selected: tuple  # chosen keys, ascending
    residual: int | float  # sum of the contributions left outside the set
    exhausted: bool  # ran out of eligible children while still over bound


def greedy_e_set(items: Iterable[tuple], bound: int | float) -> GreedyResult:
    """Equip children greedily until the residual fits under ``bound``.

    ``items`` yields ``(key, contribution, eligible)`` triples in any
    order. While the residual sum exceeds the bound, the eligible child
    with the largest contribution is moved into the set (ties: smallest
    key). If eligible children run out first the result is marked
    exhausted; the partial set is still reported.
    """
    left = list(items)
    chosen: list = []
    while True:
        residual = sum(c for _k, c, _e in left)
        if residual != INFINITE and residual <= bound:
            return GreedyResult(tuple(sorted(chosen)), residual, False)
        pool = [e for e in left if e[2]]
        if not pool:
            return GreedyResult(tuple(sorted(chosen)), residual, True)
        best = min(pool, key=lambda e: (-e[1], e[0]))
        left.remove(best)
        chosen.append(best[0])


def internal_node_update(
    children: Iterable[tuple],
    hops: int,
    bound: int | float,
    e0_size: int | None = None,
    node: str | None = None,
) -> tuple[tuple, int | float]:
    """One table row for an internal node, ``(equip set, c)``.

    ``children`` carries ``(child key, contribution at hops+1, eligible)``.
    At ``hops = 0`` an exhausted greedy means no replica assignment can
    serve the subtree at all, a global infeasibility reported against
    ``node``. At deeper indices exhaustion, or an equip set that is not
    the ``hops = 0`` size ``e0_size``, marks the row infinite.
    """
    result = greedy_e_set(children, bound)
    if hops == 0:
        if result.exhausted:
            raise InfeasibleError(REASON_EXHAUSTED, () if node is None else (node,))
        return result.selected, result.residual
    if result.exhausted or len(result.selected) != e0_size:
        return result.selected, INFINITE
    return result.selected, result.residual


# --- dual-role networks -------------------------------------------------------


def dual_role_brute_force_min(
    nodes_with_demand: dict[str, tuple[int, int]],
    parents: dict[str, str | None],
    bandwidth: dict[str, int],
    capacity: int,
    max_nodes: int = DEFAULT_MAX_INTERNAL,
) -> OracleResult:
    """Minimum replica count when every node may both demand and serve.

    A hand-rolled check rather than the verifier, because here a node
    hosting a replica serves its own demand at zero hops and zero link
    cost. ``nodes_with_demand`` maps id -> (weight, qos); nodes absent
    from it demand nothing. Used to validate the reduction that rewrites
    such networks into client/server form.
    """
    ids = sorted(parents)
    if len(ids) > max_nodes:
        raise GuardExceededError(
            f"{len(ids)} nodes exceeds the exhaustive-search guard of {max_nodes}"
        )

    def feasible(replicas: frozenset[str]) -> bool:
        loads: dict[str, int] = {}
        for nid in ids:
            w, q = nodes_with_demand.get(nid, (0, 0))
            if w == 0:
                continue
            server = None
            cur: str | None = nid
            path_min = float("inf")
            for _hop in range(q + 1):
                if cur in replicas:
                    server = cur
                    break
                up = parents[cur]
                if up is None:
                    break  # ran off the root without finding a server
                path_min = min(path_min, bandwidth[cur])
                cur = up
            if server is None or w > path_min:
                return False
            loads[server] = loads.get(server, 0) + w
        return all(load <= capacity for load in loads.values())

    explored = 0
    for size in range(len(ids) + 1):
        winners: list[tuple[str, ...]] = []
        for combo in itertools.combinations(ids, size):
            explored += 1
            if feasible(frozenset(combo)):
                winners.append(combo)
        if winners:
            return OracleResult(size, winners[0], len(winners), explored)
    return OracleResult(None, None, 0, explored)
