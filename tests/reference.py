"""Reference specifications the tests compare the program with.

Each function here states a rule the plain way, most of them on the
``NodeSpec`` view and the id-keyed maps of ``nodes_by_id`` and
``clients_of``, and shares no code with the program's own version:

* ``validate_instance`` and ``verify_placement`` walk ``NodeSpec``
  objects by id, as the program did before it ran on per-index columns;
* ``precheck_client_links`` is the client screen that the transform
  runs inside its child-list pass;
* ``verify_star_placement`` checks a replica set directly on a star tree;
* ``root_workload_check`` is the root check as one full top-down pass
  over the star tree, where the program walks down from the old root only;
* ``dual_role_brute_force_min`` is the exhaustive minimum on the
  dual-role model, where every node may both demand and serve;
* ``min_bw_on_path`` and ``leaf_contribution`` are the leaf row formula
  that phase 1 inlines as an upward walk;
* ``CountLoadDP`` is the exact minimum count, and the least load at each
  count, by a dynamic program over the original tree's columns. It uses no
  star tree and no greedy, so it checks phase 1's values, which the one
  greedy kernel, ``contribution.equip_row``, computes.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable

from treeplace.errors import ContractViolationError, GuardExceededError, StructureError
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
from treeplace.verifier import RuleViolation

if TYPE_CHECKING:  # annotations only: the module imports no solver stage
    from treeplace.placement import PlacementResult
    from treeplace.transform import StarLeaf, StarTree

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


# --- the client screen ----------------------------------------------------


def precheck_client_links(inst: NetworkInstance) -> list[tuple[str, str, int, int]]:
    """The clients no placement can serve, as ``(client, kind, demand, limit)``.

    A client whose demand exceeds its own link bandwidth (``link-bandwidth``)
    can never be served; one whose demand exceeds W (``capacity``) fits on
    no server. In client-id order, link before capacity for one client; an
    empty list means the screen passed.
    """
    out = []
    for c in clients_of(inst):
        if c.w > c.bw:
            out.append((c.id, "link-bandwidth", c.w, c.bw))
        if c.w > inst.capacity:
            out.append((c.id, "capacity", c.w, inst.capacity))
    return out


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


def root_workload_check(result: PlacementResult) -> None:
    """The workload that stops at the old root, from every node's server.

    One top-down pass carries each node's nearest equipped ancestor-or-self
    (-1: none below the artificial root); a replica listed on an ineligible
    leaf equips nothing. The old root's own load must fit the capacity when
    it is equipped; otherwise no demand may be left unabsorbed. Raises
    ContractViolationError naming the old root and that load.
    """
    star = result.star
    equipped = set(result.placed)
    parents = star.parents
    weights = star.weights
    eligibles = star.eligibles
    (old_root,) = star.kids[star.root]

    server = [-1] * len(parents)
    root_load = 0
    unabsorbed = 0
    for v in itertools.islice(star.order, 1, None):
        s = v if v in equipped and eligibles[v] else server[parents[v]]
        server[v] = s
        weight = weights[v]
        if weight:  # a demanding leaf
            if s == old_root:
                root_load += weight
            elif s < 0:
                unabsorbed += weight

    load, limit = (root_load, star.capacity) if old_root in equipped else (unabsorbed, 0)
    if load > limit:
        raise ContractViolationError(f"old root {star.ids[old_root]!r} is left with load {load}, over {limit}")


def min_bw_on_path(star: StarTree, node_id: str, hops: int) -> int | float:
    """Smallest bandwidth on the ``hops``-edge path from a node upward.

    ``hops = 0`` is the empty path (unbounded). Raises ValueError when
    the path would run past the artificial root.
    """
    v = star.index[node_id]
    if hops < 0 or hops > star.depth[node_id]:
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


# --- the exact count/load DP ------------------------------------------------
#
# A curve is ``(lo, loads)``: the least load at each replica count ``k`` from
# ``lo`` on, infinite below ``lo``, with the last entry standing for every
# larger count; None is infinite at every count. Equipping one more node never
# breaks a feasible placement and never adds load, so the exact values fall
# with ``k``; a curve holds them up to the count where they stop falling.


def _curve(lo: int, loads: list) -> tuple[int, list]:
    while len(loads) > 1 and loads[-2] == loads[-1]:
        loads.pop()
    return lo, loads


def _at(curve, k: int) -> int | float:
    if curve is None or k < curve[0]:
        return INFINITE
    lo, loads = curve
    return loads[min(k - lo, len(loads) - 1)]


def _min_plus(a, b):
    """The tree-knapsack merge: the least ``a(x) + b(y)`` over ``x + y = k``."""
    if a is None or b is None:
        return None
    out = [INFINITE] * (len(a[1]) + len(b[1]) - 1)
    for x, ca in enumerate(a[1]):
        for k, cb in enumerate(b[1], x):
            if ca + cb < out[k]:
                out[k] = ca + cb
    return _curve(a[0] + b[0], out)


def _capped(curve, add: int, bound: int | float, shift: int = 0):
    """``curve`` with ``add`` on every load and ``shift`` on every count;
    a load over ``bound`` is infinite (as loads fall, those lead the list)."""
    if curve is None:
        return None
    lo, loads = curve
    fits = [c + add for c in loads if c + add <= bound]
    return _curve(lo + len(loads) - len(fits) + shift, fits) if fits else None


def _or_equipped(pushed, equipped):
    """``pushed``, but 0 from the least count at which the node may be equipped."""
    if equipped is None:
        return pushed
    if pushed is None or pushed[0] >= equipped[0]:
        return (equipped[0], [0])
    lo = pushed[0]
    return _curve(lo, [_at(pushed, k) for k in range(lo, equipped[0])] + [0])


class CountLoadDP:
    """The exact minimum replica count, by a dynamic program over the
    original tree that uses no star tree and no greedy.

    The state is an internal node ``v``, the distance ``i`` from ``v`` to its
    nearest equipped strict ancestor, and the count ``k`` of replicas in
    ``v``'s subtree. ``i`` runs over ``1..top``, where ``top`` is the largest
    client qos; ``top`` also stands for every larger distance and for "no
    equipped ancestor", as no client reaches that far. ``v``'s clients form
    its bundle. Equipped, ``v`` takes its bundle and its children's loads
    at distance 1, which must fit W, and pushes nothing. Not equipped, it
    pushes its bundle and its children's loads at distance ``i + 1``:
    every demanding client of ``v`` needs ``q > i``, the bundle must fit the
    smallest bw on the ``i`` links above ``v``, and the pushed load must
    fit W and, in aggregate mode, that same path minimum, since every unit
    of it crosses those links. Children merge by min-plus convolution over
    ``k``, the tree-knapsack technique of Johnson & Niemi (Math. Oper. Res.
    1983). The least load suffices, as loads meet only upper bounds.

    Reads the instance's columns and ``parent_index`` only; the instance
    must be valid. ``minimum`` is None when no replica set is feasible.
    """

    def __init__(self, inst: NetworkInstance, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        ups, capacity = inst.parent_index, inst.capacity
        top = max(q for q, kind in zip(inst.qs, inst.kinds) if kind == KIND_CLIENT)
        internal = [v for v, kind in enumerate(inst.kinds) if kind != KIND_CLIENT]
        kids: dict[int, list[int]] = {v: [] for v in internal}
        for v in internal:
            if ups[v] >= 0:
                kids[ups[v]].append(v)
        bundle = dict.fromkeys(internal, 0)
        reach: dict[int, int] = {}  # smallest qos of a demanding client, per parent
        links_fit = True
        for kind, up, bw, w, q in zip(inst.kinds, ups, inst.bws, inst.ws, inst.qs):
            if kind == KIND_CLIENT and w:
                bundle[up] += w
                reach[up] = min(reach.get(up, q), q)
                links_fit = links_fit and w <= bw
        order = [ups.index(-1)]
        for v in order:
            order += kids[v]
        # path[v][i]: the smallest bw on the i links above v (fewer past the root)
        path = {order[0]: [INFINITE] * (top + 1)}
        for v in order[1:]:
            path[v] = [INFINITE] + [min(inst.bws[v], b) for b in path[ups[v]][:top]]

        self._index = {inst.ids[v]: v for v in internal}
        self._equipped: dict[int, tuple | None] = {}
        self._pushed: dict[int, list] = {}
        best: dict[int, list] = {}  # v -> curve at each i, v equipped or not
        for v in reversed(order):
            sums = [None]
            for i in range(1, top + 1):
                total = (0, [0])
                for u in kids[v]:
                    total = _min_plus(total, best[u][i])
                sums.append(total)
            load = bundle[v]
            equipped = self._equipped[v] = _capped(sums[1], load, capacity, shift=1)
            pushed = self._pushed[v] = [None]
            for i in range(1, top + 1):
                if load and (reach[v] <= i or load > path[v][i]):
                    pushed.append(None)
                    continue
                bound = min(capacity, path[v][i]) if mode == MODE_AGGREGATE else capacity
                pushed.append(_capped(sums[min(i + 1, top)], load, bound))
            best[v] = [_or_equipped(c, equipped) for c in pushed]
        self._top = top
        final = best[order[0]][top]
        self.minimum = final[0] if links_fit and final is not None else None

    def equipped_load(self, node: str, k: int) -> int | float:
        """The least load on ``node`` when it is equipped and its subtree holds ``k`` replicas."""
        return _at(self._equipped[self._index[node]], k)

    def pushed_load(self, node: str, i: int, k: int) -> int | float:
        """The least load ``node``'s subtree pushes to an equipped ancestor ``i >= 1``
        hops above it, with ``node`` not equipped and ``k`` replicas in the subtree."""
        return _at(self._pushed[self._index[node]][min(i, self._top)], k)


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
