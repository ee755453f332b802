"""Independent feasibility checking for a replica set on an instance.

This module re-derives everything from the raw definitions and shares no
code with the solver pipeline: clients are assigned to their nearest
replica ancestor within their hop range, server loads are summed against
the capacity, and link flows are checked against bandwidth in one of two
semantics:

* ``per-bundle`` (default): the merged flow of each sibling-client
  bundle must fit every link on its serving path, each bundle checked
  independently even where paths share a link;
* ``aggregate``: the summed flow of all bundles crossing a link must
  fit its bandwidth. Aggregate feasibility implies per-bundle
  feasibility, never the other way around.

Zero-demand clients need no server and add no flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import StructureError
from .instance import MODE_AGGREGATE, MODE_PER_BUNDLE, MODES, NetworkInstance, NodeSpec
from .transform import StarTree

_UNBOUNDED = math.inf


@dataclass(frozen=True, slots=True)
class RuleViolation:
    kind: str  # "unserved" | "capacity" | "bandwidth" | "qos"
    location: str  # client id, server id, or child-end id of the link
    amount: int  # demand for unserved; excess over the limit otherwise


@dataclass(frozen=True)
class FeasibilityReport:
    mode: str
    assignment: dict[str, str | None]  # client -> serving replica (None: w = 0)
    server_loads: dict[str, int]
    violations: tuple[RuleViolation, ...]
    # the instance checked; link_flows is derived from it on demand
    instance: NetworkInstance = field(repr=False, compare=False)

    @property
    def feasible(self) -> bool:
        return not self.violations

    @cached_property
    def link_flows(self) -> dict[str, dict]:
        """child-end id -> {"total": int, "parts": [[label, flow], ...]}, both sorted.

        Built from the same link walk as the bandwidth check, on first
        read only: a solve's self-check never reads it.
        """
        parts: dict[str, list[tuple[str, int]]] = {}
        for child_end, label, flow in _link_crossings(self.instance, self.assignment):
            parts.setdefault(child_end, []).append((label, flow))
        out: dict[str, dict] = {}
        for child_end in sorted(parts):
            ordered = sorted(parts[child_end])
            out[child_end] = {
                "total": sum(f for _, f in ordered),
                "parts": [[label, f] for label, f in ordered],
            }
        return out

    def to_document(self) -> dict:
        return {
            "mode": self.mode,
            "feasible": self.feasible,
            "assignment": dict(sorted(self.assignment.items())),
            "server_loads": dict(sorted(self.server_loads.items())),
            "link_flows": dict(self.link_flows),
            "violations": [
                {"kind": v.kind, "location": v.location, "amount": v.amount}
                for v in self.violations
            ],
        }


def closest_assignment(
    inst: NetworkInstance, replicas: set[str]
) -> tuple[dict[str, str | None], list[RuleViolation]]:
    """Assign every demanding client to the nearest replica ancestor.

    The walk stops after q(v) hops; a client that finds no replica in
    range is an "unserved" violation carrying its demand. By
    construction an assigned client is always within range, so a
    separate qos violation cannot occur.
    """
    by_id = inst.by_id
    assignment: dict[str, str | None] = {}
    violations: list[RuleViolation] = []
    for client in inst.clients:
        if client.w == 0:
            assignment[client.id] = None
            continue
        found = None
        cur = client.parent
        for _hop in range(client.q):  # type: ignore[arg-type]
            if cur is None:
                break
            if cur in replicas:
                found = cur
                break
            cur = by_id[cur].parent
        assignment[client.id] = found
        if found is None:
            violations.append(RuleViolation("unserved", client.id, client.w))  # type: ignore[arg-type]
    return assignment, violations


def _bundles(inst: NetworkInstance) -> list[tuple[str, list[NodeSpec]]]:
    """Sibling clients grouped under their shared parent, id-sorted."""
    groups: dict[str, list[NodeSpec]] = {}
    for client in inst.clients:
        groups.setdefault(client.parent, []).append(client)  # type: ignore[arg-type]
    return sorted(groups.items())


def _link_crossings(
    inst: NetworkInstance, assignment: dict[str, str | None]
) -> Iterator[tuple[str, str, int]]:
    """``(child-end id, label, flow)`` for every link a served flow crosses.

    Every client edge carries just its own demand (labelled by the
    client); above the bundle's parent the merged flow travels together
    up to the server (labelled by that parent).
    """
    by_id = inst.by_id
    for client in inst.clients:
        if client.w and assignment.get(client.id):
            yield client.id, client.id, client.w  # type: ignore[misc]
    for parent_id, members in _bundles(inst):
        served = [c for c in members if assignment.get(c.id)]
        if not served:
            continue
        server = assignment[served[0].id]
        bundle_flow = sum(c.w for c in served)  # type: ignore[misc]
        # all served siblings share one nearest ancestor
        assert all(assignment[c.id] == server for c in served)
        cur = parent_id
        while cur != server:
            yield cur, parent_id, bundle_flow
            cur = by_id[cur].parent  # type: ignore[assignment]


def verify_placement(
    inst: NetworkInstance, replicas: set[str] | frozenset[str], mode: str = MODE_PER_BUNDLE
) -> FeasibilityReport:
    """Full feasibility report for a replica set.

    ``replicas`` must name internal nodes only; anything else is a
    caller contract breach, not a reportable violation.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    replica_set = set(replicas)
    by_id = inst.by_id
    stray = {r for r in replica_set if r not in by_id or by_id[r].is_client}
    if stray:
        raise StructureError(f"replica set contains non-internal nodes: {sorted(stray)}")

    assignment, violations = closest_assignment(inst, replica_set)

    loads: dict[str, int] = {r: 0 for r in sorted(replica_set)}
    for cid, server in assignment.items():
        if server is not None:
            loads[server] += by_id[cid].w  # type: ignore[operator]
    for server in sorted(loads):
        if loads[server] > inst.capacity:
            violations.append(
                RuleViolation("capacity", server, loads[server] - inst.capacity)
            )

    # Per-bundle: the largest single flow on a link; aggregate: their sum.
    link_load: dict[str, int] = {}
    aggregate = mode == MODE_AGGREGATE
    for child_end, _label, flow in _link_crossings(inst, assignment):
        if aggregate:
            link_load[child_end] = link_load.get(child_end, 0) + flow
        elif flow > link_load.get(child_end, 0):
            link_load[child_end] = flow
    for child_end, load in link_load.items():
        bw = by_id[child_end].bw
        assert bw is not None
        if load > bw:
            violations.append(RuleViolation("bandwidth", child_end, load - bw))

    ordered = tuple(sorted(violations, key=lambda v: (v.kind, v.location)))
    return FeasibilityReport(
        mode=mode,
        assignment=assignment,
        server_loads=loads,
        violations=ordered,
        instance=inst,
    )


def verify_star_placement(
    star: StarTree, replicas: set[str] | frozenset[str]
) -> tuple[bool, list[RuleViolation]]:
    """Per-bundle feasibility of a replica set directly on a star tree.

    Used to cross-check that normalization preserves feasibility: for
    any replica set, the verdict here must match verify_placement on the
    original instance with the same (projected) set. Eligible leaves may
    serve themselves at distance zero.
    """
    by_id = star.by_id
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
        path_min: int | float = _UNBOUNDED
        for hop in range(leaf.qos + 1):
            if cur is None or cur == star.root_plus:
                break
            if cur in replica_set:
                server = cur
                break
            path_min = min(path_min, by_id[cur].bw)  # type: ignore[type-var]
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
