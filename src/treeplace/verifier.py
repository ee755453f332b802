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

The walks run on the instance's columns: up its int parent column,
against a per-index equipped flag. Ids come back only in the report.
Sharing that input form is all the verifier shares with the solver:
it has its own walks and no code from the solver pipeline.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import StructureError
from .instance import KIND_CLIENT, MODE_AGGREGATE, MODE_PER_BUNDLE, MODES, NetworkInstance


class RuleViolation(NamedTuple):
    kind: str  # "unserved" | "capacity" | "bandwidth" | "qos"
    location: str  # client id, server id, or child-end id of the link
    amount: int  # demand for unserved; excess over the limit otherwise


class FeasibilityReport:
    def __init__(self, mode: str, server_loads: dict[str, int],
                 violations: tuple[RuleViolation, ...], instance: NetworkInstance, servers: list):
        self.mode = mode
        self.server_loads = server_loads
        self.violations = violations
        # the instance checked and the per-index servers of its clients (see
        # _servers); assignment and link_flows are derived from them on demand
        self.instance = instance
        self.servers = servers

    @property
    def feasible(self) -> bool:
        return not self.violations

    @cached_property
    def assignment(self) -> dict[str, str | None]:
        """client id -> serving replica id (None: unserved or w = 0), built on first read."""
        ids = self.instance.ids
        return {ids[c]: None if s < 0 else ids[s] for c, s in enumerate(self.servers) if s is not None}

    @cached_property
    def link_flows(self) -> dict[str, dict]:
        """child-end id -> {"total": int, "parts": [[label, flow], ...]}, both sorted.

        Built from the same link walk as the bandwidth check, on first
        read only: a solve's self-check never reads it.
        """
        ids = self.instance.ids
        parts: dict[str, list[tuple[str, int]]] = {}
        for child_end, label, flow in _link_crossings(self.instance, self.servers):
            parts.setdefault(ids[child_end], []).append((ids[label], flow))
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


def _servers(
    inst: NetworkInstance, replicas: set[str] | frozenset[str]
) -> tuple[list, list[RuleViolation]]:
    """Per node index the server's index (-1: none; None: not a client),
    and an "unserved" violation per demanding client without a replica in
    range. The walk runs up the int parent column against a per-index
    equipped flag and stops after q(v) hops. ``verify_placement`` has
    already rejected replica ids that are not internal nodes."""
    index = inst.index
    equipped = bytearray(len(inst.ids))
    for r in replicas:
        equipped[index[r]] = 1
    ids = inst.ids
    ups = inst.parent_index
    servers: list = [None] * len(ids)
    violations: list[RuleViolation] = []
    for c, kind, w, q in zip(range(len(ids)), inst.kinds, inst.ws, inst.qs):
        if kind != KIND_CLIENT:
            continue
        server = -1
        if w:
            cur = ups[c]
            for _hop in range(q):
                if cur < 0:
                    break
                if equipped[cur]:
                    server = cur
                    break
                cur = ups[cur]
            if server < 0:
                violations.append(RuleViolation("unserved", ids[c], w))
        servers[c] = server
    return servers, violations


def _link_crossings(inst: NetworkInstance, servers: list) -> Iterator[tuple[int, int, int]]:
    """``(child-end index, label index, flow)`` for every link a served flow crosses.

    Every client edge carries just its own demand (labelled by the
    client); above the bundle's parent the merged flow of the sibling
    clients travels together up to the server (labelled by that parent).
    """
    ws = inst.ws
    ups = inst.parent_index
    bundles: dict[int, list[int]] = {}  # parent index -> [merged flow, server index]
    for c, server in enumerate(servers):
        if server is not None and server >= 0:
            flow = ws[c]
            yield c, c, flow
            bundle = bundles.get(ups[c])
            if bundle is None:
                bundles[ups[c]] = [flow, server]
            else:
                bundle[0] += flow
                # all served siblings share one nearest ancestor
                assert bundle[1] == server
    for parent, (flow, server) in bundles.items():
        cur = parent
        while cur != server:
            yield cur, parent, flow
            cur = ups[cur]


def verify_placement(
    inst: NetworkInstance, replicas: set[str] | frozenset[str], mode: str = MODE_PER_BUNDLE
) -> FeasibilityReport:
    """Full feasibility report for a replica set.

    ``replicas`` must name internal nodes only; anything else is a
    caller contract breach, not a reportable violation. The checks run
    on node indices; ids come back only in the report.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    replica_set = set(replicas)
    index, kinds = inst.index, inst.kinds
    stray = {r for r in replica_set if r not in index or kinds[index[r]] == KIND_CLIENT}
    if stray:
        raise StructureError(f"replica set contains non-internal nodes: {sorted(stray)}")

    servers, violations = _servers(inst, replica_set)
    ids, ws = inst.ids, inst.ws
    load_at: dict[int, int] = {}
    for c, server in enumerate(servers):
        if server is not None and server >= 0:
            load_at[server] = load_at.get(server, 0) + ws[c]
    loads = {r: load_at.get(index[r], 0) for r in sorted(replica_set)}
    for server, load in loads.items():
        if load > inst.capacity:
            violations.append(RuleViolation("capacity", server, load - inst.capacity))

    # Per-bundle: the largest single flow on a link; aggregate: their sum.
    link_load = [0] * len(ids)
    aggregate = mode == MODE_AGGREGATE
    for child_end, _label, flow in _link_crossings(inst, servers):
        if aggregate:
            link_load[child_end] += flow
        elif flow > link_load[child_end]:
            link_load[child_end] = flow
    for child_end, load, bw in zip(range(len(ids)), link_load, inst.bws):
        if load and load > bw:
            violations.append(RuleViolation("bandwidth", ids[child_end], load - bw))

    ordered = tuple(sorted(violations, key=lambda v: (v.kind, v.location)))
    return FeasibilityReport(mode, loads, ordered, inst, servers)
