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

The walks run on the instance's columns: one pass over the clients walks
up the int parent column against a per-index equipped flag, then each
sibling bundle's path to its server is walked once. Ids come back only
in the report.
Sharing that input form is all the verifier shares with the solver:
it has its own walks and no code from the solver pipeline.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import StructureError
from .instance import KIND_CLIENT, MODE_AGGREGATE, MODE_PER_BUNDLE, MODES, NetworkInstance


class RuleViolation(NamedTuple):
    kind: str  # "unserved" | "capacity" | "bandwidth"
    location: str  # client id, server id, or child-end id of the link
    amount: int  # demand for unserved; excess over the limit otherwise


class FeasibilityReport:
    def __init__(self, mode: str, server_loads: dict[str, int], violations: tuple[RuleViolation, ...],
                 instance: NetworkInstance, servers: list, bundles: dict[int, list[int]]):
        self.mode = mode
        self.server_loads = server_loads
        self.violations = violations
        # the instance checked, the per-index servers of its clients and its
        # served bundles (see verify_placement); assignment and link_flows
        # are derived from them on demand
        self.instance = instance
        self.servers = servers
        self.bundles = bundles

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

        Every served client's own link carries just its own demand
        (labelled by the client); the bundles' links come from the same
        walk as the bandwidth check. Built on first read only: a solve's
        self-check never reads it.
        """
        inst = self.instance
        ids, ws = inst.ids, inst.ws
        parts: dict[str, list[tuple[str, int]]] = {}
        for c, server in enumerate(self.servers):
            if server is not None and server >= 0:
                parts[ids[c]] = [(ids[c], ws[c])]
        for child_end, parent, flow in _bundle_links(inst.parent_index, self.bundles):
            parts.setdefault(ids[child_end], []).append((ids[parent], flow))
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


def _bundle_links(ups: list[int], bundles: dict[int, list[int]]) -> Iterator[tuple[int, int, int]]:
    """``(child-end index, bundle parent index, flow)`` for every link a bundle crosses.

    ``bundles`` maps a served bundle's parent index to ``[merged flow,
    server index]``: the merged flow of the sibling clients travels
    together from their parent up to the server.
    """
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

    ids, bws, ups = inst.ids, inst.bws, inst.parent_index
    equipped = bytearray(len(ids))
    for r in replica_set:
        equipped[index[r]] = 1
    servers: list = [None] * len(ids)  # per index: the server's index, -1 for none, None off clients
    load_at: dict[int, int] = {}
    bundles: dict[int, list[int]] = {}  # parent index -> [merged flow, server index]
    violations: list[RuleViolation] = []
    # One pass over the clients: each demanding one walks up at most q hops
    # to its server, adds its load, has its own link checked and adds its
    # demand to its bundle's flow.
    for c, kind, w, q in zip(range(len(ids)), kinds, inst.ws, inst.qs):
        if kind != KIND_CLIENT:
            continue
        server = -1
        if w:
            parent = cur = ups[c]
            for _hop in range(q):
                if cur < 0:
                    break
                if equipped[cur]:
                    server = cur
                    break
                cur = ups[cur]
            if server < 0:
                violations.append(RuleViolation("unserved", ids[c], w))
            else:
                load_at[server] = load_at.get(server, 0) + w
                if w > bws[c]:  # the client's own link carries its demand alone
                    violations.append(RuleViolation("bandwidth", ids[c], w - bws[c]))
                bundle = bundles.get(parent)
                if bundle is None:
                    bundles[parent] = [w, server]
                else:
                    bundle[0] += w
                    # all served siblings share one nearest ancestor
                    assert bundle[1] == server
        servers[c] = server

    loads = {r: load_at.get(index[r], 0) for r in sorted(replica_set)}
    for server, load in loads.items():
        if load > inst.capacity:
            violations.append(RuleViolation("capacity", server, load - inst.capacity))

    # Per-bundle: the largest single flow on a link; aggregate: their sum.
    link_load = [0] * len(ids)
    aggregate = mode == MODE_AGGREGATE
    for child_end, _parent, flow in _bundle_links(ups, bundles):
        if aggregate:
            link_load[child_end] += flow
        elif flow > link_load[child_end]:
            link_load[child_end] = flow
    for child_end, load, bw in zip(range(len(ids)), link_load, bws):
        if load and load > bw:
            violations.append(RuleViolation("bandwidth", ids[child_end], load - bw))

    ordered = tuple(sorted(violations, key=lambda v: (v.kind, v.location)))
    return FeasibilityReport(mode, loads, ordered, inst, servers, bundles)
