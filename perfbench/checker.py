"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``treeplace``: the checks re-derive the closest
policy from the document alone and test the properties every correct
answer must have. ``solution_faults`` returns ``(check, message)`` pairs
naming the check that failed; an empty list means the answer passed.

Checks on a feasible answer:

* ``format``: replicas are unique, sorted, internal node ids;
* ``count``: ``count == len(replicas)``;
* ``unserved``: every demanding client finds a replica within ``q`` hops
  on its path to the root (the closest policy fixes which one);
* ``capacity``: no server carries more than ``W``;
* ``bandwidth``: per-bundle, each sibling bundle's flow fits every link
  on its path; aggregate, the summed flow on each link fits it;
* ``conservation``: summed server loads equal summed client demand;
* ``lower_bound``: ``count >= ceil(sum(w) / W)``;
* ``necessity`` (per-bundle only): removing any one replica makes the
  set infeasible, which every minimum-cardinality answer satisfies;
* ``optimum``: the count and the feasibility verdict match
  ``exhaustive_min`` (small instances only).
"""

from __future__ import annotations

import itertools

PER_BUNDLE = "per-bundle"
AGGREGATE = "aggregate"


class Instance:
    """A document's tree, read straight from its JSON value."""

    def __init__(self, doc: dict):
        self.capacity = doc["W"]
        self.parent: dict[str, str | None] = {}
        self.bw: dict[str, int | None] = {}
        self.w: dict[str, int] = {}
        self.q: dict[str, int] = {}
        self.internal: list[str] = []
        for node in doc["nodes"]:
            nid = node["id"]
            self.parent[nid] = node["parent"]
            self.bw[nid] = node.get("bw")
            if node["kind"] == "client":
                self.w[nid] = node["w"]
                self.q[nid] = node["q"]
            else:
                self.internal.append(nid)
        self.internal.sort()
        # Sibling clients form one bundle under their shared parent.
        self.bundles: dict[str, list[str]] = {}
        for cid in sorted(self.w):
            self.bundles.setdefault(self.parent[cid], []).append(cid)
        # How far up each bundle's longest-reaching client can look.
        self.reach = {p: max(self.q[c] for c in members) for p, members in self.bundles.items()}
        self.demand = sum(self.w.values())


def _route(inst: Instance, replicas) -> tuple[dict, dict, list]:
    """Closest-policy routing of every demanding bundle.

    Returns ``(server_of_bundle, flow_of_bundle, unserved)``: the server
    each bundle parent sends to, the summed demand it sends, and the
    clients that find no replica within their ``q`` hops. The first hop
    is the client's own link to its parent.
    """
    parent = inst.parent
    server_of: dict[str, str] = {}
    flow_of: dict[str, int] = {}
    unserved: list[str] = []
    for p, members in inst.bundles.items():
        server, hops, cur = None, 1, p
        reach = inst.reach[p]
        while cur is not None and hops <= reach:
            if cur in replicas:
                server = cur
                break
            cur = parent[cur]
            hops += 1
        flow = 0
        for c in members:
            w = inst.w[c]
            if w == 0:
                continue
            if server is None or hops > inst.q[c]:
                unserved.append(c)
            else:
                flow += w
        if server is not None and flow:
            server_of[p] = server
            flow_of[p] = flow
    return server_of, flow_of, unserved


def _faults(inst: Instance, replicas, mode: str):
    """Yield the faults of a replica set, lazily, so a search can stop at one."""
    for c, w in inst.w.items():
        if w > inst.bw[c]:
            yield ("bandwidth", f"client link {c} carries {w} > bw={inst.bw[c]}")
    server_of, flow_of, unserved = _route(inst, replicas)
    for c in unserved:
        yield ("unserved", f"client {c} has no replica within q={inst.q[c]} hops")
    loads: dict[str, int] = {}
    for p, server in server_of.items():
        loads[server] = loads.get(server, 0) + flow_of[p]
    for server, load in loads.items():
        if load > inst.capacity:
            yield ("capacity", f"server {server} carries {load} > W={inst.capacity}")
    link_total: dict[str, int] = {}
    for p, server in server_of.items():
        flow, cur = flow_of[p], p
        while cur != server:
            if mode == AGGREGATE:
                link_total[cur] = link_total.get(cur, 0) + flow
            elif flow > inst.bw[cur]:
                yield ("bandwidth", f"bundle under {p} sends {flow} over link {cur} (bw={inst.bw[cur]})")
            cur = inst.parent[cur]
    for link, total in link_total.items():
        if total > inst.bw[link]:
            yield ("bandwidth", f"link {link} carries {total} > bw={inst.bw[link]}")
    if not unserved and sum(loads.values()) != inst.demand:
        yield ("conservation", f"server loads sum to {sum(loads.values())}, demand is {inst.demand}")


def feasibility_faults(inst: Instance, replicas, mode: str) -> list[tuple[str, str]]:
    """Every fault of a replica set under the closest policy, in one mode."""
    return list(_faults(inst, replicas, mode))


def feasible(inst: Instance, replicas, mode: str) -> bool:
    return next(_faults(inst, replicas, mode), None) is None


def redundant_replicas(inst: Instance, replicas: set[str]) -> list[str]:
    """Replicas of a per-bundle-feasible set whose removal keeps it feasible.

    Removing ``r`` moves only the bundles ``r`` serves, all to the nearest
    replica ``a`` above ``r``; the set stays feasible exactly when every
    moved client still reaches ``a`` within its range, each moved bundle
    fits every link from ``r`` up to ``a``, and ``a`` can take ``r``'s load.
    """
    server_of, flow_of, _ = _route(inst, replicas)
    served: dict[str, list[str]] = {r: [] for r in replicas}
    for p, server in server_of.items():
        served[server].append(p)
    out = []
    for r in sorted(replicas):
        bundles = served[r]
        if not bundles:
            out.append(r)
            continue
        up, extra, path_bw = inst.parent[r], 0, None
        link = r
        while up is not None:
            extra += 1
            bw = inst.bw[link]
            path_bw = bw if path_bw is None else min(path_bw, bw)
            if up in replicas:
                break
            link, up = up, inst.parent[up]
        if up is None:
            continue  # nothing above can take r's clients
        load_up = sum(flow_of[p] for p in served[up])
        if load_up + sum(flow_of[p] for p in bundles) > inst.capacity:
            continue
        if max(flow_of[p] for p in bundles) > path_bw:
            continue
        fits = True
        for p in bundles:
            hops = 1
            cur = p
            while cur != r:
                cur = inst.parent[cur]
                hops += 1
            if any(inst.w[c] and hops + extra > inst.q[c] for c in inst.bundles[p]):
                fits = False
                break
        if fits:
            out.append(r)
    return out


def exhaustive_min(inst: Instance, mode: str) -> int | None:
    """Smallest feasible replica count, or None when no set is feasible.

    Equipping every internal node serves each bundle at its own parent,
    so it fails only on conditions every set must meet (a client heavier
    than its link, a bundle heavier than W): the instance is feasible
    exactly when that full set is. The search starts at the capacity
    lower bound and tries every subset of each size in turn.
    """
    nodes = inst.internal
    if not feasible(inst, set(nodes), mode):
        return None
    lower = -(-inst.demand // inst.capacity)
    for size in range(lower, len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            if feasible(inst, set(combo), mode):
                return size
    raise AssertionError("the full set is feasible")  # unreachable


def solution_faults(inst: Instance, result: dict, mode: str, *,
                    optimum: int | None | bool = False) -> list[tuple[str, str]]:
    """Every fault of a `treeplace solve` result document.

    ``optimum`` is the exhaustive answer to compare with (``None`` for
    infeasible), or False to skip that comparison.
    """
    faults: list[tuple[str, str]] = []
    if result.get("mode") != mode:
        faults.append(("format", f"mode {result.get('mode')!r}, expected {mode!r}"))
    if not result.get("feasible"):
        if optimum is not False and optimum is not None:
            faults.append(("optimum", f"reported infeasible, but {optimum} replicas suffice"))
        elif optimum is False:
            faults.append(("optimum", "reported infeasible on a feasible-by-construction instance"))
        return faults
    replicas = result.get("replicas")
    if not isinstance(replicas, list) or not all(isinstance(r, str) for r in replicas):
        return faults + [("format", "replicas is not a list of ids")]
    if replicas != sorted(set(replicas)):
        faults.append(("format", "replicas are not unique and sorted"))
    strays = [r for r in replicas if r not in inst.parent or r in inst.w]
    if strays:
        return faults + [("format", f"replicas that are not internal nodes: {strays[:5]}")]
    count = result.get("count")
    if count != len(replicas):
        faults.append(("count", f"count {count} but {len(replicas)} replicas"))
    chosen = set(replicas)
    faults += feasibility_faults(inst, chosen, mode)
    lower = -(-inst.demand // inst.capacity)
    if len(chosen) < lower:
        faults.append(("lower_bound", f"{len(chosen)} replicas < ceil({inst.demand}/{inst.capacity})"))
    if mode == PER_BUNDLE and not faults:
        spare = redundant_replicas(inst, chosen)
        if spare:
            faults.append(("necessity", f"removable replicas: {spare[:5]}"))
    if optimum is None:
        faults.append(("optimum", "reported feasible, but no replica set is"))
    elif optimum is not False and len(chosen) != optimum:
        faults.append(("optimum", f"{len(chosen)} replicas, the optimum is {optimum}"))
    return faults


def document_faults(doc: dict, *, internal: int, clients: int, capacity: int,
                    weights: tuple[int, int], qos: tuple[int, int],
                    bandwidth: tuple[int, int]) -> list[str]:
    """Checks on a generated document against the configuration it was made from."""
    faults: list[str] = []
    if doc.get("W") != capacity:
        faults.append(f"W is {doc.get('W')!r}, configured {capacity}")
    nodes = doc.get("nodes", [])
    ids = [n["id"] for n in nodes]
    if ids != sorted(set(ids)):
        faults.append("node ids are not unique and sorted")
    parent = {n["id"]: n["parent"] for n in nodes}
    kinds = {n["id"]: n["kind"] for n in nodes}
    roots = [i for i, p in parent.items() if p is None]
    if len(roots) != 1:
        return faults + [f"{len(roots)} roots"]
    children: dict[str, list[str]] = {i: [] for i in parent}
    for i, p in parent.items():
        if p is not None:
            if p not in parent:
                return faults + [f"{i} has unknown parent {p}"]
            children[p].append(i)
    seen, stack = set(), [roots[0]]
    while stack:
        cur = stack.pop()
        seen.add(cur)
        stack.extend(children[cur])
    if len(seen) != len(parent):
        faults.append(f"{len(parent) - len(seen)} nodes are not reachable from the root")
    n_internal = sum(1 for k in kinds.values() if k == "internal")
    n_clients = sum(1 for k in kinds.values() if k == "client")
    if (n_internal, n_clients) != (internal, clients):
        faults.append(f"{n_internal} internal and {n_clients} clients, configured {internal} and {clients}")
    root = next(n for n in nodes if n["id"] == roots[0])
    if root["kind"] != "internal" or "bw" in root:
        faults.append("the root must be internal and carry no bw")
    for n in nodes:
        nid, kind = n["id"], n["kind"]
        if kind == "client":
            if children[nid]:
                faults.append(f"client {nid} has children")
            if kinds.get(n["parent"]) != "internal":
                faults.append(f"client {nid} hangs from a non-internal node")
            if not weights[0] <= n.get("w", -1) <= weights[1]:
                faults.append(f"client {nid} has w={n.get('w')} outside {weights}")
            if not qos[0] <= n.get("q", -1) <= qos[1]:
                faults.append(f"client {nid} has q={n.get('q')} outside {qos}")
        elif not children[nid]:
            faults.append(f"childless internal node {nid} hosts no client")
        if n["parent"] is not None and not bandwidth[0] <= n.get("bw", -1) <= bandwidth[1]:
            faults.append(f"{nid} has bw={n.get('bw')} outside {bandwidth}")
        if len(faults) > 20:
            break
    return faults
