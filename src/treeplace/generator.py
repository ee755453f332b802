"""Seeded random instance generation for tests and benchmarks.

Two families:

* `generate` builds client/server instances directly: an internal
  skeleton (balanced, path, or random attachment) with clients hung
  under it so that every childless skeleton node gets at least one.
* `generate_dual_role` builds networks where any node may both request
  and serve, and `fictivize` rewrites those into the client/server form
  the solver accepts by giving each demanding node a stand-in client
  child on an effectively unbounded link.

Everything is driven by `random.Random(seed)`; equal configs yield
byte-identical documents.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .errors import ConfigError, MalformedDocumentError, StructureError
from .instance import KIND_CLIENT, KIND_INTERNAL, SHAPES, NetworkInstance, load_document


class GenConfig(NamedTuple):
    seed: int
    internal: int  # skeleton size, root included
    clients: int
    capacity: int
    shape: str = "random"
    branching: tuple[int, int] = (2, 3)  # balanced shape only
    weight_range: tuple[int, int] = (1, 8)
    qos_range: tuple[int, int] = (1, 4)
    bandwidth_range: tuple[int, int] = (4, 20)

    def check(self) -> None:
        if self.shape not in SHAPES:
            raise ConfigError(f"unknown shape {self.shape!r}")
        if self.internal < 1:
            raise ConfigError("need at least one internal node")
        if self.clients < 1:
            raise ConfigError("need at least one client")
        for name, (lo, hi) in (
            ("branching", self.branching),
            ("weight_range", self.weight_range),
            ("qos_range", self.qos_range),
            ("bandwidth_range", self.bandwidth_range),
        ):
            if lo > hi or lo < 0:
                raise ConfigError(f"bad {name}: {lo}..{hi}")
        if self.qos_range[0] < 1:
            raise ConfigError("qos must be at least 1")
        if self.branching[0] < 1:
            raise ConfigError("branching must be at least 1")
        if self.capacity < 1:
            raise ConfigError("capacity must be positive")


def _skeleton(cfg: GenConfig, rng: random.Random) -> dict[str, str | None]:
    """Internal ids to parent ids. n000 is always the root."""
    ids = [f"n{k:03d}" for k in range(cfg.internal)]
    parents: dict[str, str | None] = {ids[0]: None}
    if cfg.shape == "path":
        for prev, cur in zip(ids, ids[1:]):
            parents[cur] = prev
    elif cfg.shape == "balanced":
        frontier = [ids[0]]
        placed = 1  # ids[placed:] still wait for a parent
        while placed < len(ids):
            nxt: list[str] = []
            for node in frontier:
                take = min(rng.randint(*cfg.branching), len(ids) - placed)
                for child in ids[placed : placed + take]:
                    parents[child] = node
                    nxt.append(child)
                placed += take
                if placed == len(ids):
                    break
            frontier = nxt or frontier
    else:  # random attachment
        for k, cur in enumerate(ids[1:], start=1):
            parents[cur] = ids[rng.randrange(k)]
    return parents


def generate(cfg: GenConfig) -> NetworkInstance:
    cfg.check()
    rng = random.Random(cfg.seed)
    parents = _skeleton(cfg, rng)
    internal_ids = sorted(parents)

    with_children = set(parents.values())
    childless = [nid for nid in internal_ids if nid not in with_children]
    if cfg.clients < len(childless):
        raise ConfigError(
            f"{cfg.clients} clients cannot cover {len(childless)} childless "
            "skeleton nodes; raise clients or shrink the skeleton"
        )
    hosts = list(childless)
    hosts += [internal_ids[rng.randrange(len(internal_ids))] for _ in range(cfg.clients - len(childless))]
    rng.shuffle(hosts)

    # the columns directly: internal nodes, then clients, each drawing bw (w, q)
    n_int = len(internal_ids)
    ids = internal_ids + [f"c{k:03d}" for k in range(len(hosts))]
    up_ids = [parents[nid] for nid in internal_ids] + hosts
    bws = [None if parent is None else rng.randint(*cfg.bandwidth_range) for parent in up_ids[:n_int]]
    ws, qs = [None] * n_int, [None] * n_int
    for _host in hosts:
        bws.append(rng.randint(*cfg.bandwidth_range))
        ws.append(rng.randint(*cfg.weight_range))
        qs.append(rng.randint(*cfg.qos_range))
    kinds = [KIND_INTERNAL] * n_int + [KIND_CLIENT] * len(hosts)
    inst = NetworkInstance(cfg.capacity, ids, up_ids, kinds, bws, ws, qs)
    if inst.violations:  # pragma: no cover - would be a generator bug
        raise ConfigError(f"generated an invalid instance: {inst.violations[0].message}")
    return inst


def small_corpus_config(
    seed: int,
    max_internal: int = 10,
    max_clients: int = 12,
) -> GenConfig:
    """Config for oracle-sized instances with a healthy feasible/infeasible mix.

    Capacity and bandwidth are drawn tight enough that a visible share of
    draws is infeasible, which is exactly what agreement testing wants.
    """
    if max_internal < 2:
        raise ConfigError(f"max_internal must be at least 2, got {max_internal}")
    rng = random.Random(seed * 2654435761 % (2**31))
    internal = rng.randint(2, max_internal)
    # internal - 1 clients always suffice to cover every childless skeleton
    # node, whatever shape the seed draws.
    clients = rng.randint(min(max_clients, max(1, internal - 1)), max_clients)
    return GenConfig(
        seed=seed,
        internal=internal,
        clients=clients,
        capacity=rng.randint(10, 40),
        shape=rng.choice(SHAPES),
        weight_range=(0, 6),
        qos_range=(1, rng.randint(1, 5)),
        bandwidth_range=(3, rng.randint(6, 24)),
    )


# --- dual-role networks and their reduction -------------------------------


class DualRoleNetwork(NamedTuple):
    """Tree where every node is a potential server and may also demand.

    demand maps id -> (weight, qos); ids absent demand nothing.
    """

    capacity: int
    parents: dict[str, str | None]
    bandwidth: dict[str, int]
    demand: dict[str, tuple[int, int]]

    def to_document(self) -> dict:
        return {
            "capacity": self.capacity,
            "nodes": [
                {
                    "id": nid,
                    "parent": self.parents[nid],
                    "bw": self.bandwidth[nid],
                    "demand": list(self.demand[nid]) if nid in self.demand else None,
                }
                for nid in sorted(self.parents)
            ],
        }


def generate_dual_role(seed: int, size: int, capacity: int) -> DualRoleNetwork:
    if size < 1:
        raise ConfigError("need at least one node")
    rng = random.Random(seed)
    ids = [f"n{k:03d}" for k in range(size)]
    parents: dict[str, str | None] = {ids[0]: None}
    for k, cur in enumerate(ids[1:], start=1):
        parents[cur] = ids[rng.randrange(k)]
    bandwidth = {nid: rng.randint(2, 16) for nid in ids}
    demand: dict[str, tuple[int, int]] = {}
    for nid in ids:
        if rng.random() < 0.7:
            demand[nid] = (rng.randint(0, 6), rng.randint(0, 3))
    if not any(w for w, _ in demand.values()):
        heavy = ids[rng.randrange(len(ids))]
        demand[heavy] = (rng.randint(1, 6), rng.randint(0, 3))
    return DualRoleNetwork(capacity=capacity, parents=parents, bandwidth=bandwidth, demand=demand)


def fictivize(net: DualRoleNetwork) -> NetworkInstance:
    """Rewrite a dual-role network into client/server form.

    Each demanding node keeps its position but hands its demand to a
    stand-in client child with one extra hop of range, attached over a
    link wide enough never to bind (total demand serves as "unbounded"
    in an all-integer document). Subtrees with no demand anywhere are
    dropped; they can never host a replica in an optimal solution of the
    rewritten instance, and removing them changes no optimum.
    """
    total = sum(w for w, _ in net.demand.values())
    keep: set[str] = set()
    for nid, (w, _q) in net.demand.items():
        if w == 0:
            continue
        cur: str | None = nid
        while cur is not None and cur not in keep:
            keep.add(cur)
            cur = net.parents[cur]
    if not keep:
        raise ConfigError("network has no demand anywhere")

    rows = []  # (id, parent, kind, bw, w, q)
    for nid in sorted(keep):
        parent = net.parents[nid]
        rows.append((nid, parent, KIND_INTERNAL, None if parent is None else net.bandwidth[nid], None, None))
        w, q = net.demand.get(nid, (0, 0))
        if w > 0:
            rows.append((f"{nid}_req", nid, KIND_CLIENT, total, w, q + 1))
    return NetworkInstance(net.capacity, *map(list, zip(*rows)))


def parse_dual_role(text: str) -> DualRoleNetwork:
    """Parse a dual-role document.

    Raises MalformedDocumentError for syntax and schema problems and
    StructureError for a parent that names no node. Other tree faults
    (cycles, several roots) surface when the fictivized instance is
    validated.
    """
    doc = load_document(text, "not valid JSON")
    if not isinstance(doc, dict) or set(doc) != {"capacity", "nodes"}:
        raise MalformedDocumentError("expected an object with capacity and nodes")
    # json.loads values: ``type(v) is int`` means a JSON integer, never a bool
    if type(doc["capacity"]) is not int:
        raise MalformedDocumentError("'capacity' must be an integer")
    if not isinstance(doc["nodes"], list):
        raise MalformedDocumentError("'nodes' must be an array")
    parents: dict[str, str | None] = {}
    bandwidth: dict[str, int] = {}
    demand: dict[str, tuple[int, int]] = {}
    for raw in doc["nodes"]:
        if not isinstance(raw, dict):
            raise MalformedDocumentError("node entries must be objects")
        if set(raw) != {"id", "parent", "bw", "demand"}:
            raise MalformedDocumentError(f"bad node fields: {sorted(raw)}")
        nid = raw["id"]
        if not isinstance(nid, str) or nid == "":
            raise MalformedDocumentError("node id must be a non-empty string")
        if nid in parents:
            raise MalformedDocumentError(f"duplicate id {nid!r}")
        if raw["parent"] is not None and not isinstance(raw["parent"], str):
            raise MalformedDocumentError(f"parent of {nid!r} must be a string or null")
        if raw["bw"] is not None and type(raw["bw"]) is not int:
            raise MalformedDocumentError(f"bw of {nid!r} must be an integer or null")
        parents[nid] = raw["parent"]
        bandwidth[nid] = raw["bw"]
        pair = raw["demand"]
        if pair is not None:
            if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)):
                raise MalformedDocumentError(
                    f"demand of {nid!r} must be null or a [weight, qos] pair of integers"
                )
            demand[nid] = (pair[0], pair[1])
    for nid, parent in parents.items():
        if parent is not None and parent not in parents:
            raise StructureError(f"parent {parent!r} of {nid!r} does not exist")
    return DualRoleNetwork(
        capacity=doc["capacity"], parents=parents, bandwidth=bandwidth, demand=demand
    )


def serialize_dual_role(net: DualRoleNetwork) -> str:
    return json.dumps(net.to_document(), indent=2, sort_keys=True) + "\n"
