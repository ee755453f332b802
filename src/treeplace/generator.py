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
byte-identical documents. Integers are drawn by `_below`, `_belows` and
`_shuffle` straight from `Random.getrandbits`, with exactly the calls that
`Random.randint`, `randrange` and `shuffle` make, so a seed gives the
documents those methods gave.
"""

from __future__ import annotations

import random
from itertools import chain, repeat
from typing import NamedTuple

from .errors import ConfigError, MalformedDocumentError, StructureError
from .instance import KIND_CLIENT, KIND_INTERNAL, SHAPES, NetworkInstance, json_text, load_document


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


def _belows(getrandbits, widths) -> list[int]:
    """One value in ``range(n)`` per width ``n``, each drawn as
    ``Random._randbelow(n)`` draws it.

    ``Random.randint(lo, hi)`` is ``lo + _randbelow(hi - lo + 1)`` and
    ``randrange(n)`` is ``_randbelow(n)``: one ``n.bit_length()``-bit draw,
    repeated while it is ``>= n``. So ``n == 1`` still takes bits.
    """
    out = []
    for n in widths:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def _below(getrandbits, n: int) -> int:
    """One value in ``range(n)``, as ``_belows`` draws it."""
    return _belows(getrandbits, (n,))[0]


def _shuffle(getrandbits, x: list) -> None:
    """``Random.shuffle(x)``: swap each position, last first, with one at or before it."""
    for i, j in zip(range(len(x) - 1, 0, -1), _belows(getrandbits, range(len(x), 1, -1))):
        x[i], x[j] = x[j], x[i]


def _skeleton(cfg: GenConfig, getrandbits) -> dict[str, str | None]:
    """Internal ids to parent ids. n000 is always the root."""
    ids = [f"n{k:03d}" for k in range(cfg.internal)]
    if cfg.shape == "path":
        return dict(zip(ids, [None] + ids[:-1]))
    if cfg.shape == "random":  # random attachment: node k under one of the k before it
        picks = _belows(getrandbits, range(1, len(ids)))
        return dict(zip(ids, [None] + [ids[j] for j in picks]))
    parents: dict[str, str | None] = {ids[0]: None}
    lo, hi = cfg.branching
    frontier = [ids[0]]
    placed = 1  # ids[placed:] still wait for a parent
    while placed < len(ids):
        nxt: list[str] = []
        for node in frontier:
            take = min(lo + _below(getrandbits, hi - lo + 1), len(ids) - placed)
            for child in ids[placed : placed + take]:
                parents[child] = node
                nxt.append(child)
            placed += take
            if placed == len(ids):
                break
        frontier = nxt or frontier
    return parents


def generate(cfg: GenConfig) -> NetworkInstance:
    cfg.check()
    # the helper's draws are freed before the sort, and its unsorted columns before validation
    inst = NetworkInstance(cfg.capacity, *_draw_columns(cfg))
    if inst.violations:  # pragma: no cover - would be a generator bug
        raise ConfigError(f"generated an invalid instance: {inst.violations[0].message}")
    return inst


def _draw_columns(cfg: GenConfig) -> tuple[list, ...]:
    """The six columns of ``cfg``'s instance, internal nodes first, not in id order."""
    getrandbits = random.Random(cfg.seed).getrandbits
    parents = _skeleton(cfg, getrandbits)
    internal_ids = sorted(parents)

    with_children = set(parents.values())
    childless = [nid for nid in internal_ids if nid not in with_children]
    if cfg.clients < len(childless):
        raise ConfigError(
            f"{cfg.clients} clients cannot cover {len(childless)} childless "
            "skeleton nodes; raise clients or shrink the skeleton"
        )
    n_int = len(internal_ids)
    extra = _belows(getrandbits, repeat(n_int, cfg.clients - len(childless)))
    hosts = childless + [internal_ids[j] for j in extra]
    _shuffle(getrandbits, hosts)

    # the columns directly: internal nodes, then clients, each drawing bw (w, q)
    ids = internal_ids + [f"c{k:03d}" for k in range(len(hosts))]
    up_ids = [parents[nid] for nid in internal_ids] + hosts
    (bw_lo, bw_hi), (w_lo, w_hi), (q_lo, q_hi) = cfg.bandwidth_range, cfg.weight_range, cfg.qos_range
    bw_n, w_n, q_n = bw_hi - bw_lo + 1, w_hi - w_lo + 1, q_hi - q_lo + 1
    # n000, the root, sorts first and has no link
    bws = [None] + [bw_lo + r for r in _belows(getrandbits, repeat(bw_n, n_int - 1))]
    drawn = _belows(getrandbits, chain.from_iterable(repeat((bw_n, w_n, q_n), len(hosts))))
    bws += [bw_lo + r for r in drawn[0::3]]
    ws = [None] * n_int + [w_lo + r for r in drawn[1::3]]
    qs = [None] * n_int + [q_lo + r for r in drawn[2::3]]
    kinds = [KIND_INTERNAL] * n_int + [KIND_CLIENT] * len(hosts)
    return ids, up_ids, kinds, bws, ws, qs


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


def generate_dual_role(seed: int, size: int, capacity: int) -> DualRoleNetwork:
    if size < 1:
        raise ConfigError("need at least one node")
    if capacity < 1:
        raise ConfigError("capacity must be positive")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    ids = [f"n{k:03d}" for k in range(size)]
    parents = dict(zip(ids, [None] + [ids[j] for j in _belows(getrandbits, range(1, size))]))
    bandwidth = dict(zip(ids, [2 + r for r in _belows(getrandbits, repeat(15, size))]))
    demand: dict[str, tuple[int, int]] = {}
    for nid in ids:
        if rng.random() < 0.7:
            demand[nid] = (_below(getrandbits, 7), _below(getrandbits, 4))
    if not any(w for w, _ in demand.values()):
        heavy = ids[_below(getrandbits, size)]
        demand[heavy] = (1 + _below(getrandbits, 6), _below(getrandbits, 4))
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
            if pair[0] < 0 or pair[1] < 0:
                raise MalformedDocumentError(f"demand of {nid!r} needs weight >= 0 and qos >= 0")
            demand[nid] = (pair[0], pair[1])
    for nid, parent in parents.items():
        if parent is not None and parent not in parents:
            raise StructureError(f"parent {parent!r} of {nid!r} does not exist")
    return DualRoleNetwork(
        capacity=doc["capacity"], parents=parents, bandwidth=bandwidth, demand=demand
    )


def serialize_dual_role(net: DualRoleNetwork) -> str:
    nodes = [
        {
            "id": nid,
            "parent": net.parents[nid],
            "bw": net.bandwidth[nid],
            "demand": list(net.demand[nid]) if nid in net.demand else None,
        }
        for nid in sorted(net.parents)
    ]
    return json_text({"capacity": net.capacity, "nodes": nodes}) + "\n"
