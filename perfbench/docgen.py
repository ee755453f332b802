"""Seeded, linear-time instance documents for the benchmark workloads.

The benchmark makes its own inputs so that they stay the same when the
program's generator changes. Every function here is driven by one
``random.Random`` built from the workload seed, runs in time linear in
the node count, and writes the program's canonical document form
(key-sorted, two-space indent, nodes in ascending id order), so that
``serialize_instance(parse_instance(text)) == text`` holds byte for byte.

A document is held as ``(capacity, nodes)`` where every node is a dict
with the keys of the document format: ``id``, ``parent``, ``kind`` and,
where present, ``bw``, ``w`` and ``q``.
"""

from __future__ import annotations

import random

# Make-up of each workload. The numbers are documented in README.md.
BROAD = dict(nodes=100_000, internal_share=0.4, capacity=200, branching=(2, 3),
             weights=(1, 3), qos=(8, 8), bandwidth=(1000, 1000))
DEEP = dict(spine=3_300, chains=(2, 4), chain_len=(1, 3), chain_clients=(1, 3),
            spine_clients=(0, 2), capacity=40, weights=(1, 6), qos=(1, 32),
            bandwidth=(20, 60))
SMALL = dict(internal=(2, 12), max_clients=12, capacity=(10, 40), weights=(0, 6),
             qos_top=(1, 5), bandwidth_lo=3, bandwidth_top=(6, 24),
             shapes=("balanced", "path", "random"), branching=(2, 3))
# The gen workload's `treeplace gen` arguments: the balanced make-up of
# BROAD at ~3e4 nodes, 40 % of them internal.
GEN = dict(internal=12_000, clients=18_000, capacity=200, shape="balanced",
           branching=(2, 3), weights=(1, 3), qos=(8, 8), bandwidth=(1000, 1000))


def _internal_id(k: int, width: int) -> str:
    return f"n{k:0{width}d}"


def _client_id(k: int, width: int) -> str:
    return f"c{k:0{width}d}"


def _assemble(parents: list[int], hosts: list[int], link_bw, client_fields) -> list[dict]:
    """Nodes in id order from an internal parent array and client hosts."""
    width = max(3, len(str(max(len(parents), len(hosts)))))
    nodes: list[dict] = []
    for host in hosts:
        w, q = client_fields()
        nodes.append({"id": _client_id(len(nodes), width), "parent": _internal_id(host, width),
                      "kind": "client", "bw": link_bw(), "w": w, "q": q})
    for k, parent in enumerate(parents):
        node = {"id": _internal_id(k, width), "kind": "internal",
                "parent": None if parent < 0 else _internal_id(parent, width)}
        if parent >= 0:
            node["bw"] = link_bw()
        nodes.append(node)
    return nodes


def balanced_skeleton(count: int, branching: tuple[int, int], rng: random.Random) -> list[int]:
    """Parent index of each internal node, breadth first; node 0 is the root."""
    parents = [-1]
    frontier = 0  # index of the node taking children next
    while len(parents) < count:
        take = min(rng.randint(*branching), count - len(parents))
        parents.extend([frontier] * take)
        frontier += 1
    return parents


def broad(seed: int) -> tuple[int, list[dict]]:
    """One balanced tree, 40 % internal nodes, fixed qos, wide links."""
    mk = BROAD
    rng = random.Random(seed)
    internal = int(mk["nodes"] * mk["internal_share"])
    clients = mk["nodes"] - internal
    parents = balanced_skeleton(internal, mk["branching"], rng)
    has_child = [False] * internal
    for p in parents[1:]:
        has_child[p] = True
    hosts = [k for k in range(internal) if not has_child[k]]
    hosts += [rng.randrange(internal) for _ in range(clients - len(hosts))]
    rng.shuffle(hosts)
    bw = lambda: rng.randint(*mk["bandwidth"])  # noqa: E731
    fields = lambda: (rng.randint(*mk["weights"]), rng.randint(*mk["qos"]))  # noqa: E731
    return mk["capacity"], _assemble(parents, hosts, bw, fields)


def deep(seed: int) -> tuple[int, list[dict]]:
    """A caterpillar: a long spine of internal nodes with short side chains.

    Every side chain ends in an internal node whose children are all
    clients; spine nodes may also carry clients directly, which the
    program merges into an ineligible leaf. Every bundle fits the
    capacity and every client link, so equipping every internal node is
    feasible and the instance always is.
    """
    mk = DEEP
    rng = random.Random(seed)
    parents = [-1]
    hosts: list[int] = []
    prev_spine = 0
    for s in range(mk["spine"]):
        if s:
            parents.append(prev_spine)
            prev_spine = len(parents) - 1
        for _ in range(rng.randint(*mk["chains"])):
            up = prev_spine
            for _ in range(rng.randint(*mk["chain_len"])):
                parents.append(up)
                up = len(parents) - 1
            hosts += [up] * rng.randint(*mk["chain_clients"])
        hosts += [prev_spine] * rng.randint(*mk["spine_clients"])
    bw = lambda: rng.randint(*mk["bandwidth"])  # noqa: E731
    fields = lambda: (rng.randint(*mk["weights"]), rng.randint(*mk["qos"]))  # noqa: E731
    return mk["capacity"], _assemble(parents, hosts, bw, fields)


def small(rng: random.Random) -> tuple[int, list[dict]]:
    """One oracle-sized instance with tight capacity and bandwidth.

    Shapes mix balanced, path and random attachment; weights may be 0.
    Every childless internal node hosts at least one client.
    """
    mk = SMALL
    internal = rng.randint(*mk["internal"])
    shape = rng.choice(mk["shapes"])
    if shape == "balanced":
        parents = balanced_skeleton(internal, mk["branching"], rng)
    elif shape == "path":
        parents = list(range(-1, internal - 1))
    else:
        parents = [-1] + [rng.randrange(k) for k in range(1, internal)]
    has_child = [False] * internal
    for p in parents[1:]:
        has_child[p] = True
    hosts = [k for k in range(internal) if not has_child[k]]
    clients = rng.randint(max(len(hosts), 1), max(mk["max_clients"], len(hosts)))
    hosts += [rng.randrange(internal) for _ in range(clients - len(hosts))]
    rng.shuffle(hosts)
    capacity = rng.randint(*mk["capacity"])
    qos_top = rng.randint(*mk["qos_top"])
    bw_top = rng.randint(*mk["bandwidth_top"])
    bw = lambda: rng.randint(mk["bandwidth_lo"], bw_top)  # noqa: E731
    fields = lambda: (rng.randint(*mk["weights"]), rng.randint(1, qos_top))  # noqa: E731
    return capacity, _assemble(parents, hosts, bw, fields)


def small_batch(seed: int, count: int) -> list[tuple[int, list[dict]]]:
    rng = random.Random(seed)
    return [small(rng) for _ in range(count)]


def document_text(capacity: int, nodes: list[dict]) -> str:
    """The canonical document text, as ``json.dumps(doc, sort_keys=True, indent=2)``.

    Written by hand because the indenting json encoder runs in pure
    Python; ids are plain ASCII, so no string needs escaping.
    """
    out = ['{\n  "W": ', str(capacity), ',\n  "nodes": [']
    sep = "\n"
    for node in sorted(nodes, key=lambda n: n["id"]):
        out.append(sep)
        sep = ",\n"
        parts = []
        for key in sorted(node):
            val = node[key]
            if val is None:
                text = "null"
            elif isinstance(val, str):
                text = f'"{val}"'
            else:
                text = str(val)
            parts.append(f'      "{key}": {text}')
        out.append("    {\n" + ",\n".join(parts) + "\n    }")
    out.append("\n  ]\n}\n")
    return "".join(out)
