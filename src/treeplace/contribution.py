"""Bottom-up contribution tables over the normalized tree.

For every star node ``v`` and hop index ``i`` the table row holds

* ``c_row[i]``: the minimum workload the subtree below ``v`` must push
  onto the ancestor ``i`` hops above ``v``, given that the subtree holds
  its own minimum replica count and no replica sits strictly between
  ``v`` and that ancestor. ``inf`` means "impossible in that shape".
* ``e_row[i]``: the child set that must be equipped with replicas to
  reach that minimum (greedy: repeatedly equip the eligible child with
  the largest contribution while the residual exceeds the bound, ties
  broken by smallest id).
* ``m_value``: the minimum number of replicas inside the subtree.

A finite ``c_row[i]`` for ``i > 0`` additionally requires the equip set
to stay at its ``i = 0`` size; growing it would contradict subtree
minimality, so such rows are ``inf``.

Rows are computed for ``i <= min(depth(v), L + 1)`` where ``L`` is the
largest leaf qos: beyond that index every child contribution is ``inf``
(or 0 for empty bundles) and all rows are provably identical, so the
accessors clamp instead of storing duplicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import InfeasibleError
from .transform import StarLeaf, StarTree

INFINITE = math.inf

MODE_PER_BUNDLE = "per-bundle"
MODE_AGGREGATE = "aggregate"
MODES = (MODE_PER_BUNDLE, MODE_AGGREGATE)

REASON_EXHAUSTED = "no feasible assignment within capacity"


class GreedyResult(NamedTuple):
    selected: tuple  # chosen keys, ascending
    residual: int | float  # sum of the contributions left outside the set
    exhausted: bool  # ran out of eligible children while still over bound


def greedy_e_set(items: Iterable[tuple], bound: int | float) -> GreedyResult:
    """Equip children greedily until the residual fits under ``bound``.

    ``items`` yields ``(contribution, key, eligible)`` triples. While the
    residual sum exceeds the bound, the eligible child with the largest
    contribution is moved into the set (ties: smallest key). If eligible
    children run out first the result is marked exhausted; the partial
    set is still reported.
    """
    entries = sorted(items, key=lambda t: t[1])
    finite = 0
    infinites = 0
    for contrib, _key, _elig in entries:
        if contrib == INFINITE:
            infinites += 1
        else:
            finite += contrib
    # Largest contribution first; stable sort keeps ties in key order.
    candidates = [e for e in entries if e[2]]
    candidates.sort(key=lambda t: -t[0])
    chosen: list = []
    pos = 0
    while infinites > 0 or finite > bound:
        if pos == len(candidates):
            residual = INFINITE if infinites else finite
            return GreedyResult(tuple(sorted(chosen)), residual, True)
        contrib, key, _ = candidates[pos]
        pos += 1
        if contrib == INFINITE:
            infinites -= 1
        else:
            finite -= contrib
        chosen.append(key)
    return GreedyResult(tuple(sorted(chosen)), finite, False)


def min_bw_on_path(star: StarTree, node_id: str, hops: int) -> int | float:
    """Smallest bandwidth on the ``hops``-edge path from a node upward.

    ``hops = 0`` is the empty path (unbounded). Raises ValueError when
    the path would run past the artificial root.
    """
    if hops < 0 or hops > star.depth[node_id]:
        raise ValueError(f"path of {hops} hops from {node_id!r} is out of range")
    best: int | float = INFINITE
    cur = star.by_id[node_id]
    for _ in range(hops):
        best = min(best, cur.bw)  # type: ignore[type-var]
        cur = star.by_id[cur.parent]  # type: ignore[index]
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


def internal_node_update(
    children: Sequence[tuple[str, int | float, bool]],
    hops: int,
    bound: int | float,
    e0_size: int | None = None,
) -> tuple[tuple[str, ...], int | float]:
    """One table row for an internal node.

    ``children`` carries ``(child_id, contribution at hops+1, eligible)``.
    At ``hops = 0`` an exhausted greedy means no replica assignment can
    serve the subtree at all, which is a global infeasibility. At deeper
    indices exhaustion (or an equip set that outgrew the ``hops = 0``
    size ``e0_size``) just marks the row infinite.
    """
    result = greedy_e_set(((c, cid, elig) for cid, c, elig in children), bound)
    if hops == 0:
        if result.exhausted:
            raise InfeasibleError(REASON_EXHAUSTED)
        return result.selected, result.residual
    if result.exhausted or len(result.selected) != e0_size:
        return result.selected, INFINITE
    return result.selected, result.residual


def compute_m(children_m: Iterable[int], e0_size: int) -> int:
    """Minimum replica count of a subtree: children's counts plus the

    replicas equipped directly on children at index 0."""
    return sum(children_m) + e0_size


@dataclass(frozen=True)
class NodeTable:
    """Materialized rows for one node (physical rows only, see module doc)."""

    node: str
    depth: int
    c_row: tuple
    e_row: tuple
    m_value: int


class ContributionTable:
    """Phase 1 output: per-node rows plus the tree-wide minimum count."""

    def __init__(
        self,
        mode: str,
        max_range: int,
        depth: dict[str, int],
        c_rows: dict[str, list],
        e_rows: dict[str, list],
        m_values: dict[str, int],
        root_plus: str,
    ):
        self.mode = mode
        self.max_range = max_range
        self._depth = depth
        self._c = c_rows
        self._e = e_rows
        self._m = m_values
        self.root_plus = root_plus
        self.min_replica_count: int = m_values[root_plus]

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._c))

    def depth_of(self, node: str) -> int:
        return self._depth[node]

    def _index(self, node: str, hops: int) -> int:
        if hops < 0 or hops > self._depth[node]:
            raise ValueError(f"index {hops} out of range for node {node!r}")
        return min(hops, len(self._c[node]) - 1)

    def contribution(self, node: str, hops: int) -> int | float:
        return self._c[node][self._index(node, hops)]

    def equip_set(self, node: str, hops: int) -> tuple[str, ...]:
        return self._e[node][self._index(node, hops)]

    def m_of(self, node: str) -> int:
        return self._m[node]

    def table(self, node: str) -> NodeTable:
        return NodeTable(
            node=node,
            depth=self._depth[node],
            c_row=tuple(self._c[node]),
            e_row=tuple(self._e[node]),
            m_value=self._m[node],
        )


def run_phase1(star: StarTree, mode: str = MODE_PER_BUNDLE) -> ContributionTable:
    """Fill every node's contribution rows bottom-up.

    Raises InfeasibleError when some subtree cannot be served even with
    every eligible child equipped (only reachable for programmatically
    built trees; transformed trees pre-check bundle weights).

    In aggregate mode the greedy bound at ``(v, i)`` is the capacity
    capped by the smallest bandwidth on the i-edge path above ``v``,
    which makes the residual respect summed link flows. This is an
    extension without optimality guarantees.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    aggregate = mode == MODE_AGGREGATE
    by_id = star.by_id
    children = star.children
    depth = star.depth
    bound_w = star.capacity
    row_limit = star.max_leaf_qos + 1

    # children-before-parent order, no recursion
    order: list[str] = []
    stack = [star.root_plus]
    while stack:
        cur = stack.pop()
        order.append(cur)
        stack.extend(children[cur])
    order.reverse()

    c_rows: dict[str, list] = {}
    e_rows: dict[str, list] = {}
    m_values: dict[str, int] = {}

    for vid in order:
        node = by_id[vid]
        rows = min(depth[vid], row_limit)
        if node.leaf is not None:
            # leaf_contribution in one walk: the row is the weight up to the
            # first hop past the qos or through a link narrower than the
            # weight, and infinite from there on (zero-demand: 0 throughout).
            weight = node.leaf.weight
            if weight == 0:
                crow: list = [0] * (rows + 1)
            else:
                reach = min(rows, node.leaf.qos)
                walker = node
                cut = 1
                while cut <= reach and walker.bw >= weight:  # type: ignore[operator]
                    walker = by_id[walker.parent]  # type: ignore[index]
                    cut += 1
                crow = [weight] * cut + [INFINITE] * (rows + 1 - cut)
            c_rows[vid] = crow
            e_rows[vid] = [()] * (rows + 1)
            m_values[vid] = 0
            continue

        kids = children[vid]  # ascending id
        kid_rows = [c_rows[k] for k in kids]
        kid_last = [len(r) - 1 for r in kid_rows]
        kid_elig = [by_id[k].leaf is None or by_id[k].leaf.eligible for k in kids]
        nkids = len(kids)
        crow = []
        erow: list = []
        e0_size = 0
        agg_min: int | float = INFINITE
        walker = node
        for i in range(rows + 1):
            if aggregate and i > 0:
                agg_min = min(agg_min, walker.bw)  # type: ignore[type-var]
                walker = by_id[walker.parent]  # type: ignore[index]
            bound = bound_w if (not aggregate or i == 0) else min(bound_w, agg_min)

            j = i + 1
            vals = [r[j] if j <= kid_last[idx] else r[kid_last[idx]] for idx, r in enumerate(kid_rows)]
            finite = 0
            infinites = 0
            for v in vals:
                if v == INFINITE:
                    infinites += 1
                else:
                    finite += v
            if infinites == 0 and finite <= bound:
                e_set: tuple = ()
                residual: int | float = finite
                exhausted = False
            else:
                # Same rule as greedy_e_set, on index positions (== id order).
                elig_order = sorted(
                    (idx for idx in range(nkids) if kid_elig[idx]),
                    key=lambda idx: -vals[idx],
                )
                chosen: list[int] = []
                pos = 0
                while infinites > 0 or finite > bound:
                    if pos == len(elig_order):
                        exhausted = True
                        break
                    idx = elig_order[pos]
                    pos += 1
                    v = vals[idx]
                    if v == INFINITE:
                        infinites -= 1
                    else:
                        finite -= v
                    chosen.append(idx)
                else:
                    exhausted = False
                residual = INFINITE if infinites else finite
                chosen.sort()
                e_set = tuple(kids[idx] for idx in chosen)

            if i == 0:
                if exhausted:
                    raise InfeasibleError(REASON_EXHAUSTED, (vid,))
                e0_size = len(e_set)
                c_val = residual
                m_values[vid] = sum(m_values[k] for k in kids) + e0_size
            elif exhausted or len(e_set) != e0_size:
                c_val = INFINITE
            else:
                c_val = residual
            crow.append(c_val)
            erow.append(e_set)
        c_rows[vid] = crow
        e_rows[vid] = erow

    return ContributionTable(
        mode=mode,
        max_range=star.max_leaf_qos,
        depth=dict(depth),
        c_rows=c_rows,
        e_rows=e_rows,
        m_values=m_values,
        root_plus=star.root_plus,
    )
