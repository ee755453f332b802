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
(or 0 for empty bundles) and all rows are provably identical, so
``table`` lists rows only up to that index: a deeper one reads as the last.

Within that range a row is stored only where it differs from the row
before it (a change point). A leaf has at most one: the hop where its
bundle stops fitting. Row ``i`` of an internal node depends only on its
children's values at ``i + 1`` and the bound, so row 0 is computed and
row ``i >= 1`` only where one of those changes; memory stays within
N * (L + 2) cells and the greedy runs only on rows whose inputs changed.
Each computed row is one call of the greedy kernel ``equip_row`` on the
node's children as parallel lists (keys, values, eligibility).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import InfeasibleError
from .instance import MODE_AGGREGATE, MODE_PER_BUNDLE, MODES
from .transform import StarTree

INFINITE = math.inf

REASON_EXHAUSTED = "no feasible assignment within capacity"


def equip_row(
    keys: Sequence,
    values: list,
    eligible: Sequence[bool],
    bound: int | float,
    e0_size: int | None = None,
    node: str | None = None,
) -> tuple[tuple, int | float]:
    """One table row of an internal node: ``(equip set, c)``.

    The children come as parallel sequences: ``keys`` (ordered like ids;
    phase 1 passes star indices), ``values`` (contributions at the row's
    index + 1) and ``eligible``. When the sum fits under ``bound`` nothing
    is equipped. Otherwise, while the residual exceeds the bound, the
    eligible child with the largest contribution is equipped (ties:
    smallest key); the set comes back ascending and ``c`` is the residual.

    ``e0_size`` is None for row 0, where running out of eligible children
    means no replica assignment can serve the subtree at all: a global
    infeasibility, reported against ``node``. At a deeper row, running out
    (or an equip set whose size is not row 0's ``e0_size``) makes ``c``
    infinite.
    """
    total = sum(values)  # inf when some child cannot be absorbed
    if total <= bound and total != INFINITE:
        return (), INFINITE if e0_size else total
    infinites = values.count(INFINITE)
    residual = sum([c for c in values if c != INFINITE]) if infinites else total
    # Largest contribution first, ties in key order.
    candidates = sorted([(-c, k) for k, c, e in zip(keys, values, eligible) if e])
    chosen: list = []
    pos = 0
    while infinites or residual > bound:
        if pos == len(candidates):
            if e0_size is None:
                raise InfeasibleError(REASON_EXHAUSTED, () if node is None else (node,))
            chosen.sort()
            return tuple(chosen), INFINITE
        neg, key = candidates[pos]
        pos += 1
        if neg == -INFINITE:
            infinites -= 1
        else:
            residual += neg
        chosen.append(key)
    chosen.sort()
    return tuple(chosen), residual if e0_size in (None, len(chosen)) else INFINITE


class NodeTable(NamedTuple):
    """Materialized rows for one node (physical rows only, see module doc)."""

    node: str
    depth: int
    c_row: tuple
    e_row: tuple
    m_value: int


class ContributionTable:
    """Phase 1 output: per-node change-point rows plus the minimum count.

    ``segments[v]`` lists ``(j, c, e)`` for ``j = 0`` and every later row
    index where node ``v``'s row differs from row ``j - 1``; ``e`` holds
    child indices. Row ``i`` is the last segment starting at or before
    ``i``. ``table``, the one id-keyed reader, builds its rows on each call.
    """

    def __init__(self, star: StarTree, segments: list, m_values: list[int]):
        self.star = star
        self.segments = segments
        self._m = m_values
        self.min_replica_count: int = m_values[star.root]

    def nodes(self) -> tuple[str, ...]:
        ids = self.star.ids
        return tuple(ids[v] for v in self.star.id_order)

    def table(self, node: str) -> NodeTable:
        star = self.star
        ids = star.ids
        v = star.index[node]
        depth = star.depths[v]
        segs = self.segments[v]
        ends = [seg[0] for seg in segs[1:]] + [min(depth, star.max_leaf_qos + 1) + 1]
        c_row: list = []
        e_row: list = []
        for (start, c, e), end in zip(segs, ends):
            c_row += [c] * (end - start)
            e_row += [tuple(ids[k] for k in e)] * (end - start)
        return NodeTable(node, depth, tuple(c_row), tuple(e_row), self._m[v])


def _path_bounds(star: StarTree, limit: int) -> list:
    """Aggregate-mode greedy bounds, as change points, for every internal node.

    The bound at ``(v, i)`` is ``min(W, smallest bw on the i-edge path above
    v)``; it is W at ``i = 0`` and never rises with ``i``. Entry ``v`` lists
    ``(i, bound)`` for each ``1 <= i <= min(depth(v), limit)`` where the
    bound drops. A node's list is its parent's shifted one hop, clipped by
    its own link, so one top-down pass fills every list.
    """
    capacity = star.capacity
    bws = star.bws
    parents = star.parents
    depths = star.depths
    weights = star.weights
    out: list = [None] * len(bws)
    out[star.root] = []
    for v in star.preorder:
        if weights[v] is not None or v == star.root:
            continue
        top = min(depths[v], limit)
        own = min(capacity, bws[v])
        drops = [(1, own)] if own < capacity else []
        drops += [(i + 1, b) for i, b in out[parents[v]] if b < own and i < top]
        out[v] = drops
    return out


def run_phase1(star: StarTree, mode: str = MODE_PER_BUNDLE) -> ContributionTable:
    """Fill every node's contribution rows bottom-up.

    Raises InfeasibleError when some subtree cannot be served even with
    every eligible child equipped (only reachable for programmatically
    built trees; transformed trees pre-check bundle weights).

    In aggregate mode the greedy bound at ``(v, i)`` is the capacity
    capped by the smallest bandwidth on the i-edge path above ``v``,
    which makes the residual respect summed link flows. This is an
    extension without optimality guarantees.

    Row 0 of an internal node is computed in full. Row ``i >= 1`` is the
    same function of the children's values at ``i + 1`` and the bound as
    row ``i - 1`` is of theirs at ``i`` (an unexhausted row 0 sets the
    equip-set size that later rows must keep), so it is computed only
    where some child's contribution changes at ``i + 1`` or the bound
    drops at ``i``, and is stored only where it differs from row ``i - 1``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    capacity = star.capacity
    limit = star.max_leaf_qos + 1
    ids = star.ids
    parents = star.parents
    bws = star.bws
    weights = star.weights
    qoses = star.qoses
    eligible = star.eligibles
    kids = star.kids
    depths = star.depths
    path_bounds = _path_bounds(star, limit) if mode == MODE_AGGREGATE else None

    segments: list = [None] * len(ids)
    m_values = [0] * len(ids)
    for v in reversed(star.preorder):
        rows = min(depths[v], limit)
        weight = weights[v]
        if weight is not None:
            # A leaf's row is its weight up to the first hop past the qos or
            # through a link narrower than the weight, infinite from there
            # on; zero-demand bundles contribute 0 throughout.
            segments[v] = [(0, weight, ())]
            if weight:
                reach = min(rows, qoses[v])
                walker = v
                cut = 1
                while cut <= reach and bws[walker] >= weight:
                    walker = parents[walker]
                    cut += 1
                if cut <= rows:
                    segments[v].append((cut, INFINITE, ()))
            continue

        below = kids[v]
        elig = [eligible[k] for k in below]
        current: list = []  # child values at index 0, at i + 1 once row i's changes are in
        changes: dict[int, list] = {}  # row i -> (child position, value at i + 1) or (-1, bound)
        for pos, k in enumerate(below):
            segs = segments[k]
            c = segs[0][1]
            current.append(c)
            if len(segs) > 1:
                for j, cj, _e in segs:
                    if j > rows + 1:
                        break
                    if cj != c:  # not just a new equip set
                        c = cj
                        changes.setdefault(j - 1, []).append((pos, cj))
        for pos, val in changes.pop(0, ()):
            current[pos] = val

        name = ids[v]
        last_e, last_c = equip_row(below, current, elig, capacity, None, name)
        e0_size = len(last_e)
        m_values[v] = sum(m_values[k] for k in below) + e0_size
        segs = [(0, last_c, last_e)]
        if path_bounds is not None:
            for i, b in path_bounds[v]:
                changes.setdefault(i, []).append((-1, b))
        bound = capacity
        for i in sorted(changes):
            for pos, val in changes[i]:
                if pos < 0:
                    bound = val
                else:
                    current[pos] = val
            e, c = equip_row(below, current, elig, bound, e0_size, name)
            if c != last_c or e != last_e:
                segs.append((i, c, e))
                last_e, last_c = e, c
        segments[v] = segs

    return ContributionTable(star, segments, m_values)
