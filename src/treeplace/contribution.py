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

A row is stored only where it differs from the row before it (a change
point). A leaf has at most one: the hop where its bundle stops fitting.
Row ``i`` of an internal node depends only on its children's values at
``i + 1`` and the bound, so row 0 is computed and row ``i >= 1`` only
where one of those changes. Every change point of ``v`` lies at ``i <=
min(depth(v), L + 1)``, where ``L`` is the largest leaf qos: a leaf's
walk ends at the old root's zero-bandwidth link and one hop past its
qos, and an internal node's change points are its children's one hop
lower and its path bounds' drops. So phase 1 clips nothing. Past that
index all rows are identical; listing rows only up to it, a deeper one
reading as the last, is ``table``'s rule alone. Memory stays within
N * (L + 2) cells and the greedy runs only on rows whose inputs changed.
Each computed row is one call of the greedy kernel ``equip_row`` on the
node's children as parallel lists (keys, values, eligibility).

Children's values never fall as ``i`` grows and the bound never rises,
so the greedy's equip count never falls: once a row is ``inf``, every
later row is. Phase 1 stores an internal node's rows up to its first
``inf`` row and no further, and decides most such rows without the
greedy (see ``_internal_rows``). Placement reads no ``inf`` row;
``ContributionTable.table`` re-derives the rest with the same row loop.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ContractViolationError
from .instance import MODE_AGGREGATE, MODE_PER_BUNDLE, MODES
from .transform import StarTree

INFINITE = math.inf


def equip_row(
    keys: Sequence,
    values: list,
    eligible: Sequence[bool],
    bound: int | float,
    e0_size: int | None = None,
) -> tuple[tuple, int | float]:
    """One table row of an internal node: ``(equip set, c)``.

    The children come as parallel sequences: ``keys`` (ordered like ids;
    phase 1 passes star indices), ``values`` (contributions at the row's
    index + 1) and ``eligible``. When the sum fits under ``bound`` nothing
    is equipped. Otherwise, while the residual exceeds the bound, the
    eligible child with the largest contribution is equipped (ties:
    smallest key); the set comes back ascending and ``c`` is the residual.

    ``e0_size`` is None for row 0. Running out of eligible children makes
    ``c`` infinite at every row; at a deeper row, so does an equip set
    whose size is not row 0's ``e0_size``.
    """
    residual = sum(values)  # inf when some child cannot be absorbed
    chosen: list = []
    if residual > bound or residual == INFINITE:
        infinites = values.count(INFINITE)
        if infinites:
            residual = sum([c for c in values if c != INFINITE])
        # Largest contribution first, ties in key order.
        candidates = sorted([(-c, k) for k, c, e in zip(keys, values, eligible) if e])
        pos = 0
        while infinites or residual > bound:
            if pos == len(candidates):
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
    ``i``. An internal node's list ends at its first infinite row, stored
    as ``(j, inf, ())``: every later row is infinite too, so the ``c``
    values are exact everywhere, but the equip sets of the infinite rows
    are not kept. The lists are read-only, as nodes with equal lists may
    share one. ``m[v]``, also read-only, is the number of replicas strictly
    below ``v`` (0 on leaves); every finite row of ``v`` equips a set that
    keeps this count. ``table``, the one id-keyed reader, builds its rows on
    each call and re-derives such a node's rows without the stop, with the
    path bounds (aggregate mode) that phase 1 used.
    """

    def __init__(self, star: StarTree, segments: list, m_values: list[int], bounds: list | None):
        self.star = star
        self.segments = segments
        self.m = m_values
        self._bounds = bounds
        self.min_replica_count: int = m_values[star.root]

    def nodes(self) -> tuple[str, ...]:
        ids = self.star.ids
        return tuple(ids[v] for v in self.star.id_order)

    def table(self, node: str) -> NodeTable:
        star = self.star
        ids = star.ids
        v = star.index[node]
        depth = star.depth[node]
        segs = self.segments[v]
        if segs[-1][1] == INFINITE and star.weights[v] is None:
            ((_, segs),) = _internal_rows(star, self.segments, (v,), self._bounds, stop=False)
        ends = [seg[0] for seg in segs[1:]] + [min(depth, star.max_leaf_qos + 1) + 1]
        c_row: list = []
        e_row: list = []
        for (start, c, e), end in zip(segs, ends):
            c_row += [c] * (end - start)
            e_row += [tuple(ids[k] for k in e)] * (end - start)
        return NodeTable(node, depth, tuple(c_row), tuple(e_row), self.m[v])


def _path_bounds(star: StarTree) -> list:
    """Aggregate-mode greedy bounds, as change points, for every internal node.

    The bound at ``(v, i)`` is ``min(W, smallest bw on the i-edge path above
    v)``; it is W at ``i = 0`` and never rises with ``i``. Entry ``v`` lists
    ``(i, bound)`` for each ``1 <= i <= L + 1`` where the bound drops, with
    ``L = star.max_leaf_qos``. A node's list is its parent's shifted one
    hop, clipped by its own link, so one top-down pass fills every list,
    and every drop has ``i <= depth(v)`` as the path ends at the root. The
    clip at L + 1 is ``table``'s listing rule only: it keeps the lists
    short and changes no row up to that index.
    """
    limit = star.max_leaf_qos + 1
    capacity = star.capacity
    bws = star.bws
    parents = star.parents
    weights = star.weights
    out: list = [None] * len(bws)
    out[star.root] = []
    for v in star.order:
        if weights[v] is not None or v == star.root:
            continue
        own = min(capacity, bws[v])
        drops = [(1, own)] if own < capacity else []
        drops += [(i + 1, b) for i, b in out[parents[v]] if b < own and i < limit]
        out[v] = drops
    return out


def _internal_rows(
    star: StarTree, segments: list, nodes: Iterable[int], bounds: list | None, stop: bool
) -> Iterator[tuple[int, list]]:
    """Yield ``(v, change points)`` for each internal node ``v`` of ``nodes``.

    ``v``'s children's ``segments`` must be in place when ``v`` comes up;
    only their ``c`` values are read. ``bounds`` holds ``_path_bounds``
    (aggregate mode) or None. Row 0 is computed in full. Row ``i >= 1`` is
    the same function of the children's values at ``i + 1`` and the bound
    as row ``i - 1`` is of theirs at ``i`` (row 0 sets the equip-set size
    that later rows must keep), so it is computed only where some child's
    contribution changes at ``i + 1`` or the bound drops at ``i``, and is
    listed only where it differs from row ``i - 1``.

    With ``stop`` the list ends at the first infinite row, stored as
    ``(i, inf, ())``; every later row is infinite too (module doc). Every
    child that is infinite at ``i + 1`` must be equipped, so the row is
    known infinite without the greedy when more children are infinite than
    row 0 equips.

    Raises ContractViolationError, naming the node, when a row 0 comes
    back infinite: on a transformed tree every eligible child can be
    equipped and what is left, a merged bundle, weighs at most W.
    """
    capacity = star.capacity
    kids, eligible = star.kids, star.eligibles
    for v in nodes:
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
                    if cj != c:  # not just a new equip set
                        c = cj
                        changes.setdefault(j - 1, []).append((pos, cj))
        for pos, val in changes.pop(0, ()):
            current[pos] = val

        last_e, last_c = equip_row(below, current, elig, capacity)
        if last_c == INFINITE:
            raise ContractViolationError(f"phase 1 left row 0 of {star.ids[v]!r} infinite")
        e0_size = len(last_e)
        segs = [(0, last_c, last_e)]
        if bounds is not None:
            for i, b in bounds[v]:
                changes.setdefault(i, []).append((-1, b))
        bound = capacity
        infinite = current.count(INFINITE)  # all eligible and equipped, as row 0 is finite
        for i in sorted(changes):
            for pos, val in changes[i]:
                if pos < 0:
                    bound = val
                else:
                    current[pos] = val
                    if val == INFINITE:  # a change, so the value was finite before
                        infinite += 1
            if stop and infinite > e0_size:
                c = INFINITE
            else:
                e, c = equip_row(below, current, elig, bound, e0_size)
            if stop and c == INFINITE:  # row i - 1 was finite
                segs.append((i, INFINITE, ()))
                break
            if c != last_c or e != last_e:
                segs.append((i, c, e))
                last_e, last_c = e, c
        yield v, segs


def run_phase1(star: StarTree, mode: str = MODE_PER_BUNDLE) -> ContributionTable:
    """Fill every node's contribution rows bottom-up.

    The leaves, then the internal nodes, children before parents, each up
    to its first infinite row; ``_internal_rows`` raises
    ContractViolationError, naming the node, on an infinite row 0.

    In aggregate mode the greedy bound at ``(v, i)`` is the capacity
    capped by the smallest bandwidth on the i-edge path above ``v``,
    which makes the residual respect summed link flows. This is an
    extension without optimality guarantees.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    parents, bws, weights = star.parents, star.bws, star.weights
    qoses, kids = star.qoses, star.kids
    bounds = _path_bounds(star) if mode == MODE_AGGREGATE else None

    segments: list = [None] * len(weights)
    internal: list[int] = []  # children before parents
    shared: dict = {}  # (c, i) -> the one list [(0, c, ()), (i, inf, ())]; (0, 0) -> [(0, 0, ())]
    for v in reversed(star.order):
        weight = weights[v]
        if weight is None:
            internal.append(v)
            continue
        # A leaf's row is its weight up to the first hop past the qos or
        # through a link narrower than the weight, infinite from there on;
        # zero-demand bundles contribute 0 throughout. The old root's
        # zero-bandwidth link ends every walk, so the cut is at most
        # min(depth(v), L + 1).
        segs = [(0, weight, ())]
        if weight:
            reach = qoses[v]
            walker = v
            cut = 1
            while cut <= reach and bws[walker] >= weight:
                walker = parents[walker]
                cut += 1
            segs.append((cut, INFINITE, ()))
        segments[v] = shared.setdefault((weight, segs[-1][0]), segs)

    m_values = [0] * len(weights)
    for v, segs in _internal_rows(star, segments, internal, bounds, stop=True):
        if len(segs) == 2 and segs[1][1] == INFINITE and not segs[0][2]:
            segs = shared.setdefault((segs[0][1], segs[1][0]), segs)
        segments[v] = segs
        m_values[v] = sum([m_values[k] for k in kids[v]]) + len(segs[0][2])
    return ContributionTable(star, segments, m_values, bounds)
