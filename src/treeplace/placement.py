"""Top-down replica placement from the contribution tables.

Starting at the artificial root with hop index 0, each visit of
``(v, i)`` equips the equip set ``e(v, i)``, then recurses into every
child: equipped children restart at index 0, the rest carry ``i + 1``
(their nearest equipped ancestor is one hop further away). Traversal is
an explicit stack over star indices so degenerate path trees of depth
1e5 are fine. The walk reads the tables' change-point segments directly
and records no visits; ``PlacementResult.trace`` re-runs it on first read.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import islice

from .contribution import ContributionTable
from .errors import ContractViolationError, InfeasibleError
from .transform import StarTree

REASON_ROOT_OVERLOAD = "workload at the root exceeds capacity"


class PlacementResult:
    """The replica set, and the star tree and tables that found it."""

    def __init__(self, replicas: tuple[str, ...], cardinality: int, star: StarTree, table: ContributionTable):
        self.replicas = replicas  # original internal node ids, ascending
        self.cardinality = cardinality
        self.star = star
        self.table = table

    @cached_property
    def trace(self) -> tuple[tuple[str, int, tuple[str, ...]], ...]:
        """``(node, index, placed)`` per visit, by id; re-walked on first read."""
        visits: list = []
        _walk(self.star, self.table, visits)
        ids = self.star.ids
        return tuple((ids[v], i, tuple(ids[c] for c in e)) for v, i, e in visits)


def _walk(star: StarTree, table: ContributionTable, visits: list | None = None) -> list[int]:
    """The star indices the tables equip, in visit order; appends ``(star
    index, hop index, equipped child indices)`` per visit to ``visits``."""
    kids = star.kids
    eligibles = star.eligibles
    segments = table.segments
    placed: list[int] = []
    stack: list[tuple[int, int]] = [(star.root, 0)]
    pop = stack.pop
    while stack:
        v, idx = pop()
        if not eligibles[v]:  # a merged client bundle
            if visits is not None:
                visits.append((v, idx, ()))
            continue
        for start, _c, e_set in reversed(segments[v]):  # the row at idx
            if start <= idx:
                break
        if visits is not None:
            visits.append((v, idx, e_set))
        placed += e_set
        stack += [(c, 0 if c in e_set else idx + 1) for c in reversed(kids[v])]
    return placed


def place_replicas(star: StarTree, table: ContributionTable) -> PlacementResult:
    """Walk the tree and collect the replica set recorded in the tables.

    The walk visits in deterministic preorder (children in ascending id
    order), including ineligible leaves; ``PlacementResult.trace`` lists
    those visits. The resulting cardinality must equal the table's
    minimum count; any mismatch is a solver bug.
    """
    eligibles = star.eligibles
    placed = _walk(star, table)
    for r in placed:
        if not eligibles[r]:
            raise ContractViolationError(f"replica placed on ineligible leaf {star.ids[r]!r}")
    if len(placed) != table.min_replica_count:
        raise ContractViolationError(
            f"placed {len(placed)} replicas, tables promised {table.min_replica_count}"
        )
    placed.sort()  # index order is id order; a star id is the original node's id
    ids = star.ids
    return PlacementResult(
        replicas=tuple([ids[r] for r in placed]),
        cardinality=len(placed),
        star=star,
        table=table,
    )


def root_workload_check(star: StarTree, result: PlacementResult) -> None:
    """Defense-in-depth: re-derive the workload that stops at the old root.

    Every demanding bundle flows to its nearest equipped ancestor (or
    itself). If the old root is equipped its own load must fit the
    capacity; if not, nothing may be left over at the root, because no
    demand can cross the zero-bandwidth artificial link. A correct
    Phase 1 can never trip this; raising loudly beats returning a bogus
    placement. One preorder pass carries each node's nearest equipped
    ancestor-or-self (-1: none below the artificial root).
    """
    ids = star.ids
    equipped = {bisect_left(ids, r, 0, star.root) for r in result.replicas}  # id order
    parents = star.parents
    weights = star.weights
    eligibles = star.eligibles
    (old_root,) = star.kids[star.root]

    server = [-1] * len(parents)
    root_load = 0
    unabsorbed = 0
    for v in islice(star.preorder, 1, None):
        s = v if v in equipped and eligibles[v] else server[parents[v]]
        server[v] = s
        weight = weights[v]
        if weight:  # a demanding leaf
            if s == old_root:
                root_load += weight
            elif s < 0:
                unabsorbed += weight

    old_root_id = ids[old_root]
    if old_root in equipped:
        if root_load > star.capacity:
            raise InfeasibleError(REASON_ROOT_OVERLOAD, ((old_root_id, root_load),))
    elif unabsorbed:
        raise InfeasibleError(REASON_ROOT_OVERLOAD, ((old_root_id, unabsorbed),))
