"""Top-down replica placement from the contribution tables.

Starting at the artificial root with hop index 0, each visit of
``(v, i)`` equips the equip set ``e(v, i)``, then recurses into every
child: equipped children restart at index 0, the rest carry ``i + 1``
(their nearest equipped ancestor is one hop further away). Traversal is
an explicit stack over star indices so degenerate path trees of depth
1e5 are fine.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .contribution import ContributionTable
from .errors import ContractViolationError, InfeasibleError
from .transform import StarTree

REASON_ROOT_OVERLOAD = "workload at the root exceeds capacity"


@dataclass(frozen=True)
class PlacementResult:
    """The replica set and the traversal that found it.

    Equality covers the traversal (``visits`` and the ``ids`` they index),
    so two results with different traces differ; the hash leaves those
    lists out.
    """

    replicas_original: tuple[str, ...]  # original internal node ids, ascending
    cardinality: int
    # (star index, hop index, equipped child indices) per visit, in visit order
    visits: list = field(repr=False, hash=False)
    ids: list[str] = field(repr=False, hash=False)  # star index -> id

    @cached_property
    def trace(self) -> tuple[tuple[str, int, tuple[str, ...]], ...]:
        """``(node, index, placed)`` per visit, by id; built on first read."""
        ids = self.ids
        return tuple((ids[v], i, tuple(ids[c] for c in e)) for v, i, e in self.visits)


def place_replicas(star: StarTree, table: ContributionTable) -> PlacementResult:
    """Walk the tree and collect the replica set recorded in the tables.

    The trace logs every call in deterministic preorder (children in
    ascending id order), including calls on ineligible leaves. The
    resulting cardinality must equal the table's minimum count; any
    mismatch is a solver bug.
    """
    kids = star.kids
    eligibles = star.eligibles
    row_at = table.row_at
    placed: list[int] = []
    visits: list[tuple[int, int, tuple]] = []

    stack: list[tuple[int, int]] = [(star.root, 0)]
    while stack:
        v, idx = stack.pop()
        if not eligibles[v]:  # a merged client bundle
            visits.append((v, idx, ()))
            continue
        e_set = row_at(v, idx)[2]
        visits.append((v, idx, e_set))
        placed.extend(e_set)
        stack.extend((c, 0 if c in e_set else idx + 1) for c in reversed(kids[v]))

    for r in placed:
        if not eligibles[r]:
            raise ContractViolationError(f"replica placed on ineligible leaf {star.ids[r]!r}")
    if len(placed) != table.min_replica_count:
        raise ContractViolationError(
            f"placed {len(placed)} replicas, tables promised {table.min_replica_count}"
        )
    placed.sort()  # index order is id order; a star id is the original node's id
    return PlacementResult(
        replicas_original=tuple(star.ids[r] for r in placed),
        cardinality=len(placed),
        visits=visits,
        ids=star.ids,
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
    equipped = {bisect_left(ids, r, 0, star.root) for r in result.replicas_original}  # id order
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
