"""Top-down replica placement from the contribution tables.

Starting at the artificial root with hop index 0, each visit of
``(v, i)`` equips the equip set ``e(v, i)``, then recurses into the
children: equipped children restart at index 0, the rest carry ``i + 1``
(their nearest equipped ancestor is one hop further away). Only children
with a replica strictly below them (``m > 0`` in the tables) are entered;
the others have nothing left to place. Traversal is an explicit stack
over star indices so degenerate path trees of depth 1e5 are fine. The
walk reads ``table.star``, the change-point segments and ``table.m`` and
records no visits; ``PlacementResult.trace`` re-runs it over every node
on first read.
It never reads an infinite row, so phase 1 need not keep them: it starts
at the root's finite row 0, and a finite row ``(v, i)`` leaves each child
it does not equip a finite value, hence a finite row, at ``i + 1``.
"""

from __future__ import annotations

from functools import cached_property

from .contribution import ContributionTable
from .errors import ContractViolationError
from .transform import StarTree


class PlacementResult:
    """The placed star indices, ascending, and the tables that found them."""

    def __init__(self, placed: list[int], table: ContributionTable):
        self.placed = placed
        self.table = table
        self.replicas = tuple([table.star.ids[r] for r in placed])  # original internal node ids

    @property
    def star(self) -> StarTree:
        return self.table.star

    @property
    def cardinality(self) -> int:
        return len(self.placed)

    @cached_property
    def trace(self) -> tuple[tuple[str, int, tuple[str, ...]], ...]:
        """``(node, index, placed)`` per visit, by id; re-walked on first read."""
        visits: list = []
        _walk(self.table, visits)
        ids = self.star.ids
        return tuple((ids[v], i, tuple(ids[c] for c in e)) for v, i, e in visits)


def _walk(table: ContributionTable, visits: list | None = None) -> list[int]:
    """The star indices the tables equip, in visit order. Without ``visits``
    only the subtrees that hold a replica are entered; with it every node
    is, and each visit appends ``(star index, hop index, equipped child
    indices)``."""
    kids = table.star.kids
    eligibles = table.star.eligibles
    segments = table.segments
    enter = table.m if visits is None else [1] * len(kids)
    placed: list[int] = []
    root = table.star.root
    stack: list[tuple[int, int]] = [(root, 0)] if enter[root] else []
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
        stack += [(c, 0 if c in e_set else idx + 1) for c in reversed(kids[v]) if enter[c]]
    return placed


def place_replicas(table: ContributionTable) -> PlacementResult:
    """Walk the tree and collect the replica set recorded in the tables.

    The walk visits in deterministic preorder (children in ascending id
    order), including ineligible leaves; ``PlacementResult.trace`` lists
    those visits. The resulting cardinality must equal the table's
    minimum count; any mismatch is a solver bug.
    """
    eligibles = table.star.eligibles
    placed = _walk(table)
    for r in placed:
        if not eligibles[r]:
            raise ContractViolationError(f"replica placed on ineligible leaf {table.star.ids[r]!r}")
    if len(placed) != table.min_replica_count:
        raise ContractViolationError(
            f"placed {len(placed)} replicas, tables promised {table.min_replica_count}"
        )
    placed.sort()  # index order is id order; a star id is the original node's id
    return PlacementResult(placed, table)


def root_workload_check(result: PlacementResult) -> None:
    """Defense-in-depth: re-derive the workload that stops at the old root.

    Every demanding bundle flows to its nearest equipped ancestor (or
    itself). If the old root is equipped its own load must fit the
    capacity; if not, nothing may be left over at the root, because no
    demand can cross the zero-bandwidth artificial link. Only a solver
    defect trips this: ContractViolationError names the old root and the
    load left there. Either way that load is the demand of the leaves
    that reach the old root without passing an equipped eligible node, so
    one walk down from the old root sums them and stops at each such node
    (a replica listed on a merged bundle equips nothing).
    """
    star = result.star
    equipped = set(result.placed)
    kids = star.kids
    weights = star.weights
    eligibles = star.eligibles
    (old_root,) = kids[star.root]

    load = 0
    stack = [old_root]
    while stack:
        v = stack.pop()
        weight = weights[v]
        if weight is None:  # an internal node
            stack += [c for c in kids[v] if not (c in equipped and eligibles[c])]
        else:
            load += weight
    limit = star.capacity if old_root in equipped else 0
    if load > limit:
        raise ContractViolationError(f"old root {star.ids[old_root]!r} is left with load {load}, over {limit}")
