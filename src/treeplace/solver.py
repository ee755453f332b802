"""End-to-end pipeline: normalize, fill tables, place, sanity-check."""

from __future__ import annotations

from .contribution import run_phase1
from .instance import MODE_PER_BUNDLE, NetworkInstance
from .placement import PlacementResult, place_replicas, root_workload_check
from .transform import transform_to_star


def solve_instance(inst: NetworkInstance, mode: str = MODE_PER_BUNDLE) -> PlacementResult:
    """Compute a minimum replica set for a validated instance: the
    ``PlacementResult``, which also holds the star tree and the tables.

    Raises InfeasibleError (a domain outcome, not a defect), only from
    the transform's screen, when no replica set can satisfy the
    constraints; a broken invariant after it is a ContractViolationError.
    The independent feasibility verifier is intentionally not called
    here; callers wire it as a separate check so the two stay decoupled.
    """
    star = transform_to_star(inst)
    placement = place_replicas(star, run_phase1(star, mode=mode))
    root_workload_check(star, placement)
    return placement
