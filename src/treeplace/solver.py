"""End-to-end pipeline: normalize, fill tables, place, sanity-check."""

from __future__ import annotations

from typing import Any, Callable

from .contribution import run_phase1
from .instance import MODE_PER_BUNDLE, NetworkInstance
from .placement import PlacementResult, place_replicas, root_workload_check
from .transform import transform_to_star

# A stage observer: ``lap(stage, result)`` as each stage ends, returning the
# result for the pipeline to use. The default records nothing.
Lap = Callable[[str, Any], Any]


def no_lap(stage: str, value: Any) -> Any:
    return value


def solve_instance(inst: NetworkInstance, mode: str = MODE_PER_BUNDLE, lap: Lap = no_lap) -> PlacementResult:
    """Compute a minimum replica set for a validated instance: the
    ``PlacementResult``, which also holds the tables and, in them, the star tree.
    ``lap`` sees the end of each stage: transform, phase1, place and
    root_check.

    Raises InfeasibleError (a domain outcome, not a defect), only from
    the transform's screen, when no replica set can satisfy the
    constraints; a broken invariant after it is a ContractViolationError.
    The independent feasibility verifier is intentionally not called
    here; callers wire it as a separate check so the two stay decoupled.
    """
    star = lap("transform", transform_to_star(inst))
    placement = lap("place", place_replicas(lap("phase1", run_phase1(star, mode=mode))))
    lap("root_check", root_workload_check(placement))
    return placement
