"""End-to-end pipeline: normalize, fill tables, place, sanity-check."""

from __future__ import annotations

from dataclasses import dataclass

from .contribution import ContributionTable, run_phase1
from .instance import MODE_PER_BUNDLE, NetworkInstance
from .placement import PlacementResult, place_replicas, root_workload_check
from .transform import StarTree, transform_to_star


@dataclass(frozen=True)
class SolveOutput:
    star: StarTree
    table: ContributionTable
    placement: PlacementResult

    @property
    def replicas(self) -> tuple[str, ...]:
        return self.placement.replicas_original

    @property
    def cardinality(self) -> int:
        return self.placement.cardinality


def solve_instance(inst: NetworkInstance, mode: str = MODE_PER_BUNDLE) -> SolveOutput:
    """Compute a minimum replica set for a validated instance.

    Raises InfeasibleError (a domain outcome, not a defect) when no
    replica set can satisfy the constraints. The independent feasibility
    verifier is intentionally not called here; callers wire it as a
    separate check so the two implementations stay decoupled.
    """
    star = transform_to_star(inst)
    table = run_phase1(star, mode=mode)
    placement = place_replicas(star, table)
    root_workload_check(star, placement)
    return SolveOutput(star=star, table=table, placement=placement)
