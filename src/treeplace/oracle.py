"""Exhaustive search for the true minimum replica count.

Deliberately naive: enumerate internal-node subsets by increasing
cardinality and accept the first size with a feasible set, judging
feasibility only through the verifier. Exponential, guarded, and used
solely as ground truth for the solver in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceededError
from .instance import MODE_PER_BUNDLE, NetworkInstance
from .verifier import verify_placement

DEFAULT_MAX_INTERNAL = 20


@dataclass(frozen=True)
class OracleResult:
    minimum: int | None  # None when even the full set is infeasible
    witness: tuple[str, ...] | None
    optima: int  # feasible sets at the minimum size (0 when infeasible)
    explored: int  # subsets tested

    @property
    def feasible(self) -> bool:
        return self.minimum is not None


def brute_force_min(
    inst: NetworkInstance,
    mode: str = MODE_PER_BUNDLE,
    max_internal: int = DEFAULT_MAX_INTERNAL,
) -> OracleResult:
    candidates = sorted(inst.internal_ids)
    if len(candidates) > max_internal:
        raise GuardExceededError(
            f"{len(candidates)} internal nodes exceeds the exhaustive-search "
            f"guard of {max_internal}"
        )
    explored = 0
    for size in range(len(candidates) + 1):
        winners: list[tuple[str, ...]] = []
        for combo in itertools.combinations(candidates, size):
            explored += 1
            if verify_placement(inst, set(combo), mode=mode).feasible:
                winners.append(combo)
        if winners:
            return OracleResult(size, winners[0], len(winners), explored)
    return OracleResult(None, None, 0, explored)

