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


def dual_role_brute_force_min(
    nodes_with_demand: dict[str, tuple[int, int]],
    parents: dict[str, str | None],
    bandwidth: dict[str, int],
    capacity: int,
    max_nodes: int = DEFAULT_MAX_INTERNAL,
) -> OracleResult:
    """Minimum replica count when every node may both demand and serve.

    A hand-rolled check rather than the verifier, because here a node
    hosting a replica serves its own demand at zero hops and zero link
    cost. ``nodes_with_demand`` maps id -> (weight, qos); nodes absent
    from it demand nothing. Used to validate the reduction that rewrites
    such networks into client/server form.
    """
    ids = sorted(parents)
    if len(ids) > max_nodes:
        raise GuardExceededError(
            f"{len(ids)} nodes exceeds the exhaustive-search guard of {max_nodes}"
        )

    def feasible(replicas: frozenset[str]) -> bool:
        loads: dict[str, int] = {}
        for nid in ids:
            w, q = nodes_with_demand.get(nid, (0, 0))
            if w == 0:
                continue
            server = None
            cur: str | None = nid
            path_min = float("inf")
            for _hop in range(q + 1):
                if cur in replicas:
                    server = cur
                    break
                up = parents[cur]
                if up is None:
                    break  # ran off the root without finding a server
                path_min = min(path_min, bandwidth[cur])
                cur = up
            if server is None or w > path_min:
                return False
            loads[server] = loads.get(server, 0) + w
        return all(load <= capacity for load in loads.values())

    explored = 0
    for size in range(len(ids) + 1):
        winners: list[tuple[str, ...]] = []
        for combo in itertools.combinations(ids, size):
            explored += 1
            if feasible(frozenset(combo)):
                winners.append(combo)
        if winners:
            return OracleResult(size, winners[0], len(winners), explored)
    return OracleResult(None, None, 0, explored)
