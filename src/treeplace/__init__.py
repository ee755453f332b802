"""Minimum-cardinality replica placement on tree networks.

Servers sit at internal tree nodes, clients at the leaves; each client
must be served by the nearest replica on its path to the root, within a
per-client hop limit, without overloading any server's shared capacity
or any link's bandwidth. `solve_instance` finds a smallest feasible
replica set via a two-phase table computation; `verify_placement` checks
any replica set independently; `brute_force_min` is the exhaustive
ground truth for small instances.
"""

from importlib import import_module

from .contribution import ContributionTable, run_phase1
from .errors import (
    ConfigError,
    ContractViolationError,
    GuardExceededError,
    InfeasibleError,
    MalformedDocumentError,
    RoleError,
    SolverError,
    StructureError,
)
from .instance import (
    MODE_AGGREGATE,
    MODE_PER_BUNDLE,
    NetworkInstance,
    NodeSpec,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .placement import PlacementResult, place_replicas
from .solver import solve_instance
from .transform import StarTree, transform_to_star
from .verifier import FeasibilityReport, verify_placement

__version__ = "0.1.0"

# Loaded on first access (PEP 562), so that a solve loads neither the
# generator nor the oracle.
_LAZY = {"GenConfig": "generator", "fictivize": "generator", "generate": "generator",
         "generate_dual_role": "generator", "OracleResult": "oracle", "brute_force_min": "oracle"}

__all__ = [
    "ConfigError",
    "ContractViolationError",
    "ContributionTable",
    "FeasibilityReport",
    "GenConfig",
    "GuardExceededError",
    "InfeasibleError",
    "MODE_AGGREGATE",
    "MODE_PER_BUNDLE",
    "MalformedDocumentError",
    "NetworkInstance",
    "NodeSpec",
    "OracleResult",
    "PlacementResult",
    "RoleError",
    "SolverError",
    "StarTree",
    "StructureError",
    "brute_force_min",
    "fictivize",
    "generate",
    "generate_dual_role",
    "parse_instance",
    "place_replicas",
    "run_phase1",
    "serialize_instance",
    "solve_instance",
    "transform_to_star",
    "validate_instance",
    "verify_placement",
    "__version__",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
