"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SolverError(Exception):
    """Base class for every error this package raises deliberately."""


class MalformedDocumentError(SolverError):
    """A document is not valid JSON or does not match the schema."""


class StructureError(SolverError):
    """The node/link structure does not form a valid rooted tree."""


class RoleError(SolverError):
    """A node carries fields inconsistent with its declared kind."""


class InfeasibleError(SolverError):
    """No replica set can satisfy the constraints.

    Infeasibility is a domain outcome, not a defect: the CLI maps it to
    exit status 2. Only the transform's screen raises it. ``reason`` is
    a short stable string, ``details`` an optional tuple of finding records.
    """

    def __init__(self, reason: str, details: tuple = ()):
        super().__init__(reason)
        self.reason = reason
        self.details = tuple(details)


class GuardExceededError(SolverError):
    """An exhaustive search was asked to exceed its size guard."""


class ConfigError(SolverError):
    """A generator configuration cannot produce a valid instance."""


class ContractViolationError(SolverError):
    """An internal invariant was broken; always a bug (the CLI exits 1)."""
