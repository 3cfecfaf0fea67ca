"""Exception types shared across the package.

The CLI maps these onto its exit-code taxonomy, and the flow driver
catches CodimensionOneError to bracket Reidemeister events.
"""

from __future__ import annotations


class FlatknotError(Exception):
    pass


class DegeneratePolylineError(FlatknotError, ValueError):
    pass


class ModulusRangeError(FlatknotError, ValueError):
    """Elliptic modulus outside [0, 1)."""


class ParityObstructionError(FlatknotError, ValueError):
    """Odd winding count: the sin closure integral cannot vanish."""


class CodimensionOneError(FlatknotError, RuntimeError):
    """Triple point or tangential double point detected.

    Carries the offending location so callers can bracket the event.
    """

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


class CycleExplosionError(FlatknotError, RuntimeError):
    """Cycle enumeration exceeded the configured hard limit."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


class SingularDiagramError(FlatknotError, ValueError):
    """A zero-area alternated cycle makes the resistance energy infinite."""


class StalledError(FlatknotError, RuntimeError):
    """Line search underflowed without an acceptable descent step, or an
    angle lift whose closure integrals exceed 1e-6 could not be closed.

    A stalled line search lists in `rejected` why each candidate failed.
    """

    def __init__(self, message: str, rejected: tuple[str, ...] = ()):
        super().__init__(message)
        self.rejected = rejected
