"""Exception taxonomy shared across the package.

Validation failures (bad arguments, malformed graphs, impossible requests)
map to CLI exit code 1; numerical non-convergence maps to exit code 2.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolve failed to reach the requested residual."""
