"""The package's exception taxonomy, and _shown for ints in its messages.

Validation failures (bad arguments, malformed graphs, impossible requests)
map to CLI exit code 1; numerical non-convergence maps to exit code 2.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolve failed to reach the requested residual."""


def _shown(v) -> str:
    """str(v), but an int past 2048 bits (617 digits, under any int-to-str
    digit limit the interpreter takes, 640 or more) by its bit length."""
    if not isinstance(v, int) or v.bit_length() <= 2048:
        return str(v)
    return f"<{v.bit_length()}-bit {'negative ' * (v < 0)}integer>"
