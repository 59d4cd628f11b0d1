"""The two rules that every numeric setting is checked by.

A count is a Python or numpy integer, a real any Python or numpy real
number; a bool, a string, None or an array is neither.  Each helper returns
the setting as a Python ``int`` or ``float``, so a config that stores what
they return computes in plain Python arithmetic, whatever type its settings
came in as.
"""

import math
import numbers


def _count(name: str, value, at_least: int | None = None, error=ValueError) -> int:
    """``value`` as an int, or ``error`` naming ``name`` unless it is an
    integer, not a bool, of at least ``at_least`` (unbounded if None)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if at_least is not None and value < at_least:
        raise error(f"{name} must be >= {at_least}, got {value}")
    return value


def _real(name: str, value, positive: bool = False, error=ValueError) -> float:
    """``value`` as a float, or ``error`` naming ``name`` unless it is a
    finite real number, not a bool, and above 0 if ``positive``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0):
        raise error(f"{name} must be finite{' and > 0' if positive else ''}, got {value!r}")
    return value
