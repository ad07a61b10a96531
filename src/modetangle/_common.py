"""Shared helpers: parameter validation and the chunk size.

Every command uses this module.  What only the scans use lives in
_scans, which the oscillator and the protocol do not compile.
"""

from __future__ import annotations

import math
import operator


# scan CSV rows, and campaign trials, per sampling or rendering step
CHUNK = 4096

_LN2 = math.log(2.0)


class PhysicsPreconditionError(RuntimeError):
    """A configured physical validity check failed; refusing to run."""


def require_finite(name: str, value: float, reach: float = 1.0) -> float:
    """value as a float, refused unless it and reach * value, the largest angle of it, are finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if not math.isfinite(reach * value):
        raise ValueError(f"{name} times {reach:g} must be finite, got {value}")
    return value


def require_integer(name: str, value) -> int:
    """value as an int; a value that is no integer, such as 64.7, is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
