"""Shared helpers: parameter validation, scan grids and the CHSH combination."""

from __future__ import annotations

import math
import operator
from typing import Callable


class PhysicsPreconditionError(RuntimeError):
    """A configured physical validity check failed; refusing to run."""


def require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def require_integer(name: str, value) -> int:
    """value as an int; a value that is no integer, such as 64.7, is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def scan_grid(lo: float, hi: float, steps: int):
    """The settings of a scan: steps uniform points from range_min lo to range_max hi.

    Needs hi > lo, at least two steps and distinct points.  numpy is
    imported here, not with the module, since the oscillator uses this
    module and runs without numpy.
    """
    import numpy as np

    lo = require_finite("range_min", lo)
    hi = require_finite("range_max", hi)
    steps = require_integer("steps", steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if hi <= lo:
        raise ValueError("range_max must exceed range_min")
    grid = np.linspace(lo, hi, steps)
    # a range only a few ulps wide rounds neighbouring points together
    if np.any(grid[1:] <= grid[:-1]):
        raise ValueError("scan parameter must be strictly increasing")
    return grid


def chsh_stations(t):
    """Station settings (a, b, a', b') = (0, t, 2t, 3t), as floats or arrays like t.

    t is finite, so t - t is +0.0 in the type and shape of t.
    """
    return (t - t, t, 2.0 * t, 3.0 * t)


def chsh_sums(correlate: Callable, a, b, a2, b2):
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') for the correlation function E."""
    return correlate(a, b) - correlate(a, b2) + correlate(a2, b) + correlate(a2, b2)
