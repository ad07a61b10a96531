"""Shared helpers: parameter validation, scan grids and the CHSH curve."""

from __future__ import annotations

import math
import operator


# the largest multiple of a setting that a scan or chsh_sum takes as an
# angle: 2t in chsh and interferometer, 2phi in entropy-rotation
ANGLE_REACH = 2.0

# scan CSV rows, and campaign trials, per sampling or rendering step
CHUNK = 4096


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


def scan_grid(lo: float, hi: float, steps: int):
    """The settings of a scan: steps uniform points from range_min lo to range_max hi.

    Needs hi > lo, a width hi - lo that does not overflow, at least two
    steps, distinct points, and finite ANGLE_REACH * lo and
    ANGLE_REACH * hi, the scan's largest angles.  numpy is imported here,
    not with the module, since the oscillator uses this module and runs
    without numpy.
    """
    import numpy as np

    lo = require_finite("range_min", lo, ANGLE_REACH)
    hi = require_finite("range_max", hi, ANGLE_REACH)
    steps = require_integer("steps", steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if hi <= lo:
        raise ValueError("range_max must exceed range_min")
    # np.linspace's last product (steps - 1) * step can overflow where hi - lo does not
    if not math.isfinite((steps - 1) * ((hi - lo) / (steps - 1))):
        raise ValueError(f"range_max - range_min overflows, from range_min={lo} to range_max={hi}")
    grid = np.linspace(lo, hi, steps)
    # a range only a few ulps wide rounds neighbouring points together
    if np.any(grid[1:] <= grid[:-1]):
        raise ValueError("scan parameter must be strictly increasing")
    return grid


def chsh_curve(t):
    """CHSH sum 3cos(2t) - cos(6t) of the stations (0, t, 2t, 3t), as floats or arrays like t.

    With c = cos(2t), cos(6t) = 4c^3 - 3c, so S = 2c(3 - 2c^2).  2t is
    exact, 3 - 2c^2 >= 1 cannot cancel, and the zeros of S are those of
    c, so S is right to rounding relative to its size, also near its
    zeros.  numpy is imported here, as in scan_grid.
    """
    import numpy as np

    c = np.cos(2.0 * t)
    return 2.0 * c * (3.0 - 2.0 * c * c)
