"""What the three scans share: their settings grid and the CHSH curve.

Only the scan commands run this module, so the oscillator and the
protocol, which share _common, compile none of it.  It loads no numpy.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from ._common import CHUNK, require_finite, require_integer

# the largest multiple of a setting that a scan or chsh_sum takes as an
# angle: 2t in chsh and interferometer, 2phi in entropy-rotation
ANGLE_REACH = 2.0
# the most steps a scan takes; a scan streams to disk, so a mistyped --steps would fill it
MAX_STEPS = 2**32


class Grid(NamedTuple):
    """A scan's settings, np.linspace(lo, hi, steps) bit for bit, built a slice at a time.

    Point i is i * step + lo with step = (hi - lo) / (steps - 1), and the
    last point is hi; points gives them as floats, without numpy.  Where
    step underflows to 0, np.linspace takes another branch, but there
    [lo, hi] holds fewer floats than steps, so both repeat a point and
    scan_grid refuses.
    """

    lo: float
    hi: float
    steps: int

    def points(self, start: int, stop: int) -> list[float]:
        """Points start to stop - 1 as floats; a stop past the grid ends at its last point."""
        lo, stop = self.lo, min(stop, self.steps)
        step = (self.hi - lo) / (self.steps - 1)
        points = [i * step + lo for i in range(start, stop)]
        if stop == self.steps:
            points[-1] = self.hi
        return points


def scan_grid(lo: float, hi: float, steps: int) -> Grid:
    """The settings of a scan: steps uniform points from range_min lo to range_max hi.

    Needs hi > lo, a width hi - lo that does not overflow, two to
    MAX_STEPS steps, distinct points, and finite ANGLE_REACH * lo and
    ANGLE_REACH * hi, the scan's largest angles.  Each point rounds at
    most 2 ulps of max(|lo|, |hi|) from its exact value, so neighbours a
    step above 4 such ulps apart are distinct; only a narrower step makes
    this pass over the points, a slice at a time.
    """
    lo = require_finite("range_min", lo, ANGLE_REACH)
    hi = require_finite("range_max", hi, ANGLE_REACH)
    steps = require_integer("steps", steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be at most 2**32 = {MAX_STEPS}, got {steps}")
    if hi <= lo:
        raise ValueError("range_max must exceed range_min")
    step = (hi - lo) / (steps - 1)
    # the last product (steps - 1) * step can overflow where hi - lo does not
    if not math.isfinite((steps - 1) * step):
        raise ValueError(f"range_max - range_min overflows, from range_min={lo} to range_max={hi}")
    grid = Grid(lo, hi, steps)
    if not step > 4.0 * math.ulp(max(-lo, hi)):
        # a range only a few ulps wide rounds neighbouring points together
        for start in range(0, steps - 1, CHUNK):
            points = grid.points(start, start + CHUNK + 1)
            if any(map(operator.le, points[1:], points)):
                raise ValueError("scan parameter must be strictly increasing")
    return grid


def chsh_curve(t) -> list[float]:
    """CHSH sum 3cos(2t) - cos(6t) of the stations (0, t, 2t, 3t) at each float of t, a sequence.

    With c = cos(2t), cos(6t) = 4c^3 - 3c, so S = 2c(3 - 2c^2).  2t is
    exact, 3 - 2c^2 >= 1 cannot cancel, and the zeros of S are those of
    c, so S is right to rounding relative to its size, also near its
    zeros.  One comprehension over math.cos, so a scan makes no Python
    call per setting and loads no numpy; math.cos gave np.cos's bits on
    6e6 settings (glibc 2.36, numpy 2.4.6).
    """
    return [2.0 * c * (3.0 - 2.0 * c * c) for c in map(math.cos, [2.0 * x for x in t])]
