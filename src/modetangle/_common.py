"""Small shared helpers for parameter validation and scan grids."""

from __future__ import annotations

import math

import numpy as np


class PhysicsPreconditionError(RuntimeError):
    """A configured physical validity check failed; refusing to run."""


def require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def scan_grid(name: str, lo: float, hi: float, steps: int) -> np.ndarray:
    """Uniform grid for a scan; needs hi > lo and at least two steps."""
    lo = require_finite(f"{name}_min", lo)
    hi = require_finite(f"{name}_max", hi)
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if hi <= lo:
        raise ValueError(f"{name}_max must exceed {name}_min")
    return np.linspace(lo, hi, steps)
