"""Shared helpers: parameter validation, the chunk size and the entropy kernels.

pair_small_weights and small_weight_entropies are the batched entropy
kernels that states re-exports and the tests take as the reference.  No
command calls them: protocol.particle_entanglement_entropy spells both
out for one pair in math.hypot, math.log and math.log1p, and
entropy-rotation spells small_weight_entropies' sum out a row at a time,
so that no command loads numpy.  Every command uses this module, so each
function that needs numpy imports it itself.  What only the scans use
lives in _scans, which the oscillator and the protocol do not compile.
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


def pair_small_weights(amplitudes: np.ndarray) -> np.ndarray:
    """Smaller squared Schmidt coefficient of each row (a, b, c, d) of a (steps, 4) pair stack.

    With r0 = |a|^2 + |b|^2, r1 = |c|^2 + |d|^2, n = r0 + r1 and o = a conj(c) + b conj(d),
    the large weight is (1 + hypot(r0 - r1, 2|o|) / n) / 2 and the small one |ad - bc|^2 / n^2
    over it: right to rounding relative to its size unless ad and bc cancel, which near
    (1, 0, 0, 0) they do not.  Complex products are spelled out in real operations, which
    round alike on every CPU; a real stack's imaginary parts are 0.0, not a zero array.
    numpy is imported here, not with the module.
    """
    import numpy as np

    amps = np.asarray(amplitudes)
    (ar, br, cr, dr), (ai, bi, ci, di) = amps.real.T, amps.imag.T if np.iscomplexobj(amps) else [0.0] * 4
    r0 = ar * ar + ai * ai + (br * br + bi * bi)
    r1 = cr * cr + ci * ci + (dr * dr + di * di)
    o = np.hypot(ar * cr + ai * ci + (br * dr + bi * di), ai * cr - ar * ci + (bi * dr - br * di))
    det = np.hypot(ar * dr - ai * di - (br * cr - bi * ci), ar * di + ai * dr - (br * ci + bi * cr))
    return (det / (r0 + r1)) ** 2 / ((1.0 + np.hypot(r0 - r1, 2.0 * o) / (r0 + r1)) / 2.0)


def small_weight_entropies(weights: np.ndarray) -> np.ndarray:
    """Entropies in bits of (steps, k) spectra, each row all weights but the large one, 1 - W.

    S = [(1 - W)(-log1p(-W)) + sum(w (-ln w))] / ln 2, the small terms summed
    first: right to rounding relative to its size, also near 0.  A weight of
    exactly 0 adds 0.  numpy is imported here, not with the module.
    """
    import numpy as np

    w = np.asarray(weights, dtype=float)
    total = np.sum(w, axis=-1)
    large = 1.0 - total
    small = np.sum(w * -np.log(w, out=np.zeros_like(w), where=w > 0.0), axis=-1)
    return (small + large * -np.log1p(-total, out=np.zeros_like(total), where=large > 0.0)) / _LN2
