"""Two-photon polarization Bell statistics and mode-rotation entropy.

Single-photon basis order is (H, V) -> indices (0, 1); the joint basis is
HH, HV, VH, VV.  A polarization analyzer at angle theta transmits

    |+> =  cos(theta)|H> + sin(theta)|V>
    |-> = -sin(theta)|H> + cos(theta)|V>

and in the rotated frame index 0 means the + port, index 1 the - port.
For the polarization-entangled pair (|HH> + |VV>)/sqrt(2) analyzed at
(theta_a, theta_b) the joint statistics depend only on theta_a - theta_b:

    P(+) = P(-) = 1/2 on each side
    P(++) = P(--) = cos^2(theta_a - theta_b)/2
    P(+-) = P(-+) = sin^2(theta_a - theta_b)/2
    E = cos(2(theta_a - theta_b))

The four-station CHSH arrangement spaces the analyzer angles in an
arithmetic sequence (a, b, a', b') = (0, t, 2t, 3t), which gives
S(t) = E(a,b) - E(a,b') + E(a',b) + E(a',b') = 3cos(2t) - cos(6t), with
|S| peaking at 2*sqrt(2) near t = pi/8.  The scans take S from its closed
form, _scans.chsh_curve, not from the four correlations.  Local
analyzers leave the pair maximally entangled, so the pair entropy is 1
bit at every setting, and chsh_scan prints it as the constant 1.0; the
analyzed pairs and the Schmidt kernel that confirm it are the tests'
oracle (tests/kernel_views.py).

The mode-rotation scan applies the two-mode rotation

    a+ -> cos(phi) a+ + sin(phi) b+,   b+ -> -sin(phi) a+ + cos(phi) b+

to the two-photon state |1,1>, producing
cos(2phi)|1,1> + (sin(2phi)/sqrt(2))(|0,2> - |2,0>), whose mode-bipartition
entropy swings between 0 and log2(3) limits with plateaus at 1 and 1.5 bits.
Its reduced spectrum is (1 - 2s, s, s) with s = sin^2(2phi) / 2, whose
small weights (s, s) give the von Neumann entropy, and the Renyi-2
entropy is closed form.

Each scan is a kernel of its settings, a 1-D sequence of floats that the
CLI builds a slice at a time with _scans.scan_grid, and returns a dict
of columns in CSV header order: the settings as given, the rest lists of
floats, or one float for a column that holds it on every row.  Both
kernels run in plain Python, on math's sin, cos, log and log1p, and load
no numpy, so their bytes rest on glibc's libm and not on the SIMD loops
numpy picks for the CPU.  One setting is the length-1 case: chsh_sum
takes chsh_scan's S path.
"""

from __future__ import annotations

from math import log, log1p, sin

from ._common import _LN2, require_finite
from ._scans import ANGLE_REACH, chsh_curve

__all__ = [
    "chsh_sum",
    "chsh_scan",
    "mode_rotation_entropy_scan",
]


def chsh_sum(separation: float) -> float:
    """CHSH sum of the stations (0, t, 2t, 3t) at separation t; closed form 3cos(2t) - cos(6t).

    chsh_scan's S at the one setting t; a t whose angle 2t overflows is refused.
    """
    return chsh_curve([require_finite("separation", separation, ANGLE_REACH)])[0]


def chsh_scan(theta) -> dict:
    """Scan the CHSH sum and pair entropy over theta, a 1-D sequence of separation angles.

    Columns: theta, S, entropy.  The entropy column is the one-photon
    entropy of the analyzed pair, 1 bit at every angle: the one float 1.0.
    """
    return {"theta": theta, "S": chsh_curve(theta), "entropy": 1.0}


def mode_rotation_entropy_scan(phi) -> dict:
    """Mode-bipartition entropy of the rotated |1,1> state over phi, a 1-D sequence of floats.

    Columns: phi, entropy_vn, entropy_renyi2.  Both entropies share zeros
    and maxima; the von Neumann column hits 1.0 at phi = pi/4 and peaks
    at 1.5 bits at phi = pi/8.  Each is right to rounding relative to its
    own size, also near its zeros.  The von Neumann column is the tests'
    small_weight_entropies (tests/kernel_views.py) of the rows (s, s),
    spelled out a row at a time, with one logarithm of s a row in place
    of two: s(-ln s) + s(-ln s) is x + x, and x + x keeps the sum's
    signed zeros.
    It gives that kernel's bits wherever numpy's sin, log and log1p round
    as glibc's do, as numpy's baseline loops did on every row tested.  One
    comprehension a column over math.sin, so a scan makes no Python call
    per setting and loads no numpy.
    """
    two_s = [v * v for v in map(sin, [2.0 * x for x in phi])]
    # s = two_s / 2; a weight of exactly 0 adds s * -0.0, as small_weight_entropies' masked log does
    entropy_vn = [
        ((x := (s := t / 2.0) * -(log(s) if s > 0.0 else 0.0)) + x
         + (large := 1.0 - (total := s + s)) * -(log1p(-total) if large > 0.0 else 0.0)) / _LN2
        for t in two_s
    ]
    # sum p^2 = (1 - 2s)^2 + 2s^2 = 1 - 2s(2 - 3s)
    renyi2 = [-log1p(-t * (2.0 - 1.5 * t)) / _LN2 for t in two_s]
    return {"phi": phi, "entropy_vn": entropy_vn, "entropy_renyi2": renyi2}
