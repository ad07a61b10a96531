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
form, _common.chsh_curve, not from the four correlations.

The mode-rotation scan applies the two-mode rotation

    a+ -> cos(phi) a+ + sin(phi) b+,   b+ -> -sin(phi) a+ + cos(phi) b+

to the two-photon state |1,1>, producing
cos(2phi)|1,1> + (sin(2phi)/sqrt(2))(|0,2> - |2,0>), whose mode-bipartition
entropy swings between 0 and log2(3) limits with plateaus at 1 and 1.5 bits.
Its reduced spectrum is (1 - 2s, s, s) with s = sin^2(2phi) / 2, whose
small weights (s, s) give the von Neumann entropy, as the analyzed pairs'
small weights give the CHSH scan's, and the Renyi-2 entropy is closed form.

Each scan is a kernel of its settings, a 1-D float array that the CLI
builds with _common.scan_grid, and returns a dict of float64 columns in
CSV header order.  The statistics depend only on theta_a - theta_b, so
chsh_scan holds photon B's analyzer at 0, where its frame is the
identity, and _analyzed_pair computes only the angle that varies: each
amplitude is one entry of photon A's frame times the pair's 1/sqrt(2).
One setting is the length-1 case: chsh_sum takes chsh_scan's S path.
"""

from __future__ import annotations

import math

import numpy as np

from ._common import ANGLE_REACH, chsh_curve, require_finite
from .states import pair_small_weights, small_weight_entropies

__all__ = [
    "chsh_sum",
    "chsh_scan",
    "mode_rotation_entropy_scan",
]

# (|HH> + |VV>)/sqrt(2) as a matrix: row index photon_A, column index photon_B.
_EPR_PAIR = np.eye(2) / math.sqrt(2.0)


def _analyzed_pair(theta: np.ndarray) -> np.ndarray:
    """(steps, 4) real amplitudes over ++, +-, -+, -- of the pair analyzed at (theta, 0)."""
    c, s = np.cos(theta), np.sin(theta)
    pairs = np.column_stack([c, s, -s, c])
    pairs *= _EPR_PAIR[0, 0]
    return pairs


def chsh_sum(separation: float) -> float:
    """CHSH sum of the stations (0, t, 2t, 3t) at separation t; closed form 3cos(2t) - cos(6t).

    chsh_scan's S at the one setting t; a t whose angle 2t overflows is refused.
    """
    t = require_finite("separation", separation, ANGLE_REACH)
    return float(chsh_curve(np.array([t]))[0])


def chsh_scan(theta: np.ndarray) -> dict[str, np.ndarray]:
    """Scan the CHSH sum and pair entropy over theta, a 1-D float array of separation angles.

    Columns: theta, S, entropy.  The entropy column is the one-photon
    entropy of the analyzed pair, recomputed at every angle.
    """
    entropy = small_weight_entropies(pair_small_weights(_analyzed_pair(theta))[:, np.newaxis])
    return {"theta": theta, "S": chsh_curve(theta), "entropy": entropy}


def mode_rotation_entropy_scan(phi: np.ndarray) -> dict[str, np.ndarray]:
    """Mode-bipartition entropy of the rotated |1,1> state over phi, a 1-D float array.

    Columns: phi, entropy_vn, entropy_renyi2.  Both entropies share zeros
    and maxima; the von Neumann column hits 1.0 at phi = pi/4 and peaks
    at 1.5 bits at phi = pi/8.  Each is right to rounding relative to its
    own size, also near its zeros.
    """
    two_s = np.sin(2.0 * phi) ** 2
    entropy_vn = small_weight_entropies(np.column_stack([two_s / 2.0, two_s / 2.0]))
    # sum p^2 = (1 - 2s)^2 + 2s^2 = 1 - 2s(2 - 3s)
    renyi2 = -np.log1p(-two_s * (2.0 - 1.5 * two_s)) / math.log(2.0)
    return {"phi": phi, "entropy_vn": entropy_vn, "entropy_renyi2": renyi2}
