"""Four-momentum-mode atom interferometer with Bragg mirrors and splitters.

A pair of counter-propagating atoms enters in the momentum superposition
(|p,-p> + |p',-p'>)/sqrt(2).  Each side passes a mirror-and-splitter
sequence whose adjustable phase is phi_a (side A) or phi_b (side B).
With d = phi_a - phi_b the output amplitudes over the exit ports are

    c(A+,B+) = -i e^{+i phi_b} (e^{+i d} + 1) / (2 sqrt(2))
    c(A+,B-) =                 (e^{+i d} - 1) / (2 sqrt(2))
    c(A-,B+) =                 (e^{-i d} - 1) / (2 sqrt(2))
    c(A-,B-) = -i e^{-i phi_b} (e^{-i d} + 1) / (2 sqrt(2))

so the joint click probabilities are (1 +- cos d)/4 and the two-station
correlation is E = cos(phi_a - phi_b).  Writing the half-difference as t
(phi step 2t per station) reproduces the Bell curve S(t) = 3cos(2t) - cos(6t).
Port index 0 is the + exit, index 1 the - exit on each station.

The scan prints S from its closed form, _common.chsh_curve, and returns
a dict of named float64 columns in CSV header order, as the polarization
scans do.  It holds phi_b at 0, where the factors -i e^{+-i phi_b} are -i,
so _bragg_exits builds the exits at (2t, 0) from e = e^{2it} and
f = e^{-2it} alone: the corners -i(e + 1) and -i(f + 1) are
(Im e, -(Re e + 1)) and (Im f, -(Re f + 1)), with no complex product.
"""

from __future__ import annotations

import math

import numpy as np

from ._common import chsh_curve
from .states import pair_small_weights, small_weight_entropies

__all__ = ["momentum_chsh_scan"]

# (|p,-p> + |p',-p'>)/sqrt(2) over factors atom_1, atom_2
_INPUT_PAIR = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def _bragg_exits(t: np.ndarray) -> np.ndarray:
    """(steps, 4) exit-port amplitudes at phases (2t, 0) over (A+,B+), (A+,B-), (A-,B+), (A-,B-)."""
    e, f = np.exp(2j * t), np.exp(-2j * t)
    exits = np.empty((len(t), 4), dtype=complex)
    exits[:, 0].real, exits[:, 0].imag = e.imag, -(e.real + 1.0)
    exits[:, 1], exits[:, 2] = e - 1.0, f - 1.0
    exits[:, 3].real, exits[:, 3].imag = f.imag, -(f.real + 1.0)
    exits *= 1.0 / (2.0 * math.sqrt(2.0))
    return exits


def momentum_chsh_scan(t: np.ndarray) -> dict[str, np.ndarray]:
    """Bell scan over the station half-angles t, a 1-D float array (phase difference 2t).

    Columns: vartheta, S, entropy_in, entropy_out.  S is the CHSH sum of
    the stations (0, t, 2t, 3t) in half-angle units, the phase knob twice
    that; both entropy columns stay at 1 bit.
    """
    entropy_in = small_weight_entropies(pair_small_weights(_INPUT_PAIR[np.newaxis])[:, np.newaxis])
    entropy_out = small_weight_entropies(pair_small_weights(_bragg_exits(t))[:, np.newaxis])
    return {"vartheta": t, "S": chsh_curve(t),
            "entropy_in": np.full_like(t, entropy_in[0]), "entropy_out": entropy_out}
