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
scans do.  _bragg_amplitudes takes arrays of phases, the step axis of a
scan; one pair of phases is the length-1 case.
"""

from __future__ import annotations

import math

import numpy as np

from ._common import chsh_curve
from .states import pair_small_weights, small_weight_entropies

__all__ = ["momentum_chsh_scan"]

# (|p,-p> + |p',-p'>)/sqrt(2) over factors atom_1, atom_2
_INPUT_PAIR = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def _bragg_amplitudes(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    """(steps, 4) exit-port amplitudes over (A+,B+), (A+,B-), (A-,B+), (A-,B-)."""
    d = phi_a - phi_b
    phase_b = np.exp(1j * phi_b)
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    return scale * np.stack(
        [
            _complex_product(-1j * phase_b, np.exp(1j * d) + 1.0),
            np.exp(1j * d) - 1.0,
            np.exp(-1j * d) - 1.0,
            _complex_product(-1j * np.conj(phase_b), np.exp(-1j * d) + 1.0),
        ],
        axis=-1,
    )


def _complex_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # The textbook formula, one rounding per real operation.  numpy's
    # vectorized complex multiply may fuse it into FMA instructions, which
    # moves the last bit of S depending on the CPU; spelled out as separate
    # real operations it rounds the same way everywhere.
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=complex)
    out.real = u.real * v.real - u.imag * v.imag
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def momentum_chsh_scan(t: np.ndarray) -> dict[str, np.ndarray]:
    """Bell scan over the station half-angles t, a 1-D float array (phase difference 2t).

    Columns: vartheta, S, entropy_in, entropy_out.  S is the CHSH sum of
    the stations (0, t, 2t, 3t) in half-angle units, the phase knob twice
    that; both entropy columns stay at 1 bit.
    """
    entropy_in = small_weight_entropies(pair_small_weights(_INPUT_PAIR[np.newaxis])[:, np.newaxis])
    outputs = _bragg_amplitudes(2.0 * t, np.zeros_like(t))  # phi_a = 2t, phi_b = 0
    entropy_out = small_weight_entropies(pair_small_weights(outputs)[:, np.newaxis])
    return {"vartheta": t, "S": chsh_curve(t),
            "entropy_in": np.full_like(t, entropy_in[0]), "entropy_out": entropy_out}
