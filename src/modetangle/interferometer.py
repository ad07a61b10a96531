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

_bragg_amplitudes and _momentum_correlations take arrays of phases, the
step axis of a scan; one pair of phases is the length-1 case.
"""

from __future__ import annotations

import math

import numpy as np

from ._common import chsh_stations, chsh_sums, scan_grid
from .results import ScanResult
from .states import reduced_spectra, von_neumann_entropies

__all__ = ["momentum_chsh_scan"]

_PAIR_DIMS = (2, 2)
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


def _momentum_correlations(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    joint = np.abs(_bragg_amplitudes(phi_a, phi_b)) ** 2
    return joint[:, 0] + joint[:, 3] - joint[:, 1] - joint[:, 2]


def momentum_chsh_scan(t_min: float, t_max: float, steps: int) -> ScanResult:
    """Bell scan over the station half-angle t (phase difference 2t).

    Columns: vartheta, S, entropy_in, entropy_out.  S comes from four
    correlation evaluations at stations (0, t, 2t, 3t) in half-angle
    units; both entropy columns stay at 1 bit.
    """
    t = scan_grid("vartheta", t_min, t_max, steps)
    # Stations (0, t, 2t, 3t) live in half-angle units; the phase knob is twice that.
    a, b, a2, b2 = (2.0 * station for station in chsh_stations(t))
    s_values = chsh_sums(_momentum_correlations, a, b, a2, b2)
    entropy_in = von_neumann_entropies(reduced_spectra(_INPUT_PAIR[np.newaxis], _PAIR_DIMS, 0))[0]
    outputs = _bragg_amplitudes(b, a)  # phi_a = 2t, phi_b = 0
    entropy_out = von_neumann_entropies(reduced_spectra(outputs, _PAIR_DIMS, 0))
    return ScanResult.from_columns(
        ("vartheta", "S", "entropy_in", "entropy_out"),
        (t, s_values, np.full_like(t, entropy_in), entropy_out),
    )
