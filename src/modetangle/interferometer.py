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

The scan prints S from its closed form, _scans.chsh_curve, and returns
a dict of named columns in CSV header order, as the polarization scans
do.  It runs in plain Python and loads no numpy.  Phase knobs at the two
stations leave the pair maximally entangled, so both entropy columns are
the constant 1.0; the Bragg exits and the Schmidt kernel that confirm it
are the tests' oracle (tests/kernel_views.py).
"""

from __future__ import annotations

from ._scans import chsh_curve

__all__ = ["momentum_chsh_scan"]


def momentum_chsh_scan(t) -> dict:
    """Bell scan over the station half-angles t, a 1-D sequence of floats (phase difference 2t).

    Columns: vartheta, S, entropy_in, entropy_out.  S is the CHSH sum of
    the stations (0, t, 2t, 3t) in half-angle units, the phase knob twice
    that; both entropy columns stay at 1 bit, each the one float 1.0.
    """
    return {"vartheta": t, "S": chsh_curve(t), "entropy_in": 1.0, "entropy_out": 1.0}
