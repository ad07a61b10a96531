"""Per-setting views of the package's batched kernels, for the tests.

The scans compute each quantity once over an array of settings, the
step axis, and one setting is the length-1 case.  These helpers take
floats or arrays of settings and return one row per setting.  labeled
and fidelity give a dense state the factor names and the overlap that
the density-matrix oracle and the protocol's laws are stated in.
"""

import numpy as np

from modetangle.interferometer import _bragg_amplitudes
from modetangle.polarization import _analyzed_pairs, _analyzer_frames
from modetangle.states import BasisLabel, PureState


def column(result, name):
    """The named column of a ScanResult."""
    return result.values[result.columns.index(name)]


def analyzer_frames(theta):
    """(steps, 2, 2) analyzer rows <+| and <-| at each angle."""
    return np.moveaxis(_analyzer_frames(np.atleast_1d(theta)), -1, 0)


def analyzed_pairs(theta_a, theta_b):
    """(steps, 4) amplitudes over ++, +-, -+, -- of the pair analyzed at (theta_a, theta_b)."""
    frames = [_analyzer_frames(np.atleast_1d(theta)) for theta in (theta_a, theta_b)]
    pairs = _analyzed_pairs(*frames)
    return pairs.reshape(4, pairs.shape[-1]).T


def bragg_outputs(phi_a, phi_b):
    """(steps, 4) exit-port amplitudes over A+B+, A+B-, A-B+, A-B- at phases (phi_a, phi_b)."""
    return _bragg_amplitudes(np.atleast_1d(phi_a), np.atleast_1d(phi_b))


def labeled(names, amplitudes, dims=(2, 2)):
    """The amplitude vector as a PureState over the named factors."""
    return PureState(BasisLabel(tuple(names), dims), np.asarray(amplitudes))


def fidelity(a, b):
    """|<a|b>|^2 of the normalized amplitude vectors, the protocol's arithmetic."""
    va, vb = (np.asarray(v, dtype=complex) for v in (a, b))
    return float(np.abs(np.vdot(va / np.linalg.norm(va), vb / np.linalg.norm(vb))) ** 2)
