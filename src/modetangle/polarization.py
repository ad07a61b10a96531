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
S(t) = 3cos(2t) - cos(6t) with |S| peaking at 2*sqrt(2) near t = pi/8.

The mode-rotation scan applies the two-mode rotation

    a+ -> cos(phi) a+ + sin(phi) b+,   b+ -> -sin(phi) a+ + cos(phi) b+

to the two-photon state |1,1>, producing
cos(2phi)|1,1> + (sin(2phi)/sqrt(2))(|0,2> - |2,0>), whose mode-bipartition
entropy swings between 0 and log2(3) limits with plateaus at 1 and 1.5 bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._common import chsh_stations, chsh_sums, require_finite, scan_grid
from .results import ScanResult
from .states import (
    BasisLabel,
    PureState,
    reduced_spectra,
    renyi_entropies,
    von_neumann_entropies,
)

__all__ = [
    "AnalyzerSettings",
    "ChshSettings",
    "epr_state",
    "analyzer_basis",
    "transformed_epr_state",
    "detection_probabilities",
    "correlation",
    "chsh_sum",
    "chsh_sum_general",
    "chsh_scan",
    "mode_rotation_state",
    "mode_rotation_entropy_scan",
]

_PAIR_DIMS = (2, 2)
# (|HH> + |VV>)/sqrt(2) as a matrix: row index photon_A, column index photon_B.
_EPR_PAIR = np.eye(2) / math.sqrt(2.0)


@dataclass(frozen=True)
class AnalyzerSettings:
    """Analyzer angles (radians) for the two sides of a pair experiment."""

    theta_a: float
    theta_b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_a", require_finite("theta_a", self.theta_a))
        object.__setattr__(self, "theta_b", require_finite("theta_b", self.theta_b))


@dataclass(frozen=True)
class ChshSettings:
    """Base separation angle for the arithmetic four-station arrangement."""

    separation: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "separation", require_finite("separation", self.separation))

    def station_angles(self) -> tuple[float, float, float, float]:
        return chsh_stations(self.separation)


def epr_state() -> PureState:
    """(|HH> + |VV>)/sqrt(2) over factors photon_A, photon_B."""
    return PureState(BasisLabel(("photon_A", "photon_B"), _PAIR_DIMS), _EPR_PAIR.reshape(-1))


def analyzer_basis(theta: float) -> tuple[PureState, PureState]:
    """Transmitted and rejected single-photon states of an analyzer at theta."""
    rows = _analyzer_frames(_angles("theta", theta))[..., 0].conj()
    basis = BasisLabel(("photon",), (2,))
    return PureState(basis, rows[0]), PureState(basis, rows[1])


def _angles(name: str, value: float) -> np.ndarray:
    return np.array([require_finite(name, value)])


def _analyzer_frames(theta: np.ndarray) -> np.ndarray:
    """(steps,) angles -> (2, 2, steps) real unitaries with rows <+| and <-|.

    The step axis is last so that products over the 2x2 indices run as
    elementwise loops over all steps at once.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _analyzed_pairs(frames_a: np.ndarray, frames_b: np.ndarray) -> np.ndarray:
    """(2, 2, steps) pair amplitudes with each photon in its analyzer frame.

    Row index is the photon_A port, column index the photon_B port.  The
    frames and the pair are real, so the amplitudes are too.  einsum
    without optimize sums in one fixed order, where a BLAS product would
    round differently on different CPU kernels.
    """
    return np.einsum("ijs,jk,lks->ils", frames_a, _EPR_PAIR, frames_b, optimize=False)


def _correlations(frames_a: np.ndarray, frames_b: np.ndarray) -> np.ndarray:
    joint = _analyzed_pairs(frames_a, frames_b) ** 2
    return joint[0, 0] + joint[1, 1] - joint[0, 1] - joint[1, 0]


def _settings_frames(settings: AnalyzerSettings) -> tuple[np.ndarray, np.ndarray]:
    return (
        _analyzer_frames(np.array([settings.theta_a])),
        _analyzer_frames(np.array([settings.theta_b])),
    )


def transformed_epr_state(settings: AnalyzerSettings) -> PureState:
    """The entangled pair re-expressed in both analyzer frames.

    Built by rotating each factor of epr_state() into its analyzer frame;
    the amplitudes collapse to the closed pattern
    (cos t, sin t, -sin t, cos t)/sqrt(2) with t = theta_a - theta_b.
    """
    amps = _analyzed_pairs(*_settings_frames(settings))[..., 0]
    return PureState(epr_state().basis, amps.reshape(-1))


def detection_probabilities(settings: AnalyzerSettings) -> dict[str, float]:
    """Single and joint port probabilities at the given analyzer angles.

    Keys: 'a+', 'a-', 'b+', 'b-' for singles and '++', '+-', '-+', '--'
    for joints.  Singles are marginals of the joints and the joints sum
    to one.
    """
    joint = _analyzed_pairs(*_settings_frames(settings))[..., 0] ** 2
    probs = {
        "++": float(joint[0, 0]),
        "+-": float(joint[0, 1]),
        "-+": float(joint[1, 0]),
        "--": float(joint[1, 1]),
    }
    probs["a+"] = probs["++"] + probs["+-"]
    probs["a-"] = probs["-+"] + probs["--"]
    probs["b+"] = probs["++"] + probs["-+"]
    probs["b-"] = probs["+-"] + probs["--"]
    return probs


def correlation(settings: AnalyzerSettings) -> float:
    """E = P(++) + P(--) - P(+-) - P(-+); equals cos(2(theta_a - theta_b))."""
    return float(_correlations(*_settings_frames(settings))[0])


def chsh_sum_general(
    theta_a: float, theta_b: float, theta_a2: float, theta_b2: float
) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') for four free angles."""
    angles = {"theta_a": theta_a, "theta_b": theta_b, "theta_a2": theta_a2, "theta_b2": theta_b2}
    frames = [_analyzer_frames(_angles(name, value)) for name, value in angles.items()]
    return float(chsh_sums(_correlations, *frames)[0])


def chsh_sum(settings: ChshSettings) -> float:
    """CHSH sum of the arithmetic arrangement; closed form 3cos(2t) - cos(6t)."""
    return chsh_sum_general(*settings.station_angles())


def chsh_scan(theta_min: float, theta_max: float, steps: int) -> ScanResult:
    """Scan the CHSH sum and pair entropy over the separation angle.

    Columns: theta, S, entropy.  The entropy column is the one-photon
    entropy of the analyzed pair, recomputed at every angle.
    """
    t = scan_grid("theta", theta_min, theta_max, steps)
    stations = [_analyzer_frames(x) for x in chsh_stations(t)]
    s_values = chsh_sums(_correlations, *stations)
    pairs = _analyzed_pairs(stations[1], stations[0]).reshape(4, len(t)).T
    entropy = von_neumann_entropies(reduced_spectra(pairs, _PAIR_DIMS, 0))
    return ScanResult.from_columns(("theta", "S", "entropy"), (t, s_values, entropy))


# Ladder operators on a 3-level mode; photon number is conserved by the
# rotation, so occupations 0..2 hold the full two-photon sector exactly.
_MODE_LEVELS = 3
_MODE_DIMS = (_MODE_LEVELS, _MODE_LEVELS)
_START_INDEX = 1 * _MODE_LEVELS + 1  # |1,1>


@functools.cache
def _rotation_eigensystem() -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and eigenvectors V of the Hermitian i*G, G the rotation generator.

    exp(phi G) = V diag(exp(-i phi w)) V^H.  The arrays are read-only
    because the cache hands the same ones to every caller.
    """
    lower = np.diag(np.sqrt(np.arange(1, _MODE_LEVELS)), k=1)
    eye = np.eye(_MODE_LEVELS)
    a = np.kron(lower, eye)
    b = np.kron(eye, lower)
    generator = a @ b.conj().T - a.conj().T @ b
    w, v = np.linalg.eigh(1j * generator)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _mode_rotation_amplitudes(phi: np.ndarray) -> np.ndarray:
    """(steps, 9) amplitudes of exp(phi G)|1,1> over mode_a, mode_b."""
    w, v = _rotation_eigensystem()
    weights = np.exp(-1j * np.outer(phi, w)) * v[_START_INDEX].conj()
    return np.einsum("sk,jk->sj", weights, v, optimize=False)


def mode_rotation_state(phi: float) -> PureState:
    """Two-mode rotation of |1,1> by phi over factors mode_a, mode_b."""
    basis = BasisLabel(("mode_a", "mode_b"), _MODE_DIMS)
    return PureState(basis, _mode_rotation_amplitudes(_angles("phi", phi))[0])


def mode_rotation_entropy_scan(phi_min: float, phi_max: float, steps: int) -> ScanResult:
    """Mode-bipartition entropy of the rotated |1,1> state over phi.

    Columns: phi, entropy_vn, entropy_renyi2.  Both entropies share zeros
    and maxima; the von Neumann column hits 1.0 at phi = pi/4 and peaks
    at 1.5 bits at phi = pi/8.
    """
    phi = scan_grid("phi", phi_min, phi_max, steps)
    spectra = reduced_spectra(_mode_rotation_amplitudes(phi), _MODE_DIMS, 0)
    return ScanResult.from_columns(
        ("phi", "entropy_vn", "entropy_renyi2"),
        (phi, von_neumann_entropies(spectra), renyi_entropies(spectra, 2.0)),
    )
