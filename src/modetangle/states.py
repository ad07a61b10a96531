"""Labeled tensor-product pure states and bipartite entanglement measures.

Amplitudes are dense vectors in row-major order over the factor
dimensions (first factor varies slowest): complex in a PureState, real
or complex in a stack.  The reduced spectrum of a factor is the squared
Schmidt coefficients of the state.  All entropies are base-2 (bits).

The scans and the protocol take every von Neumann entropy from two
closed-form kernels, and run no SVD: pair_small_weights gives the small
Schmidt weight of each two-qubit pair from its determinant (Ekert &
Knight, Am. J. Phys. 63, 415 (1995)), and small_weight_entropies turns
small weights into bits, with the large weight's term through log1p.
Each takes a stack, one state per row; a single state is the length-1
stack.  BasisLabel, PureState, partial_trace and ReducedDensityMatrix
build and check the explicit reduced density matrix of one labeled
state, with the *_entropy functions on its spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "LabelingError",
    "BasisLabel",
    "PureState",
    "ReducedDensityMatrix",
    "partial_trace",
    "pair_small_weights",
    "small_weight_entropies",
    "von_neumann_entropy",
    "von_neumann_entropies",
    "renyi_entropy",
    "renyi_entropies",
]

# Tensor factors beyond this are out of scope for the intended experiments.
MAX_FACTORS = 4

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-12
ZERO_NORM_TOL = 1e-15
_LN2 = math.log(2.0)


class LabelingError(ValueError):
    """Duplicate, unknown, or malformed tensor-factor label."""


@dataclass(frozen=True)
class BasisLabel:
    """Ordered, named tensor factors with their local dimensions."""

    factor_names: tuple[str, ...]
    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        names = tuple(self.factor_names)
        dims = tuple(int(d) for d in self.factor_dims)
        object.__setattr__(self, "factor_names", names)
        object.__setattr__(self, "factor_dims", dims)
        if len(names) == 0:
            raise LabelingError("a basis needs at least one factor")
        if len(names) > MAX_FACTORS:
            raise LabelingError(f"at most {MAX_FACTORS} tensor factors are supported")
        if len(names) != len(dims):
            raise LabelingError("factor_names and factor_dims differ in length")
        if len(set(names)) != len(names):
            raise LabelingError(f"duplicate factor name in {names}")
        if any(not isinstance(n, str) or not n for n in names):
            raise LabelingError("factor names must be non-empty strings")
        if any(d < 2 for d in dims):
            raise LabelingError("every factor dimension must be at least 2")

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension (product of factor dims)."""
        return int(np.prod(self.factor_dims))

    def axis(self, name: str) -> int:
        """Position of the named factor; LabelingError if absent."""
        try:
            return self.factor_names.index(name)
        except ValueError:
            raise LabelingError(
                f"unknown factor {name!r}; have {self.factor_names}"
            ) from None


@dataclass(frozen=True, eq=False)
class PureState:
    """A pure state as a complex amplitude vector over a labeled basis.

    Construction does not normalize.  Instances are treated as immutable.
    """

    basis: BasisLabel
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.basis.dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, basis dim is {self.basis.dim}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on one factor.

    Validated on construction: Hermiticity and trace to tight tolerance,
    eigenvalues no lower than -1e-12.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1 within tolerance")
        spectrum = np.linalg.eigvalsh(m)
        if spectrum[0] < EIGENVALUE_FLOOR:
            raise ValueError(
                f"density matrix has eigenvalue {spectrum[0]} below {EIGENVALUE_FLOOR}"
            )
        spectrum = np.where(spectrum < 0.0, 0.0, spectrum)
        m = m.copy()
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", int(m.shape[0]))
        object.__setattr__(self, "_spectrum", spectrum)

    def eigenvalues(self) -> np.ndarray:
        """Ascending real eigenvalues, with tiny negatives clamped to 0."""
        return getattr(self, "_spectrum")


def partial_trace(state: PureState, keep: str) -> ReducedDensityMatrix:
    """Trace out every factor except `keep`.

    The state is normalized first, so the result always has unit trace.
    """
    axis = state.basis.axis(keep)
    psi = _kept_matrices(state.amplitudes[np.newaxis], state.basis.factor_dims, axis)[0]
    return ReducedDensityMatrix(psi @ psi.conj().T)


def _kept_matrices(amplitudes: np.ndarray, dims: Sequence[int], keep: int) -> np.ndarray:
    """Normalized rows as (steps, dims[keep], rest) matrices.

    ValueError if the stack does not match dims or a row has zero norm.
    """
    amps = np.asarray(amplitudes)
    amps = amps.astype(np.result_type(amps, float), copy=False)  # a real stack stays real
    dims = tuple(int(d) for d in dims)
    if amps.ndim != 2 or amps.shape[1] != int(np.prod(dims)):
        raise ValueError(f"amplitude stack has shape {amps.shape}, basis dims are {dims}")
    # Elementwise sums, not BLAS dots, so the norms round the same on every
    # CPU; a real stack has no imaginary part to square
    squares = amps.real * amps.real
    if np.iscomplexobj(amps):
        squares += amps.imag * amps.imag
    norms = np.sqrt(np.sum(squares, axis=1))
    if np.min(norms) < ZERO_NORM_TOL:
        raise ValueError("cannot normalize a zero-norm state")
    psi = (amps / norms[:, np.newaxis]).reshape((len(amps),) + dims)
    return np.moveaxis(psi, keep + 1, 1).reshape(len(amps), dims[keep], -1)


def pair_small_weights(amplitudes: np.ndarray) -> np.ndarray:
    """Smaller squared Schmidt coefficient of each row (a, b, c, d) of a (steps, 4) pair stack.

    With r0 = |a|^2 + |b|^2, r1 = |c|^2 + |d|^2, n = r0 + r1 and o = a conj(c) + b conj(d),
    the large weight is (1 + hypot(r0 - r1, 2|o|) / n) / 2 and the small one |ad - bc|^2 / n^2
    over it: right to rounding relative to its size unless ad and bc cancel, which near
    (1, 0, 0, 0) they do not.  Complex products are spelled out in real operations, which
    round alike on every CPU; a real stack's imaginary parts are 0.0, not a zero array.
    """
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
    exactly 0 adds 0.
    """
    w = np.asarray(weights, dtype=float)
    total = np.sum(w, axis=-1)
    large = 1.0 - total
    small = np.sum(w * -np.log(w, out=np.zeros_like(w), where=w > 0.0), axis=-1)
    return (small + large * -np.log1p(-total, out=np.zeros_like(total), where=large > 0.0)) / _LN2


def von_neumann_entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum(p log2 p) over the last axis of clamped spectra, in bits."""
    p = np.asarray(spectra, dtype=float)
    s = -np.sum(np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0), axis=-1)
    return np.where(s > 0.0, s, 0.0)


def renyi_entropies(spectra: np.ndarray, alpha: float) -> np.ndarray:
    """Order-alpha Renyi entropies log2(sum p^alpha) / (1 - alpha) over the last axis, in bits.

    alpha must be positive and not equal to 1 (the von Neumann limit is
    its own function).
    """
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"Renyi order must be positive, got {alpha}")
    if alpha == 1.0:
        raise ValueError("Renyi order 1 is the von Neumann limit; use von_neumann_entropy")
    p = np.asarray(spectra, dtype=float)
    s = np.log2(np.sum(np.where(p > 0.0, p, 0.0) ** alpha, axis=-1)) / (1.0 - alpha)
    return np.where(s > 0.0, s, 0.0)


def von_neumann_entropy(rho: ReducedDensityMatrix) -> float:
    """S = -sum(p log2 p) over the spectrum, in bits."""
    return float(von_neumann_entropies(rho.eigenvalues()))


def renyi_entropy(rho: ReducedDensityMatrix, alpha: float) -> float:
    """Order-alpha Renyi entropy of the spectrum, in bits (see renyi_entropies)."""
    return float(renyi_entropies(rho.eigenvalues(), alpha))
