"""Labeled tensor-product pure states and bipartite entanglement measures.

Amplitudes are dense complex vectors in row-major order over the factor
dimensions (first factor varies slowest).  Reduced density matrices come
from an exact partial trace.  All entropies are base-2 (bits).

The scans work on stacks of states, one per row: reduced_spectra and the
*_entropies functions take (steps, ...) arrays, and the single-state
partial_trace and entropies run the same code on one state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LabelingError",
    "BasisMismatchError",
    "BasisLabel",
    "PureState",
    "ReducedDensityMatrix",
    "tensor",
    "partial_trace",
    "reduced_spectra",
    "require_unitary",
    "apply_local_unitary",
    "von_neumann_entropy",
    "von_neumann_entropies",
    "renyi_entropy",
    "renyi_entropies",
    "fidelity",
]

# Tensor factors beyond this are out of scope for the intended experiments.
MAX_FACTORS = 4

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-12
UNITARITY_TOL = 1e-10
ZERO_NORM_TOL = 1e-15


class LabelingError(ValueError):
    """Duplicate, unknown, or malformed tensor-factor label."""


class BasisMismatchError(ValueError):
    """Two states do not share the same labeled basis."""


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

    Construction does not normalize; use normalized() to get a unit
    vector.  Instances are treated as immutable.
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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        """Unit-norm copy; rejects the zero vector."""
        n = self.norm
        if n < ZERO_NORM_TOL:
            raise ValueError("cannot normalize a zero-norm state")
        return PureState(self.basis, self.amplitudes / n)


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
        spectrum = _checked_spectra(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", int(m.shape[0]))
        object.__setattr__(self, "_spectrum", spectrum)

    def eigenvalues(self) -> np.ndarray:
        """Ascending real eigenvalues, with tiny negatives clamped to 0."""
        return _clamped(getattr(self, "_spectrum"))


def _checked_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending spectra of a (..., d, d) stack of density matrices.

    Every matrix must be Hermitian within HERMITICITY_TOL, have unit trace
    within TRACE_TOL and no eigenvalue below EIGENVALUE_FLOOR; the first
    violation raises ValueError.
    """
    if np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    traces = np.real(np.trace(m, axis1=-2, axis2=-1)).reshape(-1)
    worst = int(np.argmax(np.abs(traces - 1.0)))
    if abs(traces[worst] - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {traces[worst]} is not 1 within tolerance")
    spectra = np.linalg.eigvalsh(m)
    lowest = float(np.min(spectra[..., 0]))
    if lowest < EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix has eigenvalue {lowest} below {EIGENVALUE_FLOOR}"
        )
    return spectra


def _clamped(spectra: np.ndarray) -> np.ndarray:
    # Callers have already rejected anything below EIGENVALUE_FLOOR.
    return np.where(spectra < 0.0, 0.0, spectra)


def tensor(states: Sequence[PureState] | Iterable[PureState]) -> PureState:
    """Tensor product of labeled states; factor names must be disjoint."""
    states = list(states)
    if not states:
        raise ValueError("tensor() needs at least one state")
    names: tuple[str, ...] = ()
    dims: tuple[int, ...] = ()
    amps = np.array([1.0 + 0.0j])
    for s in states:
        overlap = set(names) & set(s.basis.factor_names)
        if overlap:
            raise LabelingError(f"duplicate factor name across product: {sorted(overlap)}")
        names = names + s.basis.factor_names
        dims = dims + s.basis.factor_dims
        amps = np.kron(amps, s.amplitudes)
    return PureState(BasisLabel(names, dims), amps)


def partial_trace(state: PureState, keep: str) -> ReducedDensityMatrix:
    """Trace out every factor except `keep`.

    The state is normalized first, so the result always has unit trace.
    """
    axis = state.basis.axis(keep)
    m = _reduced_matrices(state.amplitudes[np.newaxis], state.basis.factor_dims, axis)
    return ReducedDensityMatrix(m[0])


def reduced_spectra(amplitudes: np.ndarray, dims: Sequence[int], keep: int) -> np.ndarray:
    """Validated spectra of the factor-`keep` reductions of a stack of states.

    `amplitudes` has shape (steps, prod(dims)), one state per row in the
    row-major order of `dims`; `keep` is the index of the kept factor.
    Each row is normalized and exactly partial-traced, the reductions pass
    the ReducedDensityMatrix checks, and the result has shape
    (steps, dims[keep]): ascending eigenvalues with tiny negatives clamped
    to 0.
    """
    return _clamped(_checked_spectra(_reduced_matrices(amplitudes, dims, keep)))


def _reduced_matrices(amplitudes: np.ndarray, dims: Sequence[int], axis: int) -> np.ndarray:
    amps = np.asarray(amplitudes, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if amps.ndim != 2 or amps.shape[1] != int(np.prod(dims)):
        raise ValueError(f"amplitude stack has shape {amps.shape}, basis dims are {dims}")
    # Row-wise dots, summed in the order np.linalg.norm uses for one vector.
    re, im = amps.real[:, np.newaxis], amps.imag[:, np.newaxis]
    norms = np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)).reshape(-1)
    if np.min(norms) < ZERO_NORM_TOL:
        raise ValueError("cannot normalize a zero-norm state")
    psi = (amps / norms[:, np.newaxis]).reshape((len(amps),) + dims)
    psi = np.moveaxis(psi, axis + 1, 1).reshape(len(amps), dims[axis], -1)
    return psi @ np.swapaxes(psi.conj(), 1, 2)


def require_unitary(matrices: np.ndarray) -> np.ndarray:
    """Return a (..., d, d) stack unchanged; ValueError unless every matrix is unitary."""
    u = np.asarray(matrices)
    gram = u @ np.swapaxes(u.conj(), -1, -2)
    if np.max(np.abs(gram - np.eye(u.shape[-1]))) > UNITARITY_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    return u


def apply_local_unitary(state: PureState, factor: str, matrix: np.ndarray) -> PureState:
    """Apply a unitary matrix to a single factor, leaving labels unchanged.

    The matrix acts on amplitudes as given (no implicit conjugation), so a
    change of basis to frame vectors {e_i} takes rows conj(e_i).
    """
    axis = state.basis.axis(factor)
    d = state.basis.factor_dims[axis]
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"matrix shape {u.shape} does not match factor dim {d}")
    require_unitary(u)
    psi = state.amplitudes.reshape(state.basis.factor_dims)
    psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [axis])), 0, axis)
    return PureState(state.basis, psi.reshape(-1))


def von_neumann_entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum(p log2 p) over the last axis of clamped spectra, in bits."""
    p = np.asarray(spectra, dtype=float)
    terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return _non_negative(-np.sum(terms, axis=-1))


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
    terms = np.where(p > 0.0, p, 0.0) ** alpha
    return _non_negative(np.log2(np.sum(terms, axis=-1)) / (1.0 - alpha))


def _non_negative(s: np.ndarray) -> np.ndarray:
    return np.where(s > 0.0, s, 0.0)


def von_neumann_entropy(rho: ReducedDensityMatrix) -> float:
    """S = -sum(p log2 p) over the spectrum, in bits."""
    return float(von_neumann_entropies(rho.eigenvalues()))


def renyi_entropy(rho: ReducedDensityMatrix, alpha: float) -> float:
    """Order-alpha Renyi entropy of the spectrum, in bits (see renyi_entropies)."""
    return float(renyi_entropies(rho.eigenvalues(), alpha))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 for unit-normalized inputs over the same labeled basis."""
    if a.basis != b.basis:
        raise BasisMismatchError(
            f"states live on different bases: {a.basis} vs {b.basis}"
        )
    va = a.normalized().amplitudes
    vb = b.normalized().amplitudes
    return float(np.abs(np.vdot(va, vb)) ** 2)
