"""Labeled tensor-product pure states and bipartite entanglement measures.

Amplitudes are dense vectors in row-major order over the factor
dimensions (first factor varies slowest): complex in a PureState, real
or complex in a stack, which keeps a real one real.  The reduced
spectrum of a factor is the squared Schmidt coefficients of the state:
the squared singular values of its amplitude matrix, kept factor by the
rest.  All entropies are base-2 (bits).

The scans and the protocol work on stacks of states, one per row:
reduced_spectra and the *_entropies functions take (steps, ...) arrays,
and a single state is the length-1 stack.  BasisLabel and PureState name
the factors of one dense state, and partial_trace and
ReducedDensityMatrix build and check its explicit reduced density
matrix, for callers that want one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "LabelingError",
    "BasisLabel",
    "PureState",
    "ReducedDensityMatrix",
    "partial_trace",
    "reduced_spectra",
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


def reduced_spectra(amplitudes: np.ndarray, dims: Sequence[int], keep: int) -> np.ndarray:
    """Spectra of the factor-`keep` reductions of a stack of states.

    `amplitudes` has shape (steps, prod(dims)), one state per row in the
    row-major order of `dims`; `keep` is the index of the kept factor.
    Each row is normalized, and its spectrum is its squared Schmidt
    coefficients, padded with zeros when the rest of the state has fewer
    dimensions than the kept factor.  The result has shape
    (steps, dims[keep]), ascending and non-negative.
    """
    psi = _kept_matrices(amplitudes, dims, keep)
    squares = np.linalg.svd(psi, compute_uv=False)[:, ::-1] ** 2
    return np.pad(squares, ((0, 0), (max(psi.shape[1] - psi.shape[2], 0), 0)))


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
