"""Quartic-anharmonic oscillator in a truncated number basis.

The Hamiltonian is H = diag(n + 1/2) + (g/4) X^4 with X = (a + a+)/sqrt(2),
in units hbar = m = omega = 1, where g >= 0 is the anharmonicity.  H is
built from the closed-form number-basis elements of X^4, which sit on
diagonals 0, +-2 and +-4:

    <k|X^4|k>   = (3/4)(2k^2 + 2k + 1)
    <k|X^4|k+2> = (1/2)(2k + 3) sqrt((k+1)(k+2))
    <k|X^4|k+4> = (1/4) sqrt((k+1)(k+2)(k+3)(k+4))

so the truncated H_N is the exact projection of the full operator, and
X^2 likewise comes from its diagonals 0 and +-2.  H couples n only to
n +- 2 and n +- 4, so it commutes with parity: the even and the odd
number states form two pentadiagonal blocks H_p, whose levels are merged
in ascending order.

build_model computes only the lowest levels it is asked for, and
diagonalizes only a leading block of each H_p: the parity blocks A_M of
the truncation M, which is BLOCK_START at first and doubles until the
requested levels of A_M are certified as those of H_N (a Rayleigh-Ritz
compression; Parlett, The Symmetric Eigenvalue Problem, ch. 10).  Two
checks certify them, each O(N) with no N x N array:

1. Cut residual.  A block eigenvector padded with zeros misses being an
   eigenvector of H_N only in the two rows just beyond the cut, which
   reach the last two rows of the block.  That residual must not exceed
   eps ||A_M||_1, the rounding scale of the block's own eigh, so a level
   is no less accurate than one from the whole of H_N, whose scale is
   eps ||H_N||_1.
2. Index.  At a shift s halfway between the last requested level and the
   next block level, each H_p must have as many eigenvalues below s as
   its A_M.  The count is the number of negative pivots of the LDL^T of
   H_p - s I, which keeps bandwidth 2 (Sylvester's law of inertia).  A
   pivot is too small when the growth it causes could carry an
   eigenvalue across s.  Such a pivot, or a count that differs, doubles
   M.

When M reaches N the block is H_N itself and there is nothing to
certify: this is the full eigh of both parity blocks.  It is the path
for every level (levels=None), for a truncation of at most BLOCK_START,
and wherever the levels lean on the top of the basis (g = 100 at every
truncation up to 1600 on OpenBLAS's SkylakeX kernel).  The cut residual
is held to eigh's own rounding scale, so the width depends on the BLAS
kernel: at N = 1600, Haswell certifies g = 100 at M = 1024 and
Sandybridge g = 5 at M = 256, where SkylakeX takes 512.  At g = 0 H is
diagonal, and the leading blocks are written down in closed form rather
than diagonalized; nothing couples across the cut, so BLOCK_START is
certified at once.

The model keeps the leading rows and the requested columns of the two
block eigenvector matrices, plus a rank map from each level to its
block and column: O(M k) floats for k levels, N^2/2 for every level.
No N x N array is formed: eigenstate scatters one column into the
number basis, zero beyond the block, mode_overlap reads an entry of the
level's column, tail_weight reads the top of the padded column, and
<X^2> is an O(M) sum over the column with the X^2 diagonals restricted
to its parity.  A level that was not computed is refused.

The diagonal element gives the first-order shift, hence

    E_n ~= n + 1/2 + (3g/16)(2n^2 + 2n + 1)

which serves as the small-g oracle.  Eigenvectors are sign-fixed so the
overlap with the corresponding harmonic level is non-negative.

A truncation is too small when a level leans on the top of the basis.
The tail weight of a level is the weight its eigenvector puts in the top
TAIL_STATES basis states.  truncation_problem describes levels whose
tail weight exceeds TAIL_WEIGHT_LIMIT; the oscillator command prints it
as a warning and the protocol refuses to run through require_converged.
A level certified from a leading block is zero there, so its tail weight
reads 0.0.  At g = 0 nothing couples across the cut, so no truncation is
too small.
For levels 0-9 the weight tracks how far the levels move when the
truncation is doubled: 2e-24 at g = 0.1, N = 64 (levels move < 1e-14);
2.3e-11 at g = 1, N = 64 (1.2e-9); 1.9e-6 at g = 5, N = 64 (3.4e-4);
1.5e-3 at g = 100, N = 64 (48); and 9.5e-14 at g = 100, N = 256 (7e-8
on levels up to 81).  First-order
perturbation theory is no oracle at large g (Bender & Wu, Phys. Rev. 184,
1231, 1969), so the truncation is checked against itself.

The adiabatic budget checks the separation of scales

    hbar/delta_e  <<  hbar/h_tilde  <<  t_meas

as two ratios r1 = delta_e/h_tilde and r2 = t_meas*h_tilde/hbar, both of
which must reach the configured threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._common import PhysicsPreconditionError, require_finite

__all__ = [
    "OscillatorModel",
    "AdiabaticBudget",
    "position_operator",
    "build_model",
    "truncation_problem",
    "require_converged",
    "first_order_energy",
    "mode_overlap",
    "require_adiabatic",
]

MIN_TRUNCATION = 8
TAIL_STATES = 4
TAIL_WEIGHT_LIMIT = 1e-12
# the leading truncation build_model diagonalizes first; it doubles until certified
BLOCK_START = 64
_EPS = float(np.finfo(float).eps)


def position_operator(dim: int) -> np.ndarray:
    """X = (a + a+)/sqrt(2) in the number basis, dimension dim."""
    off = np.sqrt(np.arange(1, dim) / 2.0)
    return np.diag(off, k=1) + np.diag(off, k=-1)


@dataclass(frozen=True, eq=False)
class OscillatorModel:
    """The lowest levels of the truncated model; immutable after construction.

    eigenvalues holds the computed levels, ascending.  Their eigenvectors
    are held as the two parity blocks: blocks[p][:, c] is a level of
    parity p over the leading basis states p, p + 2, p + 4, ..., and is
    zero on the states below the truncation that follow them.
    columns[n] is the rank map: level n is column columns[n] of the even
    block if that is below the even block's width, otherwise column
    columns[n] - width of the odd block.  Each column is sign-fixed so
    the level's harmonic component <n|n(g)> is non-negative.  The arrays
    are taken over and made read-only, not copied.
    """

    anharmonicity: float
    truncation: int
    eigenvalues: np.ndarray
    blocks: tuple[np.ndarray, np.ndarray] = field(repr=False)
    columns: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self.eigenvalues, *self.blocks, self.columns):
            arr.setflags(write=False)

    def energy(self, n: int) -> float:
        return float(self.eigenvalues[self._check_level(n)])

    def eigenstate(self, n: int) -> np.ndarray:
        """Level n over the whole number basis, zero on the other parity and beyond its block."""
        parity, column = self._block_column(n)
        out = np.zeros(self.truncation)
        out[parity::2][: len(column)] = column
        return out

    def x_squared_expectation(self, n: int) -> float:
        """<n(g)|X^2|n(g)>; equals n + 1/2 at zero anharmonicity."""
        parity, u = self._block_column(n)
        x2, _ = _position_power_diagonals(self.truncation)
        # inside a block the X^2 diagonals 0 and +-2 become 0 and +-1, and
        # the zeros beyond the block's rows add nothing.  Form X^2 u row by
        # row before the dot product: the diagonal and the off-diagonal
        # terms cancel within each row, where summing them as two separate
        # totals loses ~7e-15 relative at g = 100
        d0, d1 = x2[0][parity::2][: len(u)], x2[2][parity::2][: len(u) - 1]
        x2u = d0 * u
        x2u[:-1] += d1 * u[1:]
        x2u[1:] += d1 * u[:-1]
        return float(u @ x2u)

    def tail_weight(self, levels: Sequence[int]) -> float:
        """Largest weight any of the levels puts in the top TAIL_STATES basis states."""
        tails = [self.eigenstate(n)[-TAIL_STATES:] for n in levels]
        return float(max(np.sum(t * t) for t in tails))

    def _block_column(self, n: int) -> tuple[int, np.ndarray]:
        """Parity of level n and its column in that parity's block."""
        c = int(self.columns[self._check_level(n)])
        width = self.blocks[0].shape[1]
        return (0, self.blocks[0][:, c]) if c < width else (1, self.blocks[1][:, c - width])

    def _check_level(self, n: int) -> int:
        n = int(n)
        if not 0 <= n < self.truncation:
            raise ValueError(f"level {n} outside truncation {self.truncation}")
        if n >= len(self.eigenvalues):
            raise ValueError(
                f"level {n} was not computed; the model holds levels 0-{len(self.eigenvalues) - 1}"
            )
        return n


def _symmetric_banded(diagonals: dict[int, np.ndarray]) -> np.ndarray:
    """Dense symmetric matrix from its main and upper diagonals {offset: values}."""
    size = len(diagonals[0])
    out = np.zeros((size, size))
    for offset, values in diagonals.items():
        i = np.arange(len(values))
        out[i, i + offset] = values
        out[i + offset, i] = values
    return out


def _position_power_diagonals(dim: int) -> tuple[dict, dict]:
    """Closed-form diagonals {offset: values} of X^2 and X^4 in the number basis."""
    k = np.arange(dim, dtype=float)
    root2 = np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0))
    root4 = np.sqrt((k[:-4] + 1.0) * (k[:-4] + 2.0) * (k[:-4] + 3.0) * (k[:-4] + 4.0))
    x2 = {0: k + 0.5, 2: 0.5 * root2}
    x4 = {
        0: 0.75 * (2.0 * k * k + 2.0 * k + 1.0),
        2: 0.5 * (2.0 * k[:-2] + 3.0) * root2,
        4: 0.25 * root4,
    }
    return x2, x4


def _parity_blocks(anharmonicity: float, truncation: int) -> list[list[np.ndarray]]:
    """Main, first and second diagonals of the even and of the odd block of H_N."""
    _, x4 = _position_power_diagonals(truncation)
    h_diagonals = {offset: 0.25 * anharmonicity * d for offset, d in x4.items()}
    h_diagonals[0] += np.arange(truncation) + 0.5
    # even states sit at rows 0::2, odd at 1::2, and the offsets 2 and 4
    # become 1 and 2 inside a block
    return [[h_diagonals[offset][p::2] for offset in (0, 2, 4)] for p in (0, 1)]


def _leading(diagonals: list[np.ndarray], width: int) -> list[np.ndarray]:
    """Diagonals 0, 1 and 2 of the leading width x width block of a pentadiagonal matrix."""
    return [d[: width - offset] for offset, d in enumerate(diagonals)]


def _norm1(diagonals: list[np.ndarray]) -> float:
    """||A||_1 of the symmetric pentadiagonal A with main, first and second diagonals."""
    main, first, second = (np.abs(d) for d in diagonals)
    sums = main.copy()
    sums[:-1] += first
    sums[1:] += first
    sums[:-2] += second
    sums[2:] += second
    return float(sums.max())


def _cut_residual(diagonals: list[np.ndarray], vectors: np.ndarray) -> np.ndarray:
    """||A v - theta v|| for each column v of vectors, padded with zeros, beyond the cut.

    A is the pentadiagonal matrix with these diagonals, and vectors are
    eigenvectors of its leading block, whose width is their length.  Only
    the rows m and m + 1 just beyond the block reach it, through its last
    two rows.
    """
    main, first, second = diagonals
    m = len(vectors)
    if m == len(main):
        return np.zeros(vectors.shape[1])
    coupling = np.zeros((2, 2))
    coupling[0] = second[m - 2], first[m - 1]
    if m + 1 < len(main):
        coupling[1, 1] = second[m - 1]
    return np.linalg.norm(coupling @ vectors[-2:], axis=0)


def _count_below(diagonals: list[np.ndarray], shift: float) -> tuple[int, float]:
    """Eigenvalues below shift of a symmetric pentadiagonal A, and how far the count can err.

    A - shift I = L D L^T is factored without pivoting, and by Sylvester's
    law of inertia the count is the number of negative pivots.  The
    computed factors are those of some A + E with |E| <= gamma_3 |L||D||L^T|
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 9.3; the
    rounding of A - shift I is inside that bound), so the count is exact
    unless an eigenvalue of A lies within ||E||_2 of the shift.  The second
    value bounds ||E||_2 by 4 eps times the largest row sum of |L||D||L^T|;
    it is infinite at a zero pivot.
    """
    main, first, second = diagonals
    a = (main - shift).tolist()
    b = [0.0, *first.tolist()]  # b[i] = A[i, i - 1]
    c = [0.0, 0.0, *second.tolist()]  # c[i] = A[i, i - 2]
    pivots, sub1, sub2 = [], [], []  # D[i], L[i, i - 1], L[i, i - 2]
    d1 = d2 = 1.0  # D[i - 1] and D[i - 2]; any nonzero value before row 0
    l1 = 0.0  # L[i - 1, i - 2]
    for ai, bi, ci in zip(a, b, c):
        li2 = ci / d2
        li1 = (bi - ci * l1) / d1
        di = ai - li1 * li1 * d1 - li2 * li2 * d2
        if di == 0.0:
            return 0, math.inf
        pivots.append(di)
        sub1.append(li1)
        sub2.append(li2)
        d2, d1, l1 = d1, di, li1
    d, l1s, l2s = np.abs(pivots), np.abs(sub1), np.abs(sub2)
    # row sums of |L||D||L^T|: w = |D| times the column sums of |L|, then |L| w
    w = d.copy()
    w[:-1] += d[:-1] * l1s[1:]
    w[:-2] += d[:-2] * l2s[2:]
    rows = w.copy()
    rows[1:] += l1s[1:] * w[:-1]
    rows[2:] += l2s[2:] * w[:-2]
    return int(np.count_nonzero(np.asarray(pivots) < 0.0)), 4.0 * _EPS * float(rows.max())


def _leading_eigenpairs(diagonals: list[np.ndarray], width: int, closed_form: bool):
    """Ascending eigenvalues and eigenvectors of the leading width x width block."""
    block = _leading(diagonals, width)
    if closed_form:
        # at g = 0 the block is diagonal and ascending: its levels are its
        # diagonal and its eigenvectors the number states, exactly what eigh
        # returns for it
        return block[0], np.eye(width)
    return np.linalg.eigh(_symmetric_banded(dict(enumerate(block))))


def _certified(parity_blocks: list, pairs: list, merged: np.ndarray, k: int) -> bool:
    """Whether the k lowest merged block levels are the k lowest levels of H_N.

    The two checks of the module docstring: each requested level's cut
    residual within eps ||A_M||_1, and the same count below the shift in
    each parity block of H_N as in its leading block.
    """
    shift = 0.5 * (merged[k - 1] + merged[k])
    margin = 0.5 * (merged[k] - merged[k - 1])
    below = [int(np.count_nonzero(values < shift)) for values, _ in pairs]
    for diagonals, (_, vectors), kp in zip(parity_blocks, pairs, below):
        residual = _cut_residual(diagonals, vectors[:, :kp])
        if np.any(residual > _EPS * _norm1(_leading(diagonals, len(vectors)))):
            return False
    for diagonals, kp in zip(parity_blocks, below):
        count, error = _count_below(diagonals, shift)
        if count != kp or not error <= 0.5 * margin:
            return False
    return True


def build_model(
    anharmonicity: float, truncation: int = 64, levels: int | None = None
) -> OscillatorModel:
    """The lowest levels of H = diag(n + 1/2) + (g/4) X^4 at the given truncation.

    levels is how many levels to compute, every level when None.  Each is
    taken from a leading block that is certified or is the whole of H_N,
    as the module docstring describes.
    """
    g = require_finite("anharmonicity", anharmonicity)
    if g < 0.0:
        raise ValueError(f"anharmonicity must be non-negative, got {g}")
    n = int(truncation)
    if n < MIN_TRUNCATION:
        raise ValueError(f"truncation must be at least {MIN_TRUNCATION}, got {n}")
    k = n if levels is None else min(int(levels), n)
    if k < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")

    parity_blocks = _parity_blocks(g, n)
    m = BLOCK_START
    while True:
        m = min(m, n)
        # the shift needs a block level above the k requested, unless the
        # block is H_N; each block's dense H is freed as soon as its eigh returns
        if m > k or m == n:
            pairs = [
                _leading_eigenpairs(diagonals, (m + 1 - p) // 2, g == 0.0)
                for p, diagonals in enumerate(parity_blocks)
            ]
            values = np.concatenate([pairs[0][0], pairs[1][0]])
            order = np.argsort(values, kind="stable")
            if m == n or _certified(parity_blocks, pairs, values[order], k):
                break
        m *= 2

    # eigh returns each block ascending, so the k lowest levels are the
    # first k_p columns of each block; keep those alone
    kept = order[:k]
    even_width = len(pairs[0][0])
    k0 = int(np.count_nonzero(kept < even_width))
    blocks = []
    for (_, vectors), kp in zip(pairs, (k0, k - k0)):
        blocks.append(vectors if kp == vectors.shape[1] else vectors[:, :kp].copy())
    columns = np.where(kept < even_width, kept, kept - even_width + k0)
    rank = np.empty(k, dtype=int)
    rank[columns] = np.arange(k)
    for p, level in ((0, rank[:k0]), (1, rank[k0:])):
        # one global sign per column: keep the harmonic-level component >= 0;
        # a level of the other parity has no such component and keeps +1
        vectors = blocks[p]
        harmonic = np.where(level % 2 == p, vectors[(level - p) // 2, np.arange(len(level))], 0.0)
        vectors *= np.where(harmonic < 0.0, -1.0, 1.0)
    return OscillatorModel(g, n, values[kept], (blocks[0], blocks[1]), columns)


def truncation_problem(model: OscillatorModel, levels: Sequence[int]) -> str | None:
    """Why the truncation is too small to resolve the levels, or None if it is not."""
    if model.anharmonicity == 0.0:
        # nothing couples across the cut: every level is a number state, exact at any N
        return None
    weight = model.tail_weight(levels)
    if weight <= TAIL_WEIGHT_LIMIT:
        return None
    return (
        f"truncation {model.truncation} is too small for lambda={model.anharmonicity:.6g}: "
        f"levels {', '.join(map(str, levels))} put weight {weight:.3g} in the top "
        f"{TAIL_STATES} basis states (limit {TAIL_WEIGHT_LIMIT:g}); "
        "use a larger truncation"
    )


def require_converged(model: OscillatorModel, levels: Sequence[int]) -> None:
    """Refuses a truncation too small to resolve the levels."""
    problem = truncation_problem(model, levels)
    if problem is not None:
        raise PhysicsPreconditionError(problem)


def first_order_energy(n: int, anharmonicity: float) -> float:
    """Small-g oracle E_n = n + 1/2 + (3g/16)(2n^2 + 2n + 1)."""
    g = require_finite("anharmonicity", anharmonicity)
    n = int(n)
    if n < 0:
        raise ValueError(f"level must be non-negative, got {n}")
    return n + 0.5 + (3.0 * g / 16.0) * (2.0 * n * n + 2.0 * n + 1.0)


def mode_overlap(model: OscillatorModel, n: int) -> float:
    """Overlap <n_harmonic|n(g)>, non-negative by the sign convention."""
    parity, column = model._block_column(n)
    return float(column[n // 2]) if n % 2 == parity else 0.0


@dataclass(frozen=True)
class AdiabaticBudget:
    """Raw scales for the separation-of-timescales check (hbar = 1 units)."""

    delta_e: float
    h_tilde: float
    t_meas: float
    ratio_threshold: float = 10.0

    def __post_init__(self) -> None:
        for name in ("delta_e", "h_tilde", "t_meas", "ratio_threshold"):
            value = require_finite(name, getattr(self, name))
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)


def require_adiabatic(budget: AdiabaticBudget) -> None:
    """Refuses a budget unless both scale ratios reach its threshold.

    r1 = delta_e / h_tilde (level spacing dominates the perturbation),
    r2 = t_meas * h_tilde (measurement slow against the induced dynamics).
    """
    r1 = budget.delta_e / budget.h_tilde
    r2 = budget.t_meas * budget.h_tilde
    if not (r1 >= budget.ratio_threshold and r2 >= budget.ratio_threshold):
        raise PhysicsPreconditionError(
            "adiabatic budget fails its separation-of-scales check "
            f"(margins r1={r1:.6g}, r2={r2:.6g}, threshold {budget.ratio_threshold:.6g})"
        )
