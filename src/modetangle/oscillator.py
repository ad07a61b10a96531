"""Quartic-anharmonic oscillator in a truncated number basis.

The Hamiltonian is H = diag(n + 1/2) + (g/4) X^4 with X = (a + a+)/sqrt(2),
in units hbar = m = omega = 1, where g >= 0 is the anharmonicity.  H is
built from the closed-form number-basis elements of X^4, which sit on
diagonals 0, +-2 and +-4:

    <k|X^4|k>   = (3/4)(2k^2 + 2k + 1)
    <k|X^4|k+2> = (1/2)(2k + 3) sqrt((k+1)(k+2))
    <k|X^4|k+4> = (1/4) sqrt((k+1)(k+2)(k+3)(k+4))

so the truncated H is the exact projection of the full operator, and X^2
likewise comes from its diagonals 0 and +-2.  H couples n only to n +- 2
and n +- 4, so it commutes with parity: the even and the odd number
states are diagonalized as two separate blocks and their levels merged
in ascending order.  At g = 0 H is diagonal, and the blocks are written
down in closed form rather than diagonalized.

The model keeps the two block eigenvector matrices that eigh returns,
N^2/2 floats in all, plus a rank map of N ints from each level to its
block and column.  No N x N array is formed: eigenstate scatters one
column into the number basis on demand, mode_overlap and tail_weight
read entries of the level's column, and <X^2> is an O(N) sum over that
column with the X^2 diagonals restricted to its parity.

The diagonal element gives the first-order shift, hence

    E_n ~= n + 1/2 + (3g/16)(2n^2 + 2n + 1)

which serves as the small-g oracle.  Eigenvectors are sign-fixed so the
overlap with the corresponding harmonic level is non-negative.

A truncation is too small when a level leans on the top of the basis.
The tail weight of a level is the weight its eigenvector puts in the top
TAIL_STATES basis states.  truncation_problem describes levels whose
tail weight exceeds TAIL_WEIGHT_LIMIT; the oscillator command prints it
as a warning and the protocol refuses to run through require_converged.
At g = 0 nothing couples across the cut, so no truncation is too small.
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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._common import PhysicsPreconditionError, require_finite

__all__ = [
    "OscillatorModel",
    "ModeAssignment",
    "AdiabaticBudget",
    "position_operator",
    "build_model",
    "truncation_problem",
    "require_converged",
    "first_order_energy",
    "mode_overlap",
    "default_mode_assignment",
    "require_adiabatic",
]

MIN_TRUNCATION = 8
TAIL_STATES = 4
TAIL_WEIGHT_LIMIT = 1e-12


def position_operator(dim: int) -> np.ndarray:
    """X = (a + a+)/sqrt(2) in the number basis, dimension dim."""
    off = np.sqrt(np.arange(1, dim) / 2.0)
    return np.diag(off, k=1) + np.diag(off, k=-1)


@dataclass(frozen=True, eq=False)
class OscillatorModel:
    """Diagonalized truncated model; immutable after construction.

    eigenvalues are ascending.  The eigenvectors are held as the two
    parity blocks: blocks[p][:, c] is a level of parity p over the basis
    states p, p + 2, p + 4, ...  columns[n] is the rank map: level n is
    column columns[n] of the even block if that is below the even
    block's width, otherwise column columns[n] - width of the odd block.
    Each column is sign-fixed so the level's harmonic component
    <n|n(g)> is non-negative.  The arrays are taken over and made
    read-only, not copied.
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
        """Level n over the whole number basis, zero on the other parity."""
        parity, column = self._block_column(n)
        out = np.zeros(self.truncation)
        out[parity::2] = column
        return out

    def x_squared_expectation(self, n: int) -> float:
        """<n(g)|X^2|n(g)>; equals n + 1/2 at zero anharmonicity."""
        parity, u = self._block_column(n)
        x2, _ = _position_power_diagonals(self.truncation)
        # inside a block the X^2 diagonals 0 and +-2 become 0 and +-1.  Form
        # X^2 u row by row before the dot product: the diagonal and the
        # off-diagonal terms cancel within each row, where summing them as
        # two separate totals loses ~7e-15 relative at g = 100
        d0, d1 = x2[0][parity::2], x2[2][parity::2]
        x2u = d0 * u
        x2u[:-1] += d1 * u[1:]
        x2u[1:] += d1 * u[:-1]
        return float(u @ x2u)

    def tail_weight(self, levels: Sequence[int]) -> float:
        """Largest weight any of the levels puts in the top TAIL_STATES basis states."""
        # the top TAIL_STATES basis states are the last TAIL_STATES // 2 rows of each block
        tails = [self._block_column(n)[1][-(TAIL_STATES // 2):] for n in levels]
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


def build_model(anharmonicity: float, truncation: int = 64) -> OscillatorModel:
    """Diagonalize H = diag(n + 1/2) + (g/4) X^4 at the given truncation."""
    g = require_finite("anharmonicity", anharmonicity)
    if g < 0.0:
        raise ValueError(f"anharmonicity must be non-negative, got {g}")
    n = int(truncation)
    if n < MIN_TRUNCATION:
        raise ValueError(f"truncation must be at least {MIN_TRUNCATION}, got {n}")

    _, x4 = _position_power_diagonals(n)
    h_diagonals = {offset: 0.25 * g * d for offset, d in x4.items()}
    h_diagonals[0] += np.arange(n) + 0.5

    # parity blocks: even states sit at rows 0::2, odd at 1::2, and the
    # offsets 2 and 4 become 1 and 2 inside a block; each block's H is
    # freed as soon as its eigh returns.  At g = 0 H = diag(n + 1/2) is
    # diagonal and ascending: each block's levels are its diagonal and its
    # eigenvectors the number states, exactly what eigh returns for it
    if g == 0.0:
        blocks = [(d, np.eye(len(d))) for d in (h_diagonals[0][0::2], h_diagonals[0][1::2])]
    else:
        blocks = [
            np.linalg.eigh(_symmetric_banded({o // 2: d[p::2] for o, d in h_diagonals.items()}))
            for p in (0, 1)
        ]
    values = np.concatenate([blocks[0][0], blocks[1][0]])
    order = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    width = len(blocks[0][0])
    for p, level in ((0, rank[:width]), (1, rank[width:])):
        # one global sign per column: keep the harmonic-level component >= 0;
        # a level of the other parity has no such component and keeps +1
        vectors = blocks[p][1]
        harmonic = np.where(level % 2 == p, vectors[(level - p) // 2, np.arange(len(level))], 0.0)
        vectors *= np.where(harmonic < 0.0, -1.0, 1.0)
    return OscillatorModel(g, n, values[order], (blocks[0][1], blocks[1][1]), order)


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
class ModeAssignment:
    """Binding of particle labels to oscillator levels, one level each."""

    pairs: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((str(p), int(n)) for p, n in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        particles = [p for p, _ in pairs]
        levels = [n for _, n in pairs]
        if not pairs:
            raise ValueError("assignment must bind at least one particle")
        if len(set(particles)) != len(particles):
            raise ValueError("each particle may be assigned only once")
        if len(set(levels)) != len(levels):
            raise ValueError(f"levels must be distinct, got {levels}")
        if any(n < 0 for n in levels):
            raise ValueError("levels must be non-negative")

    def level_of(self, particle: str) -> int:
        for p, n in self.pairs:
            if p == particle:
                return n
        raise KeyError(f"no level assigned to {particle!r}")


def default_mode_assignment() -> ModeAssignment:
    """photon_1 -> level 1, photon_2 -> level 2."""
    return ModeAssignment((("photon_1", 1), ("photon_2", 2)))


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
