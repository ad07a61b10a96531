"""Dense numpy oracles for the oscillator and mode-rotation tests.

The package solves its parity blocks in plain Python; these build the
same matrices densely and diagonalize them with np.linalg.eigh, as an
independent reference.  The package writes the rotated |1,1> in closed
form; rotated_pair_state builds it from the rotation's generator.
"""

import numpy as np

from modetangle.oscillator import _parity_blocks


def position_operator(dim: int) -> np.ndarray:
    """X = (a + a+)/sqrt(2) in the number basis, dimension dim."""
    off = np.sqrt(np.arange(1, dim) / 2.0)
    return np.diag(off, k=1) + np.diag(off, k=-1)


def symmetric_banded(diagonals: dict) -> np.ndarray:
    """Dense symmetric matrix from its main and upper diagonals {offset: values}."""
    size = len(diagonals[0])
    out = np.zeros((size, size))
    for offset, values in diagonals.items():
        i = np.arange(len(values))
        out[i, i + offset] = values
        out[i + offset, i] = values
    return out


def parity_block_matrices(g: float, n: int) -> list[np.ndarray]:
    """The even and the odd block of H_N, dense."""
    return [symmetric_banded(dict(enumerate(diagonals))) for diagonals in _parity_blocks(g, n)]


def norm1(g: float, n: int) -> float:
    """||H_N||_1, the largest absolute column sum."""
    return max(float(np.max(np.sum(np.abs(h), axis=0))) for h in parity_block_matrices(g, n))


def dense_levels(g: float, n: int, k: int) -> dict:
    """Levels 0..k-1 of H_N from a dense eigh of each parity block.

    Returns the levels, each level's overlap with its number state (the
    sign convention makes it non-negative, and a level of the other
    parity has none), its <X^2>, and the largest weight any of the k
    levels puts in the top four basis states.
    """
    pairs = [np.linalg.eigh(h) for h in parity_block_matrices(g, n)]
    values = np.concatenate([pairs[0][0], pairs[1][0]])
    order = np.argsort(values, kind="stable")[:k]
    even = len(pairs[0][0])
    x2 = symmetric_banded({0: np.arange(n) + 0.5, 2: 0.5 * np.sqrt((np.arange(n - 2) + 1.0) * (np.arange(n - 2) + 2.0))})
    overlaps, x_squared, tails = [], [], []
    for level, i in enumerate(order):
        parity, column = (0, i) if i < even else (1, i - even)
        state = np.zeros(n)
        state[parity::2] = pairs[parity][1][:, column]
        overlaps.append(abs(state[level]))
        x_squared.append(float(state @ x2 @ state))
        tails.append(float(np.sum(state[-4:] ** 2)))
    return {
        "eigenvalues": values[order],
        "overlaps": np.array(overlaps),
        "x_squared": np.array(x_squared),
        "tail_weight": max(tails),
    }


def rotated_pair_state(phi: np.ndarray) -> np.ndarray:
    """(steps, 9) amplitudes of exp(phi G)|1,1> over two 3-level modes, G = a b+ - a+ b.

    exp(phi G) = V diag(exp(-i phi w)) V^H from the eigenpairs (w, V) of
    the Hermitian iG, so the result is complex.
    """
    lower = np.diag(np.sqrt(np.arange(1.0, 3.0)), k=1)
    a = np.kron(lower, np.eye(3))
    b = np.kron(np.eye(3), lower)
    w, v = np.linalg.eigh(1j * (a @ b.T - a.T @ b))
    start = np.zeros(9)
    start[1 * 3 + 1] = 1.0
    return (np.exp(-1j * np.outer(phi, w)) * (v.conj().T @ start)) @ v.T
