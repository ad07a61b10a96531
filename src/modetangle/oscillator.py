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

build_model computes only the lowest levels it is asked for, and solves
only a leading block of each H_p: the parity blocks A_M of the
truncation M, which is BLOCK_START at first and doubles until the
requested levels of A_M are certified as those of H_N (a Rayleigh-Ritz
compression; Parlett, The Symmetric Eigenvalue Problem, ch. 10).

A block is solved in plain Python for its lowest pairs only, the classical
method for a few eigenpairs of a band matrix (Barth, Martin & Wilkinson,
Numer. Math. 9, 1967; Parlett, ch. 3 and 4):

1. Isolation.  The number of eigenvalues below a shift s is the number
   of negative pivots of the LDL^T of A_M - s I, which keeps bandwidth 2
   (Sylvester's law of inertia).  Bisection on that count finds how many
   of the wanted levels each parity holds, then an interval that holds
   each level alone.
2. Vector.  Rayleigh quotient iteration inside that interval, each step
   one banded elimination with partial pivoting of A_M - s I, carrying
   the iterate along, until the residual is at the block's rounding
   scale eps ||A_M||_1.  It starts from the level's number state, or from
   the level as the previous, narrower block gave it, which one step then
   finishes.
3. Level.  The vector's Rayleigh quotient.

Only +, -, *, /, math.sqrt and math.fsum touch the floats, and every sum
has a fixed order or is math.fsum (correctly rounded), so a level does
not depend on the CPU, a BLAS library, or the Python version.  At
N = 16 and 32, levels 0-9 lie within 0.4 eps ||H_N||_1 of a 50-digit
bisection of the same blocks.

Two checks certify the levels of A_M as those of H_N, each O(N):

1. Cut residual.  A block eigenvector padded with zeros misses being an
   eigenvector of H_N only in the two rows just beyond the cut, which
   reach the last two rows of the block.  That residual must not exceed
   eps ||A_M||_1, the rounding scale of the block's own solve, so a level
   is no less accurate than one from the whole of H_N, whose scale is
   eps ||H_N||_1.
2. Index.  At a shift s halfway between the last requested level and the
   next block level, each H_p must have as many eigenvalues below s as
   its A_M: the count of negative LDL^T pivots above.  A pivot is too
   small when the growth it causes could carry an eigenvalue across s.
   Such a pivot, or a count that differs, doubles M.

When M reaches N the block is H_N itself and there is nothing to
certify.  It is the path for a truncation of at most BLOCK_START and
wherever the levels lean on the top of the basis: g = 100 takes the
full blocks up to N = 800 and is certified at M = 1024 for N = 1600.
At g = 0 H is diagonal: the cut residual is exactly 0 and the count is
exact, so the first block solved is certified, and the solver returns
the levels n + 1/2 and the number states exactly.

The model keeps each level's parity and its column over the leading
rows of its block: O(M k) floats for k levels.  No N x N array is
formed: eigenstate scatters the column into the number basis, zero
beyond the block, mode_overlap reads an entry of the column and
mode_deformation the norm of the others, and <X^2> is an O(M) sum over
the column with the X^2 diagonals restricted to its parity.
A level that was not computed is refused.

The diagonal element gives the first-order shift, hence

    E_n ~= n + 1/2 + (3g/16)(2n^2 + 2n + 1)

which serves as the small-g oracle.  Eigenvectors are sign-fixed so the
overlap with the corresponding harmonic level is non-negative.

A truncation is too small when a level leans on the top of the basis.
Check 1's cut residual on the parity bands of H_{N+4}, which reach two
rows beyond every column, is level n's residual r_n against the
untruncated operator.  The model keeps r_n^2 / gap_n per level, gap_n
being the distance to the nearest computed level (Kato-Temple; Parlett,
ch. 10): an estimate, not a certificate, without a lower bound on that
neighbour.  A zero gap or an overflow reads as the largest float.
truncation_problem describes levels whose estimate exceeds
ENERGY_TOL (n + 1/2); the oscillator command prints it as a warning and
the protocol refuses to run through require_converged.  At g = 0, r_n
is exactly 0.  Against a 4N truncation, each estimate was at least 8.8
times its level's error where that error passed 4 eps ||H_N||_1.
First-order perturbation theory is no oracle at large g (Bender & Wu,
Phys. Rev. 184, 1231, 1969), so the truncation is checked against itself.

The module imports no numpy, and the model is a NamedTuple like _Band,
so the oscillator command loads neither numpy nor inspect: a child's
cost is the interpreter's start and build_model.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from ._common import PhysicsPreconditionError, require_finite, require_integer

__all__ = [
    "OscillatorModel",
    "build_model",
    "truncation_problem",
    "require_converged",
    "first_order_energy",
    "mode_overlap",
    "mode_deformation",
]

MIN_TRUNCATION = 8
# a level's truncation error estimate may reach ENERGY_TOL (n + 1/2)
ENERGY_TOL = 1e-9
# the leading truncation build_model solves first; it doubles until certified
BLOCK_START = 64
_EPS = 2.0**-52
_FLOAT_MAX = sys.float_info.max
# Rayleigh quotient iterations allowed per level; a few suffice once the level is isolated
_MAX_ITERATIONS = 50


class OscillatorModel(NamedTuple):
    """The lowest levels of the truncated model.

    eigenvalues holds the computed levels, ascending.  vectors[n] is
    (p, column): level n has parity p, and column holds its
    eigenvector over the leading basis states p, p + 2, p + 4, ...; it is
    zero on the states below the truncation that follow them.  Each
    column is sign-fixed so the level's harmonic component <n|n(g)> is
    non-negative.  truncation_errors[n] estimates level n's truncation error.
    """

    anharmonicity: float
    truncation: int
    eigenvalues: tuple[float, ...]
    vectors: tuple[tuple[int, tuple[float, ...]], ...]
    truncation_errors: tuple[float, ...]

    def energy(self, n: int) -> float:
        return self.eigenvalues[self._check_level(n)]

    def eigenstate(self, n: int) -> list[float]:
        """Level n over the whole number basis, zero on the other parity and beyond its block."""
        parity, column = self.vectors[self._check_level(n)]
        out = [0.0] * self.truncation
        out[parity : parity + 2 * len(column) : 2] = column
        return out

    def x_squared_expectation(self, n: int) -> float:
        """<n(g)|X^2|n(g)>; equals n + 1/2 at zero anharmonicity."""
        parity, u = self.vectors[self._check_level(n)]
        d0, d1 = _x_squared_diagonals(parity, len(u))
        # form X^2 u row by row before the dot product: the diagonal and the
        # off-diagonal terms cancel within each row, where summing them as
        # two separate totals loses ~7e-15 relative at g = 100
        x2u = [d * ui for d, ui in zip(d0, u)]
        for i, d in enumerate(d1):
            x2u[i] += d * u[i + 1]
            x2u[i + 1] += d * u[i]
        return math.fsum([ui * ri for ui, ri in zip(u, x2u)])

    def _check_level(self, n: int) -> int:
        n = require_integer("level", n)
        if not 0 <= n < self.truncation:
            raise ValueError(f"level {n} outside truncation {self.truncation}")
        if n >= len(self.eigenvalues):
            raise ValueError(
                f"level {n} was not computed; the model holds levels 0-{len(self.eigenvalues) - 1}"
            )
        return n


def _x_squared_diagonals(parity: int, rows: int) -> tuple[list[float], list[float]]:
    """Main and first diagonals of X^2 over the leading rows of one parity block.

    They are X^2's diagonals 0 and +-2 at the states parity, parity + 2, ...
    """
    k = [float(parity + 2 * i) for i in range(rows)]
    return [x + 0.5 for x in k], [0.5 * math.sqrt((x + 1.0) * (x + 2.0)) for x in k[:-1]]


def _parity_blocks(anharmonicity: float, truncation: int) -> list[list[list[float]]]:
    """Main, first and second diagonals of the even and of the odd block of H_N."""
    k = [float(i) for i in range(truncation)]
    q = 0.25 * anharmonicity
    # diag(k + 1/2) + q X^4, from the closed-form diagonals 0, 2 and 4 of X^4
    h = [
        [q * (0.75 * (2.0 * x * x + 2.0 * x + 1.0)) + (x + 0.5) for x in k],
        [q * (0.5 * (2.0 * x + 3.0) * math.sqrt((x + 1.0) * (x + 2.0))) for x in k[:-2]],
        [q * (0.25 * math.sqrt((x + 1.0) * (x + 2.0) * (x + 3.0) * (x + 4.0))) for x in k[:-4]],
    ]
    # even states sit at rows 0::2, odd at 1::2, and the offsets 2 and 4
    # become 1 and 2 inside a block
    return [[d[p::2] for d in h] for p in (0, 1)]


class _Band(NamedTuple):
    """A symmetric pentadiagonal matrix A, laid out for the row loops below.

    first[i] = A[i, i - 1] and second[i] = A[i, i - 2]; both start with
    the zeros above row 0 and end with four zeros below the last row, so
    A[i, i + 1] = first[i + 1] and A[i, i + 2] = second[i + 2].  radii[i]
    sums |A[i, j]| over j != i, and rounding is eps ||A||_1.
    """

    main: list[float]
    first: list[float]
    second: list[float]
    radii: list[float]
    rounding: float


def _band(diagonals: list[list[float]]) -> _Band:
    """The _Band of the matrix with these main, first and second diagonals."""
    main, first, second = diagonals
    first = [0.0, *first, 0.0, 0.0, 0.0, 0.0]
    second = [0.0, 0.0, *second, 0.0, 0.0, 0.0, 0.0]
    radii = [
        abs(first[i + 1]) + abs(first[i]) + abs(second[i + 2]) + abs(second[i])
        for i in range(len(main))
    ]
    # ||A||_1 is the largest absolute row sum
    norm = max(abs(a) + r for a, r in zip(main, radii))
    return _Band(main, first, second, radii, _EPS * norm)


def _leading(band: _Band, width: int) -> _Band:
    """The leading width x width block of the band."""
    return _band([band.main[:width], band.first[1:width], band.second[2:width]])


def _cut_residual(band: _Band, v: Sequence[float]) -> float:
    """||A v - theta v|| for the vector v, padded with zeros, beyond the cut.

    A is the band, and v is an eigenvector of its leading block, whose
    width is its length.  Only the rows m and m + 1 just beyond the block
    reach it, through its last two rows; below A's last row the band's
    zero padding stands in for them.
    """
    _, first, second, _, _ = band
    m = len(v)
    row_m, row_m1 = second[m] * v[m - 2] + first[m] * v[m - 1], second[m + 1] * v[m - 1]
    # scaled by a power of two, which moves no bit, so that no square overflows
    e = math.frexp(max(abs(row_m), abs(row_m1)))[1]
    row_m, row_m1 = math.ldexp(row_m, -e), math.ldexp(row_m1, -e)
    return math.ldexp(math.sqrt(row_m * row_m + row_m1 * row_m1), e)


def _count_below(band: _Band, shift: float) -> tuple[int, float]:
    """Eigenvalues below shift of a symmetric pentadiagonal A, and how far the count can err.

    A - shift I = L D L^T is factored without pivoting, and by Sylvester's
    law of inertia the count is the number of negative pivots.  The
    computed factors are those of some A + E with |E| <= gamma_3 |L||D||L^T|
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 9.3; the
    rounding of A - shift I is inside that bound), so the count is exact
    unless an eigenvalue of A lies within ||E||_2 of the shift.  The second
    value bounds ||E||_2 by 4 eps times the largest row sum of |L||D||L^T|;
    it is infinite at a zero pivot.  _negative_pivots factors and records
    the factors; this function only bounds them.
    """
    pivots = []
    count = _negative_pivots(band, shift, pivots)
    e, s, t = (list(map(abs, pivots[i::3])) for i in range(3))  # |D[i]|, |L[i, i - 1]|, |L[i, i - 2]|
    if 0.0 in e:
        return 0, math.inf
    # w_j = |D_j| + |D_j||L[j + 1, j]| + |D_j||L[j + 2, j]|, without the
    # terms of rows past the last, and row i of |L||D||L^T| sums to
    # w_i + |L[i, i - 1]| w_{i - 1} + |L[i, i - 2]| w_{i - 2}
    w = [ej + ej * sj + ej * tj for ej, sj, tj in zip(e, s[1:], t[2:])]
    w += [ej + ej * sj for ej, sj in zip(e[-2:-1], s[-1:])] + e[-1:]
    above = [0.0, 0.0, *w]  # above[i + 2] = w_i, zero before row 0
    rows = [wi + si * w1 + ti * w2 for wi, si, ti, w1, w2 in zip(w, s, t, above[1:], above)]
    return count, 4.0 * _EPS * max(0.0, *rows)


def _negative_pivots(band: _Band, shift: float, pivots: list | None = None) -> int:
    """The count of _count_below: eigenvalues of the band below shift.

    A pivot that is exactly zero is taken as a negative one of the size
    of the band's rounding, as if the shift were that much higher.  Given
    a list, it appends each row's D[i], taken before that substitution,
    L[i, i - 1] and L[i, i - 2]: the factors that _count_below bounds.
    Bisection passes none and records nothing.
    """
    main, first, second, _, rounding = band
    count = 0
    d1 = d2 = 1.0  # D[i - 1] and D[i - 2]; any nonzero value before row 0
    l1 = 0.0  # L[i - 1, i - 2]
    for ai, bi, ci in zip(main, first, second):
        li2 = ci / d2
        b = bi - ci * l1
        li1 = b / d1
        di = ai - shift - li1 * b - li2 * ci
        if pivots is not None:
            pivots.append(di)
            pivots.append(li1)
            pivots.append(li2)
        if di <= 0.0:
            count += 1
            if di == 0.0:
                di = -rounding
        d2, d1, l1 = d1, di, li1
    return count


def _shifted_solve(band: _Band, shift: float, rhs: list[float]) -> list[float]:
    """x with (A - shift I) x = rhs for the band A, by elimination with partial pivoting.

    Column j has nonzeros in rows j to j + 2 only, so each step picks its
    pivot among three rows, and a row of U reaches 4 columns right of the
    diagonal (Golub & Van Loan, Matrix Computations, sec. 4.3).  Each row
    carries its entry of the right-hand side through the elimination, and
    only the rows of U are kept, for the back substitution.  A pivot
    smaller than the band's rounding is raised to it, sign kept: in
    inverse iteration a singular A - shift I only means that the shift is
    exact, and the solution stays within the float range.
    """
    main, first, second, _, rounding = band
    d = [a - shift for a in main]
    d += (0.0, 0.0)
    # the rows now in positions j and j + 1, from column j on, and their rhs entries
    x0, x1, x2, x3, x4, f0 = d[0], first[1], second[2], 0.0, 0.0, rhs[0]
    y0, y1, y2, y3, y4, f1 = first[1], d[1], first[2], second[3], 0.0, rhs[1]
    upper = []
    # row j + 2 is still A's own at step j: A[j + 2, j:j + 5]
    rows = zip(second[2:], first[2:], d[2:], first[3:], second[4:], [*rhs[2:], 0.0, 0.0])
    for z0, z1, z2, z3, z4, f2 in rows:
        ax, ay, az = abs(x0), abs(y0), abs(z0)
        if ay > ax and ay >= az:
            x0, x1, x2, x3, x4, f0, y0, y1, y2, y3, y4, f1 = y0, y1, y2, y3, y4, f1, x0, x1, x2, x3, x4, f0
        elif az > ax:
            x0, x1, x2, x3, x4, f0, z0, z1, z2, z3, z4, f2 = z0, z1, z2, z3, z4, f2, x0, x1, x2, x3, x4, f0
        if abs(x0) < rounding:
            x0 = -rounding if x0 < 0.0 else rounding
        m1, m2 = y0 / x0, z0 / x0
        upper.append((x0, x1, x2, x3, x4, f0))
        x0, x1, x2, x3, x4, f0, y0, y1, y2, y3, y4, f1 = (
            y1 - m1 * x1, y2 - m1 * x2, y3 - m1 * x3, y4 - m1 * x4, 0.0, f1 - m1 * f0,
            z1 - m2 * x1, z2 - m2 * x2, z3 - m2 * x3, z4 - m2 * x4, 0.0, f2 - m2 * f0,
        )
    x = [0.0] * (len(upper) + 4)
    for j in range(len(upper) - 1, -1, -1):
        u0, u1, u2, u3, u4, f = upper[j]
        x[j] = (f - u1 * x[j + 1] - u2 * x[j + 2] - u3 * x[j + 3] - u4 * x[j + 4]) / u0
    del x[-4:]
    return x


def _rayleigh_quotient(band: _Band, v: list[float]) -> float:
    """v^T A v / v^T v for the band A, with A v formed row by row."""
    main, first, second, _, _ = band
    u = [0.0, 0.0, *v, 0.0, 0.0]  # u[i + 2] = v[i]
    av = [
        a * u[i + 2] + first[i + 1] * u[i + 3] + first[i] * u[i + 1]
        + second[i + 2] * u[i + 4] + second[i] * u[i]
        for i, a in enumerate(main)
    ]
    return math.fsum([vi * r for vi, r in zip(v, av)]) / math.fsum([vi * vi for vi in v])


def _isolate(band: _Band, lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    """Intervals [l, u), one per eigenvalue, for the count lowest eigenvalues, all in [lo, hi).

    Bisection on the count below a shift.  Two eigenvalues too close for
    a float to fall between them share an interval.
    """
    intervals = [(lo, hi)] * count
    pending = [(lo, 0, hi, count)]
    while pending:
        l, cl, u, cu = pending.pop()
        mid = 0.5 * (l + u)
        if cu - cl == 1 or not l < mid < u:
            intervals[cl:cu] = [(l, u)] * (cu - cl)
            continue
        # a count out of order with its neighbours' is rounding; clamp it
        cm = min(max(_negative_pivots(band, mid), cl), cu)
        if cm > cl:
            pending.append((l, cl, mid, cm))
        if cu > cm:
            pending.append((mid, cm, u, cu))
    return intervals


def _eigenvector(band: _Band, level: int, lo: float, hi: float, guess: tuple) -> list[float]:
    """Unit eigenvector of the band's level, which [lo, hi) holds alone.

    Rayleigh quotient iteration from guess, a (value, vector) pair, with
    the shift kept inside [lo, hi): a quotient that leaves it is replaced
    by a bisection step.  It stops once the residual ||(A - shift I) x||
    of the new unit vector x, which is 1/||(A - shift I)^-1 v|| for the
    previous one v, is within 4 eps ||A||_1 (Parlett, ch. 4).
    """
    shift, v = guess
    if not lo <= shift < hi:
        shift = 0.5 * (lo + hi)
    for _ in range(_MAX_ITERATIONS):
        x = _shifted_solve(band, shift, v)
        # ||x|| = root 2^e, scaled by a power of two so that no square
        # overflows or underflows; the scaling is exact and moves no bit
        e = math.frexp(max(map(abs, x)))[1]
        scale = math.ldexp(1.0, -e)
        x = [xi * scale for xi in x]
        root = math.sqrt(math.fsum([xi * xi for xi in x]))
        x = [xi / root for xi in x]
        if math.ldexp(1.0 / root, -e) <= 4.0 * band.rounding:
            return x
        # (A - shift I) x = v / ||x||, so x^T A x = shift + x^T v / ||x||
        quotient = shift + math.ldexp(math.fsum([xi * vi for xi, vi in zip(x, v)]) / root, -e)
        if not lo <= quotient < hi:
            mid = 0.5 * (lo + hi)
            if _negative_pivots(band, mid) > level:
                hi = mid
            else:
                lo = mid
            quotient = 0.5 * (lo + hi)
        shift, v = quotient, x
    return v


def _lowest_pairs(bands: list[_Band], count: int, guesses: list) -> list:
    """(values, vectors) of each parity band: the count lowest levels of the two together.

    Each block's levels ascend, and its vectors are tuples over the
    block's rows.  A shift is bisected until the two blocks have count
    eigenvalues below it together, which tells how many each holds; then
    each level is isolated, its vector found by inverse iteration and its
    value taken as the vector's Rayleigh quotient.  guesses holds pairs in
    the same form, from narrower blocks, to start the iterations from.
    """
    slack = 4.0 * max(band.rounding for band in bands)
    # Gershgorin: every eigenvalue is above lo, and by interlacing each
    # block has at least min(width, count) eigenvalues below hi
    lo = min(a - r for band in bands for a, r in zip(band.main, band.radii)) - slack
    hi = max(a + r for band in bands for a, r in zip(band.main[:count], band.radii)) + slack
    counts = [_negative_pivots(band, hi) for band in bands]
    fewer = lo  # fewer than count eigenvalues below it
    while counts[0] + counts[1] > count:
        mid = 0.5 * (fewer + hi)
        if not fewer < mid < hi:
            break
        at_mid = [_negative_pivots(band, mid) for band in bands]
        if at_mid[0] + at_mid[1] >= count:
            hi, counts = mid, at_mid
        else:
            fewer = mid
    pairs = []
    for band, kp, (values, vectors) in zip(bands, counts, guesses):
        width = len(band.main)
        starts = [(value, [*x, *[0.0] * (width - len(x))]) for value, x in zip(values, vectors)]
        for level in range(len(starts), kp):
            # the number state of the level's row, whose Rayleigh quotient is its diagonal
            unit = [0.0] * width
            unit[level] = 1.0
            starts.append((band.main[level], unit))
        vectors = [
            tuple(_eigenvector(band, level, l, u, start))
            for level, ((l, u), start) in enumerate(zip(_isolate(band, lo, hi, kp), starts))
        ]
        values = [_rayleigh_quotient(band, v) for v in vectors]
        order = sorted(range(kp), key=values.__getitem__)
        pairs.append(([values[c] for c in order], [vectors[c] for c in order]))
    return pairs


def _certified(bands: list[_Band], leading: list[_Band], pairs: list, merged: list[float], k: int) -> bool:
    """Whether the k lowest merged block levels are the k lowest levels of H_N.

    The two checks of the module docstring: each requested level's cut
    residual within eps ||A_M||_1, and the same count below the shift in
    each parity block of H_N as in its leading block.
    """
    shift = 0.5 * (merged[k - 1] + merged[k])
    margin = 0.5 * (merged[k] - merged[k - 1])
    below = [sum(1 for value in values if value < shift) for values, _ in pairs]
    for band, block, (_, vectors), kp in zip(bands, leading, pairs, below):
        if any(_cut_residual(band, v) > block.rounding for v in vectors[:kp]):
            return False
    for band, kp in zip(bands, below):
        count, error = _count_below(band, shift)
        if count != kp or not error <= 0.5 * margin:
            return False
    return True


def build_model(anharmonicity: float, truncation: int, levels: int) -> OscillatorModel:
    """The lowest levels of H = diag(n + 1/2) + (g/4) X^4 at the given truncation.

    levels is how many levels to compute; a count above the truncation
    is clamped to it.  Each is taken from a leading block that is
    certified or is the whole of H_N, as the module docstring describes.
    """
    g = require_finite("anharmonicity", anharmonicity)
    if g < 0.0:
        raise ValueError(f"anharmonicity must be non-negative, got {g}")
    n = require_integer("truncation", truncation)
    if n < MIN_TRUNCATION:
        raise ValueError(f"truncation must be at least {MIN_TRUNCATION}, got {n}")
    k = min(require_integer("levels", levels), n)
    if k < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")

    # H_N's parity blocks lead those of H_{N+4}, on which the residuals are taken
    wide = [_band(diagonals) for diagonals in _parity_blocks(g, n + 4)]
    bands = [_leading(band, (n + 1 - p) // 2) for p, band in enumerate(wide)]
    # the last diagonal entry is H_N's largest, and ||H_N||_1 < 3 times it;
    # the solver's scaling needs ||H_N||_1 well inside the float range
    top = max(band.main[-1] for band in bands)
    if not top < 2.0**1000:
        raise ValueError(
            f"anharmonicity {g:g} is too large for truncation {n}: H reaches {top:.3g}, "
            "beyond the float range the solver handles"
        )
    pairs = [([], []), ([], [])]  # a failed block's pairs start the next block's iterations
    m = BLOCK_START
    while True:
        m = min(m, n)
        # the shift needs a block level above the k requested, unless the
        # block is H_N
        if m > k or m == n:
            leading = [_leading(band, (m + 1 - p) // 2) for p, band in enumerate(bands)]
            pairs = _lowest_pairs(leading, min(k + 1, m), pairs)
            ranked = [(value, p, vector) for p in (0, 1) for value, vector in zip(*pairs[p])]
            ranked.sort(key=lambda r: r[0])  # stable: even first on a tie
            merged = [value for value, _, _ in ranked]
            if m == n or _certified(bands, leading, pairs, merged, k):
                break
        m *= 2

    vectors, errors = [], []
    for level, (value, p, column) in enumerate(ranked[:k]):
        # one global sign per level: keep the harmonic-level component >= 0;
        # a level of the other parity has no such component and keeps +1
        if level % 2 == p and column[level // 2] < 0.0:
            column = tuple(-x for x in column)
        vectors.append((p, column))
        r = _cut_residual(wide[p], column)
        gap = min(abs(value - merged[j]) for j in (level - 1, level + 1) if 0 <= j < len(merged))
        # Kato-Temple with the computed gap, as the module docstring says
        errors.append(min(r * (r / gap), _FLOAT_MAX) if gap > 0.0 else _FLOAT_MAX)
    return OscillatorModel(g, n, tuple(merged[:k]), tuple(vectors), tuple(errors))


def truncation_problem(model: OscillatorModel, levels: Sequence[int]) -> str | None:
    """Why the truncation is too small to resolve the levels, or None if it is not."""
    errors = {n: model.truncation_errors[model._check_level(n)] for n in levels}
    failing = [n for n, error in errors.items() if error > ENERGY_TOL * (n + 0.5)]
    if not failing:
        return None
    return (
        f"truncation {model.truncation} is too small for lambda={model.anharmonicity:.6g}: "
        f"levels {', '.join(map(str, failing))} have truncation error estimates up to "
        f"{max(errors[n] for n in failing):.3g} (limit {ENERGY_TOL:g} (n + 1/2)); "
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
    n = require_integer("level", n)
    if n < 0:
        raise ValueError(f"level must be non-negative, got {n}")
    return n + 0.5 + (3.0 * g / 16.0) * (2.0 * n * n + 2.0 * n + 1.0)


def mode_overlap(model: OscillatorModel, n: int) -> float:
    """Overlap <n_harmonic|n(g)>, non-negative by the sign convention."""
    n = model._check_level(n)
    parity, column = model.vectors[n]
    return column[n // 2] if n % 2 == parity else 0.0


def mode_deformation(model: OscillatorModel, n: int) -> float:
    """sqrt(1 - overlap^2), the fsum norm of level n's other entries: right to rounding near overlap 1."""
    n = model._check_level(n)
    parity, column = model.vectors[n]
    harmonic = n // 2 if n % 2 == parity else None
    return math.sqrt(math.fsum([c * c for i, c in enumerate(column) if i != harmonic]))
