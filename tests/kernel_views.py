"""The tests' oracles: batched Schmidt kernels and per-setting views of the scans.

The scans compute each quantity once over an array of settings, the
step axis, and one setting is the length-1 case.  These helpers take
floats or arrays of settings and return one row per setting.  labeled
and fidelity give a dense state the factor names and the overlap that
the density-matrix oracle and the protocol's laws are stated in.
pair_small_weights and small_weight_entropies are the batched
closed-form Schmidt kernels that the commands' plain-Python entropies
spell out; reduced_spectra is their SVD oracle, decimal_pair_weights
their 50-digit oracle, and pair_from_overlaps builds a protocol pair
from its overlaps alone.

The scans print the pair entropies as the constant 1 bit.  The
amplitudes behind that constant are this module's oracle: _EPR_PAIR and
_INPUT_PAIR are the pairs before the stations, and _analyzed_pair and
_bragg_exits the pairs after them, with photon B's analyzer, or station
B's phase, held at 0 and only the angle that varies computed.
analyzed_pairs and bragg_outputs are the two-angle oracle of those
one-angle views: they take both settings, rotate each photon by its own
analyzer frame through einsum, and form the Bragg exits' phase factors
by complex products.  At B = 0 they give the one-angle amplitudes bit
for bit.  einsum without optimize
sums in one fixed order, where a BLAS product would round differently
on different CPU kernels, and _complex_product spells out each complex
product in real operations, which numpy's vectorized multiply may fuse
into FMA instructions.

The scans print the CHSH sum from its closed form.  correlations,
momentum_correlations and four_correlation_sum build it the physical
way, from the station correlations E, as the independent oracle of that
form, and decimal_chsh_curve is its 50-digit value.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from modetangle._common import _LN2
from modetangle.protocol import final_state_from_overlaps
from modetangle.states import BasisLabel, PureState, _kept_matrices


# (|HH> + |VV>)/sqrt(2) as a matrix: row index photon_A, column index photon_B.
_EPR_PAIR = np.eye(2) / math.sqrt(2.0)

# (|p,-p> + |p',-p'>)/sqrt(2) over factors atom_1, atom_2
_INPUT_PAIR = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def column(result, name):
    """The named column of a scan's dict of columns, as a list of floats, one per row."""
    values = result[name]
    if isinstance(values, float):
        return [values] * len(next(iter(result.values())))
    return [float(x) for x in values]


def _analyzed_pair(theta):
    """(steps, 4) real amplitudes over ++, +-, -+, -- of the pair analyzed at (theta, 0)."""
    c, s = np.cos(theta), np.sin(theta)
    pairs = np.column_stack([c, s, -s, c])
    pairs *= _EPR_PAIR[0, 0]
    return pairs


def _bragg_exits(t):
    """(steps, 4) exit-port amplitudes at phases (2t, 0) over (A+,B+), (A+,B-), (A-,B+), (A-,B-).

    At phi_b = 0 the factors -i e^{+-i phi_b} are -i, so the exits come
    from e = e^{2it} and f = e^{-2it} alone: the corners -i(e + 1) and
    -i(f + 1) are (Im e, -(Re e + 1)) and (Im f, -(Re f + 1)), with no
    complex product.
    """
    e, f = np.exp(2j * t), np.exp(-2j * t)
    exits = np.empty((len(t), 4), dtype=complex)
    exits[:, 0].real, exits[:, 0].imag = e.imag, -(e.real + 1.0)
    exits[:, 1], exits[:, 2] = e - 1.0, f - 1.0
    exits[:, 3].real, exits[:, 3].imag = f.imag, -(f.real + 1.0)
    exits *= 1.0 / (2.0 * math.sqrt(2.0))
    return exits


def _analyzer_frames(theta):
    """(2, 2, steps) real unitaries with rows <+| and <-|, the step axis last."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def analyzer_frames(theta):
    """(steps, 2, 2) analyzer rows <+| and <-| at each angle."""
    return np.moveaxis(_analyzer_frames(np.atleast_1d(theta)), -1, 0)


def analyzed_pairs(theta_a, theta_b):
    """(steps, 4) amplitudes over ++, +-, -+, -- of the pair analyzed at (theta_a, theta_b)."""
    frames = [_analyzer_frames(np.atleast_1d(theta)) for theta in (theta_a, theta_b)]
    pairs = np.einsum("ijs,jk,lks->ils", frames[0], _EPR_PAIR, frames[1], optimize=False)
    return pairs.reshape(4, pairs.shape[-1]).T


def _complex_product(u, v):
    """u * v with one rounding per real operation, the same on every CPU."""
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=complex)
    out.real = u.real * v.real - u.imag * v.imag
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def bragg_outputs(phi_a, phi_b):
    """(steps, 4) exit-port amplitudes over A+B+, A+B-, A-B+, A-B- at phases (phi_a, phi_b)."""
    phi_a, phi_b = np.atleast_1d(phi_a), np.atleast_1d(phi_b)
    d = phi_a - phi_b
    phase_b = np.exp(1j * phi_b)
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    return scale * np.stack(
        [
            _complex_product(-1j * phase_b, np.exp(1j * d) + 1.0),
            np.exp(1j * d) - 1.0,
            np.exp(-1j * d) - 1.0,
            _complex_product(-1j * np.conj(phase_b), np.exp(-1j * d) + 1.0),
        ],
        axis=-1,
    )


def correlations(theta_a, theta_b):
    """E = P(++) + P(--) - P(+-) - P(-+) of the pair analyzed at (theta_a, theta_b)."""
    joint = analyzed_pairs(theta_a, theta_b) ** 2
    return joint[:, 0] + joint[:, 3] - joint[:, 1] - joint[:, 2]


def momentum_correlations(phi_a, phi_b):
    """E = P(A+B+) + P(A-B-) - P(A+B-) - P(A-B+) of the Bragg exits at phases (phi_a, phi_b)."""
    joint = np.abs(bragg_outputs(phi_a, phi_b)) ** 2
    return joint[:, 0] + joint[:, 3] - joint[:, 1] - joint[:, 2]


def chsh_stations(t):
    """Station settings (a, b, a', b') = (0, t, 2t, 3t), as floats or arrays like t.

    t is finite, so t - t is +0.0 in the type and shape of t.
    """
    return (t - t, t, 2.0 * t, 3.0 * t)


def four_correlation_sum(correlate, t, unit=1.0):
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') at the stations (0, t, 2t, 3t) times unit.

    The interferometer's stations are half-angles, so its unit is 2: the
    phase knob is twice the station angle.
    """
    a, b, a2, b2 = (unit * station for station in chsh_stations(t))
    return correlate(a, b) - correlate(a, b2) + correlate(a2, b) + correlate(a2, b2)


def labeled(names, amplitudes, dims=(2, 2)):
    """The amplitude vector as a PureState over the named factors."""
    return PureState(BasisLabel(tuple(names), dims), np.asarray(amplitudes))


def fidelity(a, b):
    """|<a|b>|^2 of the normalized amplitude vectors."""
    va, vb = (np.asarray(v, dtype=complex) for v in (a, b))
    return float(np.abs(np.vdot(va / np.linalg.norm(va), vb / np.linalg.norm(vb))) ** 2)


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


def reduced_spectra(amplitudes, dims, keep):
    """Spectra of the factor-`keep` reductions of a stack of states, from an SVD.

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


def decimal_pair_weights(amplitudes):
    """(small, large) squared Schmidt coefficients of a 2x2 pair from its four amplitudes.

    photon_1's reduced density matrix is [[r0, o], [conj(o), r1]] / n, with
    eigenvalues (n -+ sqrt((r0 - r1)^2 + 4|o|^2)) / 2n.  The float amplitudes
    are taken exactly, and the weights are evaluated to 100 digits, so a
    small weight of 1e-64 still keeps 36 of them.
    """
    with localcontext() as ctx:
        ctx.prec = 100
        (ar, ai), (br, bi), (cr, ci), (dr, di) = [
            (Decimal(z.real), Decimal(z.imag)) for z in map(complex, amplitudes)
        ]
        r0 = ar * ar + ai * ai + br * br + bi * bi
        r1 = cr * cr + ci * ci + dr * dr + di * di
        o_re = ar * cr + ai * ci + br * dr + bi * di
        o_im = ai * cr - ar * ci + bi * dr - br * di
        n = r0 + r1
        root = ((r0 - r1) ** 2 + 4 * (o_re * o_re + o_im * o_im)).sqrt()
        return (n - root) / (2 * n), (n + root) / (2 * n)


PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def decimal_chsh_curve(t):
    """3cos(2t) - cos(6t) at the float t, to 50 digits.

    The float t is taken exactly.  Each angle is reduced by a multiple of
    2 * PI_50 into [-pi, pi], and its cosine summed as a Taylor series.
    For |t| <= 20 the reduction errs by under 1e-47, so a value of S near
    a zero, ~1e-16 at a float t, still keeps 30 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 50

        def cos(x):
            x -= 2 * PI_50 * (x / (2 * PI_50)).to_integral_value()
            term = total = Decimal(1)
            k = 1
            while abs(term) > Decimal("1e-60"):
                term = -term * x * x / ((2 * k - 1) * (2 * k))
                total += term
                k += 1
            return total

        t = Decimal(t)
        return 3 * cos(2 * t) - cos(6 * t)


def pair_from_overlaps(harmonic_amp, anharmonic_amp, s1, s2):
    """final_state_from_overlaps with each particle's t taken as sqrt(1 - s^2)."""
    splits = [(s, math.sqrt(max(0.0, 1.0 - s * s))) for s in (s1, s2)]
    return final_state_from_overlaps(harmonic_amp, anharmonic_amp, *splits)
