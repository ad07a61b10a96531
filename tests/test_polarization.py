"""Polarization pair statistics, CHSH curve, and mode-rotation entropy."""

import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from dense_model import rotated_pair_state
from kernel_views import (
    analyzed_pairs,
    analyzer_frames,
    chsh_stations,
    column,
    correlations,
    decimal_chsh_curve,
    fidelity,
    four_correlation_sum,
    labeled,
    momentum_correlations,
    reduced_spectra,
)

from modetangle._common import chsh_curve, scan_grid
from modetangle.interferometer import momentum_chsh_scan
from modetangle.polarization import (
    _EPR_PAIR,
    _analyzed_pair,
    chsh_scan,
    chsh_sum,
    mode_rotation_entropy_scan,
)
from modetangle.states import (
    partial_trace,
    renyi_entropies,
    renyi_entropy,
    von_neumann_entropies,
    von_neumann_entropy,
)

TWO_ROOT_TWO = 2.8284271247461903
ROOT_HALF = 1.0 / math.sqrt(2.0)
LONG_SCAN = 10_000
PAIR_FACTORS = ("photon_A", "photon_B")


def bell_curve(t):
    return 3.0 * np.cos(2.0 * t) - np.cos(6.0 * t)


def rotation_entropies(phi):
    # spectrum {cos^2 2phi, sin^2 2phi / 2, sin^2 2phi / 2}
    p = np.stack([np.cos(2.0 * phi) ** 2] + [np.sin(2.0 * phi) ** 2 / 2.0] * 2, axis=-1)
    safe = np.where(p > 0.0, p, 1.0)
    return -np.sum(p * np.log2(safe), axis=-1), -np.log2(np.sum(p**2, axis=-1))


LN2_50 = Decimal(2).ln(Context(prec=50))


def decimal_rotation_entropies(phi):
    """(S, S2) in bits at the float phi, to 50 digits.

    From the spectrum (cos^2 2phi, s, s) with s = sin^2 2phi / 2; sin 2phi
    is its Taylor series, and a weight that is exactly 0 adds nothing.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        x = 2 * Decimal(phi)
        term = sine = x
        k = 1
        while abs(term) > Decimal("1e-60"):
            term = -term * x * x / ((2 * k) * (2 * k + 1))
            sine += term
            k += 1
        s = sine * sine / 2
        large = 1 - 2 * s
        nats = -sum(count * w * w.ln() for count, w in ((1, large), (2, s)) if w)
        return nats / LN2_50, -(large * large + 2 * s * s).ln() / LN2_50


def closed_form_pairs(theta_a, theta_b):
    # (steps, 4) amplitudes over ++, +-, -+, -- for the analyzed pair
    t = theta_a - theta_b
    return np.stack([np.cos(t), np.sin(t), -np.sin(t), np.cos(t)], axis=-1) / math.sqrt(2.0)


class TestEprState:
    def test_amplitudes(self):
        np.testing.assert_allclose(
            _EPR_PAIR.reshape(-1), [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-15
        )

    def test_one_bit_of_entanglement(self):
        pair = labeled(PAIR_FACTORS, _EPR_PAIR.reshape(-1))
        entropy = von_neumann_entropy(partial_trace(pair, "photon_A"))
        assert entropy == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_hh(self):
        hh = [1.0, 0.0, 0.0, 0.0]
        assert fidelity(_EPR_PAIR.reshape(-1), hh) == pytest.approx(0.5, abs=1e-12)


class TestAnalyzerBasis:
    def test_zero_angle_is_hv(self):
        plus, minus = analyzer_frames(0.0)[0]
        np.testing.assert_allclose(plus, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(minus, [0.0, 1.0], atol=1e-15)

    def test_quarter_turn_swaps_ports(self):
        plus, minus = analyzer_frames(math.pi / 2.0)[0]
        np.testing.assert_allclose(plus, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(minus, [-1.0, 0.0], atol=1e-12)

    def test_orthonormal_for_random_angles(self):
        rng = np.random.default_rng(101)
        frames = analyzer_frames(rng.uniform(-10.0, 10.0, size=25))
        np.testing.assert_allclose(np.linalg.norm(frames, axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.abs(np.sum(frames[:, 0] * frames[:, 1], axis=-1)) < 1e-12)


class TestTransformedPair:
    def test_matches_closed_form_on_random_angles(self):
        rng = np.random.default_rng(103)
        theta_a, theta_b = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(100, 2)).T
        np.testing.assert_allclose(
            analyzed_pairs(theta_a, theta_b), closed_form_pairs(theta_a, theta_b), atol=1e-12
        )

    def test_equal_angles_recover_the_pair(self):
        np.testing.assert_allclose(
            analyzed_pairs(0.8, 0.8)[0], [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-12
        )

    def test_crossed_analyzers(self):
        np.testing.assert_allclose(
            analyzed_pairs(math.pi / 2.0, 0.0)[0], [0.0, ROOT_HALF, -ROOT_HALF, 0.0], atol=1e-12
        )

    @pytest.mark.parametrize("lo, hi", [(0.0, math.pi), (-20.0, 20.0)], ids=["0-pi", "wide"])
    @pytest.mark.parametrize("steps", [181, LONG_SCAN])
    def test_scan_kernel_is_the_two_angle_oracle_at_zero(self, lo, hi, steps):
        """chsh_scan's one-angle amplitudes are the einsum oracle's at (theta, 0), bit for bit."""
        theta = scan_grid(lo, hi, steps)
        assert np.array_equal(_analyzed_pair(theta), analyzed_pairs(theta, 0.0))

    def test_entropy_stays_one_bit(self):
        rng = np.random.default_rng(107)
        theta_a, theta_b = rng.uniform(0.0, math.pi, size=(40, 2)).T
        for amplitudes in analyzed_pairs(theta_a, theta_b):
            rho = partial_trace(labeled(PAIR_FACTORS, amplitudes), "photon_B")
            assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-10)
            assert renyi_entropy(rho, 2.0) == pytest.approx(1.0, abs=1e-10)


class TestDetectionProbabilities:
    """Joint probabilities over ++, +-, -+, --: the squared analyzed pair."""

    def test_singles_are_half(self):
        rng = np.random.default_rng(109)
        joint = analyzed_pairs(*rng.uniform(0, 7, size=(20, 2)).T) ** 2
        # a+, a-, b+ and b-, each a marginal of the joints
        singles = [joint[:, 0] + joint[:, 1], joint[:, 2] + joint[:, 3],
                   joint[:, 0] + joint[:, 2], joint[:, 1] + joint[:, 3]]
        np.testing.assert_allclose(singles, 0.5, rtol=0, atol=1e-12)

    def test_joints_follow_the_angle_difference(self):
        rng = np.random.default_rng(113)
        theta_a, theta_b = rng.uniform(-6.0, 6.0, size=(100, 2)).T
        joint = analyzed_pairs(theta_a, theta_b) ** 2
        c2 = np.cos(theta_a - theta_b) ** 2 / 2.0
        s2 = np.sin(theta_a - theta_b) ** 2 / 2.0
        np.testing.assert_allclose(joint, np.stack([c2, s2, s2, c2], axis=-1), rtol=0, atol=1e-12)

    def test_closure(self):
        rng = np.random.default_rng(127)
        joint = analyzed_pairs(*rng.uniform(0, 7, size=(50, 2)).T) ** 2
        np.testing.assert_allclose(np.sum(joint, axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_aligned_analyzers_never_anticorrelate(self):
        joint = analyzed_pairs(1.3, 1.3)[0] ** 2
        assert joint[1] == pytest.approx(0.0, abs=1e-12)
        assert joint[2] == pytest.approx(0.0, abs=1e-12)


class TestCorrelation:
    def test_equals_cosine_of_twice_the_difference(self):
        rng = np.random.default_rng(131)
        theta_a, theta_b = rng.uniform(-6.0, 6.0, size=(100, 2)).T
        np.testing.assert_allclose(
            correlations(theta_a, theta_b), np.cos(2.0 * (theta_a - theta_b)), rtol=0, atol=1e-12
        )

    def test_perfect_and_vanishing_points(self):
        values = correlations(np.array([0.0, math.pi / 4.0, math.pi / 2.0]), np.zeros(3))
        np.testing.assert_allclose(values, [1.0, 0.0, -1.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "correlate, unit", [(correlations, 1.0), (momentum_correlations, 2.0)],
        ids=["polarization", "momentum"],
    )
    def test_four_correlations_give_the_closed_form(self, correlate, unit):
        """The physical S, from the correlations at the four stations, is the curve the scans print."""
        t = np.linspace(0.0, math.pi, LONG_SCAN)
        np.testing.assert_allclose(
            four_correlation_sum(correlate, t, unit), chsh_curve(t), rtol=0, atol=1e-12
        )


class TestChshSum:
    def test_known_points(self):
        assert chsh_sum(0.0) == pytest.approx(2.0, abs=1e-12)
        assert chsh_sum(math.pi / 8.0) == pytest.approx(TWO_ROOT_TWO, abs=1e-12)
        assert chsh_sum(math.pi / 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_everywhere(self):
        for t in np.linspace(0.0, math.pi, 211):
            want = 3.0 * math.cos(2.0 * t) - math.cos(6.0 * t)
            assert chsh_sum(t) == pytest.approx(want, abs=1e-12)

    def test_station_angles(self):
        assert chsh_stations(0.2) == pytest.approx((0.0, 0.2, 0.4, 0.6))

    def test_sum_is_the_scan_s_column_bit_for_bit(self):
        for t in np.linspace(-math.pi, math.pi, 257).tolist() + [1e-300, -0.0, 1e300]:
            assert chsh_sum(t) == column(chsh_scan(np.array([t])), "S")[0], t

    def test_quarter_turn_is_right_to_rounding(self):
        """At the float pi/4, S is 3.67394039744e-16 to rounding; summing four correlations gave 4.44e-16."""
        assert chsh_sum(math.pi / 4.0) == 3.6739403974420594e-16

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308, -1e308])
    def test_non_finite_separation_refused(self, value):
        """A separation whose angle 2t overflows is refused by name, as a non-finite one is."""
        with pytest.raises(ValueError, match=r"^separation (times 2 )?must be finite"):
            chsh_sum(value)


class TestChshScan:
    def test_five_point_scan(self):
        result = chsh_scan(np.linspace(0.0, math.pi / 2.0, 5))
        assert tuple(result) == ("theta", "S", "entropy")
        s_values = column(result, "S")
        expected = [2.0, TWO_ROOT_TWO, 0.0, -TWO_ROOT_TWO, -2.0]
        np.testing.assert_allclose(s_values, expected, atol=1e-12)
        for entropy in column(result, "entropy"):
            assert entropy == pytest.approx(1.0, abs=1e-10)

    def test_bound_and_violation_region(self):
        result = chsh_scan(np.linspace(0.0, math.pi, 721))
        s_values = np.array(column(result, "S"))
        assert np.max(np.abs(s_values)) <= TWO_ROOT_TWO + 1e-12
        assert np.sum(np.abs(s_values) > 2.0) > 0

    def test_long_scan_meets_the_closed_form(self):
        result = chsh_scan(np.linspace(0.0, math.pi, LONG_SCAN))
        t = np.array(column(result, "theta"))
        np.testing.assert_array_equal(t, np.linspace(0.0, math.pi, LONG_SCAN))
        np.testing.assert_allclose(column(result, "S"), bell_curve(t), rtol=0, atol=1e-9)
        np.testing.assert_allclose(column(result, "entropy"), 1.0, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.pi), (-20.0, 20.0)], ids=["0-pi", "wide"])
    @pytest.mark.parametrize("steps", [181, 2000, LONG_SCAN])
    def test_s_right_to_rounding_against_a_50_digit_oracle(self, lo, hi, steps):
        """Every S of both scans and of chsh_sum within 1e-15 of its 50-digit value, relative.

        An exact 0 must read 0.  A sum of four correlations of size ~1
        keeps only absolute rounding near the zeros of S, and misses the
        default scan's S at pi/4 by 21 %.
        """
        t = np.linspace(lo, hi, steps)
        exact = [decimal_chsh_curve(x) for x in t.tolist()]
        computed = {
            "chsh": column(chsh_scan(t), "S"),
            "interferometer": column(momentum_chsh_scan(t), "S"),
            "chsh_sum": [chsh_sum(x) for x in t.tolist()],
        }
        wrong = [
            (name, x, got, float(want))
            for name, values in computed.items()
            for x, got, want in zip(t.tolist(), values, exact)
            if abs(Decimal(got) - want) > Decimal("1e-15") * abs(want)
        ]
        assert not wrong, f"{len(wrong)} cells, first {wrong[:3]}"

    def test_bad_ranges_rejected(self):
        """The grid a scan takes refuses, naming the CLI flags."""
        with pytest.raises(ValueError, match="^steps must be at least 2, got 1$"):
            scan_grid(0.0, math.pi, 1)
        with pytest.raises(ValueError, match="^range_max must exceed range_min$"):
            scan_grid(1.0, 1.0, 5)
        with pytest.raises(ValueError, match="^range_max must exceed range_min$"):
            scan_grid(1.0, 0.5, 5)
        with pytest.raises(ValueError, match="^range_min must be finite, got nan$"):
            scan_grid(math.nan, 1.0, 5)
        with pytest.raises(ValueError, match="^range_max must be finite, got inf$"):
            scan_grid(0.0, math.inf, 5)

    @pytest.mark.parametrize("scan", [chsh_scan, mode_rotation_entropy_scan, momentum_chsh_scan])
    @pytest.mark.parametrize("steps", [10.7, "10", None], ids=["float", "str", "none"])
    def test_non_integer_steps_refused_by_name(self, scan, steps):
        """A scan's settings come from scan_grid, which refuses them before the scan runs."""
        with pytest.raises(ValueError, match="^steps must be an integer"):
            scan(scan_grid(0.0, 1.0, steps))

    def test_numpy_integer_steps_admitted(self):
        grid = scan_grid(0.0, 1.0, np.int64(5))
        np.testing.assert_array_equal(column(chsh_scan(grid), "theta"), np.linspace(0.0, 1.0, 5))


class TestModeRotation:
    def test_closed_form_amplitudes(self):
        # cos 2phi |1,1> + sin 2phi / sqrt 2 (|0,2> - |2,0>), the state whose
        # spectrum the scan uses, against exp(phi G)|1,1> built from the ladder operators
        rng = np.random.default_rng(137)
        phi = rng.uniform(-2.0, 2.0, size=40)
        closed_form = np.zeros((len(phi), 9))
        closed_form[:, 4] = np.cos(2.0 * phi)
        closed_form[:, 2] = np.sin(2.0 * phi) * ROOT_HALF
        closed_form[:, 6] = -closed_form[:, 2]
        np.testing.assert_allclose(rotated_pair_state(phi), closed_form, rtol=0, atol=1e-12)

    def test_entropy_landmarks(self):
        landmarks = ((0.0, 0.0), (math.pi / 4.0, 1.0), (math.pi / 8.0, 1.5))
        for phi, want in landmarks:
            rho = partial_trace(mode_rotation_state(phi), "mode_a")
            assert von_neumann_entropy(rho) == pytest.approx(want, abs=1e-10)

    def test_plateau_spectrum(self):
        rho = partial_trace(mode_rotation_state(math.pi / 8.0), "mode_a")
        np.testing.assert_allclose(
            sorted(rho.eigenvalues()), [0.25, 0.25, 0.5], atol=1e-12
        )


def mode_rotation_state(phi):
    """The rotated |1,1> at one angle, over factors mode_a, mode_b."""
    return labeled(("mode_a", "mode_b"), rotated_pair_state(np.array([phi]))[0], (3, 3))


class TestModeRotationScan:
    def test_columns_and_landmarks(self):
        result = mode_rotation_entropy_scan(np.linspace(0.0, math.pi / 4.0, 9))
        assert tuple(result) == ("phi", "entropy_vn", "entropy_renyi2")
        vn = column(result, "entropy_vn")
        assert vn[0] == pytest.approx(0.0, abs=1e-10)
        assert vn[4] == pytest.approx(1.5, abs=1e-10)  # phi = pi/8
        assert vn[8] == pytest.approx(1.0, abs=1e-10)  # phi = pi/4

    def test_renyi_shares_zeros_and_maxima(self):
        result = mode_rotation_entropy_scan(np.linspace(0.0, math.pi, 65))
        vn = np.array(column(result, "entropy_vn"))
        r2 = np.array(column(result, "entropy_renyi2"))
        np.testing.assert_array_equal(vn < 1e-10, r2 < 1e-10)
        # The grid is symmetric under phi -> pi/2 - phi and phi -> phi + pi/2,
        # so each column's four maxima tie in exact arithmetic: compare the
        # sets of peak indices, not an argmax that the last bit decides.
        peaks = [set(np.flatnonzero(col >= col.max() - 1e-12)) for col in (vn, r2)]
        assert peaks[0] == peaks[1]
        assert len(peaks[0]) == 4
        assert np.all(r2 <= vn + 1e-12)

    def test_matches_the_spectrum_of_the_rotated_state(self):
        # the closed-form entropies against the Schmidt spectrum of exp(phi G)|1,1>
        phi = np.random.default_rng(138).uniform(-2.0, 2.0, size=40)
        spectra = reduced_spectra(rotated_pair_state(phi), (3, 3), 0)
        result = mode_rotation_entropy_scan(phi)
        np.testing.assert_allclose(
            column(result, "entropy_vn"), von_neumann_entropies(spectra), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            column(result, "entropy_renyi2"), renyi_entropies(spectra, 2.0), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("steps", [181, 2000, LONG_SCAN])
    def test_right_to_rounding_against_a_50_digit_oracle(self, steps):
        """Each entropy within 1e-14 of its 50-digit value at the same float phi, relative.

        An exact 0 must read 0.  Near the zeros, a large weight whose term
        carries absolute rounding misses by up to 1.4 %.
        """
        phi = np.linspace(0.0, math.pi, steps)
        result = mode_rotation_entropy_scan(phi)
        rows = zip(phi.tolist(), column(result, "entropy_vn"), column(result, "entropy_renyi2"))
        wrong = [
            (x, got, float(want))
            for x, *values in rows
            for got, want in zip(values, decimal_rotation_entropies(x))
            if abs(Decimal(got) - want) > Decimal("1e-14") * abs(want)
        ]
        assert not wrong, f"{len(wrong)} cells, first {wrong[:3]}"

    def test_long_scan_meets_the_closed_form(self):
        result = mode_rotation_entropy_scan(np.linspace(0.0, math.pi, LONG_SCAN))
        phi = np.array(column(result, "phi"))
        vn, r2 = rotation_entropies(phi)
        np.testing.assert_allclose(column(result, "entropy_vn"), vn, rtol=0, atol=1e-9)
        np.testing.assert_allclose(column(result, "entropy_renyi2"), r2, rtol=0, atol=1e-9)
