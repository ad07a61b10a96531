"""Polarization pair statistics, CHSH curve, and mode-rotation entropy."""

import math

import numpy as np
import pytest

from modetangle.polarization import (
    AnalyzerSettings,
    ChshSettings,
    analyzer_basis,
    chsh_scan,
    chsh_sum,
    chsh_sum_general,
    correlation,
    detection_probabilities,
    epr_state,
    mode_rotation_entropy_scan,
    mode_rotation_state,
    transformed_epr_state,
)
from modetangle.states import (
    BasisLabel,
    PureState,
    fidelity,
    partial_trace,
    renyi_entropy,
    von_neumann_entropy,
)

TWO_ROOT_TWO = 2.8284271247461903
ROOT_HALF = 1.0 / math.sqrt(2.0)
LONG_SCAN = 10_000


def bell_curve(t):
    return 3.0 * np.cos(2.0 * t) - np.cos(6.0 * t)


def rotation_entropies(phi):
    # spectrum {cos^2 2phi, sin^2 2phi / 2, sin^2 2phi / 2}
    p = np.stack([np.cos(2.0 * phi) ** 2] + [np.sin(2.0 * phi) ** 2 / 2.0] * 2, axis=-1)
    safe = np.where(p > 0.0, p, 1.0)
    return -np.sum(p * np.log2(safe), axis=-1), -np.log2(np.sum(p**2, axis=-1))


def closed_form_pair(theta_a, theta_b):
    # amplitudes over ++, +-, -+, -- for the analyzed pair
    t = theta_a - theta_b
    return np.array(
        [math.cos(t), math.sin(t), -math.sin(t), math.cos(t)]
    ) / math.sqrt(2.0)


class TestEprState:
    def test_amplitudes(self):
        state = epr_state()
        np.testing.assert_allclose(
            state.amplitudes, [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-15
        )
        assert state.basis.factor_names == ("photon_A", "photon_B")

    def test_one_bit_of_entanglement(self):
        entropy = von_neumann_entropy(partial_trace(epr_state(), "photon_A"))
        assert entropy == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_hh(self):
        hh = PureState(
            BasisLabel(("photon_A", "photon_B"), (2, 2)), np.array([1.0, 0, 0, 0])
        )
        assert fidelity(epr_state(), hh) == pytest.approx(0.5, abs=1e-12)


class TestAnalyzerBasis:
    def test_zero_angle_is_hv(self):
        plus, minus = analyzer_basis(0.0)
        np.testing.assert_allclose(plus.amplitudes, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(minus.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_quarter_turn_swaps_ports(self):
        plus, minus = analyzer_basis(math.pi / 2.0)
        np.testing.assert_allclose(plus.amplitudes, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(minus.amplitudes, [-1.0, 0.0], atol=1e-12)

    def test_orthonormal_for_random_angles(self):
        rng = np.random.default_rng(101)
        for theta in rng.uniform(-10.0, 10.0, size=25):
            plus, minus = analyzer_basis(theta)
            assert plus.norm == pytest.approx(1.0, abs=1e-12)
            assert minus.norm == pytest.approx(1.0, abs=1e-12)
            overlap = np.vdot(plus.amplitudes, minus.amplitudes)
            assert abs(overlap) < 1e-12


class TestTransformedPair:
    def test_matches_closed_form_on_random_angles(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            theta_a, theta_b = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=2)
            state = transformed_epr_state(AnalyzerSettings(theta_a, theta_b))
            np.testing.assert_allclose(
                state.amplitudes, closed_form_pair(theta_a, theta_b), atol=1e-12
            )

    def test_equal_angles_recover_the_pair(self):
        state = transformed_epr_state(AnalyzerSettings(0.8, 0.8))
        np.testing.assert_allclose(
            state.amplitudes, [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-12
        )

    def test_crossed_analyzers(self):
        state = transformed_epr_state(AnalyzerSettings(math.pi / 2.0, 0.0))
        np.testing.assert_allclose(
            state.amplitudes, [0.0, ROOT_HALF, -ROOT_HALF, 0.0], atol=1e-12
        )

    def test_entropy_stays_one_bit(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            settings = AnalyzerSettings(*rng.uniform(0.0, math.pi, size=2))
            state = transformed_epr_state(settings)
            rho = partial_trace(state, "photon_B")
            assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-10)
            assert renyi_entropy(rho, 2.0) == pytest.approx(1.0, abs=1e-10)


class TestDetectionProbabilities:
    def test_singles_are_half(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            p = detection_probabilities(AnalyzerSettings(*rng.uniform(0, 7, size=2)))
            for key in ("a+", "a-", "b+", "b-"):
                assert p[key] == pytest.approx(0.5, abs=1e-12)

    def test_joints_follow_the_angle_difference(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            theta_a, theta_b = rng.uniform(-6.0, 6.0, size=2)
            p = detection_probabilities(AnalyzerSettings(theta_a, theta_b))
            c2 = math.cos(theta_a - theta_b) ** 2 / 2.0
            s2 = math.sin(theta_a - theta_b) ** 2 / 2.0
            assert p["++"] == pytest.approx(c2, abs=1e-12)
            assert p["--"] == pytest.approx(c2, abs=1e-12)
            assert p["+-"] == pytest.approx(s2, abs=1e-12)
            assert p["-+"] == pytest.approx(s2, abs=1e-12)

    def test_closure(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            p = detection_probabilities(AnalyzerSettings(*rng.uniform(0, 7, size=2)))
            joint_sum = p["++"] + p["+-"] + p["-+"] + p["--"]
            assert joint_sum == pytest.approx(1.0, abs=1e-12)
            assert p["a+"] == pytest.approx(p["++"] + p["+-"], abs=1e-15)
            assert p["b-"] == pytest.approx(p["+-"] + p["--"], abs=1e-15)

    def test_aligned_analyzers_never_anticorrelate(self):
        p = detection_probabilities(AnalyzerSettings(1.3, 1.3))
        assert p["+-"] == pytest.approx(0.0, abs=1e-12)
        assert p["-+"] == pytest.approx(0.0, abs=1e-12)


class TestCorrelation:
    def test_equals_cosine_of_twice_the_difference(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            theta_a, theta_b = rng.uniform(-6.0, 6.0, size=2)
            value = correlation(AnalyzerSettings(theta_a, theta_b))
            assert value == pytest.approx(math.cos(2.0 * (theta_a - theta_b)), abs=1e-12)

    def test_perfect_and_vanishing_points(self):
        assert correlation(AnalyzerSettings(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
        assert correlation(AnalyzerSettings(math.pi / 4.0, 0.0)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert correlation(AnalyzerSettings(math.pi / 2.0, 0.0)) == pytest.approx(
            -1.0, abs=1e-12
        )


class TestChshSum:
    def test_known_points(self):
        assert chsh_sum(ChshSettings(0.0)) == pytest.approx(2.0, abs=1e-12)
        assert chsh_sum(ChshSettings(math.pi / 8.0)) == pytest.approx(
            TWO_ROOT_TWO, abs=1e-12
        )
        assert chsh_sum(ChshSettings(math.pi / 4.0)) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_everywhere(self):
        for t in np.linspace(0.0, math.pi, 211):
            want = 3.0 * math.cos(2.0 * t) - math.cos(6.0 * t)
            assert chsh_sum(ChshSettings(t)) == pytest.approx(want, abs=1e-12)

    def test_general_arrangement_reduces_to_arithmetic_one(self):
        for t in (0.1, 0.5, 1.2):
            spread = chsh_sum_general(0.0, t, 2.0 * t, 3.0 * t)
            assert spread == pytest.approx(chsh_sum(ChshSettings(t)), abs=1e-12)

    def test_station_angles(self):
        assert ChshSettings(0.2).station_angles() == pytest.approx(
            (0.0, 0.2, 0.4, 0.6)
        )


class TestChshScan:
    def test_five_point_scan(self):
        result = chsh_scan(0.0, math.pi / 2.0, 5)
        assert result.columns == ("theta", "S", "entropy")
        s_values = result.column("S")
        expected = [2.0, TWO_ROOT_TWO, 0.0, -TWO_ROOT_TWO, -2.0]
        np.testing.assert_allclose(s_values, expected, atol=1e-12)
        for entropy in result.column("entropy"):
            assert entropy == pytest.approx(1.0, abs=1e-10)

    def test_bound_and_violation_region(self):
        result = chsh_scan(0.0, math.pi, 721)
        s_values = np.array(result.column("S"))
        assert np.max(np.abs(s_values)) <= TWO_ROOT_TWO + 1e-12
        assert np.sum(np.abs(s_values) > 2.0) > 0

    def test_long_scan_meets_the_closed_form(self):
        result = chsh_scan(0.0, math.pi, LONG_SCAN)
        t = np.array(result.column("theta"))
        np.testing.assert_array_equal(t, np.linspace(0.0, math.pi, LONG_SCAN))
        np.testing.assert_allclose(result.column("S"), bell_curve(t), rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.column("entropy"), 1.0, rtol=0, atol=1e-9)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            chsh_scan(0.0, math.pi, 1)
        with pytest.raises(ValueError):
            chsh_scan(1.0, 1.0, 5)


class TestModeRotation:
    def test_closed_form_amplitudes(self):
        # cos(2phi)|1,1> + sin(2phi)/sqrt(2) (|0,2> - |2,0>)
        rng = np.random.default_rng(137)
        for phi in rng.uniform(-2.0, 2.0, size=40):
            state = mode_rotation_state(phi)
            expected = np.zeros(9)
            expected[4] = math.cos(2.0 * phi)
            expected[2] = math.sin(2.0 * phi) / math.sqrt(2.0)
            expected[6] = -math.sin(2.0 * phi) / math.sqrt(2.0)
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

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


class TestModeRotationScan:
    def test_columns_and_landmarks(self):
        result = mode_rotation_entropy_scan(0.0, math.pi / 4.0, 9)
        assert result.columns == ("phi", "entropy_vn", "entropy_renyi2")
        vn = result.column("entropy_vn")
        assert vn[0] == pytest.approx(0.0, abs=1e-10)
        assert vn[4] == pytest.approx(1.5, abs=1e-10)  # phi = pi/8
        assert vn[8] == pytest.approx(1.0, abs=1e-10)  # phi = pi/4

    def test_renyi_shares_zeros_and_maxima(self):
        result = mode_rotation_entropy_scan(0.0, math.pi, 65)
        vn = np.array(result.column("entropy_vn"))
        r2 = np.array(result.column("entropy_renyi2"))
        np.testing.assert_array_equal(vn < 1e-10, r2 < 1e-10)
        # The grid is symmetric under phi -> pi/2 - phi and phi -> phi + pi/2,
        # so each column's four maxima tie in exact arithmetic: compare the
        # sets of peak indices, not an argmax that the last bit decides.
        peaks = [set(np.flatnonzero(col >= col.max() - 1e-12)) for col in (vn, r2)]
        assert peaks[0] == peaks[1]
        assert len(peaks[0]) == 4
        assert np.all(r2 <= vn + 1e-12)

    def test_long_scan_meets_the_closed_form(self):
        result = mode_rotation_entropy_scan(0.0, math.pi, LONG_SCAN)
        phi = np.array(result.column("phi"))
        vn, r2 = rotation_entropies(phi)
        np.testing.assert_allclose(result.column("entropy_vn"), vn, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.column("entropy_renyi2"), r2, rtol=0, atol=1e-9)
