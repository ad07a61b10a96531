"""Momentum-mode interferometer output statistics and Bell scan."""

import math

import numpy as np
import pytest

from modetangle import (
    BraggPhases,
    bragg_output,
    fidelity,
    interferometer_input,
    joint_probabilities,
    momentum_chsh_scan,
    momentum_correlation,
    partial_trace,
    von_neumann_entropy,
)
from modetangle.states import BasisLabel, PureState

TWO_ROOT_TWO = 2.8284271247461903
ROOT_HALF = 1.0 / math.sqrt(2.0)


def closed_form_output(phi_a, phi_b):
    d = phi_a - phi_b
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    return scale * np.array(
        [
            -1j * np.exp(1j * phi_b) * (np.exp(1j * d) + 1.0),
            np.exp(1j * d) - 1.0,
            np.exp(-1j * d) - 1.0,
            -1j * np.exp(-1j * phi_b) * (np.exp(-1j * d) + 1.0),
        ]
    )


class TestInput:
    def test_amplitudes_and_labels(self):
        state = interferometer_input()
        assert state.basis.factor_names == ("atom_1", "atom_2")
        np.testing.assert_allclose(
            state.amplitudes, [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-15
        )

    def test_one_bit_of_entanglement(self):
        rho = partial_trace(interferometer_input(), "atom_2")
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-10)

    def test_overlap_with_first_branch(self):
        branch = PureState(
            BasisLabel(("atom_1", "atom_2"), (2, 2)), np.array([1.0, 0, 0, 0])
        )
        assert fidelity(interferometer_input(), branch) == pytest.approx(0.5, abs=1e-12)


class TestBraggOutput:
    def test_zero_phases(self):
        state = bragg_output(BraggPhases(0.0, 0.0))
        np.testing.assert_allclose(
            state.amplitudes, [-1j * ROOT_HALF, 0.0, 0.0, -1j * ROOT_HALF], atol=1e-12
        )

    def test_opposite_ports_at_pi(self):
        state = bragg_output(BraggPhases(math.pi, 0.0))
        np.testing.assert_allclose(np.abs(state.amplitudes), [0.0, ROOT_HALF, ROOT_HALF, 0.0], atol=1e-12)

    def test_closed_form_and_norm_for_random_phases(self):
        rng = np.random.default_rng(211)
        for _ in range(100):
            phi_a, phi_b = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=2)
            state = bragg_output(BraggPhases(phi_a, phi_b))
            np.testing.assert_allclose(
                state.amplitudes, closed_form_output(phi_a, phi_b), atol=1e-12
            )
            assert state.norm == pytest.approx(1.0, abs=1e-12)

    def test_output_entropy_is_one_bit(self):
        rng = np.random.default_rng(223)
        for _ in range(40):
            phases = BraggPhases(*rng.uniform(-7.0, 7.0, size=2))
            rho = partial_trace(bragg_output(phases), "station_A")
            assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-10)


class TestJointProbabilities:
    def test_fringe_law(self):
        rng = np.random.default_rng(227)
        for _ in range(100):
            phases = BraggPhases(*rng.uniform(-7.0, 7.0, size=2))
            p = joint_probabilities(phases)
            same = (1.0 + math.cos(phases.difference)) / 4.0
            cross = (1.0 - math.cos(phases.difference)) / 4.0
            assert p["A+B+"] == pytest.approx(same, abs=1e-12)
            assert p["A-B-"] == pytest.approx(same, abs=1e-12)
            assert p["A+B-"] == pytest.approx(cross, abs=1e-12)
            assert p["A-B+"] == pytest.approx(cross, abs=1e-12)
            assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_at_quarter_fringe(self):
        p = joint_probabilities(BraggPhases(math.pi / 2.0, 0.0))
        for value in p.values():
            assert value == pytest.approx(0.25, abs=1e-12)


class TestMomentumCorrelation:
    def test_cosine_of_phase_difference(self):
        rng = np.random.default_rng(229)
        for _ in range(100):
            phases = BraggPhases(*rng.uniform(-7.0, 7.0, size=2))
            want = math.cos(phases.difference)
            assert momentum_correlation(phases) == pytest.approx(want, abs=1e-12)

    def test_common_phase_drops_out(self):
        base = momentum_correlation(BraggPhases(0.9, 0.2))
        shifted = momentum_correlation(BraggPhases(0.9 + 1.3, 0.2 + 1.3))
        assert shifted == pytest.approx(base, abs=1e-12)


class TestMomentumChshScan:
    def test_columns_and_landmarks(self):
        result = momentum_chsh_scan(0.0, math.pi / 8.0, 3)
        assert result.columns == ("vartheta", "S", "entropy_in", "entropy_out")
        s_values = result.column("S")
        assert s_values[0] == pytest.approx(2.0, abs=1e-12)
        assert s_values[2] == pytest.approx(TWO_ROOT_TWO, abs=1e-12)

    def test_matches_polarization_curve(self):
        result = momentum_chsh_scan(0.0, math.pi, 181)
        for t, s_value in zip(result.column("vartheta"), result.column("S")):
            want = 3.0 * math.cos(2.0 * t) - math.cos(6.0 * t)
            assert s_value == pytest.approx(want, abs=1e-12)

    def test_entropy_columns_stay_at_one_bit(self):
        result = momentum_chsh_scan(0.1, 1.4, 14)
        for value in result.column("entropy_in") + result.column("entropy_out"):
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_long_scan_meets_the_closed_form(self):
        steps = 10_000
        result = momentum_chsh_scan(0.0, math.pi, steps)
        t = np.array(result.column("vartheta"))
        np.testing.assert_array_equal(t, np.linspace(0.0, math.pi, steps))
        want = 3.0 * np.cos(2.0 * t) - np.cos(6.0 * t)
        np.testing.assert_allclose(result.column("S"), want, rtol=0, atol=1e-9)
        for name in ("entropy_in", "entropy_out"):
            np.testing.assert_allclose(result.column(name), 1.0, rtol=0, atol=1e-9)
