"""Momentum-mode interferometer output statistics and Bell scan."""

import math
import tracemalloc

import numpy as np
import pytest
from kernel_views import (
    _INPUT_PAIR,
    _bragg_exits,
    bragg_outputs,
    column,
    fidelity,
    labeled,
    momentum_correlations,
)

from modetangle._scans import scan_grid
from modetangle.interferometer import momentum_chsh_scan
from modetangle.states import partial_trace, von_neumann_entropy

TWO_ROOT_TWO = 2.8284271247461903
ROOT_HALF = 1.0 / math.sqrt(2.0)


def closed_form_outputs(phi_a, phi_b):
    # (steps, 4) amplitudes over A+B+, A+B-, A-B+, A-B-
    d = phi_a - phi_b
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    return scale * np.stack(
        [
            -1j * np.exp(1j * phi_b) * (np.exp(1j * d) + 1.0),
            np.exp(1j * d) - 1.0,
            np.exp(-1j * d) - 1.0,
            -1j * np.exp(-1j * phi_b) * (np.exp(-1j * d) + 1.0),
        ],
        axis=-1,
    )


class TestInput:
    def test_amplitudes_and_labels(self):
        np.testing.assert_allclose(_INPUT_PAIR, [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-15)

    def test_one_bit_of_entanglement(self):
        rho = partial_trace(labeled(("atom_1", "atom_2"), _INPUT_PAIR), "atom_2")
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-10)

    def test_overlap_with_first_branch(self):
        branch = [1.0, 0.0, 0.0, 0.0]
        assert fidelity(_INPUT_PAIR, branch) == pytest.approx(0.5, abs=1e-12)


class TestBraggOutput:
    def test_zero_phases(self):
        np.testing.assert_allclose(
            bragg_outputs(0.0, 0.0)[0], [-1j * ROOT_HALF, 0.0, 0.0, -1j * ROOT_HALF], atol=1e-12
        )

    def test_opposite_ports_at_pi(self):
        amplitudes = bragg_outputs(math.pi, 0.0)[0]
        np.testing.assert_allclose(np.abs(amplitudes), [0.0, ROOT_HALF, ROOT_HALF, 0.0], atol=1e-12)

    def test_closed_form_and_norm_for_random_phases(self):
        rng = np.random.default_rng(211)
        phi_a, phi_b = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(100, 2)).T
        outputs = bragg_outputs(phi_a, phi_b)
        np.testing.assert_allclose(outputs, closed_form_outputs(phi_a, phi_b), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(outputs, axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.pi), (-20.0, 20.0)], ids=["0-pi", "wide"])
    @pytest.mark.parametrize("steps", [181, 10_000])
    def test_one_phase_exits_are_the_two_phase_oracle_at_zero(self, lo, hi, steps):
        """The exits at (2t, 0) are the complex-product oracle's, bit for bit, on the scans' grids."""
        t = np.array(scan_grid(lo, hi, steps).points(0, steps))
        assert np.array_equal(_bragg_exits(t), bragg_outputs(2.0 * t, 0.0))

    def test_output_entropy_is_one_bit(self):
        rng = np.random.default_rng(223)
        for amplitudes in bragg_outputs(*rng.uniform(-7.0, 7.0, size=(40, 2)).T):
            rho = partial_trace(labeled(("station_A", "station_B"), amplitudes), "station_A")
            assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-10)


class TestJointProbabilities:
    def test_fringe_law(self):
        rng = np.random.default_rng(227)
        phi_a, phi_b = rng.uniform(-7.0, 7.0, size=(100, 2)).T
        p = np.abs(bragg_outputs(phi_a, phi_b)) ** 2
        same = (1.0 + np.cos(phi_a - phi_b)) / 4.0
        cross = (1.0 - np.cos(phi_a - phi_b)) / 4.0
        want = np.stack([same, cross, cross, same], axis=-1)
        np.testing.assert_allclose(p, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.sum(p, axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_balanced_at_quarter_fringe(self):
        p = np.abs(bragg_outputs(math.pi / 2.0, 0.0)[0]) ** 2
        np.testing.assert_allclose(p, 0.25, rtol=0, atol=1e-12)


class TestMomentumCorrelation:
    def test_cosine_of_phase_difference(self):
        rng = np.random.default_rng(229)
        phi_a, phi_b = rng.uniform(-7.0, 7.0, size=(100, 2)).T
        np.testing.assert_allclose(
            momentum_correlations(phi_a, phi_b), np.cos(phi_a - phi_b), rtol=0, atol=1e-12
        )

    def test_common_phase_drops_out(self):
        base = momentum_correlations(0.9, 0.2)[0]
        shifted = momentum_correlations(0.9 + 1.3, 0.2 + 1.3)[0]
        assert shifted == pytest.approx(base, abs=1e-12)


class TestMomentumChshScan:
    def test_columns_and_landmarks(self):
        result = momentum_chsh_scan(np.linspace(0.0, math.pi / 8.0, 3))
        assert tuple(result) == ("vartheta", "S", "entropy_in", "entropy_out")
        s_values = column(result, "S")
        assert s_values[0] == pytest.approx(2.0, abs=1e-12)
        assert s_values[2] == pytest.approx(TWO_ROOT_TWO, abs=1e-12)

    def test_matches_polarization_curve(self):
        result = momentum_chsh_scan(np.linspace(0.0, math.pi, 181))
        for t, s_value in zip(column(result, "vartheta"), column(result, "S")):
            want = 3.0 * math.cos(2.0 * t) - math.cos(6.0 * t)
            assert s_value == pytest.approx(want, abs=1e-12)

    def test_entropy_columns_stay_at_one_bit(self):
        result = momentum_chsh_scan(np.linspace(0.1, 1.4, 14))
        for value in column(result, "entropy_in") + column(result, "entropy_out"):
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_long_scan_meets_the_closed_form(self):
        steps = 10_000
        result = momentum_chsh_scan(np.linspace(0.0, math.pi, steps))
        t = np.array(column(result, "vartheta"))
        np.testing.assert_array_equal(t, np.linspace(0.0, math.pi, steps))
        want = 3.0 * np.cos(2.0 * t) - np.cos(6.0 * t)
        np.testing.assert_allclose(column(result, "S"), want, rtol=0, atol=1e-9)
        for name in ("entropy_in", "entropy_out"):
            np.testing.assert_allclose(column(result, name), 1.0, rtol=0, atol=1e-9)

    def test_kernel_holds_few_columns(self):
        """The traced peak of a 10^5-step scan stays under 18 float64 columns of the grid.

        The kernel builds S and shares one list of 1.0 between the entropy
        columns; no exit stack is built for them.
        """
        t = np.linspace(0.0, math.pi, 10**5)
        tracemalloc.start()
        try:
            momentum_chsh_scan(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * t.nbytes
