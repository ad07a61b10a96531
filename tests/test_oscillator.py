"""Quartic-anharmonic oscillator model, overlaps, and adiabatic budget."""

import math
import tracemalloc

import numpy as np
import pytest

from modetangle._common import PhysicsPreconditionError
from modetangle.oscillator import (
    AdiabaticBudget,
    build_model,
    first_order_energy,
    mode_overlap,
    position_operator,
    require_adiabatic,
)
from modetangle.oscillator import (
    _count_below,
    _parity_blocks,
    _position_power_diagonals,
    _symmetric_banded,
)


class TestPositionOperator:
    def test_x_squared_diagonal_is_n_plus_half(self):
        x = position_operator(20)
        diag = np.diag(x @ x)
        np.testing.assert_allclose(diag[:10], np.arange(10) + 0.5, atol=1e-12)

    def test_quartic_diagonal_matches_the_shift_formula(self):
        # <n|X^4|n> = (3/4)(2n^2 + 2n + 1), exact well below the truncation
        x = position_operator(40)
        diag = np.diag(np.linalg.matrix_power(x, 4))
        n = np.arange(10)
        np.testing.assert_allclose(
            diag[:10], 0.75 * (2 * n * n + 2 * n + 1), atol=1e-10
        )


class TestClosedFormBuild:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_diagonals_match_cropped_dense_products(self, n):
        x = position_operator(2 * n)
        x2 = x @ x
        closed_x2, closed_x4 = _position_power_diagonals(n)
        np.testing.assert_allclose(_symmetric_banded(closed_x2), x2[:n, :n], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            _symmetric_banded(closed_x4), (x2 @ x2)[:n, :n], rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("g", [0.0, 0.04, 0.5, 5.0])
    @pytest.mark.parametrize("n", [9, 64, 128])
    def test_matches_dense_diagonalization(self, n, g):
        # n = 9 gives parity blocks of different sizes (5 even, 4 odd)
        x = position_operator(2 * n)
        x2 = x @ x
        h = np.diag(np.arange(n) + 0.5) + 0.25 * g * (x2 @ x2)[:n, :n]
        values, vectors = np.linalg.eigh(h)
        vectors = vectors * np.where(np.diag(vectors) < 0.0, -1.0, 1.0)
        model = build_model(g, n)
        stacked = np.column_stack([model.eigenstate(k) for k in range(n)])
        np.testing.assert_allclose(model.eigenvalues, values, rtol=1e-10, atol=0)
        levels = min(10, n)
        np.testing.assert_allclose(
            stacked[:, :levels], vectors[:, :levels], rtol=0, atol=1e-10
        )
        assert np.all(np.diff(model.eigenvalues) > 0.0)
        np.testing.assert_allclose(stacked.T @ stacked, np.eye(n), rtol=0, atol=1e-12)
        assert np.all(np.diag(stacked) >= 0.0)
        for k in range(levels):
            v = vectors[:, k]
            assert model.x_squared_expectation(k) == pytest.approx(
                v @ x2[:n, :n] @ v, rel=1e-12, abs=0
            )
            assert mode_overlap(model, k) == pytest.approx(vectors[k, k], abs=1e-10)
        dense_tail = np.max(np.sum(vectors[-4:, :levels] ** 2, axis=0))
        assert model.tail_weight(range(levels)) == pytest.approx(dense_tail, rel=1e-9, abs=1e-18)

    @pytest.mark.parametrize("n", [8, 9, 64, 1600])
    def test_zero_coupling_is_not_diagonalized(self, n, monkeypatch):
        # the dense eigh of H = diag(k + 1/2), sign-fixed, read as parity blocks
        values, vectors = np.linalg.eigh(np.diag(np.arange(n) + 0.5))
        vectors = vectors * np.where(np.diag(vectors) < 0.0, -1.0, 1.0)
        k = np.arange(n)
        columns = np.where(k % 2 == 0, k // 2, (n + 1) // 2 + k // 2)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called on a diagonal H")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for g in (0.0, -0.0):
            model = build_model(g, n)
            assert np.array_equal(model.eigenvalues, values)
            assert np.array_equal(model.blocks[0], vectors[0::2, 0::2])
            assert np.array_equal(model.blocks[1], vectors[1::2, 1::2])
            assert np.array_equal(model.columns, columns)

    def test_tail_weight_is_the_largest_top_four_weight(self):
        model = build_model(5.0, 64)
        weights = [np.sum(model.eigenstate(n)[-4:] ** 2) for n in range(10)]
        assert model.tail_weight(range(10)) == pytest.approx(max(weights), rel=1e-12)
        assert model.tail_weight([1, 2]) == pytest.approx(max(weights[1:3]), rel=1e-12)
        assert build_model(0.0, 64).tail_weight(range(10)) == 0.0

    def test_model_holds_only_the_parity_blocks(self):
        # the two block eigenvector matrices are N^2/2 floats; a dense N x N
        # eigenvector or X^2 array would double the held memory and more
        n = 1600
        build_model(0.1, 64)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            model = build_model(0.1, n)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.truncation == n
        assert held - base <= 1.1 * 8 * n * n / 2
        assert peak - base < 20 * 2**20


def full_hamiltonian(g, n):
    return np.diag(np.arange(n) + 0.5) + 0.25 * g * _symmetric_banded(_position_power_diagonals(n)[1])


class TestLeadingBlock:
    @pytest.mark.parametrize("g", [0.05, 0.1, 0.2, 1.0, 5.0])
    @pytest.mark.parametrize("n", [256, 800, 1600])
    def test_agrees_with_the_full_path(self, g, n):
        tol = 4 * np.finfo(float).eps * np.max(np.sum(np.abs(full_hamiltonian(g, n)), axis=0))
        leading, full = build_model(g, n, levels=10), build_model(g, n)
        np.testing.assert_allclose(leading.eigenvalues, full.eigenvalues[:10], rtol=0, atol=tol)
        for k in range(10):
            assert abs(mode_overlap(leading, k) - mode_overlap(full, k)) <= tol
            assert abs(leading.x_squared_expectation(k) - full.x_squared_expectation(k)) <= tol
        assert len(leading.eigenvalues) == 10

    @pytest.mark.parametrize("g", [0.1, 5.0, 100.0])
    @pytest.mark.parametrize("n", [9, 64, 256])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_index_count_matches_eigvalsh(self, g, n, parity):
        diagonals = _parity_blocks(g, n)[parity]
        values = np.linalg.eigvalsh(_symmetric_banded(dict(enumerate(diagonals))))
        size = len(values)
        picks = sorted({0, 1, 3, 9, size // 2, size - 2} & set(range(size - 1)))
        shifts = [-1.0, values[-1] + 1.0] + [0.5 * (values[i] + values[i + 1]) for i in picks]
        for shift in shifts:
            count, error = _count_below(diagonals, shift)
            assert error < np.min(np.abs(values - shift))
            assert count == np.sum(values < shift), shift

    @pytest.mark.parametrize(
        "spoil", [lambda count, error: (count + 1, error), lambda count, error: (count, math.inf)],
        ids=["count-differs", "tiny-pivot"],
    )
    def test_failed_index_check_doubles_to_the_full_blocks(self, spoil, monkeypatch):
        from modetangle import oscillator

        count_below = oscillator._count_below
        monkeypatch.setattr(
            oscillator, "_count_below", lambda *args: spoil(*count_below(*args))
        )
        model = build_model(0.1, 800, levels=10)
        assert [block.shape[0] for block in model.blocks] == [400, 400]
        assert np.array_equal(model.eigenvalues, build_model(0.1, 800).eigenvalues[:10])

    def test_no_large_eigh(self, monkeypatch):
        widths = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            widths.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        build_model(0.1, 1600, levels=10)
        assert widths and max(widths) <= 64

    def test_model_holds_the_leading_rows_and_requested_columns(self):
        n, k, m = 1600, 10, 128
        build_model(0.1, 64, levels=k)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            model = build_model(0.1, n, levels=k)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [block.shape for block in model.blocks] == [(m // 2, k // 2)] * 2
        assert held - base <= (m * m + n * k) * 8 * 1.1

    def test_level_not_computed_is_refused(self):
        model = build_model(0.1, 64, levels=10)
        for read in (
            model.energy,
            model.eigenstate,
            model.x_squared_expectation,
            lambda level: mode_overlap(model, level),
            lambda level: model.tail_weight([level]),
        ):
            with pytest.raises(ValueError, match="not computed"):
                read(10)

    def test_cut_levels_have_no_tail_weight(self):
        model = build_model(0.1, 800, levels=10)
        assert model.blocks[0].shape[0] < 400
        assert model.tail_weight(range(10)) == 0.0
        assert np.all(model.eigenstate(9)[2 * model.blocks[1].shape[0]:] == 0.0)

    @pytest.mark.parametrize("n", [64, 800])
    def test_strong_coupling_report_is_the_full_path(self, n, tmp_path, monkeypatch):
        from modetangle import cli, oscillator

        argv = ["oscillator", "--lambda", "100", "--truncation", str(n), "--out"]
        assert cli.main(argv + [str(tmp_path / "leading.json")]) == 0
        build = oscillator.build_model
        monkeypatch.setattr(oscillator, "build_model", lambda g, n, levels=None: build(g, n))
        assert cli.main(argv + [str(tmp_path / "full.json")]) == 0
        assert (tmp_path / "leading.json").read_bytes() == (tmp_path / "full.json").read_bytes()


class TestHarmonicLimit:
    def test_spectrum_is_exact(self):
        model = build_model(0.0, 64)
        np.testing.assert_allclose(
            model.eigenvalues, np.arange(64) + 0.5, atol=1e-10
        )

    def test_eigenvectors_are_the_number_basis(self):
        model = build_model(0.0, 32)
        stacked = np.column_stack([model.eigenstate(k) for k in range(32)])
        np.testing.assert_allclose(stacked, np.eye(32), atol=1e-10)

    def test_overlaps_are_unity(self):
        model = build_model(0.0, 16)
        for n in range(8):
            assert mode_overlap(model, n) == pytest.approx(1.0, abs=1e-12)

    def test_x_squared_expectation(self):
        model = build_model(0.0, 32)
        for n in range(6):
            assert model.x_squared_expectation(n) == pytest.approx(n + 0.5, abs=1e-10)


class TestFirstOrderOracle:
    def test_frozen_values(self):
        assert first_order_energy(0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert first_order_energy(0, 0.16) == pytest.approx(0.53, abs=1e-12)
        assert first_order_energy(1, 0.16) == pytest.approx(1.65, abs=1e-12)
        assert first_order_energy(0, 0.04) == pytest.approx(0.5075, abs=1e-12)
        assert first_order_energy(1, 0.04) == pytest.approx(1.5375, abs=1e-12)

    def test_small_coupling_agreement(self):
        # second-order corrections push the true energies slightly below
        # the first-order line; at g = 0.04 the gap is a few 1e-4
        model = build_model(0.04, 64)
        assert model.energy(0) == pytest.approx(0.5075, abs=3e-4)
        assert model.energy(1) == pytest.approx(1.5375, abs=2.5e-3)
        assert model.energy(0) < 0.5075

    def test_quadratic_error_scaling(self):
        # |E_n(g) - first_order| <= C g^2 with C stable across couplings
        ratios = []
        for g in (0.01, 0.02, 0.04):
            model = build_model(g, 64)
            gap = abs(model.energy(0) - first_order_energy(0, g))
            ratios.append(gap / g**2)
        assert max(ratios) < 2.0 * min(ratios)


class TestAnharmonicSpectrum:
    def test_levels_rise_with_coupling(self):
        couplings = (0.0, 0.05, 0.2, 1.0)
        energies = [build_model(g, 64).eigenvalues[:5] for g in couplings]
        for weaker, stronger in zip(energies, energies[1:]):
            assert np.all(stronger > weaker)

    def test_truncation_doubling_drift(self):
        small = build_model(0.5, 64)
        large = build_model(0.5, 128)
        drift = np.max(np.abs(small.eigenvalues[:5] - large.eigenvalues[:5]))
        assert drift < 1e-8

    def test_spatial_narrowing(self):
        model = build_model(0.1, 64)
        reference = build_model(0.0, 64)
        for n in range(3):
            assert model.x_squared_expectation(n) < reference.x_squared_expectation(n)
        assert model.x_squared_expectation(0) < 0.5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_model(-0.1, 64)
        with pytest.raises(ValueError):
            build_model(0.1, 4)
        with pytest.raises(ValueError):
            build_model(0.1, 64).energy(64)


class TestModeOverlap:
    def test_within_unit_interval(self):
        model = build_model(0.3, 64)
        for n in range(6):
            assert 0.0 < mode_overlap(model, n) <= 1.0

    def test_decreases_with_coupling(self):
        weak = build_model(0.1, 64)
        strong = build_model(5.0, 64)
        for n in range(4):
            assert mode_overlap(strong, n) < mode_overlap(weak, n)

    def test_weak_coupling_stays_near_unity(self):
        model = build_model(0.1, 64)
        overlap = mode_overlap(model, 0)
        assert 0.99 < overlap < 1.0 - 1e-12

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ValueError):
            mode_overlap(build_model(0.1, 16), 16)


class TestAdiabaticCheck:
    def test_wide_margins_pass(self):
        require_adiabatic(AdiabaticBudget(1.0, 0.01, 1000.0))
        with pytest.raises(PhysicsPreconditionError, match=r"r1=100, r2=10,"):
            require_adiabatic(AdiabaticBudget(1.0, 0.01, 1000.0, ratio_threshold=10.5))

    def test_small_gap_fails(self):
        with pytest.raises(PhysicsPreconditionError, match=r"r1=2, r2=10,"):
            require_adiabatic(AdiabaticBudget(0.02, 0.01, 1000.0))

    def test_short_measurement_fails(self):
        with pytest.raises(PhysicsPreconditionError, match=r"r1=100, r2=0\.5,"):
            require_adiabatic(AdiabaticBudget(1.0, 0.01, 50.0))

    def test_threshold_is_configurable(self):
        require_adiabatic(AdiabaticBudget(1.0, 0.01, 50.0, ratio_threshold=0.25))

    def test_non_positive_scales_rejected(self):
        with pytest.raises(ValueError):
            AdiabaticBudget(0.0, 0.01, 10.0)
        with pytest.raises(ValueError):
            AdiabaticBudget(1.0, -0.01, 10.0)
        with pytest.raises(ValueError):
            AdiabaticBudget(1.0, 0.01, math.inf)
