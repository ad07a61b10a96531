"""Labeled states, partial trace, and entropy measures."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from kernel_views import (
    decimal_pair_weights,
    fidelity,
    pair_small_weights,
    reduced_spectra,
    small_weight_entropies,
)

from modetangle.states import (
    BasisLabel,
    LabelingError,
    PureState,
    ReducedDensityMatrix,
    _kept_matrices,
    partial_trace,
    renyi_entropies,
    renyi_entropy,
    von_neumann_entropies,
    von_neumann_entropy,
)

LOG2_3 = 1.584962500721156
ROOT_HALF = 1.0 / math.sqrt(2.0)


def pair_state(amps, dims=(2, 2)):
    return PureState(BasisLabel(("left", "right"), dims), np.asarray(amps, dtype=complex))


def random_state(rng, dims=(2, 2)):
    n = int(np.prod(dims))
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(BasisLabel(("left", "right"), dims), amps / np.linalg.norm(amps))


def random_unitary(rng, d=2):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasisLabel:
    def test_dim_and_axis(self):
        basis = BasisLabel(("a", "b", "c"), (2, 3, 4))
        assert basis.dim == 24
        assert basis.axis("b") == 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(LabelingError, match="duplicate"):
            BasisLabel(("a", "a"), (2, 2))

    def test_unknown_factor_rejected(self):
        with pytest.raises(LabelingError, match="unknown"):
            BasisLabel(("a", "b"), (2, 2)).axis("c")

    def test_length_mismatch_rejected(self):
        with pytest.raises(LabelingError):
            BasisLabel(("a", "b"), (2,))

    def test_too_many_factors_rejected(self):
        with pytest.raises(LabelingError):
            BasisLabel(("a", "b", "c", "d", "e"), (2, 2, 2, 2, 2))


class TestPureState:
    def test_length_must_match_basis(self):
        with pytest.raises(ValueError):
            pair_state([1.0, 0.0, 0.0])

    def test_amplitudes_frozen(self):
        state = pair_state([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0


class TestPartialTrace:
    def test_bell_pair_is_maximally_mixed(self):
        bell = pair_state([ROOT_HALF, 0.0, 0.0, ROOT_HALF])
        rho = partial_trace(bell, "left")
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2.0, atol=1e-12)

    def test_product_state_is_pure(self):
        state = pair_state([1.0, 0.0, 0.0, 0.0])
        rho = partial_trace(state, "left")
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_three_level_uniform(self):
        # (|2,0> + |1,1> + |0,2>)/sqrt(3) traces to I/3 on either side
        amps = np.zeros(9)
        amps[6] = amps[4] = amps[2] = 1.0 / math.sqrt(3.0)
        state = pair_state(amps, dims=(3, 3))
        rho = partial_trace(state, "right")
        np.testing.assert_allclose(rho.entries, np.eye(3) / 3.0, atol=1e-12)

    def test_random_states_give_valid_density_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            state = random_state(rng, dims=(3, 4))
            rho = partial_trace(state, "left")
            m = rho.entries
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(m)[0] > -1e-12

    def test_both_sides_share_a_spectrum(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            state = random_state(rng, dims=(3, 3))
            e_left = von_neumann_entropy(partial_trace(state, "left"))
            e_right = von_neumann_entropy(partial_trace(state, "right"))
            assert e_left == pytest.approx(e_right, abs=1e-10)

    def test_unknown_factor_rejected(self):
        with pytest.raises(LabelingError):
            partial_trace(pair_state([1.0, 0.0, 0.0, 0.0]), "middle")


class TestReducedSpectra:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_matches_the_scalar_path_on_random_states(self, dims):
        rng = np.random.default_rng(13)
        states = [random_state(rng, dims=dims) for _ in range(50)]
        stack = np.array([s.amplitudes for s in states])
        for keep, name in enumerate(("left", "right")):
            spectra = reduced_spectra(stack, dims, keep)
            assert spectra.shape == (50, dims[keep])
            vn = von_neumann_entropies(spectra)
            r2 = renyi_entropies(spectra, 2.0)
            r_half = renyi_entropies(spectra, 0.5)
            for i, state in enumerate(states):
                rho = partial_trace(state, name)
                np.testing.assert_allclose(spectra[i], rho.eigenvalues(), atol=1e-12)
                assert vn[i] == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
                assert r2[i] == pytest.approx(renyi_entropy(rho, 2.0), abs=1e-12)
                assert r_half[i] == pytest.approx(renyi_entropy(rho, 0.5), abs=1e-12)

    def test_matches_a_direct_eigendecomposition(self):
        rng = np.random.default_rng(17)
        dims = (2, 3)
        states = [random_state(rng, dims=dims) for _ in range(20)]
        stack = np.array([s.amplitudes for s in states])
        for keep in (0, 1):
            spectra = reduced_spectra(stack, dims, keep)
            for i, state in enumerate(states):
                psi = state.amplitudes.reshape(dims)
                rho = psi @ psi.conj().T if keep == 0 else psi.T @ psi.conj()
                np.testing.assert_allclose(spectra[i], np.linalg.eigvalsh(rho), atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_a_real_stack_stays_real(self, dims):
        rng = np.random.default_rng(29)
        stack = rng.standard_normal((200, int(np.prod(dims))))
        for keep in (0, 1):
            assert _kept_matrices(stack, dims, keep).dtype == np.float64
            # each SVD's weights are within ~1e-15 of exact, so the two agree to ~2e-15
            np.testing.assert_allclose(
                reduced_spectra(stack, dims, keep),
                reduced_spectra(stack.astype(complex), dims, keep),
                rtol=0,
                atol=10 * np.finfo(float).eps,
            )

    def test_a_real_stack_builds_no_imaginary_copy(self):
        # the normalized stack is one copy; a zero imaginary part and its
        # square would be two more
        stack = np.random.default_rng(31).standard_normal((200_000, 9))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            reduced_spectra(stack, (3, 3), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 3 * stack.nbytes

    @pytest.mark.parametrize("d", [2, 3])
    def test_small_schmidt_weights_keep_their_relative_accuracy(self, d):
        # Weights (1 - (d-1)e, e, ...) in random local frames.  Diagonalizing
        # the Gram matrix psi psi^H loses e = 1e-12 to rounding near 1e-16;
        # the singular values of psi keep it to high relative accuracy.
        rng = np.random.default_rng(61)
        small = 1e-12
        weights = np.array([small] * (d - 1) + [1.0 - (d - 1) * small])
        stack = np.array(
            [
                (random_unitary(rng, d) * np.sqrt(weights)) @ random_unitary(rng, d).T
                for _ in range(200)
            ]
        ).reshape(200, d * d)
        for keep in (0, 1):
            spectra = reduced_spectra(stack, (d, d), keep)
            np.testing.assert_allclose(spectra, np.tile(weights, (200, 1)), rtol=1e-6, atol=0)

    def test_unnormalized_rows_are_normalized(self):
        stack = np.array([[3.0, 0.0, 0.0, 3.0], [0.0, 0.0, 0.0, 2.0]])
        spectra = reduced_spectra(stack, (2, 2), 0)
        np.testing.assert_allclose(spectra, [[0.5, 0.5], [0.0, 1.0]], atol=1e-12)

    def test_one_zero_norm_row_rejects_the_stack(self):
        stack = np.array([[ROOT_HALF, 0.0, 0.0, ROOT_HALF], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm"):
            reduced_spectra(stack, (2, 2), 0)

    def test_shape_must_match_dims(self):
        with pytest.raises(ValueError):
            reduced_spectra(np.ones((3, 4)), (3, 3), 0)


class TestPairKernels:
    """The closed-form 2x2 Schmidt kernels against the SVD oracle and exact spectra."""

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_match_the_svd_oracle_on_random_stacks(self, dtype):
        rng = np.random.default_rng(67)
        stack = rng.standard_normal((500, 4))
        if dtype is complex:
            stack = stack + 1j * rng.standard_normal((500, 4))
        weights = pair_small_weights(stack)
        spectra = reduced_spectra(stack, (2, 2), 0)
        np.testing.assert_allclose(weights, spectra[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            small_weight_entropies(weights[:, np.newaxis]),
            von_neumann_entropies(spectra),
            rtol=0,
            atol=1e-14,
        )

    def test_either_factor_and_any_norm_give_one_weight(self):
        stack = np.random.default_rng(71).standard_normal((50, 4)) * 3.0
        swapped = stack[:, [0, 2, 1, 3]]  # photon_2's reduction
        np.testing.assert_allclose(pair_small_weights(swapped), pair_small_weights(stack), rtol=1e-14)
        np.testing.assert_allclose(pair_small_weights(stack / 3.0), pair_small_weights(stack), rtol=1e-14)

    @pytest.mark.parametrize("scale", [1e-4, 1e-8, 1e-16])
    def test_weights_near_a_product_state_are_right_to_rounding(self, scale):
        # rows (x, y, z, w) with y, z ~ scale and w ~ scale^2, near (1, 0, 0, 0)
        # as the protocol's pairs are: xw and yz are both second order, so the
        # weight ~ scale^4 keeps its digits, within a bound that grows only as
        # the two products cancel.  An SVD's weights carry an absolute error
        # near 1e-32, all of the weight at scale 1e-8.
        rng = np.random.default_rng(73)
        draws = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
        stack = draws * np.array([1.0, scale, scale, scale * scale])
        eps = Decimal(np.finfo(float).eps)
        for row, weight in zip(stack, pair_small_weights(stack)):
            x, y, z, w = row
            cancellation = Decimal((abs(x * w) + abs(y * z)) / abs(x * w - y * z))
            exact = decimal_pair_weights(row)[0]
            assert abs(Decimal(weight) - exact) <= 8 * eps * cancellation * exact

    def test_landmark_pairs(self):
        stack = np.array(
            [[1.0, 0.0, 0.0, 0.0], [ROOT_HALF, 0.0, 0.0, ROOT_HALF], [0.5, 0.5, 0.5, 0.5]]
        )
        weights = pair_small_weights(stack)
        assert weights[0] == 0.0 and weights[2] == 0.0
        assert weights[1] == pytest.approx(0.5, rel=1e-15)
        entropies = small_weight_entropies(weights[:, np.newaxis])
        assert entropies[1] == pytest.approx(1.0, rel=1e-15)
        assert entropies[0] == entropies[2] == 0.0
        assert not np.signbit(entropies).any()

    def test_entropies_of_given_small_weights(self):
        entropies = small_weight_entropies(
            np.array([[0.0, 0.0], [0.5, 0.5], [1.0 / 3.0, 1.0 / 3.0], [0.25, 0.0]])
        )
        # a weight of exactly 0, the large one included, adds 0
        assert entropies[0] == 0.0 and not np.signbit(entropies[0])
        assert entropies[1] == pytest.approx(1.0, rel=1e-15)
        assert entropies[2] == pytest.approx(LOG2_3, rel=1e-15)
        assert entropies[3] == pytest.approx(-(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), rel=1e-15)


class TestReducedDensityMatrix:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ReducedDensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            ReducedDensityMatrix(np.diag([0.7, 0.7]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            ReducedDensityMatrix(np.diag([1.5, -0.5]))

    def test_eigenvalues_clamped(self):
        rho = ReducedDensityMatrix(np.diag([1.0 + 5e-13, -5e-13]))
        assert rho.eigenvalues()[0] == 0.0


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        rho = ReducedDensityMatrix(np.eye(2) / 2.0)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_zero(self):
        rho = ReducedDensityMatrix(np.diag([1.0, 0.0]))
        assert von_neumann_entropy(rho) == 0.0

    def test_uniform_qutrit(self):
        rho = ReducedDensityMatrix(np.eye(3) / 3.0)
        assert von_neumann_entropy(rho) == pytest.approx(LOG2_3, abs=1e-12)

    def test_plateau_spectrum(self):
        # (1/2, 1/4, 1/4) carries exactly 1.5 bits
        rho = ReducedDensityMatrix(np.diag([0.5, 0.25, 0.25]))
        assert von_neumann_entropy(rho) == pytest.approx(1.5, abs=1e-12)

    def test_bounded_by_log_dim(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            p = rng.random(4)
            rho = ReducedDensityMatrix(np.diag(p / p.sum()))
            assert 0.0 <= von_neumann_entropy(rho) <= 2.0 + 1e-12


class TestRenyiEntropy:
    def test_order_two_uniform(self):
        rho = ReducedDensityMatrix(np.eye(3) / 3.0)
        assert renyi_entropy(rho, 2.0) == pytest.approx(LOG2_3, abs=1e-12)

    def test_order_two_plateau(self):
        # -log2(1/4 + 1/16 + 1/16) = log2(8/3)
        rho = ReducedDensityMatrix(np.diag([0.5, 0.25, 0.25]))
        assert renyi_entropy(rho, 2.0) == pytest.approx(3.0 - LOG2_3, abs=1e-12)

    def test_brackets_von_neumann_near_one(self):
        rng = np.random.default_rng(31)
        spectra = [np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.3, 0.2, 0.1])]
        for _ in range(10):
            p = rng.random(5) + 0.1
            spectra.append(p / p.sum())
        for p in spectra:
            rho = ReducedDensityMatrix(np.diag(p))
            vn = von_neumann_entropy(rho)
            below = renyi_entropy(rho, 1.0 + 1e-4)
            above = renyi_entropy(rho, 1.0 - 1e-4)
            assert below <= vn + 1e-12 <= above + 2e-12
            assert below == pytest.approx(vn, abs=1e-3)
            assert above == pytest.approx(vn, abs=1e-3)

    def test_invalid_orders_rejected(self):
        rho = ReducedDensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            renyi_entropy(rho, 0.0)
        with pytest.raises(ValueError):
            renyi_entropy(rho, -2.0)
        with pytest.raises(ValueError):
            renyi_entropy(rho, 1.0)


class TestFidelity:
    """|<a|b>|^2 of the normalized vectors, as the protocol computes its fidelity."""

    def test_identical_states(self):
        state = [ROOT_HALF, 0.0, 0.0, ROOT_HALF]
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]) == 0.0

    def test_half_overlap(self):
        bell = [ROOT_HALF, 0.0, 0.0, ROOT_HALF]
        assert fidelity(bell, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_phase_invariance(self):
        rng = np.random.default_rng(41)
        state = random_state(rng).amplitudes
        assert fidelity(state, state * np.exp(1j * 0.7)) == pytest.approx(1.0, abs=1e-12)


class TestLocalUnitaries:
    def test_entropy_invariant_under_local_rotations(self):
        rng = np.random.default_rng(51)
        bell = np.array([ROOT_HALF, 0.0, 0.0, ROOT_HALF])
        for _ in range(30):
            local = np.kron(random_unitary(rng), random_unitary(rng))
            entropy = von_neumann_entropy(partial_trace(pair_state(local @ bell), "left"))
            assert entropy == pytest.approx(1.0, abs=1e-10)
