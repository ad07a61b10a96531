"""Quartic-anharmonic oscillator model and overlaps."""

import functools
import json
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from dense_model import dense_levels, norm1, parity_block_matrices, position_operator, symmetric_banded

from modetangle.oscillator import (
    build_model,
    first_order_energy,
    mode_deformation,
    mode_overlap,
    truncation_problem,
)
from modetangle.oscillator import (
    _band,
    _count_below,
    _cut_residual,
    _negative_pivots,
    _parity_blocks,
    _shifted_solve,
    _x_squared_diagonals,
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
        # H_N at g = 4, where g/4 leaves X^4 unscaled
        h = np.diag(np.arange(n) + 0.5) + (x2 @ x2)[:n, :n]
        for parity, diagonals in enumerate(_parity_blocks(4.0, n)):
            rows = slice(parity, n, 2)
            closed_x2 = dict(enumerate(_x_squared_diagonals(parity, len(diagonals[0]))))
            np.testing.assert_allclose(symmetric_banded(closed_x2), x2[rows, rows], rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                symmetric_banded(dict(enumerate(diagonals))), h[rows, rows], rtol=1e-12, atol=0
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
        model = build_model(g, n, levels=n)
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
        # a small residual reads the small top entries of the eigh vectors,
        # which hold eps ||H_N||_1 of absolute error
        dense = dense_levels(g, n, levels)["truncation_error"]
        scale = (4 * np.finfo(float).eps * norm1(g, n)) ** 2 / np.min(np.diff(values))
        np.testing.assert_allclose(model.truncation_errors[:levels], dense, rtol=1e-4, atol=scale)

    @pytest.mark.parametrize("n, levels", [(8, 8), (9, 9), (64, 64), (1600, 10)])
    def test_zero_coupling_levels_are_exact(self, n, levels):
        # the dense eigh of H = diag(k + 1/2), sign-fixed: the solver gives
        # its levels and number states exactly
        values, vectors = np.linalg.eigh(np.diag(np.arange(n) + 0.5))
        vectors = vectors * np.where(np.diag(vectors) < 0.0, -1.0, 1.0)
        for g in (0.0, -0.0):
            model = build_model(g, n, levels=levels)
            assert np.array_equal(model.eigenvalues, values[:levels])
            stacked = np.column_stack([model.eigenstate(k) for k in range(levels)])
            assert np.array_equal(stacked, vectors[:, :levels])
            # vectors[k] is (parity, column), the column over the leading rows of its parity
            for k, (parity, column) in enumerate(model.vectors):
                assert parity == k % 2
                assert np.array_equal(column, vectors[parity::2, k][: len(column)])

    def test_truncation_error_is_the_residual_squared_over_the_gap(self):
        # r is the residual of the padded eigenstate against H_{N+4}; the
        # gap is to the nearest neighbour among the levels, one more computed
        model = build_model(5.0, 64, levels=10)
        values = build_model(5.0, 64, levels=11).eigenvalues
        wide = np.zeros((68, 68))
        for parity, block in enumerate(parity_block_matrices(5.0, 68)):
            wide[parity::2, parity::2] = block
        for n in range(10):
            v = np.concatenate([model.eigenstate(n), np.zeros(4)])
            r = np.linalg.norm(wide @ v - model.energy(n) * v)
            gap = min(abs(values[n] - values[m]) for m in (n - 1, n + 1) if m >= 0)
            assert model.truncation_errors[n] == pytest.approx(r * r / gap, rel=1e-9)
        assert build_model(0.0, 64, levels=10).truncation_errors == (0.0,) * 10

    def test_model_holds_only_the_parity_blocks(self):
        # g = 100 solves the widest blocks, 512 rows each at N = 1600; a
        # dense N x N eigenvector or X^2 array would exceed both bounds
        n = 1600
        build_model(100.0, 64, levels=10)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            model = build_model(100.0, n, levels=10)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.truncation == n
        assert held - base <= 1.1 * 8 * n * n / 2
        assert peak - base < 20 * 2**20


def pivot_rows(a):
    """Per step of a dense LU of the band a: the row partial pivoting picks, 0-2 below, and the pivot."""
    a = np.array(a, dtype=float)
    rows, pivots = [], []
    for j in range(len(a)):
        p = int(np.argmax(np.abs(a[j : j + 3, j])))
        a[[j, j + p]] = a[[j + p, j]]
        rows.append(p)
        pivots.append(a[j, j])
        if a[j, j] != 0.0:
            a[j + 1 :] -= np.outer(a[j + 1 :, j] / a[j, j], a[j])
    return rows, pivots


class TestShiftedSolve:
    @pytest.mark.parametrize(
        "g, shift, picked",
        [(0.1, "below", {0}), (100.0, "below", {0, 1}), (100.0, "between", {0, 1, 2})],
    )
    def test_matches_the_dense_solve(self, g, shift, picked):
        # the lowest two levels of the even block of H_64; below them no
        # pivot is swapped at g = 0.1, and between them every choice is made
        diagonals = _parity_blocks(g, 64)[0]
        a = symmetric_banded(dict(enumerate(diagonals)))
        values = np.linalg.eigvalsh(a)
        s = values[0] - 10.0 if shift == "below" else 0.5 * (values[0] + values[1])
        shifted = a - s * np.eye(len(a))
        assert set(pivot_rows(shifted)[0]) == picked
        rhs = np.cos(np.arange(len(a)))
        x = _shifted_solve(_band(diagonals), s, rhs.tolist())
        reference = np.linalg.solve(shifted, rhs)
        np.testing.assert_allclose(x, reference, rtol=0, atol=1e-12 * np.max(np.abs(reference)))

    @pytest.mark.parametrize(
        "diagonals, shift, vector",
        [
            # the even block of H_16 at g = 0, diag(1/2, 5/2, 9/2, ...): 9/2 is its third level
            (_parity_blocks(0.0, 16)[0], 4.5, np.eye(8)[2]),
            # tridiag(-1, 2, -1) has the level 2 at (1, 0, -1, 0, 1), and
            # elimination at that shift swaps rows and stays exact
            ([[2.0] * 5, [-1.0] * 4, [0.0] * 3], 2.0, np.array([1.0, 0.0, -1.0, 0.0, 1.0])),
        ],
        ids=["diagonal", "pivoting"],
    )
    def test_an_exact_level_raises_the_zero_pivot(self, diagonals, shift, vector):
        a = symmetric_banded(dict(enumerate(diagonals)))
        assert 0.0 in pivot_rows(a - shift * np.eye(len(a)))[1]
        x = np.array(_shifted_solve(_band(diagonals), shift, [1.0] * len(a)))
        assert np.all(np.isfinite(x))
        cosine = abs(x @ vector) / (np.linalg.norm(x) * np.linalg.norm(vector))
        assert cosine == pytest.approx(1.0, rel=0, abs=1e-12)


class TestLeadingBlock:
    @pytest.mark.parametrize("g", [0.05, 0.1, 0.2, 1.0, 5.0])
    @pytest.mark.parametrize("n", [256, 800, 1600])
    def test_agrees_with_the_full_path(self, g, n):
        # the full path is a dense eigh of both parity blocks of H_N
        tol = 4 * np.finfo(float).eps * norm1(g, n)
        leading, full = build_model(g, n, levels=10), dense_levels(g, n, 10)
        np.testing.assert_allclose(leading.eigenvalues, full["eigenvalues"], rtol=0, atol=tol)
        for k in range(10):
            assert abs(mode_overlap(leading, k) - full["overlaps"][k]) <= tol
            assert abs(leading.x_squared_expectation(k) - full["x_squared"][k]) <= tol
        assert len(leading.eigenvalues) == 10

    @pytest.mark.parametrize("g", [0.1, 5.0, 100.0])
    @pytest.mark.parametrize("n", [9, 64, 256])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_index_count_matches_eigvalsh(self, g, n, parity):
        diagonals = _parity_blocks(g, n)[parity]
        values = np.linalg.eigvalsh(symmetric_banded(dict(enumerate(diagonals))))
        size = len(values)
        picks = sorted({0, 1, 3, 9, size // 2, size - 2} & set(range(size - 1)))
        shifts = [-1.0, values[-1] + 1.0] + [0.5 * (values[i] + values[i + 1]) for i in picks]
        for shift in shifts:
            count, error = _count_below(_band(diagonals), shift)
            assert error < np.min(np.abs(values - shift))
            assert count == np.sum(values < shift), shift

    def test_an_exact_zero_pivot_counts_as_negative_and_voids_the_bound(self):
        # diag(1/2, 5/2, 9/2, ...) at its entry 5/2: D[1] is exactly 0
        band = _band(_parity_blocks(0.0, 16)[0])
        pivots = []
        assert _negative_pivots(band, 2.5, pivots) == 2
        assert pivots[3] == 0.0  # D[1], recorded before it is replaced
        assert _count_below(band, 2.5) == (0, math.inf)

    @pytest.mark.parametrize("g", [0.1, 100.0])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_cut_residual_is_the_dense_residual_beyond_the_cut(self, g, parity):
        # a block vector padded with zeros leaves H[m:, :m] v in the rows
        # beyond the cut; 31 rows leave one such row, 32 are the whole block
        diagonals = _parity_blocks(g, 64)[parity]
        band, h = _band(diagonals), symmetric_banded(dict(enumerate(diagonals)))
        for m in (8, 31, 32):
            v = np.linalg.eigh(h[:m, :m])[1][:, -1]
            dense = np.linalg.norm(h[m:, :m] @ v)
            assert _cut_residual(band, tuple(v)) == pytest.approx(dense, rel=1e-13, abs=0)

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
        assert sorted({(p, len(column)) for p, column in model.vectors}) == [(0, 400), (1, 400)]
        tol = 4 * np.finfo(float).eps * norm1(0.1, 800)
        full = dense_levels(0.1, 800, 10)["eigenvalues"]
        np.testing.assert_allclose(model.eigenvalues, full, rtol=0, atol=tol)

    def test_no_large_eigh(self, monkeypatch):
        # every parity block the eigensolver sees is at most 64 rows wide
        from modetangle import oscillator

        widths = []
        lowest_pairs = oscillator._lowest_pairs

        def recording(bands, *args):
            widths.extend(len(band.main) for band in bands)
            return lowest_pairs(bands, *args)

        monkeypatch.setattr(oscillator, "_lowest_pairs", recording)
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
        columns = sorted((p, len(column)) for p, column in model.vectors)
        assert columns == [(0, m // 2)] * (k // 2) + [(1, m // 2)] * (k // 2)
        assert held - base <= (m * m + n * k) * 8 * 1.1

    def test_level_not_computed_is_refused(self):
        model = build_model(0.1, 64, levels=10)
        for read in (
            model.energy,
            model.eigenstate,
            model.x_squared_expectation,
            lambda level: mode_overlap(model, level),
            lambda level: truncation_problem(model, [level]),
        ):
            with pytest.raises(ValueError, match="not computed"):
                read(10)

    def test_cut_levels_have_rounding_size_error_estimates(self):
        # a certified level's cut residual is within its block's rounding
        # scale, so its estimate is that scale squared over the gap
        model = build_model(0.1, 800, levels=10)
        assert all(len(column) < 400 for _, column in model.vectors)
        rounding = np.finfo(float).eps * norm1(0.1, 2 * len(model.vectors[0][1]))
        gap = np.min(np.diff(model.eigenvalues))
        assert all(error <= rounding**2 / gap for error in model.truncation_errors)
        assert model.vectors[9][0] == 1
        assert not any(model.eigenstate(9)[2 * len(model.vectors[9][1]):])

    @pytest.mark.parametrize("n", [64, 800])
    def test_strong_coupling_report_is_the_full_path(self, n, tmp_path):
        # at g = 100 no leading block is certified: the report comes from
        # the whole of H_N and matches its dense eigh
        from modetangle import cli

        out = tmp_path / "report.json"
        assert cli.main(["oscillator", "--lambda", "100", "--truncation", str(n), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        model = build_model(100.0, n, levels=10)
        assert sorted({(p, len(column)) for p, column in model.vectors}) == [(0, n // 2), (1, n // 2)]
        tol = 4 * np.finfo(float).eps * norm1(100.0, n)
        full = dense_levels(100.0, n, 10)
        np.testing.assert_allclose(report["eigenvalues"], full["eigenvalues"], rtol=0, atol=tol)
        np.testing.assert_allclose(report["overlaps"], full["overlaps"][:4], rtol=0, atol=tol)
        np.testing.assert_allclose(report["x_squared"], full["x_squared"][:4], rtol=0, atol=tol)
        gap = np.min(np.diff(full["eigenvalues"]))
        np.testing.assert_allclose(
            report["truncation_error"], full["truncation_error"], rtol=1e-6, atol=tol**2 / gap
        )


def decimal_count_below(diagonals, shift):
    """Eigenvalues below shift of the pentadiagonal block, by LDL^T pivots in the decimal context."""
    main, first, second = diagonals
    count = 0
    d1 = d2 = Decimal(1)
    l1 = Decimal(0)
    for ai, bi, ci in zip(main, [Decimal(0), *first], [Decimal(0), Decimal(0), *second]):
        li2 = ci / d2
        b = bi - ci * l1
        li1 = b / d1
        di = ai - shift - li1 * b - li2 * ci
        count += di < 0
        d2, d1, l1 = d1, di, li1
    return count


def decimal_block_levels(block, k, top):
    """The k lowest eigenvalues of a decimal block, by bisection on the pivot count."""
    levels = []
    for level in range(k):
        lo, hi = -top, top
        while hi - lo > Decimal("1e-40") * top:
            mid = (lo + hi) / 2
            if decimal_count_below(block, mid) > level:
                hi = mid
            else:
                lo = mid
        levels.append((lo + hi) / 2)
    return levels


def decimal_eigenvector(block, value):
    """Unit vector (A - value I)^-1 (1, ..., 1), by dense elimination with partial pivoting.

    value is an eigenvalue to ~40 digits, so one solve leaves only ~1e-30
    of the other eigenvectors in the result.
    """
    main, first, second = block
    w = len(main)
    a = [[Decimal(0)] * w for _ in range(w)]
    for i, x in enumerate(main):
        a[i][i] = x - value
    for offset, diagonal in ((1, first), (2, second)):
        for i, x in enumerate(diagonal):
            a[i][i + offset] = a[i + offset][i] = x
    b = [Decimal(1)] * w
    for j in range(w):
        p = max(range(j, w), key=lambda r: abs(a[r][j]))
        a[j], a[p], b[j], b[p] = a[p], a[j], b[p], b[j]
        for r in range(j + 1, w):
            m = a[r][j] / a[j][j]
            a[r] = [x - m * y for x, y in zip(a[r], a[j])]
            b[r] -= m * b[j]
    x = [Decimal(0)] * w
    for j in range(w - 1, -1, -1):
        x[j] = (b[j] - sum(a[j][c] * x[c] for c in range(j + 1, w))) / a[j][j]
    norm = sum(v * v for v in x).sqrt()
    return [v / norm for v in x]


@functools.lru_cache(maxsize=None)
def decimal_pairs(g, n, k):
    """Levels 0..k-1 of the float parity blocks of H_N, at 50 digits.

    Each is (level, overlap with its number state, <X^2>, distance to the
    nearest other level of its parity block), with the sign convention of
    build_model.  The float block entries are exact decimals, so this is
    the same matrix; <X^2> uses the exact X^2.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        blocks = [[[Decimal(x) for x in d] for d in block] for block in _parity_blocks(g, n)]
        # a bound on every eigenvalue's magnitude
        top = 1 + sum(abs(x) for block in blocks for d in block for x in d)
        per_block = [decimal_block_levels(block, min(k + 1, len(block[0])), top) for block in blocks]
        merged = sorted((value, p) for p in (0, 1) for value in per_block[p])
        pairs = []
        for level, (value, p) in enumerate(merged[:k]):
            v = decimal_eigenvector(blocks[p], value)
            harmonic = (level - p) // 2 if level % 2 == p else None
            if harmonic is not None and v[harmonic] < 0:
                v = [-x for x in v]
            rows = [Decimal(p + 2 * i) for i in range(len(v))]
            x2 = sum((r + Decimal("0.5")) * x * x for r, x in zip(rows, v))
            x2 += sum(((r + 1) * (r + 2)).sqrt() * x * y for r, x, y in zip(rows, v, v[1:]))
            gap = min(abs(value - other) for other in per_block[p] if other != value)
            pairs.append((value, v[harmonic] if harmonic is not None else Decimal(0), x2, gap))
        return pairs


class TestDecimalOracle:
    """Levels 0-9 against decimal_pairs; the blocks are solved whole (N <= BLOCK_START)."""

    @pytest.mark.parametrize("g", [0.1, 1.0, 5.0, 100.0])
    @pytest.mark.parametrize("n", [16, 32])
    def test_levels_match_a_50_digit_bisection(self, g, n):
        model = build_model(g, n, levels=10)
        scale = Decimal(np.finfo(float).eps) * Decimal(norm1(g, n))
        for level, (exact, *_) in zip(model.eigenvalues, decimal_pairs(g, n, 10)):
            assert abs(Decimal(level) - exact) <= 2 * scale

    @pytest.mark.parametrize("g", [0.1, 1.0, 5.0, 100.0])
    @pytest.mark.parametrize("n", [16, 32])
    def test_overlaps_and_x_squared_match_the_decimal_vectors(self, g, n):
        # a backward error of eps ||H_N||_1 turns a vector by at most that
        # over the gap to its parity's nearest level, so the overlap moves
        # by at most that much and <X^2> by at most twice that times
        # ||X^2||_1 <= 2N
        model = build_model(g, n, levels=10)
        scale = Decimal(np.finfo(float).eps) * Decimal(norm1(g, n))
        for level, (_, overlap, x2, gap) in enumerate(decimal_pairs(g, n, 10)):
            assert abs(Decimal(mode_overlap(model, level)) - overlap) <= scale / gap
            assert abs(Decimal(model.x_squared_expectation(level)) - x2) <= 4 * n * scale / gap


class TestHarmonicLimit:
    def test_spectrum_is_exact(self):
        model = build_model(0.0, 64, levels=64)
        np.testing.assert_allclose(
            model.eigenvalues, np.arange(64) + 0.5, atol=1e-10
        )

    def test_eigenvectors_are_the_number_basis(self):
        model = build_model(0.0, 32, levels=32)
        stacked = np.column_stack([model.eigenstate(k) for k in range(32)])
        np.testing.assert_allclose(stacked, np.eye(32), atol=1e-10)

    def test_overlaps_are_unity(self):
        model = build_model(0.0, 16, levels=8)
        for n in range(8):
            assert mode_overlap(model, n) == pytest.approx(1.0, abs=1e-12)

    def test_x_squared_expectation(self):
        model = build_model(0.0, 32, levels=6)
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
        model = build_model(0.04, 64, levels=2)
        assert model.energy(0) == pytest.approx(0.5075, abs=3e-4)
        assert model.energy(1) == pytest.approx(1.5375, abs=2.5e-3)
        assert model.energy(0) < 0.5075

    def test_quadratic_error_scaling(self):
        # |E_n(g) - first_order| <= C g^2 with C stable across couplings
        ratios = []
        for g in (0.01, 0.02, 0.04):
            model = build_model(g, 64, levels=1)
            gap = abs(model.energy(0) - first_order_energy(0, g))
            ratios.append(gap / g**2)
        assert max(ratios) < 2.0 * min(ratios)


class TestTruncationError:
    @pytest.mark.parametrize("g, n", [(0.2, 16), (1.0, 32), (1.0, 64), (5.0, 64), (100.0, 64), (100.0, 256)])
    def test_estimate_covers_the_error_against_four_times_the_truncation(self, g, n):
        # wherever a level moves by more than its rounding scale when the
        # truncation is quadrupled, the estimate is at least that move
        model, wider = build_model(g, n, levels=10), build_model(g, 4 * n, levels=10)
        rounding = 4 * np.finfo(float).eps * norm1(g, n)
        moved = [
            (error, abs(low - high))
            for error, low, high in zip(model.truncation_errors, model.eigenvalues, wider.eigenvalues)
            if abs(low - high) > rounding
        ]
        assert moved
        assert all(error >= move for error, move in moved)

    @pytest.mark.parametrize("g", [1e250, 5e297])
    def test_cut_residual_stays_finite_at_huge_coupling(self, g):
        # the squares of the residual's two rows pass the float range here
        model = build_model(g, 64, levels=10)
        wide = [_band(diagonals) for diagonals in _parity_blocks(g, 68)]
        assert all(0.0 < _cut_residual(wide[p], column) < math.inf for p, column in model.vectors)
        assert all(0.0 < error < sys.float_info.max for error in model.truncation_errors)

    def test_zero_gap_fails_without_raising(self, monkeypatch):
        # every level at one value leaves no gap to divide by
        from modetangle import oscillator

        monkeypatch.setattr(oscillator, "_rayleigh_quotient", lambda band, v: 1.0)
        model = build_model(0.1, 16, levels=4)
        assert model.truncation_errors == (sys.float_info.max,) * 4
        assert truncation_problem(model, [0, 3]).startswith(
            "truncation 16 is too small for lambda=0.1: levels 0, 3 have "
        )

    @pytest.mark.parametrize("g, n", [(0.0, 8), (0.05, 800), (0.2, 64), (0.2, 1600), (0.5, 64), (100.0, 1600)])
    def test_silent_where_the_levels_are_right(self, g, n):
        assert truncation_problem(build_model(g, n, levels=10), range(min(10, n))) is None


class TestAnharmonicSpectrum:
    def test_levels_rise_with_coupling(self):
        couplings = (0.0, 0.05, 0.2, 1.0)
        energies = [np.array(build_model(g, 64, levels=5).eigenvalues) for g in couplings]
        for weaker, stronger in zip(energies, energies[1:]):
            assert np.all(stronger > weaker)

    def test_truncation_doubling_drift(self):
        small = build_model(0.5, 64, levels=5)
        large = build_model(0.5, 128, levels=5)
        drift = np.max(np.abs(np.subtract(small.eigenvalues, large.eigenvalues)))
        assert drift < 1e-8

    def test_spatial_narrowing(self):
        model = build_model(0.1, 64, levels=3)
        reference = build_model(0.0, 64, levels=3)
        for n in range(3):
            assert model.x_squared_expectation(n) < reference.x_squared_expectation(n)
        assert model.x_squared_expectation(0) < 0.5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_model(-0.1, 64, levels=10)
        with pytest.raises(ValueError):
            build_model(0.1, 4, levels=10)
        with pytest.raises(ValueError):
            build_model(0.1, 64, levels=0)
        with pytest.raises(ValueError):
            build_model(0.1, 64, levels=64).energy(64)
        with pytest.raises(ValueError, match="too large for truncation 64"):
            build_model(1e300, 64, levels=10)

    @pytest.mark.parametrize("value", [64.7, 10.9, "10", None])
    def test_non_integer_truncation_and_levels_refused_by_name(self, value):
        # before, 64.7 and 10.9 were cut to 64 and 10 and built without a word
        with pytest.raises(ValueError, match=f"^truncation must be an integer, got {value!r}$"):
            build_model(0.1, value, levels=10)
        with pytest.raises(ValueError, match=f"^levels must be an integer, got {value!r}$"):
            build_model(0.1, 64, levels=value)

    def test_integer_types_are_admitted(self):
        model = build_model(0.1, np.int64(64), levels=np.int32(10))
        assert type(model.truncation) is int
        assert model.energy(np.int64(1)) == model.energy(1)
        assert mode_overlap(model, np.int64(2)) == mode_overlap(model, 2)
        assert first_order_energy(np.int64(1), 0.1) == first_order_energy(1, 0.1)

    @pytest.mark.parametrize(
        "read",
        [
            lambda model: model.energy(1.7),
            lambda model: model.eigenstate(1.7),
            lambda model: model.x_squared_expectation(1.7),
            lambda model: truncation_problem(model, [1.7]),
            lambda model: mode_overlap(model, 2.5),
            lambda model: mode_deformation(model, 2.5),
            lambda model: first_order_energy(1.5, 0.1),
        ],
        ids=[
            "energy", "eigenstate", "x_squared", "truncation_problem", "mode_overlap",
            "mode_deformation", "first_order",
        ],
    )
    def test_non_integer_level_refused(self, read):
        # before, energy(1.7) read level 1 and mode_overlap(model, 2.5) read 0.0
        with pytest.raises(ValueError, match=r"^level must be an integer, got (1\.7|2\.5|1\.5)$"):
            read(build_model(0.1, 64, levels=10))

    @pytest.mark.parametrize("g", [1e-300, 1e-8, 1e12, 1e290])
    def test_extreme_couplings_stay_finite(self, g):
        # tiny and huge couplings make near-zero pivots and vectors far from
        # unit scale in the inverse iteration; the levels must still be
        # those of a dense eigh
        model = build_model(g, 64, levels=10)
        full = dense_levels(g, 64, 10)["eigenvalues"]
        tol = 4 * np.finfo(float).eps * norm1(g, 64)
        np.testing.assert_allclose(model.eigenvalues, full, rtol=0, atol=tol)


class TestModeOverlap:
    def test_within_unit_interval(self):
        model = build_model(0.3, 64, levels=6)
        for n in range(6):
            assert 0.0 < mode_overlap(model, n) <= 1.0

    def test_decreases_with_coupling(self):
        weak = build_model(0.1, 64, levels=4)
        strong = build_model(5.0, 64, levels=4)
        for n in range(4):
            assert mode_overlap(strong, n) < mode_overlap(weak, n)

    def test_weak_coupling_stays_near_unity(self):
        model = build_model(0.1, 64, levels=1)
        overlap = mode_overlap(model, 0)
        assert 0.99 < overlap < 1.0 - 1e-12

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ValueError):
            mode_overlap(build_model(0.1, 16, levels=16), 16)


class TestModeDeformation:
    @pytest.mark.parametrize("g", [0.0, 1e-8, 1e-6, 1e-4, 0.1, 5.0])
    def test_is_the_decimal_norm_of_the_column_off_its_harmonic_entry(self, g):
        # sqrt(1 - s^2) loses every digit once s rounds to 1; the norm of the
        # other entries, squares summed exactly, is within 2 half-ulps
        model = build_model(g, 64, levels=4)
        for n in range(4):
            _, column = model.vectors[n]
            with localcontext() as ctx:
                ctx.prec = 50
                exact = sum(Decimal(c) ** 2 for i, c in enumerate(column) if i != n // 2).sqrt()
                assert abs(Decimal(mode_deformation(model, n)) - exact) <= exact * Decimal(2.0**-52)

    def test_completes_the_overlap(self):
        model = build_model(0.3, 64, levels=6)
        for n in range(6):
            s, t = mode_overlap(model, n), mode_deformation(model, n)
            assert s * s + t * t == pytest.approx(1.0, abs=1e-14)
            assert 0.0 < t < 1.0

    def test_zero_coupling_has_no_deformation(self):
        model = build_model(0.0, 16, levels=8)
        assert [mode_deformation(model, n) for n in range(8)] == [0.0] * 8

