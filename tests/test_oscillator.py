"""Quartic-anharmonic oscillator model and overlaps."""

import functools
import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from dense_model import dense_levels, norm1, position_operator, symmetric_banded

from modetangle.oscillator import build_model, first_order_energy, mode_overlap
from modetangle.oscillator import (
    _band,
    _count_below,
    _cut_residual,
    _parity_blocks,
    _position_power_diagonals,
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
        np.testing.assert_allclose(symmetric_banded(closed_x2), x2[:n, :n], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            symmetric_banded(closed_x4), (x2 @ x2)[:n, :n], rtol=1e-12, atol=0
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
        dense_tail = np.max(np.sum(vectors[-4:, :levels] ** 2, axis=0))
        assert model.tail_weight(range(levels)) == pytest.approx(dense_tail, rel=1e-9, abs=1e-18)

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

    def test_tail_weight_is_the_largest_top_four_weight(self):
        model = build_model(5.0, 64, levels=10)
        weights = [np.sum(np.square(model.eigenstate(n)[-4:])) for n in range(10)]
        assert model.tail_weight(range(10)) == pytest.approx(max(weights), rel=1e-12)
        assert model.tail_weight([1, 2]) == pytest.approx(max(weights[1:3]), rel=1e-12)
        assert build_model(0.0, 64, levels=10).tail_weight(range(10)) == 0.0

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
            assert _cut_residual(band, [tuple(v)])[0] == pytest.approx(dense, rel=1e-13, abs=0)

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
            lambda level: model.tail_weight([level]),
        ):
            with pytest.raises(ValueError, match="not computed"):
                read(10)

    def test_cut_levels_have_no_tail_weight(self):
        model = build_model(0.1, 800, levels=10)
        assert all(len(column) < 400 for _, column in model.vectors)
        assert model.tail_weight(range(10)) == 0.0
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
        assert report["tail_weight"] == pytest.approx(full["tail_weight"], rel=1e-9, abs=1e-18)


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
            lambda model: model.tail_weight([1.7]),
            lambda model: mode_overlap(model, 2.5),
            lambda model: first_order_energy(1.5, 0.1),
        ],
        ids=["energy", "eigenstate", "x_squared", "tail_weight", "mode_overlap", "first_order"],
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

