"""Kernel tabulation, convolution, and definiteness classification."""

import numpy as np
import pytest
import scipy.linalg

import draws
from aggdiff.kernels import (
    EXPLICIT,
    IMPLICIT,
    INDETERMINATE,
    MIDPOINT,
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    KernelTable,
    classify_definiteness,
    convolve,
    select_stage_rule,
    tabulate_kernel,
)
from aggdiff.errors import DomainError, KernelError, ShapeError
from aggdiff.model import Bistable, Gaussian, Grid, Quadratic, TabulatedInteraction


def brute_force_convolution(table, rho, dx):
    n = rho.size
    out = np.zeros(n)
    center = n - 1
    for i in range(n):
        for k in range(n):
            out[i] += table[i - k + center] * rho[k] * dx
    return out


class TestTabulate:
    def test_quadratic_offsets(self):
        g = Grid(1, 4.0, 4)  # dx = 1
        kt = tabulate_kernel(Quadratic(1.0), g)
        assert kt.values[kt.center + 3] == pytest.approx(4.5)
        assert kt.values[kt.center] == 0.0
        assert kt.values[kt.center - 3] == kt.values[kt.center + 3]

    def test_none_gives_zero_table(self):
        g = Grid(1, 1.0, 2)
        kt = tabulate_kernel(None, g)
        assert kt.is_zero

    def test_is_zero_fixed_at_construction_matches_a_scan(self):
        # is_zero is computed once; it must agree with a scan of the table.
        g = Grid(2, 2.0, 4)
        zero = KernelTable(np.zeros((15, 15)), g.cell_measure)
        gaussian = tabulate_kernel(Gaussian(0.5, -1.0), g)
        point = KernelTable(np.eye(1, 7, 3)[0], 0.5)
        for table, expected in ((zero, True), (gaussian, False), (point, False)):
            assert table.is_zero is expected
            assert table.is_zero == (not np.any(table.values))

    def test_values_are_a_read_only_copy(self):
        given = 0.5 * np.arange(-3.0, 4.0) ** 2
        table = KernelTable(given, 0.5, "quadratic+")
        with pytest.raises(ValueError):
            table.values[0] = 1.0
        with pytest.raises(ValueError):
            table.values *= 2.0
        given[3] = 7.0  # the caller's array stays writeable and apart from the table
        assert given.flags.writeable and table.values[3] == 0.0

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_quadratic_coefficients_reproduce_the_table(self, dimension, shifted):
        # A shifted table has W_0 != 0, as a table of cell averages of |x|^2/2 has.
        g = Grid(dimension, 2.0, 2)
        kt = tabulate_kernel(Quadratic(-1.0), g)
        if shifted:
            kt = KernelTable(kt.values + 0.3, kt.cell_measure, kt.exact_form)
        w0, alphas = kt.quadratic_coefficients
        assert kt.quadratic_coefficients is kt.quadratic_coefficients  # built once
        assert len(alphas) == dimension
        offsets = np.meshgrid(*[np.arange(-kt.center, kt.center + 1)] * dimension,
                              indexing="ij")
        rebuilt = w0 + sum(a * o**2 for a, o in zip(alphas, offsets))
        assert np.allclose(rebuilt, kt.values, rtol=1e-12, atol=1e-15)

    def test_quadratic_coefficients_need_a_quadratic_table(self):
        with pytest.raises(KernelError):
            tabulate_kernel(Gaussian(0.7, 1.0), Grid(1, 1.0, 2)).quadratic_coefficients

    def test_row_kernels_are_the_axis_slices_built_once(self):
        kt = tabulate_kernel(Quadratic(1.0), Grid(2, 2.0, 3))
        rows = kt.row_kernels
        assert rows is kt.row_kernels
        for axis, row in enumerate(rows):
            assert row.values.ndim == 1 and row.exact_form == kt.exact_form
            assert row.cell_measure == kt.cell_measure
            assert np.array_equal(row.values, kt.axis_slice(axis))
            assert row.quadratic_coefficients[1] == (kt.quadratic_coefficients[1][axis],)

    @pytest.mark.parametrize("interaction", [
        TabulatedInteraction((1.0, 2.0, 3.0, np.inf, 3.0, 2.0, 1.0)),
        Bistable(1e307),
    ], ids=["tabulated_inf", "overflowing"])
    def test_non_finite_table_rejected(self, interaction):
        with pytest.raises(DomainError, match="interaction table is not finite"):
            tabulate_kernel(interaction, Grid(1, 4.0, 2))

    def test_tabulated_wrong_length_rejected(self):
        g = Grid(1, 1.0, 2)
        with pytest.raises(ShapeError):
            tabulate_kernel(TabulatedInteraction((1.0, 2.0, 1.0)), g)

    def test_2d_pointwise_radial(self):
        g = Grid(2, 2.0, 2)
        kt = tabulate_kernel(Quadratic(1.0), g)
        assert kt.values[kt.center + 1, kt.center + 2] == pytest.approx(0.5 * (1.0 + 4.0))


class TestConvolve:
    def test_offset_zero_only(self):
        g = Grid(1, 2.0, 2)
        vals = np.zeros(7)
        vals[3] = 2.5
        kt = KernelTable(vals, g.dx)
        rho = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(convolve(kt, rho), 2.5 * rho * g.dx)

    def test_zero_field(self):
        g = Grid(1, 2.0, 2)
        kt = tabulate_kernel(Quadratic(1.0), g)
        assert not convolve(kt, np.zeros(4)).any()

    def test_three_cell_hand_sum(self):
        # dx=1, W(x)=x^2/2, rho=(1,1,1): row sums of W over offsets
        offsets = np.arange(-2, 3)
        kt = KernelTable(0.5 * offsets.astype(float) ** 2, 1.0)
        out = convolve(kt, np.ones(3))
        assert np.allclose(out, [2.5, 1.0, 2.5])
        assert np.allclose(out, brute_force_convolution(kt.values, np.ones(3), 1.0))

    @pytest.mark.parametrize("m", [8, 32])
    def test_1d_matches_brute_force(self, m):
        rng = np.random.default_rng(m)
        g = Grid(1, 2.0, m)
        kt = tabulate_kernel(Gaussian(0.5, -1.0), g)
        for _ in range(100):
            rho = rng.random(g.n_cells)
            brute = brute_force_convolution(kt.values, rho, g.dx)
            assert np.allclose(convolve(kt, rho), brute, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_1d_valid_sum_equals_the_full_sum_slice(self, seed):
        # convolve keeps the n full-overlap outputs of the direct sum and
        # takes only those (np.convolve's "valid" mode): the same dot
        # products, so the same bits, for zeros, subnormals and values
        # spread over 300 orders of magnitude.
        rng = np.random.default_rng(seed)

        def spread(size, lo, hi):
            return draws.floats(rng, size, lo, hi) * 10.0 ** rng.integers(-150, 150, size)

        for n in range(1, 301):
            kt = KernelTable(spread(2 * n - 1, -1.0, 1.0), 0.25)
            rho = spread(n, 0.0, 5.0)
            if kt.is_zero:
                continue
            full = np.convolve(kt.values, rho)[n - 1 : 2 * n - 1] * kt.cell_measure
            assert np.array_equal(convolve(kt, rho).view(np.int64), full.view(np.int64))

    def test_2d_matches_brute_force(self):
        rng = np.random.default_rng(3)
        g = Grid(2, 1.0, 2)
        kt = tabulate_kernel(Gaussian(0.7, 1.0), g)
        rho = rng.random((4, 4))
        out = convolve(kt, rho)
        n, c = 4, 3
        brute = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        brute[i, j] += kt.values[i - k + c, j - l + c] * rho[k, l]
        brute *= g.cell_measure
        assert np.allclose(out, brute, rtol=1e-12)

    @pytest.mark.parametrize("n", [20, 80])
    def test_2d_equals_fftconvolve_bit_for_bit(self, n):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(n)
        g = Grid(2, 3.0, n // 2)
        kt = tabulate_kernel(Gaussian(0.7, -1.0), g)
        lo = n - 1
        for _ in range(3):
            rho = rng.random((n, n))
            ref = fftconvolve(kt.values, rho)[lo : lo + n, lo : lo + n] * g.cell_measure
            assert np.array_equal(convolve(kt, rho), ref)
        assert kt.spectrum is kt.spectrum  # taken once per table
        assert not kt.spectrum.flags.writeable

    def test_grid_mismatch(self):
        g = Grid(1, 2.0, 2)
        kt = tabulate_kernel(Quadratic(1.0), g)
        with pytest.raises(ShapeError):
            convolve(kt, np.ones(6))

    def test_bilinear_symmetry(self):
        rng = np.random.default_rng(11)
        g = Grid(1, 3.0, 8)
        kt = tabulate_kernel(Gaussian(0.8, -1.0), g)
        for _ in range(20):
            a = rng.random(g.n_cells)
            b = rng.random(g.n_cells)
            lhs = float(a @ convolve(kt, b))
            rhs = float(b @ convolve(kt, a))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_toeplitz_keeps_an_asymmetric_table_oriented(self):
        # TabulatedInteraction only admits symmetric tables, so the
        # asymmetric one is wrapped directly.
        rng = np.random.default_rng(4)
        n = 7
        kt = KernelTable(rng.standard_normal(2 * n - 1), 0.3)
        col = kt.values[n - 1 :]            # offsets 0..n-1
        row = kt.values[n - 1 :: -1]        # offsets 0..-(n-1)
        assert np.array_equal(kt.toeplitz, scipy.linalg.toeplitz(col, row))
        assert np.array_equal(kt.toeplitz_difference, kt.toeplitz[:-1] - kt.toeplitz[1:])
        assert kt.toeplitz is kt.toeplitz  # built once per table
        rho = rng.random(n)
        assert np.allclose(kt.toeplitz @ rho * kt.cell_measure, convolve(kt, rho), rtol=1e-13)
        assert not kt.toeplitz.flags.writeable

    def test_toeplitz_is_1d_only(self):
        kt = tabulate_kernel(Gaussian(0.7, 1.0), Grid(2, 1.0, 2))
        with pytest.raises(ShapeError):
            kt.toeplitz

    def test_table_symmetry(self):
        g = Grid(1, 3.0, 8)
        for pot in (Quadratic(-1.0), Gaussian(0.4, 1.0)):
            kt = tabulate_kernel(pot, g)
            assert np.array_equal(kt.values, kt.values[::-1])


def _indeterminate_table():
    """A two-sided kernel with mixed spectrum."""
    vals = np.zeros(2 * 8 - 1)
    vals[7] = 1.0
    vals[6] = vals[8] = -1.0
    return KernelTable(vals, 0.25)


class TestClassification:
    @staticmethod
    def _check_exact(strength, label):
        kt = tabulate_kernel(Quadratic(strength), Grid(1, 2.0, 4))
        assert classify_definiteness(kt) == label
        # The tag decides: the same values untagged fail the DFT sign test.
        assert classify_definiteness(KernelTable(kt.values, kt.cell_measure)) == INDETERMINATE

    def test_attractive_quadratic_exact(self):
        self._check_exact(1.0, NEGATIVE_DEFINITE)

    def test_repulsive_quadratic_exact(self):
        self._check_exact(-1.0, POSITIVE_DEFINITE)

    def test_attractive_gaussian_negative_definite(self):
        g = Grid(1, 5.0, 64)
        kt = tabulate_kernel(Gaussian(0.5, -1.0), g)
        assert kt.exact_form is None  # so the DFT sign test decides
        assert classify_definiteness(kt) == NEGATIVE_DEFINITE

    def test_repulsive_gaussian_positive_definite(self):
        g = Grid(1, 5.0, 32)
        assert classify_definiteness(tabulate_kernel(Gaussian(0.5, 1.0), g)) == POSITIVE_DEFINITE

    def test_2d_gaussian(self):
        g = Grid(2, 3.0, 8)
        assert classify_definiteness(tabulate_kernel(Gaussian(0.5, -1.0), g)) == NEGATIVE_DEFINITE

    def test_certified_kernel_quadratic_form(self):
        # A certified negative-definite kernel's quadratic form on
        # mass-neutral differences is non-positive, by brute force.
        rng = np.random.default_rng(5)
        g = Grid(1, 2.0, 8)
        kt = tabulate_kernel(Gaussian(0.5, -1.0), g)
        assert classify_definiteness(kt) == NEGATIVE_DEFINITE
        n, c = g.n_cells, g.n_cells - 1
        for _ in range(50):
            a = rng.random(n)
            b = rng.random(n)
            b *= a.sum() / b.sum()  # equal mass
            d = a - b
            q = sum(
                kt.values[i - k + c] * d[i] * d[k]
                for i in range(n)
                for k in range(n)
            )
            assert q <= 1e-12 * np.abs(kt.values).max() * (d @ d)

    def test_indeterminate_example(self):
        assert classify_definiteness(_indeterminate_table()) == INDETERMINATE


class TestStageRule:
    g = Grid(1, 2.0, 4)

    def test_defaults_per_class(self):
        assert select_stage_rule(tabulate_kernel(Quadratic(1.0), self.g)) == EXPLICIT
        assert select_stage_rule(tabulate_kernel(Quadratic(-1.0), self.g)) == IMPLICIT
        assert select_stage_rule(_indeterminate_table(), "auto") == MIDPOINT

    def test_without_a_kernel_auto_is_midpoint_and_others_pass_through(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_stage_rule(None) == MIDPOINT
            for rule in (EXPLICIT, IMPLICIT, "sideways"):  # SchemeConfig validates
                assert select_stage_rule(None, rule) == rule

    def test_midpoint_override_never_warns(self):
        import warnings

        pd = tabulate_kernel(Quadratic(-1.0), self.g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_stage_rule(pd, MIDPOINT) == MIDPOINT

    def test_guarantee_voiding_override_warns(self):
        pd = tabulate_kernel(Quadratic(-1.0), self.g)
        with pytest.warns(UserWarning, match=f"for a {POSITIVE_DEFINITE} interaction"):
            assert select_stage_rule(pd, EXPLICIT) == EXPLICIT
        with pytest.warns(UserWarning, match=f"for a {INDETERMINATE} interaction"):
            select_stage_rule(_indeterminate_table(), IMPLICIT)

    def test_unknown_rule_with_a_kernel_raises(self):
        with pytest.raises(DomainError, match="unknown stage rule 'sideways'"):
            select_stage_rule(tabulate_kernel(Quadratic(1.0), self.g), "sideways")
