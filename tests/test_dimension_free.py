"""The dimension-free paths against the per-dimension code they replaced.

Kernel tabulation, the circulant spectrum, the grid's centers and |x|^2,
the first moment, the quadratic interaction energy and the sampled
reference solutions each take one path for every dimension. The helpers
below keep the former 1D and 2D branches as the reference, and every check
is byte for byte.
"""

import warnings

import numpy as np
import pytest
from scipy import integrate

from aggdiff import analysis, kernels
from aggdiff.analysis import ReferenceSolution, first_moment, sample_reference
from aggdiff.model import Bistable, Gaussian, Grid, Quadratic
from aggdiff.presets import grid_1d, grid_2d


class AbsPotential:
    """W(x) = |x|: singular in its derivative at the origin."""

    def radial(self, r2, dimension):
        return np.sqrt(np.asarray(r2, dtype=float))


POTENTIALS = {
    "quadratic+": Quadratic(1.0),
    "quadratic-": Quadratic(-1.0),
    "gaussian_attractive": Gaussian(0.5, -1.0),
    "bistable": Bistable(1.0),
    "abs": AbsPotential(),
}

# 1D on [-3, 3], 2D on [-1, 1]^2 (the 2D cell averages are double integrals).
GRIDS = {
    f"{d}d-dx{dx}": (grid_1d(3.0, dx) if d == 1 else grid_2d(1.0, dx))
    for d in (1, 2) for dx in (0.5, 0.25)
}


def _eval_radial(interaction, x, y=None, dimension=1):
    r2 = np.asarray(x) ** 2 if y is None else np.asarray(x) ** 2 + np.asarray(y) ** 2
    return interaction.radial(r2, dimension)


def _cell_average_1d(interaction, offset_x, dx):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda s: _eval_radial(interaction, offset_x - s),
                                -0.5 * dx, 0.5 * dx, epsabs=0.0, epsrel=1e-10, limit=200)
    return val / dx


def _cell_average_2d(interaction, offset_x, offset_y, dx, dy):
    def f(t, s):  # dblquad integrates f(y, x)
        return _eval_radial(interaction, offset_x - s, offset_y - t, dimension=2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(f, -0.5 * dx, 0.5 * dx, -0.5 * dy, 0.5 * dy,
                                   epsabs=0.0, epsrel=1e-10)
    return val / (dx * dy)


def reference_table(interaction, grid, singular):
    """The offset table as the separate 1D and 2D branches built it."""
    n, dx = grid.n_cells, grid.dx
    length = 2 * n - 1
    offsets = dx * np.arange(-(n - 1), n)
    if grid.dimension == 1:
        if singular:
            half = np.array([_cell_average_1d(interaction, o, dx) for o in offsets[n - 1:]])
            return np.concatenate([half[:0:-1], half])
        return np.asarray(_eval_radial(interaction, offsets), dtype=float)
    if singular:
        vals = np.empty((length, length))
        for a, ox in enumerate(offsets):
            for b in range(n - 1, length):
                vals[a, b] = _cell_average_2d(interaction, ox, offsets[b], dx, dx)
        vals[:, : n - 1] = vals[::-1, : n - 1 : -1]
        return vals
    ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
    return np.asarray(_eval_radial(interaction, ox, oy, dimension=2), dtype=float)


def reference_spectrum(values):
    base = np.fft.ifftshift(values)
    return (np.fft.fft(base) if values.ndim == 1 else np.fft.fft2(base)).real


def reference_centers(grid):
    c = grid.axis_centers()
    return (c,) if grid.dimension == 1 else tuple(np.meshgrid(c, c, indexing="ij"))


def reference_radius_squared(grid):
    c = grid.axis_centers()
    return c**2 if grid.dimension == 1 else c[:, None] ** 2 + c[None, :] ** 2


def reference_first_moment(vals, grid):
    measure = grid.cell_measure
    if grid.dimension == 1:
        return np.array([float((grid.axis_centers() * vals).sum() * measure)])
    x, y = reference_centers(grid)
    return np.array([float((x * vals).sum() * measure), float((y * vals).sum() * measure)])


def reference_quadratic_interaction(vals, kernel, measure):
    w0, alphas = kernel.quadratic_coefficients
    total = vals.sum()
    n = vals.shape[0]
    p = np.arange(n) - 0.5 * (n - 1)
    form = w0 * total * total
    for axis, alpha in enumerate(alphas):
        margin = vals if vals.ndim == 1 else vals.sum(axis=1 - axis)
        s1, s2 = p @ margin, (p * p) @ margin
        form += 2.0 * alpha * (total * s2 - s1 * s1)
    return float(0.5 * measure * kernel.cell_measure * form)


def reference_sample(ref, t, grid):
    if grid.dimension == 1:
        return analysis.reference_eval(ref, t, grid.axis_centers())
    x, y = reference_centers(grid)
    return analysis.reference_eval(ref, t, x, y)


def _field(grid, seed):
    return np.random.default_rng(seed).uniform(0.0, 2.0, grid.shape)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("name", POTENTIALS)
@pytest.mark.parametrize("singular", [False, True], ids=["pointwise", "cell_averaged"])
def test_kernel_table_and_spectrum(grid, name, singular):
    interaction = POTENTIALS[name]
    table = kernels.tabulate_kernel(interaction, grid, singular=singular)
    expected = reference_table(interaction, grid, singular)
    assert same_bits(table.values, expected)
    assert same_bits(kernels._circulant_spectrum(table), reference_spectrum(expected))


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_grid_geometry(grid):
    centers = grid.cell_centers()
    assert isinstance(centers, tuple) and len(centers) == grid.dimension
    for got, want in zip(centers, reference_centers(grid), strict=True):
        assert same_bits(got, want)
    assert same_bits(grid.radius_squared(), reference_radius_squared(grid))


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("seed", [0, 1])
def test_moments(grid, seed):
    vals = _field(grid, seed)
    assert same_bits(first_moment(vals, grid), reference_first_moment(vals, grid))
    for strength in (1.0, -1.0):
        kernel = kernels.tabulate_kernel(Quadratic(strength), grid)
        got = analysis._quadratic_interaction(vals, kernel, grid.cell_measure)
        assert got == reference_quadratic_interaction(vals, kernel, grid.cell_measure)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("kind", ["heat_kernel", "barenblatt", "fp_transient", "fp_steady"])
def test_sample_reference(grid, kind):
    ref = ReferenceSolution(kind, grid.dimension)
    assert same_bits(sample_reference(ref, 1.3, grid), reference_sample(ref, 1.3, grid))


def test_a_1d_grid_has_a_one_tuple_of_centers():
    g = Grid(1, 1.0, 2)
    (x,) = g.cell_centers()
    assert x.tolist() == [-0.75, -0.25, 0.25, 0.75]
