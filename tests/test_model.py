"""Internal energies, potentials, grid, and density-field contracts."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import xlogy

import draws
from aggdiff.errors import DomainError, ShapeError
from aggdiff.model import (
    EPS_VACUUM,
    Bistable,
    DensityField,
    Gaussian,
    Grid,
    InternalEnergy,
    Quadratic,
    TabulatedConfinement,
    TabulatedInteraction,
    sample_confinement,
)


class TestGrid:
    def test_centers_tile_the_interval(self):
        g = Grid(1, 2.0, 4)
        x = g.axis_centers()
        assert g.dx == 0.5
        assert x[0] == pytest.approx(-2.0 + 0.25)
        assert x[-1] == pytest.approx(2.0 - 0.25)
        assert len(x) == 8
        # 2M cells exactly tile [-L, L]
        assert x[0] - g.dx / 2 == pytest.approx(-g.half_width)
        assert x[-1] + g.dx / 2 == pytest.approx(g.half_width)

    def test_2d_measure_and_shape(self):
        g = Grid(2, 1.0, 2)
        assert g.cell_measure == pytest.approx(0.25)
        assert g.shape == (4, 4)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            Grid(3, 1.0, 4)

    # A field that no grid can use is refused by name.
    @pytest.mark.parametrize("dimension", [1.0, 2.0])
    def test_dimension_must_be_an_integer(self, dimension):
        with pytest.raises(DomainError, match="dimension must be the integer 1 or 2"):
            Grid(dimension, 1.0, 4)

    @pytest.mark.parametrize("half_width", [math.inf, math.nan, 0.0])
    def test_half_width_must_be_positive_and_finite(self, half_width):
        with pytest.raises(DomainError, match="half_width must be positive and finite"):
            Grid(1, half_width, 4)

    @pytest.mark.parametrize("cells", [2.5, 4.0])
    def test_cells_per_half_axis_must_be_an_integer(self, cells):
        with pytest.raises(DomainError, match="cells_per_half_axis must be an integer >= 1"):
            Grid(1, 1.0, cells)
        assert Grid(np.int64(2), 1.0, np.int64(4)).shape == (8, 8)


def _h(energy, rho):
    """(H, H', H'') at rho."""
    return energy.value(rho), energy.slope(rho), energy.curvature(rho)


class TestInternalEnergy:
    def test_entropy_at_one(self):
        h, hp, hpp = _h(InternalEnergy("entropy", 1.0), 1.0)
        assert (h, hp, hpp) == pytest.approx((-1.0, 0.0, 1.0))

    def test_power_m2(self):
        h, hp, hpp = _h(InternalEnergy("power", 1.0, 2.0), 3.0)
        assert (h, hp, hpp) == pytest.approx((9.0, 6.0, 2.0))

    def test_power_m3_at_zero(self):
        h, hp, hpp = _h(InternalEnergy("power", 1.0, 3.0), 0.0)
        assert (h, hp, hpp) == (0.0, 0.0, 0.0)

    def test_entropy_at_zero_diverges(self):
        # H(0) = 0 by the limit convention; H' and H'' diverge, which is why
        # the schemes use the vacuum-regularized forms.
        h, hp, hpp = _h(InternalEnergy("entropy", 2.0), 0.0)
        assert h == 0.0
        assert hp == -np.inf and hpp == np.inf

    @pytest.mark.parametrize(
        "energy",
        [
            InternalEnergy("entropy", 1.0),
            InternalEnergy("entropy", 0.25),
            InternalEnergy("power", 1.0, 1.5),
            InternalEnergy("power", 1.0, 2.0),
            InternalEnergy("power", 2.0, 3.0),
            InternalEnergy("power_entropy", 0.5, 2.0, 0.01),
        ],
    )
    def test_convexity_on_random_densities(self, energy):
        rng = np.random.default_rng(7)
        rho = rng.uniform(1e-12, 10.0, size=1000)
        hpp = energy.curvature(rho)
        assert np.all(hpp >= 0)

    @pytest.mark.parametrize(
        "energy",
        [
            InternalEnergy("entropy", 1.0),
            InternalEnergy("power", 1.0, 1.5),
            InternalEnergy("power", 3.0, 3.0),
            InternalEnergy("power_entropy", 1.0, 2.0, 0.1),
        ],
    )
    def test_slope_matches_finite_difference(self, energy):
        h = 1e-5
        for rho in np.linspace(0.1, 10.0, 25):
            fd = (energy.value(rho + h) - energy.value(rho - h)) / (2 * h)
            hp = energy.slope(rho)
            assert abs(fd - hp) <= 1e-6 * (1 + abs(hp))

    def test_power_entropy_combines_terms(self):
        e = InternalEnergy("power_entropy", 2.0, 2.0, 0.5)
        # H = 2*(rho^2 + 0.5*(rho log rho - rho)) at rho = 1: 2*(1 - 0.5)
        assert e.value(1.0) == pytest.approx(1.0)
        assert e.slope(1.0) == pytest.approx(4.0)  # 2*(2*1) + 1*log(1)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            InternalEnergy("power", 1.0, 1.0)
        with pytest.raises(DomainError):
            InternalEnergy("entropy", 0.0)

    @pytest.mark.parametrize("args, name", [
        (("entropy", np.inf), "diffusion"),
        (("power", np.nan, 2.0), "diffusion"),
        (("power", 1.0, np.inf), "exponent"),
        (("entropy", 1.0, np.nan), "exponent"),
        (("power_entropy", 1.0, 2.0, np.nan), "entropy_weight"),
        (("power_entropy", 1.0, 2.0, np.inf), "entropy_weight"),
    ])
    def test_non_finite_parameter_rejected_by_name(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            InternalEnergy(*args)

    @pytest.mark.parametrize("kind", ["power", "power_entropy"])
    @pytest.mark.parametrize("diffusion, exponent, coefficient", [
        (1e-320, 1e5, "0.0"), (1e308, 1.0 + 2.0**-52, "inf")], ids=["underflow", "overflow"])
    def test_power_coefficient_out_of_range_rejected(self, kind, diffusion, exponent, coefficient):
        # D/(m-1) of 0.0 made value() return None (no term was added).
        with pytest.raises(DomainError,
                           match=rf"power coefficient diffusion/\(exponent - 1\) = .* "
                                 rf"is {coefficient}, not a positive finite number"):
            InternalEnergy(kind, diffusion, exponent)

    @pytest.mark.parametrize("diffusion, weight, coefficient", [
        (1e-200, 1e-200, "0.0"), (1e200, 1e200, "inf")], ids=["underflow", "overflow"])
    def test_entropy_coefficient_out_of_range_rejected(self, diffusion, weight, coefficient):
        # D*eps of 0.0 dropped the entropy term while eps > 0 asked for one.
        with pytest.raises(DomainError,
                           match=rf"entropy coefficient diffusion\*entropy_weight = .* "
                                 rf"is {coefficient}, not a positive finite number"):
            InternalEnergy("power_entropy", diffusion, 2.0, weight)

    def test_zero_entropy_weight_still_accepted(self):
        energy = InternalEnergy("power_entropy", 1e-200, 2.0, 0.0)
        assert energy.value(np.array([2.0])) == pytest.approx(4e-200)

    def test_smallest_power_coefficients_still_accepted(self):
        energy = InternalEnergy("power", 1e-300, 3.0)
        assert energy.value(np.array([2.0])) == pytest.approx(4e-300)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestRegularizedDerivatives:
    """The floored slope and curvature, byte for byte against their definitions."""

    # At, just around, below and far above the vacuum floor; signed zeros,
    # subnormals and negative densities included.
    special = np.array([
        0.0, -0.0, EPS_VACUUM, np.nextafter(EPS_VACUUM, 0.0), np.nextafter(EPS_VACUUM, 1.0),
        5e-324, 1e-310, -1e-310, 1e-300, -1.0, 1.0, 1e100,
    ])
    energies = [
        InternalEnergy("entropy", 1.0),
        InternalEnergy("entropy", 0.3),
        InternalEnergy("power", 1.0, 1.5),
        InternalEnergy("power", 0.1, 2.0),
        InternalEnergy("power", 2.0, 3.0),
        InternalEnergy("power_entropy", 1.0, 2.0, 0.1),
        InternalEnergy("power_entropy", 0.5, 2.5, 1.0),
    ]

    def _check(self, rho, energy):
        floored = np.maximum(rho, EPS_VACUUM)
        assert same_bits(energy.slope_regularized(rho), energy.slope(floored))
        assert same_bits(energy.curvature_regularized(rho),
                         np.where(rho > EPS_VACUUM, energy.curvature(floored), 0.0))

    @pytest.mark.parametrize("seed", range(200))
    def test_equal_to_the_errstate_forms(self, seed):
        """1 to 40 cells, each a special value or drawn from [-10, 10], [0, 1e100] or +-1e-12."""
        rng = np.random.default_rng(seed)
        size = rng.integers(1, 41)
        rho = np.choose(rng.integers(0, 4, size), [
            rng.choice(self.special, size),
            draws.floats(rng, size, -10.0, 10.0),
            draws.floats(rng, size, 1e-320, 1e100, log=True) * (rng.random(size) > 0.1),
            draws.floats(rng, size, -1e-12, 1e-12),
        ])
        self._check(rho, self.energies[seed % len(self.energies)])

    @pytest.mark.parametrize("energy", range(len(energies)))
    def test_special_values(self, energy):
        self._check(self.special, self.energies[energy])


# numpy's log of this density is one ulp below the C library's (numpy 2.4 on
# an AVX-512 x86-64 host), and so is H's entropy term below xlogy's.
NUMPY_LOG_DIFFERS = 1.9174334189636766


def entropy_term(rho):
    """rho log rho - rho on numpy's log, 0 at rho = 0: the form value() documents."""
    return rho * np.log(np.maximum(rho, 5e-324)) - rho


class TestEnergyValue:
    @pytest.mark.parametrize("energy", [
        InternalEnergy("entropy", 1.0), InternalEnergy("entropy", 0.3),
        InternalEnergy("power", 2.0, 3.0), InternalEnergy("power_entropy", 0.5, 2.5, 1.0),
    ])
    def test_equals_the_sum_from_zero(self, energy):
        """H term by term on a zero start, byte for byte, signed zeros and subnormals included."""
        rng = np.random.default_rng(4)
        rho = np.concatenate(([0.0, -0.0, 5e-324, 1e-310, 1.0, NUMPY_LOG_DIFFERS],
                              rng.random(40) * 5.0))
        expected = np.zeros_like(rho)
        if energy._entropy_coeff:
            expected = expected + energy._entropy_coeff * entropy_term(rho)
        if energy._power_coeff:
            expected = expected + energy._power_coeff * rho**energy.exponent
        assert same_bits(energy.value(rho), expected)

    # Signed zeros, the smallest subnormal, both sides of the smallest normal,
    # 1 and e (where rho log rho - rho cancels).
    special = np.array([0.0, -0.0, 5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022,
                        1e-300, 1.0, math.e, NUMPY_LOG_DIFFERS, 1e300])

    @pytest.mark.parametrize("seed", range(100))
    def test_entropy_on_numpy_log_against_xlogy(self, seed):
        """1 to 40 cells, each a special value, a subnormal, log-uniform in [1e-300, 1e300] or in [0, 10].

        H is the documented formula bit for bit, +0.0 at rho = 0, and raises
        no warning. numpy's log lies within one ulp of the log scipy's xlogy
        takes; carried through the product, that puts the entropy term within
        two ulps of the larger of |xlogy(rho, rho)| and rho (one ulp of the
        log can span two of the product where it crosses a power of two).
        """
        rng = np.random.default_rng(seed)
        size = rng.integers(1, 41)
        rho = np.choose(rng.integers(0, 4, size), [
            rng.choice(self.special, size),
            rng.random(size) * 2.0**-1022,
            draws.floats(rng, size, 1e-300, 1e300, log=True),
            draws.floats(rng, size, 0.0, 10.0),
        ])
        energy = InternalEnergy("entropy", (1.0, 0.3)[seed % 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = energy.value(rho)
        expected = entropy_term(rho)
        if energy.diffusion != 1.0:
            expected *= energy.diffusion
        assert same_bits(value, expected + 0.0)
        assert not np.signbit(value[rho == 0.0]).any()
        log = np.log(np.maximum(rho, 5e-324))[rho > 0]
        assert (np.abs(log - xlogy(1.0, rho[rho > 0])) <= np.spacing(np.abs(log))).all()
        if energy.diffusion == 1.0:
            product = xlogy(rho, rho)
            ulp = np.spacing(np.maximum(np.abs(product), rho))
            assert (np.abs(value - (product - rho)) <= 2 * ulp).all()


class TestPotentials:
    def test_bistable_value(self):
        g = Grid(1, 2.0, 2)  # centers -1.5, -0.5, 0.5, 1.5
        v = sample_confinement(Bistable(1.0), g)
        # at |x| = 0.5: 0.25*0.0625 - 0.5*0.25
        assert v[1] == pytest.approx(0.25 * 0.5**4 - 0.5 * 0.5**2)

    def test_bistable_at_unit_radius(self):
        assert Bistable(1.0).radial(np.array(1.0), 1) == pytest.approx(-0.25)

    def test_quadratic_at_origin(self):
        assert Quadratic(1.0).radial(np.array(0.0), 1) == 0.0

    def test_gaussian_normalization_1d(self):
        val = Gaussian(0.5, -1.0).radial(np.array(0.0), 1)
        assert val == pytest.approx(-((2 * np.pi * 0.25) ** -0.5))
        assert val == pytest.approx(-0.7978845608, abs=1e-10)

    def test_gaussian_normalization_2d(self):
        val = Gaussian(0.5, 1.0).radial(np.array(0.0), 2)
        assert val == pytest.approx((2 * np.pi * 0.25) ** -1.0)

    def test_none_confinement_is_zero_table(self):
        g = Grid(2, 1.0, 2)
        assert not sample_confinement(None, g).any()

    def test_even_confinement_is_symmetric_table(self):
        g = Grid(1, 3.0, 8)
        for conf in (Quadratic(2.0), Bistable(0.7)):
            v = sample_confinement(conf, g)
            assert np.array_equal(v, v[::-1])

    def test_tabulated_confinement_shape_checked(self):
        g = Grid(1, 1.0, 2)
        with pytest.raises(ShapeError):
            sample_confinement(TabulatedConfinement((1.0, 2.0)), g)

    def test_tabulated_interaction_symmetry_checked(self):
        with pytest.raises(DomainError):
            TabulatedInteraction((1.0, 2.0, 3.0))
        TabulatedInteraction((3.0, 2.0, 3.0))  # symmetric is fine

    def test_gaussian_sign_restricted(self):
        with pytest.raises(DomainError):
            Gaussian(0.5, 2.0)

    @pytest.mark.parametrize("width, dimension", [
        (1e308, 1), (1e308, 2), (1e-320, 1), (1e-320, 2), (1e-160, 2), (1e154, 1), (1e154, 2)])
    def test_gaussian_width_out_of_float_range(self, width, dimension):
        # width**2 overflows, underflows to 0, or leaves a 2D norm that
        # overflows; each used to escape as a bare OverflowError or
        # ZeroDivisionError. At 1e154, 2 pi width**2 overflows to inf, whose
        # norm was 0.0: an all-zero table, so the run went on without W.
        with pytest.raises(DomainError, match="gaussian width .* is out of floating-point range"):
            Gaussian(width).radial(np.array([0.0, 1.0]), dimension)

    @pytest.mark.parametrize("conf", [
        Quadratic(1e308), TabulatedConfinement((1.0, np.inf, 1.0, 0.0))],
        ids=["overflowing", "tabulated_inf"])
    def test_non_finite_confinement_rejected(self, conf):
        with pytest.raises(DomainError, match="confinement potential is not finite"):
            sample_confinement(conf, Grid(1, 4.0, 2))


class TestDensityField:
    def test_mass(self):
        g = Grid(1, 1.0, 2)
        f = DensityField([1.0, 2.0, 3.0, 4.0], g)
        assert f.mass == pytest.approx(10.0 * 0.5)

    def test_rejects_negative(self):
        g = Grid(1, 1.0, 2)
        with pytest.raises(DomainError):
            DensityField([1.0, -0.1, 0.0, 0.0], g)

    def test_slack_allows_solver_undershoot(self):
        g = Grid(1, 1.0, 2)
        f = DensityField([1.0, -1e-10, 0.0, 0.0], g, min_allowed=1e-9)
        assert f.values[1] == -1e-10

    def test_values_frozen(self):
        g = Grid(1, 1.0, 2)
        f = DensityField([1.0, 1.0, 1.0, 1.0], g)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_shape_checked(self):
        g = Grid(2, 1.0, 2)
        with pytest.raises(ShapeError):
            DensityField(np.ones(4), g)
