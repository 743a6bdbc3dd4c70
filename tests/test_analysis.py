"""Energy diagnostics, reference solutions, error norms, moments."""

import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

from aggdiff.analysis import (
    ReferenceSolution,
    convergence_order,
    discrete_energy,
    first_moment,
    l1_error,
    reference_eval,
    sample_reference,
)
from aggdiff.errors import ConfigurationError, DomainError, ShapeError
from aggdiff.kernels import KernelTable, tabulate_kernel
from aggdiff.model import (
    Gaussian,
    Grid,
    InternalEnergy,
    ModelSpec,
    Quadratic,
    TabulatedConfinement,
)
from aggdiff.presets import heat, linear_fokker_planck


class TestDiscreteEnergy:
    def test_energy_checks_reuse_the_setup_table(self, monkeypatch):
        """V is tabulated once per model, and an absent V is skipped, with the same bits."""
        from aggdiff import model as model_module
        from aggdiff.solver import build_setup, clipped_energy

        g = Grid(2, 3.0, 6)
        rho = np.random.default_rng(3).random(g.shape)
        for model in (heat(g), linear_fokker_planck(g)):
            v = model_module.sample_confinement(model.confinement, g)
            expected = float((v * rho).sum() * g.cell_measure)
            tabulated = []
            monkeypatch.setattr(model_module, "sample_confinement",
                                lambda *args: tabulated.append(1) or v.copy())
            setup = build_setup(model, "s1")
            energies = [clipped_energy(setup, rho) for _ in range(3)]
            assert len(tabulated) == 1 and setup.v_table is model.v_table
            assert not model.v_table.flags.writeable
            assert discrete_energy(rho, model).confinement == expected
            assert energies[0] == discrete_energy(rho, model).total
            monkeypatch.undo()

    def test_zero_field(self):
        g = Grid(1, 1.0, 2)
        e = discrete_energy(np.zeros(4), heat(g), None)
        assert (e.internal, e.confinement, e.interaction, e.total) == (0, 0, 0, 0)

    def test_single_cell_entropy_plus_confinement(self):
        g = Grid(1, 2.0, 2)  # dx = 1
        v = np.zeros(4)
        v[1] = 2.0
        model = ModelSpec(InternalEnergy.entropy(1.0), g,
                          confinement=TabulatedConfinement(tuple(v)))
        rho = np.zeros(4)
        rho[1] = 1.0
        e = discrete_energy(rho, model, None)
        # H(1) = -1 and V*rho = 2, each weighted by dx = 1
        assert e.internal == pytest.approx(-1.0)
        assert e.confinement == pytest.approx(2.0)
        assert e.total == pytest.approx(1.0)

    def test_interaction_zero_for_single_cell_with_zero_center(self):
        g = Grid(1, 2.0, 2)
        vals = np.ones(7)
        vals[3] = 0.0  # W at offset 0 vanishes
        kernel = KernelTable(vals, g.dx)
        model = heat(g)
        rho = np.zeros(4)
        rho[2] = 1.0
        e = discrete_energy(rho, model, kernel)
        assert e.interaction == 0.0

    def test_total_is_sum_of_parts(self):
        g = Grid(1, 2.0, 4)
        model = linear_fokker_planck(g)
        kernel = tabulate_kernel(Quadratic(1.0), g)
        rho = np.abs(np.sin(g.axis_centers())) + 0.1
        e = discrete_energy(rho, model, kernel)
        assert e.total == e.internal + e.confinement + e.interaction

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("strength", [1.0, -1.0])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_matches_paper_double_sum_form(self, dimension, strength, shifted):
        # interaction = (measure^2/2) * sum_{i,k} W_{i-k} rho_i rho_k; a
        # quadratic table takes it from moments, so an off-centre, lopsided
        # density checks the moment form against the sum itself. A shifted
        # table has W_0 != 0, as a table of cell averages of |x|^2/2 has.
        rng = np.random.default_rng(12)
        g = Grid(dimension, 2.0, 3)
        kernel = tabulate_kernel(Quadratic(strength), g)
        if shifted:
            kernel = KernelTable(kernel.values + 0.1 * strength, kernel.cell_measure,
                                 kernel.exact_form)
        n, c = g.n_cells, g.n_cells - 1
        idx = np.arange(n)
        offsets = c + idx[:, None] - idx[None, :]  # offsets[i, k] = i - k + c
        for _ in range(5):
            rho = rng.random(g.shape) ** 4
            rho[(slice(0, 2),) * dimension] *= 50.0  # heavy corner, off-centre
            e = discrete_energy(rho, heat(g), kernel)
            if dimension == 1:
                double_sum = rho @ kernel.values[offsets] @ rho
            else:
                table = kernel.values[offsets[:, None, :, None], offsets[None, :, None, :]]
                double_sum = np.einsum("ijkl,ij,kl->", table, rho, rho)
            expected = 0.5 * g.cell_measure**2 * double_sum
            assert abs(e.interaction - expected) <= 1e-12 * abs(expected)

    def test_quadratic_interaction_takes_no_fft(self, monkeypatch):
        g = Grid(2, 2.0, 4)
        kernel = tabulate_kernel(Quadratic(1.0), g)

        def no_fft(*args, **kwargs):
            raise AssertionError("a quadratic table's energy must not convolve")

        monkeypatch.setattr(scipy.fft, "rfftn", no_fft)
        monkeypatch.setattr(scipy.fft, "irfftn", no_fft)
        rho = np.random.default_rng(5).random(g.shape)
        assert discrete_energy(rho, heat(g), kernel).interaction > 0.0

    @pytest.mark.parametrize("kind", ["none", "quadratic", "gaussian"])
    @pytest.mark.parametrize("shape", [(7,), (8, 8), (4, 2)])
    def test_density_of_another_shape_rejected(self, kind, shape):
        g = Grid(1, 2.0, 4)
        interaction = {"none": None, "quadratic": Quadratic(1.0),
                       "gaussian": Gaussian(0.5, 1.0)}[kind]
        kernel = tabulate_kernel(interaction, g)
        with pytest.raises(ShapeError):
            discrete_energy(np.ones(shape), heat(g), kernel)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)])
    def test_non_finite_density_rejected(self, dimension, bad):
        g = Grid(dimension, 2.0, 2)
        kernel = tabulate_kernel(Quadratic(1.0), g)
        rho = np.ones(g.shape)
        for cell, value in enumerate(bad, 1):
            rho[(cell,) * dimension] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                discrete_energy(rho, linear_fokker_planck(g), kernel)

    def test_negative_density_rejected(self):
        g = Grid(1, 1.0, 2)
        with pytest.raises(DomainError):
            discrete_energy(np.array([1.0, -0.2, 0, 0]), heat(g), None)

    def test_steady_state_is_local_minimum(self):
        # The sampled Gaussian minimizes the discrete energy among nearby
        # mass-neutral perturbations (wiring check for the energy).
        rng = np.random.default_rng(42)
        g = Grid(1, 5.0, 32)
        model = linear_fokker_planck(g)
        rho_inf = sample_reference(ReferenceSolution("fp_steady", 1), 1.0, g)
        e0 = discrete_energy(rho_inf, model, None).total
        for _ in range(100):
            delta = rng.uniform(-1e-3, 1e-3, g.n_cells)
            delta -= delta.mean()  # mass neutral
            trial = np.maximum(rho_inf + delta, 0.0)
            e1 = discrete_energy(trial, model, None).total
            assert e1 >= e0 - 1e-8


class TestReferenceSolutions:
    def test_heat_kernel_peak_value(self):
        ref = ReferenceSolution("heat_kernel", 1)
        t = 1.0 / (4.0 * np.pi)
        assert reference_eval(ref, t, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_barenblatt_constants_m2(self):
        ref = ReferenceSolution("barenblatt", 1, exponent=2.0)
        assert ref.alpha == pytest.approx(1.0 / 3.0)
        assert ref.beta == pytest.approx(1.0 / 3.0)
        assert ref.kappa == pytest.approx(1.0 / 12.0)
        assert ref.gamma == pytest.approx(1.5)

    def test_barenblatt_profile_mass_resolves_k(self):
        ref = ReferenceSolution("barenblatt", 1, exponent=2.0, mass=1.0)
        k = ref.profile_constant
        assert k == pytest.approx((1.0 / ref.mass_constant) ** (2.0 / 3.0))
        mass, _ = quad(
            lambda x: reference_eval(ref, 1.0, np.array([x]))[0], -10, 10, limit=400
        )
        assert abs(mass - 1.0) <= 1e-8

    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
    def test_barenblatt_mass_invariant_in_time(self, t):
        ref = ReferenceSolution("barenblatt", 1, exponent=3.0, mass=1.0)
        mass, _ = quad(
            lambda x: reference_eval(ref, t, np.array([x]))[0], -20, 20, limit=400
        )
        assert abs(mass - 1.0) <= 1e-8

    def test_barenblatt_support_radius(self):
        ref = ReferenceSolution("barenblatt", 1, exponent=2.0, mass=1.0)
        radius = np.sqrt(ref.profile_constant / ref.kappa)
        inside = reference_eval(ref, 1.0, np.array([0.99 * radius]))[0]
        outside = reference_eval(ref, 1.0, np.array([1.01 * radius]))[0]
        assert inside > 0 and outside == 0.0

    def test_fp_transient_tends_to_steady(self):
        ref_t = ReferenceSolution("fp_transient", 1)
        ref_s = ReferenceSolution("fp_steady", 1)
        x = np.linspace(-3, 3, 41)
        assert np.abs(
            reference_eval(ref_t, 50.0, x) - reference_eval(ref_s, 0.0, x)
        ).max() <= 1e-12

    def test_2d_heat_kernel_mass(self):
        g = Grid(2, 12.0, 48)
        ref = ReferenceSolution("heat_kernel", 2)
        vals = sample_reference(ref, 1.0, g)
        assert vals.sum() * g.cell_measure == pytest.approx(1.0, abs=1e-8)

    def test_mass_required_for_barenblatt(self):
        ref = ReferenceSolution("barenblatt", 1, exponent=2.0, mass=None)
        with pytest.raises(ConfigurationError):
            _ = ref.profile_constant

    def test_positive_time_required(self):
        ref = ReferenceSolution("heat_kernel", 1)
        with pytest.raises(DomainError):
            reference_eval(ref, 0.0, np.array([0.0]))


class TestErrorNorm:
    def test_exact_match_is_zero(self):
        g = Grid(1, 3.0, 8)
        ref = ReferenceSolution("heat_kernel", 1)
        rho = sample_reference(ref, 2.0, g)
        assert l1_error(rho, ref, 2.0, g) == 0.0

    def test_constant_offset(self):
        g = Grid(1, 3.0, 8)
        ref = ReferenceSolution("heat_kernel", 1)
        rho = sample_reference(ref, 2.0, g) + 0.5
        assert l1_error(rho, ref, 2.0, g) == pytest.approx(0.5 * 6.0)

    def test_checker_pattern(self):
        g = Grid(1, 3.0, 8)
        ref = ReferenceSolution("heat_kernel", 1)
        signs = np.where(np.arange(g.n_cells) % 2 == 0, 1.0, -1.0)
        rho = sample_reference(ref, 2.0, g) + 0.25 * signs
        assert l1_error(rho, ref, 2.0, g) == pytest.approx(0.25 * 6.0)


class TestConvergenceOrder:
    def test_paper_pair(self):
        orders = convergence_order([0.0042109083, 0.0010515212])
        assert orders[0] == pytest.approx(2.0016534660, abs=1e-6)

    def test_halving(self):
        assert convergence_order([4.0, 2.0])[0] == pytest.approx(1.0)

    def test_nine_to_one(self):
        assert convergence_order([9.0, 1.0])[0] == pytest.approx(np.log2(9.0))

    def test_zero_error_flagged_not_divided(self):
        orders = convergence_order([1.0, 0.0, 0.5])
        assert orders[0] is None and orders[1] is None

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            convergence_order([1.0])


class TestFirstMoment:
    def test_even_density_zero_moment(self):
        g = Grid(1, 2.0, 16)
        rho = np.exp(-g.axis_centers() ** 2)
        assert abs(first_moment(rho, g)[0]) <= 1e-13

    def test_single_cell(self):
        g = Grid(1, 1.0, 2)  # centers -0.75 -0.25 0.25 0.75, dx = 0.5
        rho = np.zeros(4)
        rho[3] = 4.0  # rho*dx = 2 at x = 0.75
        assert first_moment(rho, g)[0] == pytest.approx(1.5)

    def test_shifted_gaussian_matches_quadrature(self):
        g = Grid(1, 6.0, 64)
        shift = 0.8
        x = g.axis_centers()
        rho = np.exp(-0.5 * (x - shift) ** 2) / np.sqrt(2 * np.pi)
        expected, _ = quad(
            lambda s: s * np.exp(-0.5 * (s - shift) ** 2) / np.sqrt(2 * np.pi),
            -6, 6,
        )
        assert first_moment(rho, g)[0] == pytest.approx(expected, abs=1e-6)

    def test_2d_components(self):
        g = Grid(2, 1.0, 2)
        rho = np.zeros((4, 4))
        rho[3, 0] = 1.0  # x = 0.75, y = -0.75, cell measure 0.25
        mom = first_moment(rho, g)
        assert mom[0] == pytest.approx(0.75 * 0.25)
        assert mom[1] == pytest.approx(-0.75 * 0.25)
