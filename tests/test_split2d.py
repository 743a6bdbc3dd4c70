"""Dimensional splitting and sweeping splitting in two dimensions."""

import warnings

import numpy as np
import pytest

from aggdiff.analysis import ReferenceSolution, discrete_energy, sample_reference
from aggdiff.errors import DomainError, RoutingError
from aggdiff.kernels import KernelTable, convolve, tabulate_kernel
from aggdiff.model import Gaussian
from aggdiff.presets import (
    grid_2d,
    heat,
    linear_fokker_planck,
    nonlocal_fokker_planck,
)
from aggdiff.solver import NewtonConfig, SchemeSetup, build_setup, implicit_step_1d
from aggdiff.split2d import (
    advance_split_axis,
    advance_step_2d,
    advance_sweep_axis,
    PassTelemetry,
    _convolution_increment,
)


def smooth_field(grid, shift=0.0):
    x, y = grid.cell_centers()
    f = np.exp(-((x - shift) ** 2 + y**2))
    return f / (f.sum() * grid.cell_measure)


class TestSplitPass:
    def test_data_constant_in_y_matches_1d(self):
        g = grid_2d(4.0, 0.5)
        model = heat(g)
        setup = build_setup(model, "s1", stage="midpoint")
        profile = np.exp(-g.axis_centers() ** 2)
        field = np.tile(profile[:, None], (1, g.n_cells))
        cfg = NewtonConfig()
        dt = g.dx**2 / 4
        out2d = advance_split_axis(field, 0, dt, setup, cfg)
        line, _, _ = implicit_step_1d(
            profile, dt, setup, cfg, v_table=np.zeros(g.n_cells), kernel=None
        )
        for j in range(g.n_cells):
            assert np.abs(out2d[:, j] - line).max() <= 1e-10

    def test_uniform_field_unchanged(self):
        g = grid_2d(2.0, 0.5)
        setup = build_setup(heat(g), "s2", stage="midpoint")
        field = np.full(g.shape, 0.4)
        out = advance_split_axis(field, 0, 0.7, setup, NewtonConfig())
        assert np.allclose(out, field, atol=1e-12)

    def test_positivity_below_cfl(self):
        g = grid_2d(3.0, 0.25)
        setup = build_setup(linear_fokker_planck(g), "s1", stage="midpoint")
        cfg = NewtonConfig()
        field = smooth_field(g, shift=0.4)
        out = advance_step_2d(field, g.dx**2 / 8, setup, cfg)
        assert out.field.values.min() >= -10 * cfg.tolerance

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan])
    def test_bad_dt_fails_fast(self, dt):
        g = grid_2d(2.0, 0.5)
        setup = build_setup(heat(g), "s1", stage="midpoint")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                advance_split_axis(smooth_field(g), 1, dt, setup, NewtonConfig())

    def test_routing_error_for_coupled_stage(self):
        g = grid_2d(2.0, 0.5)
        setup = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
        with pytest.raises(RoutingError):
            advance_split_axis(np.full(g.shape, 0.2), 0, 0.1, setup, NewtonConfig())


class TestBatchedPassMatchesPerLineSolves:
    """The one-Newton pass against the per-line 1D oracle."""

    n_zero = 3  # lines of zero mass in every pass

    def _field(self, g, seed):
        rng = np.random.default_rng(seed)
        field = 0.2 + rng.random(g.shape)
        field[:, : self.n_zero] = 0.0  # zero lines of the x-pass
        field[: self.n_zero, :] = 0.0  # and of the y-pass
        return field

    def _oracle(self, field, axis, dt, setup, cfg):
        v = setup.v_table
        if setup.kernel is not None:
            v = v + convolve(setup.kernel, field)
        out, counts = field.copy(), []
        for r in range(field.shape[0]):
            index = (slice(None), r) if axis == 0 else (r, slice(None))
            line, iters, _ = implicit_step_1d(
                field[index], dt, setup, cfg, v_table=v[index], kernel=None
            )
            out[index] = line
            counts.append(iters)
        return out, counts

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_fields(self, kind, axis, seed):
        g = grid_2d(3.0, 0.25)
        rng = np.random.default_rng(100 + seed)
        cfg = NewtonConfig()
        cases = [
            # V varies per line and is unrelated to the grid.
            SchemeSetup(build_setup(heat(g), kind, stage="midpoint").scheme,
                        heat(g), 2.0 * rng.random(g.shape), None),
            # Explicit stage with a kernel: the convolution is frozen.
            build_setup(nonlocal_fokker_planck(g), kind, stage="explicit"),
        ]
        field = self._field(g, seed)
        dt = g.dx**2 / 8 if kind == "s1" else 0.05
        for setup in cases:
            tel = PassTelemetry()
            batched = advance_split_axis(field, axis, dt, setup, cfg, tel)
            expected, counts = self._oracle(field, axis, dt, setup, cfg)
            assert np.abs(batched - expected).max() <= 1e-12
            assert tel.newton_iterations == sum(counts)
            assert tel.row_solves == g.n_cells
            assert counts[: self.n_zero] == [0] * self.n_zero
            assert max(counts) >= 3

    def test_full_step_counts_every_line(self):
        g = grid_2d(3.0, 0.25)
        setup = build_setup(nonlocal_fokker_planck(g), "s2", stage="explicit")
        field = self._field(g, 2)
        cfg = NewtonConfig()
        out = advance_step_2d(field, 0.05, setup, cfg)
        half, first = self._oracle(field, 0, 0.05, setup, cfg)
        full, second = self._oracle(half, 1, 0.05, setup, cfg)
        assert out.row_solves == 2 * g.n_cells
        assert out.iterations == sum(first) + sum(second)
        assert np.abs(out.field.values - full).max() <= 1e-12


class TestSweepPass:
    def _forced_zero_kernel_setup(self, model, kind):
        base = build_setup(model, kind, stage="midpoint")
        n = model.grid.n_cells
        zero = KernelTable(2, np.zeros((2 * n - 1, 2 * n - 1)), model.grid.cell_measure)
        return base, SchemeSetup(base.scheme, base.model, base.v_table, zero)

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    def test_sweep_equals_split_without_interaction(self, kind):
        g = grid_2d(3.0, 0.5)
        model = linear_fokker_planck(g)
        base, forced = self._forced_zero_kernel_setup(model, kind)
        tight = NewtonConfig(tolerance=1e-12)
        field = smooth_field(g, shift=0.3)
        dt = g.dx**2 / 8
        swept = advance_sweep_axis(field, 0, dt, forced, tight)
        split = advance_split_axis(field, 0, dt, base, tight)
        assert np.abs(swept - split).max() <= 1e-8

    def test_stage_locality(self):
        g = grid_2d(2.0, 0.5)
        model = nonlocal_fokker_planck(g)
        setup = build_setup(model, "s2", stage="midpoint")
        field = smooth_field(g)
        seen = []

        def hook(axis, r, working):
            seen.append((r, working.copy()))

        advance_sweep_axis(field, 0, 0.05, setup, NewtonConfig(), stage_hook=hook)
        previous = field
        for r, working in seen:
            untouched = [j for j in range(g.n_cells) if j != r]
            assert np.array_equal(working[:, untouched], previous[:, untouched])
            previous = working

    def test_per_stage_energy_monotone_and_mass_conserved(self):
        g = grid_2d(3.0, 0.5)
        model = nonlocal_fokker_planck(g)
        setup = build_setup(model, "s2", stage="midpoint")
        cfg = NewtonConfig()
        field = smooth_field(g, shift=0.5)
        energies = [discrete_energy(field, model, setup.kernel).total]
        masses = [field.sum() * g.cell_measure]

        def hook(axis, r, working):
            clipped = np.maximum(working, 0.0)
            energies.append(discrete_energy(clipped, model, setup.kernel).total)
            masses.append(working.sum() * g.cell_measure)

        advance_sweep_axis(field, 0, 0.25, setup, cfg, stage_hook=hook)
        for e0, e1 in zip(energies[:-1], energies[1:]):
            assert e1 <= e0 + 100 * cfg.tolerance * (1 + abs(e0))
        for m_val in masses[1:]:
            assert abs(m_val - masses[0]) <= 10 * cfg.tolerance * (1 + masses[0])

    def test_incremental_convolution_matches_full(self):
        rng = np.random.default_rng(6)
        g = grid_2d(2.0, 0.25)
        kernel = tabulate_kernel(Gaussian(0.5, -1.0), g)
        setup = SchemeSetup(
            build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint").scheme,
            nonlocal_fokker_planck(g),
            np.zeros(g.shape),
            kernel,
        )
        field = rng.random(g.shape)
        conv = convolve(kernel, field)
        for axis in (0, 1):
            for r in (0, 3, g.n_cells - 1):
                delta = rng.random(g.n_cells)
                updated = field.copy()
                if axis == 0:
                    updated[:, r] += delta
                else:
                    updated[r, :] += delta
                full = convolve(kernel, updated)
                incremental = conv + _convolution_increment(setup, axis, r, delta)
                scale = np.abs(full).max()
                assert np.abs(full - incremental).max() <= 1e-12 * scale


class TestFullStep:
    def test_symmetry_preserved(self):
        g = grid_2d(3.0, 0.5)
        model = nonlocal_fokker_planck(g)
        setup = build_setup(model, "s1", stage="midpoint")
        field = smooth_field(g)  # radially symmetric
        out = advance_step_2d(field, 2.0**-6, setup, NewtonConfig())
        vals = out.field.values
        assert np.abs(vals - vals.T).max() <= 1e-8          # x <-> y reflection
        assert np.abs(vals - vals[::-1, :]).max() <= 1e-8   # x -> -x

    def test_mass_conserved(self):
        g = grid_2d(3.0, 0.5)
        model = nonlocal_fokker_planck(g)
        setup = build_setup(model, "s2", stage="midpoint")
        cfg = NewtonConfig()
        field = smooth_field(g, shift=0.7)
        out = advance_step_2d(field, 0.5, setup, cfg)
        mass0 = field.sum() * g.cell_measure
        assert abs(out.field.mass - mass0) <= 10 * cfg.tolerance * (1 + mass0)

    def test_row_solve_counter(self):
        # One full 2D step performs 2*(2M) line systems of size 2M.
        g = grid_2d(2.0, 0.25)
        setup = build_setup(heat(g), "s2", stage="midpoint")
        out = advance_step_2d(smooth_field(g), 0.1, setup, NewtonConfig())
        assert out.row_solves == 2 * g.n_cells

    def test_sweep_path_row_solve_counter(self):
        g = grid_2d(2.0, 0.25)
        setup = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
        out = advance_step_2d(smooth_field(g), 0.1, setup, NewtonConfig())
        assert out.row_solves == 2 * g.n_cells

    def test_energy_dissipates_through_sweeping(self):
        g = grid_2d(3.0, 0.5)
        model = nonlocal_fokker_planck(g)
        setup = build_setup(model, "s2", stage="midpoint")
        rho = smooth_field(g, shift=0.5)
        for _ in range(4):
            out = advance_step_2d(rho, 0.25, setup, NewtonConfig())
            assert out.energy_after <= out.energy_before + 1e-8
            rho = out.field.values

    def test_2d_heat_follows_kernel_solution(self):
        # Short run against the 2D heat kernel: truncation-level agreement.
        g = grid_2d(6.0, 0.5)
        setup = build_setup(heat(g), "s1", stage="midpoint")
        ref = ReferenceSolution("heat_kernel", 2)
        rho = sample_reference(ref, 1.0, g)
        t = 1.0
        cfg = NewtonConfig()
        while t < 1.25 - 1e-12:
            out = advance_step_2d(rho, 2.0**-6, setup, cfg, compute_energy=False)
            rho = out.field.values
            t += out.dt_used
        exact = sample_reference(ref, 1.25, g)
        err = np.abs(rho - exact).sum() * g.cell_measure
        assert err <= 5e-3
