"""Dimensional splitting and sweeping splitting in two dimensions."""

import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from aggdiff import solver, split2d
from aggdiff.analysis import ReferenceSolution, discrete_energy, sample_reference
from aggdiff.errors import DomainError, RoutingError
from aggdiff.kernels import MIDPOINT, KernelTable, convolve, make_kernel_1d, tabulate_kernel
from aggdiff.model import Gaussian, Quadratic
from aggdiff.presets import (
    grid_2d,
    heat,
    linear_fokker_planck,
    nonlocal_fokker_planck,
)
from aggdiff.scheme1d import SchemeConfig, reconstruct_faces
from aggdiff.solver import (
    NewtonConfig,
    SchemeSetup,
    assemble_jacobian,
    build_setup,
    clipped_energy,
    implicit_step_1d,
    line_problem,
)
from aggdiff.split2d import (
    PassMomentBackground,
    SpectralBackground,
    advance_split_axis,
    advance_step_2d,
    advance_sweep_axis,
    PassTelemetry,
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

    def test_s1_bound_covers_both_passes(self):
        # The step's one telemetry absorbs both passes; the driver's bound
        # is dx over twice the largest converged face speed of either.
        assert PassTelemetry is solver.PassTelemetry
        g = grid_2d(3.0, 0.5)
        setup = build_setup(linear_fokker_planck(g), "s1", stage="midpoint")
        field = smooth_field(g, shift=0.3)
        cfg = NewtonConfig()
        out = advance_step_2d(field, 1.0, setup, cfg)
        assert out.cfl_retries >= 1
        tel = PassTelemetry()
        half = advance_split_axis(field, 0, out.dt_used, setup, cfg, tel)
        full = advance_split_axis(half, 1, out.dt_used, setup, cfg, tel)
        assert np.array_equal(out.field.values, full)
        assert (out.iterations, out.residual_norm, out.row_solves) == (
            tel.newton_iterations, tel.worst_norm, tel.row_solves)
        assert out.dt_used <= g.dx / (2.0 * tel.max_velocity) * (1 + 1e-12)


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

class TestS1FacesOncePerPass:
    """An S1 sweep reconstructs every line's faces once per pass, with the same bits."""

    @staticmethod
    def _parts(value):  # a residual, or a tridiagonal-plus-low-rank Jacobian
        return (*value.tri, value.left, value.right) if hasattr(value, "tri") else (value,)

    def test_pass_faces_give_the_same_problem(self):
        g = grid_2d(2.0, 0.25)
        setup = build_setup(nonlocal_fokker_planck(g), "s1", stage="midpoint")
        rng = np.random.default_rng(3)
        lines = rng.random(g.shape)
        lines[rng.random(g.shape) < 0.2] = 0.0
        row_kernel = make_kernel_1d(setup.kernel.axis_slice(0), setup.kernel.cell_measure,
                                    setup.kernel.exact_form)
        east, west = reconstruct_faces(lines, setup.scheme.theta)
        dt = g.dx**2 / 8
        for r in range(g.n_cells):
            v = rng.random(g.n_cells)
            own = line_problem(setup, lines[r], dt, v, row_kernel)
            given = line_problem(setup, lines[r], dt, v, row_kernel, faces=(east[r], west[r]))
            a = np.maximum(lines[r] + 0.1 * rng.standard_normal(g.n_cells), 0.0)
            for method in ("residual", "update_residual", "jacobian", "update_jacobian"):
                mine, theirs = getattr(own, method)(a), getattr(given, method)(a)
                assert all(x.tobytes() == y.tobytes()
                           for x, y in zip(self._parts(mine), self._parts(theirs)))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_sweep_hands_each_stage_its_old_lines_faces(self, axis, monkeypatch):
        # A quadratic kernel's pass is one problem on every line; line r of
        # its faces is line r's own reconstruction, byte for byte.
        g = grid_2d(2.0, 0.5)
        setup = build_setup(nonlocal_fokker_planck(g), "s1", stage="midpoint")
        seen = []
        original = split2d.line_problem

        def spy(setup_, old, dt, v_eff, kernel, faces=None, across=None):
            seen.append((old.copy(), faces))
            return original(setup_, old, dt, v_eff, kernel, faces=faces, across=across)

        monkeypatch.setattr(split2d, "line_problem", spy)
        advance_sweep_axis(smooth_field(g, 0.3), axis, g.dx**2 / 8, setup, NewtonConfig())
        assert len(seen) == 1
        old, (east, west) = seen[0]
        assert old.shape == east.shape == west.shape == (g.n_cells, g.n_cells)
        for r, old_line in enumerate(old):
            own_east, own_west = reconstruct_faces(old_line, setup.scheme.theta)
            assert east[r].tobytes() == own_east.tobytes()
            assert west[r].tobytes() == own_west.tobytes()


class TestSweepMatchesFullReconvolution:
    """The sweep pass against a reference that re-convolves the whole field at every stage."""

    @staticmethod
    def _stage_problem(field, r, axis, dt, setup):
        """Stage r's 1D problem, its background re-convolved from ``field``."""
        row_kernel = make_kernel_1d(setup.kernel.axis_slice(axis), setup.kernel.cell_measure)
        index = (slice(None), r) if axis == 0 else (r, slice(None))
        old_line = field[index].copy()
        background = convolve(setup.kernel, field)[index] - convolve(row_kernel, old_line)
        return index, line_problem(setup, old_line, dt, setup.v_table[index] + background,
                                   row_kernel)

    @classmethod
    def _reference_sweep(cls, field, axis, dt, setup, cfg):
        field = field.copy()
        total = 0
        for r in range(field.shape[0]):
            index, problem = cls._stage_problem(field, r, axis, dt, setup)
            field[index], iters, _ = solver.solve_lines(problem, cfg)
            total += iters
        return field, total

    @staticmethod
    def _setups(g, kind):
        fp = nonlocal_fokker_planck(g)
        gaussian = tabulate_kernel(Gaussian(0.5, -1.0), g)  # attractive
        return [
            SchemeSetup(SchemeConfig(kind, MIDPOINT), fp, build_setup(fp, kind).v_table, gaussian),
            build_setup(fp, kind, stage="implicit"),
            build_setup(fp, kind, stage="midpoint"),
            # W = -|x|^2/2 (exact_form "quadratic-"), positive definite: implicit.
            SchemeSetup(SchemeConfig(kind, "implicit"), fp, build_setup(fp, kind).v_table,
                        tabulate_kernel(Quadratic(-1.0), g)),
        ]

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_random_fields(self, kind, axis):
        g = grid_2d(3.0, 0.25)
        rng = np.random.default_rng(10 * axis + (kind == "s2"))
        cfg = NewtonConfig()
        dt = g.dx**2 / 8 if kind == "s1" else 0.05
        setups = self._setups(g, kind)
        gaussian = setups[0]
        for setup in setups:
            field = 0.2 + rng.random(g.shape)
            tel = PassTelemetry()
            swept = advance_sweep_axis(field, axis, dt, setup, cfg, tel)
            assert tel.row_solves == g.n_cells
            if setup is gaussian:  # stage by stage, as the reference
                expected, iterations = self._reference_sweep(field, axis, dt, setup, cfg)
                assert np.abs(swept - expected).max() <= 1e-12
                assert tel.newton_iterations == iterations
                continue
            # One system for the pass: at the swept field, every stage's own
            # residual (new lines before it, old after) is within tolerance.
            assert tel.newton_iterations % g.n_cells == 0
            staged = field.copy()
            for r in range(g.n_cells):
                index, problem = self._stage_problem(staged, r, axis, dt, setup)
                assert np.abs(problem.update_residual(swept[index])).max() <= cfg.tolerance
                staged[index] = swept[index]


class TestMomentBackground:
    """A pass's backgrounds from line moments against the stage-by-stage spectral accumulator."""

    g = grid_2d(2.0, 0.5)
    n = g.n_cells
    positive = st.floats(0.0, 10.0, allow_subnormal=False)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        field=hnp.arrays(float, (n, n), elements=positive),
        changes=hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
        axis=st.sampled_from([0, 1]),
        strength=st.sampled_from([1.0, -1.0]),
    )
    def test_every_stage_matches(self, field, changes, axis, strength):
        kernel = tabulate_kernel(Quadratic(strength), self.g)
        row_kernel = make_kernel_1d(kernel.axis_slice(axis), kernel.cell_measure)
        spectral = SpectralBackground(kernel, field, axis, row_kernel)
        lines = split2d._lines(field.copy(), axis)
        new = np.maximum(lines + changes, 0.0)  # every stage's new line
        got = PassMomentBackground(kernel, field, axis)(new)
        for r in range(self.n):
            old_line = lines[r].copy()
            expected = spectral(r, old_line)
            assert np.abs(got[r] - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
            lines[r] = new[r]
            spectral.update(r, old_line, lines[r])


class TestPassSystem:
    """A quadratic kernel's sweep pass as one block lower-triangular Newton system."""

    g = grid_2d(2.0, 0.5)

    def _problem(self, kind, stage, axis, strength, seed):
        g = self.g
        fp = nonlocal_fokker_planck(g)
        kernel = tabulate_kernel(Quadratic(strength), g)
        setup = SchemeSetup(SchemeConfig(kind, stage), fp, build_setup(fp, kind).v_table, kernel)
        rng = np.random.default_rng(seed)
        x, y = g.cell_centers()
        # Off centre along both axes, so that every line's first moment is
        # far from 0 and the earlier lines' term carries weight.
        field = (0.2 + rng.random(g.shape)) * np.exp(0.8 * x + 0.5 * y)
        lines = split2d._lines(field, axis).copy()
        faces = reconstruct_faces(lines, setup.scheme.theta) if kind == "s1" else None
        row_kernel = make_kernel_1d(kernel.axis_slice(axis), kernel.cell_measure, kernel.exact_form)
        dt = g.dx**2 / 8 if kind == "s1" else 0.2
        problem = line_problem(setup, lines, dt, split2d._lines(setup.v_table, axis), row_kernel,
                               faces=faces, across=PassMomentBackground(kernel, field, axis))
        state = lines * (1.0 + 0.1 * rng.standard_normal(lines.shape))
        return problem, state.ravel(), rng

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("stage", ["implicit", "midpoint"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("strength", [1.0, -1.0])
    def test_jacobian_matches_finite_differences(self, kind, stage, axis, strength):
        problem, a, _ = self._problem(kind, stage, axis, strength, seed=axis + 2)
        jac = problem.jacobian(a)
        assert jac.below == (1.0 if stage == "implicit" else 2.0)
        exact = jac.to_dense()
        fd = assemble_jacobian(lambda z: problem.residual(z).ravel(), a)
        scale = np.abs(exact).max()
        assert np.abs(exact - fd).max() <= 1e-5 * scale
        n = self.g.n_cells
        blocks = exact.reshape(n, n, n, n)
        earlier = np.tril(np.ones((n, n), dtype=bool), -1)
        later = np.triu(np.ones((n, n), dtype=bool), 1)
        assert not blocks.transpose(0, 2, 1, 3)[later].any()  # later lines: old values
        assert np.abs(blocks.transpose(0, 2, 1, 3)[earlier]).max() >= 1e-3 * scale

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("stage", ["implicit", "midpoint"])
    def test_forward_substitution_equals_dense_solve(self, kind, stage):
        for axis, strength in ((0, 1.0), (1, -1.0)):
            problem, a, rng = self._problem(kind, stage, axis, strength, seed=7)
            jac = problem.update_jacobian(a)
            rhs = rng.standard_normal(a.size)
            got = solver._solve_linear(jac, rhs[None, :])[0]
            expected = np.linalg.solve(jac.to_dense(), rhs)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("kernel", ["quadratic", "gaussian"])
    def test_newton_solves_per_pass(self, kernel, monkeypatch):
        # A quadratic pass is one Newton solve (plus any continuation in dt,
        # none at this step); a general kernel's pass solves stage by stage.
        g = grid_2d(2.0, 0.25)
        base = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
        if kernel == "gaussian":
            base = SchemeSetup(base.scheme, base.model, base.v_table,
                               tabulate_kernel(Gaussian(0.5, -1.0), g))
        calls = []
        original = solver.newton_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counting)
        out = advance_step_2d(smooth_field(g, 0.3), 0.1, base, NewtonConfig())
        assert len(calls) == (2 if kernel == "quadratic" else 2 * g.n_cells)
        assert out.row_solves == 2 * g.n_cells

    def test_s1_peak_speed_covers_every_line(self):
        g = grid_2d(3.0, 0.25)
        setup = build_setup(nonlocal_fokker_planck(g), "s1", stage="midpoint")
        field = smooth_field(g, shift=0.6)
        dt = g.dx**2 / 8
        tel = PassTelemetry()
        swept = advance_sweep_axis(field, 0, dt, setup, NewtonConfig(), tel)
        # A fresh pass problem's face velocities at the swept lines.
        kernel = setup.kernel
        row_kernel = make_kernel_1d(kernel.axis_slice(0), kernel.cell_measure, kernel.exact_form)
        problem = line_problem(setup, field.T.copy(), dt, setup.v_table.T, row_kernel,
                               across=PassMomentBackground(kernel, field, 0))
        u = problem.velocity(swept.T.ravel())
        assert tel.max_velocity == np.abs(u).max() > 0.0


def _stalled_pass_field():
    """8x8 data on which an S2 midpoint pass along axis 0 under W = |x|^2/2, dt = 98,
    stalls as one Newton system (just above tolerance at every continuation
    level) while the stage loop converges."""
    field = np.zeros((8, 8))
    for (i, j), value in {
        (0, 0): 9.01796819, (1, 1): 3.00858032, (2, 1): 7.06213723, (2, 3): 10.0,
        (2, 4): 5.34828049, (2, 5): 4.2118446, (4, 1): 1.0424265, (4, 3): 6.438797,
        (5, 2): 7.81681288, (5, 4): 1.0, (5, 6): 10.0, (6, 3): 3.78125, (6, 4): 8.5,
    }.items():
        field[i, j] = value
    return field


def _near_vacuum_field():
    """8x8 data at density 7.1 with two empty cells and one at 1e-11, on which the
    stage of an S2 midpoint pass along axis 0 under W = |x|^2/2, dt = 38, needs
    continuation in dt below dt/2^10."""
    field = np.full((8, 8), 7.10108853)
    field[0, 0] = field[0, 1] = 0.0
    field[5, 1] = 1.09407142e-11
    return field


class TestSweepProperties:
    """S2 with a midpoint-staged interaction: guarantees for any data and any dt."""

    g = grid_2d(2.0, 0.5)
    positive = st.floats(0.0, 10.0, allow_subnormal=False)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        field=hnp.arrays(float, g.shape, elements=positive),
        dt=st.floats(1e-4, 100.0),
        axis=st.sampled_from([0, 1]),
        attractive=st.booleans(),
    )
    @example(field=_stalled_pass_field(), dt=98.0, axis=0, attractive=False)
    @example(field=_near_vacuum_field(), dt=38.0, axis=0, attractive=False)
    def test_each_stage_conserves_mass_and_dissipates(self, field, dt, axis, attractive):
        g = self.g
        model = nonlocal_fokker_planck(g)
        base = build_setup(model, "s2", stage="midpoint")
        kernel = tabulate_kernel(Gaussian(0.5, -1.0), g) if attractive else base.kernel
        setup = SchemeSetup(base.scheme, model, base.v_table, kernel)
        # The Newton tolerance is absolute on R*dt, whose roundoff floor is
        # about eps*dt*max(rho)*max|xi|/dx^2 (|H'| <= 40 above the vacuum
        # floor); it is set above that floor so that every example can converge.
        xi = np.abs(convolve(kernel, field)).max() + 40.0
        floor = np.finfo(float).eps * dt * field.max() * xi / g.dx**2
        cfg = NewtonConfig(tolerance=max(1e-10, 4.0 * floor))
        slack = 10 * cfg.tolerance
        mass0 = field.sum() * g.cell_measure
        energies = [discrete_energy(field, model, kernel).total]

        def hook(axis, r, working):
            assert abs(working.sum() * g.cell_measure - mass0) <= slack * (1 + mass0)
            assert working.min() >= -slack
            clipped = np.maximum(working, 0.0)
            energies.append(discrete_energy(clipped, model, kernel).total)
            assert energies[-1] <= energies[-2] + 10 * slack * (1 + abs(energies[-2]))

        advance_sweep_axis(field, axis, dt, setup, cfg, stage_hook=hook)
        assert len(energies) == g.n_cells + 1

    def test_long_step_next_to_vacuum(self):
        # Newton from the old state misses this stage's root; the S2 solve
        # reaches it by continuation in dt.
        g = self.g
        model = nonlocal_fokker_planck(g)
        base = build_setup(model, "s2", stage="midpoint")
        setup = SchemeSetup(base.scheme, model, base.v_table,
                            tabulate_kernel(Gaussian(0.5, -1.0), g))
        field = np.full(g.shape, 4.0)
        field[0, 0] = 0.0
        out = advance_sweep_axis(field, 0, 5.0, setup, NewtonConfig())
        assert abs(out.sum() - field.sum()) <= 1e-9 * field.sum()
        assert out.min() > 0.0


class TestFullStep:
    @pytest.mark.parametrize("stage", ["explicit", "midpoint"])  # split, sweep
    @pytest.mark.parametrize("bad", ["nan", "negative", "shape"])
    def test_bad_density_fails_before_any_solve(self, stage, bad, monkeypatch):
        g = grid_2d(2.0, 0.5)
        setup = build_setup(nonlocal_fokker_planck(g), "s2", stage=stage)
        field = smooth_field(g)
        if bad == "shape":
            field = field[:, :-1]
        else:
            field[1, 2] = np.nan if bad == "nan" else -1e-6

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started on invalid input")

        monkeypatch.setattr(split2d, "solve_lines", no_solve)
        with pytest.raises(DomainError):
            advance_step_2d(field, 0.1, setup, NewtonConfig())

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
            assert clipped_energy(setup, out.field.values) <= clipped_energy(setup, rho) + 1e-8
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
            out = advance_step_2d(rho, 2.0**-6, setup, cfg)
            rho = out.field.values
            t += out.dt_used
        exact = sample_reference(ref, 1.25, g)
        err = np.abs(rho - exact).sum() * g.cell_measure
        assert err <= 5e-3
