"""Dimensional splitting and sweeping splitting in two dimensions."""

import itertools
import warnings

import numpy as np
import pytest

import draws
from aggdiff import solver, split2d
from aggdiff.analysis import ReferenceSolution, discrete_energy, sample_reference
from aggdiff.errors import DomainError, NewtonError, RoutingError
from aggdiff.experiments import InitialSpec, build_initial
from aggdiff.kernels import MIDPOINT, KernelTable, convolve, tabulate_kernel
from aggdiff.model import (
    Gaussian,
    InternalEnergy,
    ModelSpec,
    Quadratic,
    TabulatedConfinement,
    TabulatedInteraction,
)
from aggdiff.presets import (
    MODEL_MATRIX,
    flocking,
    grid_2d,
    heat,
    linear_fokker_planck,
    nonlocal_fokker_planck,
)
from aggdiff.scheme1d import (
    LineProblem,
    SchemeConfig,
    Tridiagonal,
    TridiagonalLowRank,
    reconstruct_faces,
)
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


def stage_fields(before, after, axis):
    """The field after each stage of an ``axis`` sweep pass from ``before`` to ``after``.

    Stage r writes only line r, so its field is ``before`` with lines 0..r
    taken from ``after`` (TestSweepPass.test_stage_locality checks the rule).
    """
    field = np.array(before, dtype=float)
    lines, new = split2d._lines(field, axis), split2d._lines(after, axis)
    for r in range(lines.shape[0]):
        lines[r] = new[r]
        yield field.copy()


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
    """The one-Newton pass against the per-line 1D oracle, bit for bit.

    The pass goes through newton_solve's loop for a batch of lines, each
    oracle line through its loop for one state.
    """

    n_zero = 3  # lines of zero mass in every pass

    def _field(self, g, seed):
        rng = np.random.default_rng(seed)
        field = 0.2 + rng.random(g.shape)
        field[:, : self.n_zero] = 0.0  # zero lines of the x-pass
        field[: self.n_zero, :] = 0.0  # and of the y-pass
        return field

    def _oracle(self, field, axis, dt, setup, cfg):
        v = setup.model.v_table
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
            build_setup(ModelSpec(heat(g).energy, g, TabulatedConfinement(
                tuple(map(tuple, 2.0 * rng.random(g.shape))))), kind, stage="midpoint"),
            # Explicit stage with a kernel: the convolution is frozen.
            build_setup(nonlocal_fokker_planck(g), kind, stage="explicit"),
        ]
        field = self._field(g, seed)
        dt = g.dx**2 / 8 if kind == "s1" else 0.05
        for setup in cases:
            tel = PassTelemetry()
            batched = advance_split_axis(field, axis, dt, setup, cfg, tel)
            expected, counts = self._oracle(field, axis, dt, setup, cfg)
            assert batched.tobytes() == expected.tobytes()  # bit for bit, signed zeros too
            assert tel.newton_iterations == sum(counts)
            assert tel.row_solves == g.n_cells
            assert counts[: self.n_zero] == [0] * self.n_zero
            assert max(counts) >= 3

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_wall_cells_next_to_larger_lines(self, kind, axis):
        # The pass's lines laid end to end put wall cells of 0.0, -0.0 and
        # 1e-300 next to a line 10^6 times larger (draws.wall_lines).
        g = grid_2d(3.0, 0.25)
        lines = draws.wall_lines(np.random.default_rng(200 + axis), g.n_cells, g.n_cells,
                                 0.2, 1.0)
        field = lines.T if axis == 0 else lines
        setup = build_setup(heat(g), kind, stage="midpoint")
        dt = g.dx**2 / 8 if kind == "s1" else 0.05
        cfg = NewtonConfig(tolerance=1e-6)  # R*dt of a line near 10^6 carries roundoff of 1e-10
        batched = advance_split_axis(field, axis, dt, setup, cfg)
        expected, counts = self._oracle(field, axis, dt, setup, cfg)
        assert batched.tobytes() == expected.tobytes()
        assert max(counts) >= 2

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
        zero = KernelTable(np.zeros((2 * n - 1, 2 * n - 1)), model.grid.cell_measure)
        return base, SchemeSetup(base.scheme, base.model, zero)

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

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_sweep_without_kernel_is_the_split_pass(self, kind, axis):
        g = grid_2d(3.0, 0.5)
        setup = build_setup(linear_fokker_planck(g), kind, stage="midpoint")
        assert setup.kernel is None
        field = smooth_field(g, shift=0.3)
        swept_tel, split_tel = PassTelemetry(), PassTelemetry()
        swept = advance_sweep_axis(field, axis, 0.05, setup, NewtonConfig(), swept_tel)
        split = advance_split_axis(field, axis, 0.05, setup, NewtonConfig(), split_tel)
        assert np.array_equal(swept.view(np.int64), split.view(np.int64))
        assert vars(swept_tel) == vars(split_tel)

    @staticmethod
    def _setup(interaction, kind, stage):
        g = grid_2d(2.0, 0.5)
        model = ModelSpec(InternalEnergy("entropy", 1.0), g, interaction=interaction)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a rule that voids the guarantee
            return build_setup(model, kind, stage=stage)

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("interaction", [Quadratic(1.0), Gaussian(0.5, -1.0)],
                             ids=["quadratic", "gaussian"])
    def test_explicit_staged_sweep_is_the_split_pass(self, kind, axis, interaction):
        # Explicit staging freezes W * rho over the pass: the lines do not couple.
        setup = self._setup(interaction, kind, "explicit")
        assert setup.kernel is not None and setup.scheme.stage_rule == "explicit"
        field = smooth_field(setup.model.grid, shift=0.3)
        swept_tel, split_tel = PassTelemetry(), PassTelemetry()
        swept = advance_sweep_axis(field, axis, 0.1, setup, NewtonConfig(), swept_tel)
        split = advance_split_axis(field, axis, 0.1, setup, NewtonConfig(), split_tel)
        assert swept.tobytes() == split.tobytes()
        assert vars(swept_tel) == vars(split_tel)

    @pytest.mark.parametrize("stage", ["explicit", "implicit", "midpoint"])
    @pytest.mark.parametrize("interaction", [None, Quadratic(1.0), Gaussian(0.5, -1.0)],
                             ids=["none", "quadratic", "gaussian"])
    def test_step_sweeps_exactly_when_coupled(self, stage, interaction, monkeypatch):
        setup = self._setup(interaction, "s2", stage)
        assert setup.coupled == (interaction is not None and stage != "explicit")
        passes = TestMatrixStepGuarantees._record_passes(monkeypatch)
        advance_step_2d(smooth_field(setup.model.grid, shift=0.3), 0.1, setup, NewtonConfig())
        swept = setup.coupled
        assert [(axis, s) for _, axis, _, s in passes] == [(0, swept), (1, swept)]

    def test_all_zero_tabulated_interaction_takes_split_passes(self, monkeypatch):
        # build_setup drops a kernel table that is zero everywhere, so a
        # midpoint stage does not route the step to the sweep.
        g = grid_2d(2.0, 0.5)
        zeros = ((0.0,) * (2 * g.n_cells - 1),) * (2 * g.n_cells - 1)
        model = ModelSpec(InternalEnergy("entropy", 1.0), g,
                          interaction=TabulatedInteraction(zeros))
        setup = build_setup(model, "s2", stage="midpoint")
        assert setup.kernel is None
        passes = TestMatrixStepGuarantees._record_passes(monkeypatch)
        out = advance_step_2d(smooth_field(g, shift=0.3), 0.1, setup, NewtonConfig())
        assert [(axis, swept) for _, axis, _, swept in passes] == [(0, False), (1, False)]
        assert np.array_equal(passes[-1][2], out.field.values)

    def test_stage_locality(self, monkeypatch):
        # A stage loop's r-th solve starts from the input's line r and gives
        # the output's line r; a quadratic pass is one solve of every line.
        g = grid_2d(2.0, 0.5)
        quadratic = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
        gaussian = SchemeSetup(quadratic.scheme, quadratic.model,
                               tabulate_kernel(Gaussian(0.5, -1.0), g))
        field = smooth_field(g, shift=0.3)
        solves, original = [], split2d.solve_lines

        def spy(problem, config=None):
            new, iters, norm = original(problem, config)
            solves.append((problem.old, new.reshape(problem.old.shape)))
            return new, iters, norm

        monkeypatch.setattr(split2d, "solve_lines", spy)
        for setup, axis in itertools.product((quadratic, gaussian), (0, 1)):
            solves.clear()
            out = advance_sweep_axis(field, axis, 0.05, setup, NewtonConfig())
            assert len(solves) == (1 if setup is quadratic else g.n_cells)
            old, new = (np.vstack(parts) for parts in zip(*solves))
            assert np.array_equal(old, split2d._lines(field, axis))
            assert np.array_equal(new, split2d._lines(out, axis))

    def test_per_stage_energy_monotone_and_mass_conserved(self):
        g = grid_2d(3.0, 0.5)
        model = nonlocal_fokker_planck(g)
        setup = build_setup(model, "s2", stage="midpoint")
        cfg = NewtonConfig()
        field = smooth_field(g, shift=0.5)
        energies = [discrete_energy(field, model, setup.kernel).total]
        masses = [field.sum() * g.cell_measure]
        out = advance_sweep_axis(field, 0, 0.25, setup, cfg)
        for working in stage_fields(field, out, 0):
            clipped = np.maximum(working, 0.0)
            energies.append(discrete_energy(clipped, model, setup.kernel).total)
            masses.append(working.sum() * g.cell_measure)
        for e0, e1 in zip(energies[:-1], energies[1:]):
            assert e1 <= e0 + 100 * cfg.tolerance * (1 + abs(e0))
        for m_val in masses[1:]:
            assert abs(m_val - masses[0]) <= 10 * cfg.tolerance * (1 + masses[0])

class TestS1FacesOncePerPass:
    """An S1 problem reconstructs its own old lines' faces: a line's bits alone or in a pass."""

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_of_a_batch_are_each_lines_own(self, seed):
        # On random fields with vacuum cells, and through the transposed
        # view an x-pass hands its problem.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 14))
        field = draws.floats(rng, (n, n), 0.0, 10.0)
        field[rng.random(field.shape) < 0.3] = 0.0
        theta = float(rng.uniform(1.0, 2.0))
        for lines in (field, field.T):
            east, west = reconstruct_faces(lines, theta)
            for r in range(n):
                own_east, own_west = reconstruct_faces(lines[r], theta)
                assert east[r].tobytes() == own_east.tobytes()
                assert west[r].tobytes() == own_west.tobytes()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_sweep_hands_each_stage_its_old_lines_faces(self, axis, monkeypatch):
        # A quadratic kernel's pass is one problem on every line; line r of
        # its faces is line r's own reconstruction, byte for byte.
        g = grid_2d(2.0, 0.5)
        setup = build_setup(nonlocal_fokker_planck(g), "s1", stage="midpoint")
        seen = []
        original = split2d.line_problem

        def spy(*args, **kwargs):
            problem = original(*args, **kwargs)
            seen.append((problem.old.copy(), (problem.east, problem.west)))
            return problem

        monkeypatch.setattr(split2d, "line_problem", spy)
        advance_sweep_axis(smooth_field(g, 0.3), axis, g.dx**2 / 8, setup, NewtonConfig())
        assert len(seen) == 1
        old, (east, west) = seen[0]
        assert old.shape == east.shape == west.shape == (g.n_cells, g.n_cells)
        for r, old_line in enumerate(old):
            own_east, own_west = reconstruct_faces(old_line, setup.scheme.theta)
            assert east[r].tobytes() == own_east.tobytes()
            assert west[r].tobytes() == own_west.tobytes()


@pytest.mark.parametrize("kernel", ["quadratic", "gaussian"])
def test_sweep_passes_reuse_the_tables_row_kernels(kernel, monkeypatch):
    # Each axis's row kernel (and so its cached Toeplitz matrix and factors)
    # is built once per table: every pass of every step gets the same object.
    g = grid_2d(2.0, 0.5)
    setup = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
    if kernel == "gaussian":
        setup = SchemeSetup(setup.scheme, setup.model, tabulate_kernel(Gaussian(0.5, -1.0), g))
    seen = []
    original = split2d.line_problem

    def spy(setup_, old, dt, v_eff, row_kernel, across=None):
        seen.append(row_kernel)
        return original(setup_, old, dt, v_eff, row_kernel, across=across)

    monkeypatch.setattr(split2d, "line_problem", spy)
    rho = smooth_field(g, 0.3)
    for _ in range(2):
        rho = advance_step_2d(rho, 0.1, setup, NewtonConfig()).field.values
    per_pass = len(seen) // 4  # two steps of an x-pass and a y-pass
    assert len(seen) == 4 * per_pass
    x_rows, y_rows = setup.kernel.row_kernels
    assert all(k is x_rows for k in seen[:per_pass] + seen[2 * per_pass:3 * per_pass])
    assert all(k is y_rows for k in seen[per_pass:2 * per_pass] + seen[3 * per_pass:])
    assert x_rows.values.tobytes() == setup.kernel.axis_slice(0).tobytes()
    assert y_rows.values.tobytes() == setup.kernel.axis_slice(1).tobytes()


class TestSweepMatchesFullReconvolution:
    """The sweep pass against a reference that re-convolves the whole field at every stage."""

    @staticmethod
    def _stage_problem(field, r, axis, dt, setup):
        """Stage r's 1D problem, its background re-convolved from ``field``."""
        row_kernel = KernelTable(setup.kernel.axis_slice(axis), setup.kernel.cell_measure)
        index = (slice(None), r) if axis == 0 else (r, slice(None))
        old_line = field[index].copy()
        background = convolve(setup.kernel, field)[index] - convolve(row_kernel, old_line)
        return index, line_problem(setup, old_line, dt,
                                   setup.model.v_table[index] + background, row_kernel)

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
        # W = |x|^2/2 is negative definite, so the implicit stage voids the guarantee.
        with pytest.warns(UserWarning, match="stage rule 'implicit' voids the energy-dissipation "
                                             "guarantee for a negative_definite interaction"):
            implicit = build_setup(fp, kind, stage="implicit")
        return [
            SchemeSetup(SchemeConfig(kind, MIDPOINT), fp, gaussian),
            implicit,
            build_setup(fp, kind, stage="midpoint"),
            # W = -|x|^2/2 (exact_form "quadratic-"), positive definite: implicit.
            SchemeSetup(SchemeConfig(kind, "implicit"), fp, tabulate_kernel(Quadratic(-1.0), g)),
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


class TestLinesLaidEndToEnd:
    """The face-slot layout in the 2D passes: one slot per cell, walls +0.0."""

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_sweep_pass_rows_read_no_other_line(self, kind, axis):
        # A quadratic pass couples its lines, so no line is solved alone. The
        # last line enters no other line's background (lines after r are read
        # at the old field), so a state that differs in the last line only,
        # wall cells included, leaves every other row's residual and
        # Jacobian as they were, bit for bit.
        g = grid_2d(2.0, 0.25)
        n = g.n_cells
        setup = build_setup(nonlocal_fokker_planck(g), kind, stage="midpoint")
        rng = np.random.default_rng(300 + 2 * axis + (kind == "s2"))
        lines = draws.wall_lines(rng, n, n, 0.2, 1.0)
        field = lines.T if axis == 0 else lines
        v_lines = setup.model.v_table.T if axis == 0 else setup.model.v_table
        problem = line_problem(setup, lines, 0.05, v_lines, setup.kernel.row_kernels[axis],
                               across=PassMomentBackground(setup.kernel, field, axis))
        state = draws.wall_lines(rng, n, n).ravel()
        changed = state.copy()
        changed[-n:] = draws.floats(rng, n, 0.0, 1.0)
        changed[-n], changed[-1] = -0.0, 1e-300
        rows = []
        for a in (state, changed):
            fresh = problem.with_dt(problem.dt)
            jac = fresh.update_jacobian(a)
            draws.assert_walls_positive_zero(fresh, a, jac)
            rows.append([fresh.update_residual(a), *jac.tri, *jac.left])
        assert all(x[:-1].tobytes() == y[:-1].tobytes() for x, y in zip(*rows))

    def test_x_pass_lines_are_contiguous_and_reach_gtsv_as_views(self, monkeypatch):
        # The x-pass hands transposed lines; the problem keeps them C-contiguous,
        # so every face operation and band is flat, and gtsv reads the bands in place.
        g = grid_2d(2.0, 0.25)
        n = g.n_cells
        setup = build_setup(heat(g), "s1", stage="midpoint")
        field = draws.wall_lines(np.random.default_rng(7), n, n, 0.2, 1.0)
        problem = line_problem(setup, field.T, 1e-3, setup.model.v_table.T, kernel=None)
        a = np.array(field.T * 1.01, order="C")
        problem.update_residual(a)
        jac = problem.update_jacobian(a)
        record = problem._last[2]
        made = [problem.old, problem.v, problem.east, problem.west, *record, *jac]
        assert all(x.shape == (n, n) and x.flags.c_contiguous for x in made)
        passed = []
        gtsv = solver._GTSV

        def spy(dl, d, du, b, **flags):
            passed.append((dl, d, du))
            return gtsv(dl, d, du, b, **flags)

        monkeypatch.setattr(solver, "_GTSV", spy)
        solver._solve_lines_tridiagonal(jac, np.ones(n * n))
        (dl, d, du), = passed
        assert (np.shares_memory(dl, jac.lower) and np.shares_memory(d, jac.diag)
                and np.shares_memory(du, jac.upper))


class TestMomentBackground:
    """A pass's backgrounds from line moments against the stage-by-stage spectral accumulator."""

    g = grid_2d(2.0, 0.5)
    n = g.n_cells
    # Both axes and both kernel signs, in turn.
    variants = list(itertools.product([0, 1], [1.0, -1.0]))

    @pytest.mark.parametrize("seed", range(60))
    def test_every_stage_matches(self, seed):
        rng = np.random.default_rng(seed)
        axis, strength = self.variants[seed % len(self.variants)]
        field = draws.floats(rng, (self.n, self.n), 0.0, 10.0, subnormal=False)
        changes = draws.floats(rng, (self.n, self.n), -1.0, 1.0)
        kernel = tabulate_kernel(Quadratic(strength), self.g)
        spectral = SpectralBackground(kernel, field, axis)
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
        setup = SchemeSetup(SchemeConfig(kind, stage), fp, kernel)
        rng = np.random.default_rng(seed)
        x, y = g.cell_centers()
        # Off centre along both axes, so that every line's first moment is
        # far from 0 and the earlier lines' term carries weight.
        field = (0.2 + rng.random(g.shape)) * np.exp(0.8 * x + 0.5 * y)
        lines = split2d._lines(field, axis).copy()
        row_kernel = kernel.row_kernels[axis]
        dt = g.dx**2 / 8 if kind == "s1" else 0.2
        problem = line_problem(setup, lines, dt, split2d._lines(setup.model.v_table, axis),
                               row_kernel, across=PassMomentBackground(kernel, field, axis))
        state = lines * (1.0 + 0.1 * rng.standard_normal(lines.shape))
        return problem, state.ravel(), rng

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("stage", ["implicit", "midpoint"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("strength", [1.0, -1.0])
    def test_jacobian_matches_finite_differences(self, kind, stage, axis, strength):
        problem, a, _ = self._problem(kind, stage, axis, strength, seed=axis + 2)
        jac = problem.update_jacobian(a)
        assert jac.below == (1.0 if stage == "implicit" else 2.0)
        exact = jac.to_dense()
        fd = assemble_jacobian(lambda z: problem.update_residual(z).ravel(), a)
        scale = np.abs(exact).max()
        assert np.abs(exact - fd).max() <= 1e-5 * scale
        n = self.g.n_cells
        blocks = exact.reshape(n, n, n, n)
        earlier = np.tril(np.ones((n, n), dtype=bool), -1)
        later = np.triu(np.ones((n, n), dtype=bool), 1)
        assert not blocks.transpose(0, 2, 1, 3)[later].any()  # later lines: old values
        assert np.abs(blocks.transpose(0, 2, 1, 3)[earlier]).max() >= 1e-3 * scale

    @staticmethod
    def _drawn_pass(rng, kind, stage, lines):
        """The update-form Jacobian of a seeded pass of ``lines`` lines, and a right-hand side.

        Line r's background is left out (``across`` adds zero): the
        Jacobian's blocks do not read it, and ``below`` follows the stage rule.
        """
        n, dx = int(rng.integers(3, 13)), 0.25
        strength = 1.0 if rng.random() < 0.5 else -1.0
        offsets = dx * np.arange(-(n - 1), n)
        kernel = KernelTable(0.5 * strength * offsets**2, dx,
                             "quadratic+" if strength > 0 else "quadratic-")
        old = draws.floats(rng, (lines, n), 0.0, 5.0, subnormal=False)
        at = np.maximum(old + draws.floats(rng, (lines, n), -0.5, 0.5), 0.0)
        v = draws.floats(rng, (lines, n), -1.0, 1.0)
        dt = draws.floats(rng, (), 1e-3, 10.0, log=True)
        problem = LineProblem(SchemeConfig(kind, stage), old, dt, dx,
                              InternalEnergy("entropy", 1.0), v, kernel,
                              across=lambda a: np.zeros(a.shape))
        rhs = draws.floats(rng, lines * n, -1.0, 1.0, subnormal=False)
        return problem.update_jacobian(at.ravel()), rhs

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
        # Seeded passes of 1, 3 and 8 lines. LU of the dense matrix is the
        # reference up to the forward error its condition number allows, and
        # the pass solve's own backward error is at roundoff.
        eps = np.finfo(float).eps
        below = 1.0 if stage == "implicit" else 2.0
        for seed, lines in itertools.product(range(16), (1, 3, 8)):
            rng = np.random.default_rng([seed, lines, int(kind == "s1"), int(below)])
            jac, rhs = self._drawn_pass(rng, kind, stage, lines)
            assert jac.below == below and jac.left.shape == (2, *jac.tri.diag.shape)
            dense = jac.to_dense()
            got = solver._solve_linear(jac, rhs[None])[0]
            expected = np.linalg.solve(dense, rhs)
            bound = 16 * np.linalg.cond(dense) * eps * np.abs(expected).max()
            assert np.abs(got - expected).max() <= bound
            norm = np.abs(dense).sum(axis=1).max()
            assert np.abs(dense @ got - rhs).max() <= 64 * eps * norm * np.abs(got).max()

    @staticmethod
    def _pinned_pass(capacitance, lines=3, n=4):
        """A pass whose line 1 has capacitance ``capacitance`` exactly, the others 2I.

        With tri = I and right = [e_0, e_1], line r's capacitance is
        I + right.T @ U_r, and U_r = right @ (target - I).
        """
        right = np.eye(n)[:, :2]
        targets = [2 * np.eye(2)] * lines
        targets[1] = np.array(capacitance)
        left = np.stack([(right @ (target - np.eye(2))).T for target in targets], axis=1)
        tri = Tridiagonal(np.zeros((lines, n)), np.ones((lines, n)), np.zeros((lines, n)))
        return TridiagonalLowRank(tri, left, right, 2.0)

    @pytest.mark.parametrize("capacitance", [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]],
                             ids=["first_pivot", "second_pivot_after_a_swap"])
    def test_zero_capacitance_pivot_raises(self, capacitance):
        jac = self._pinned_pass(capacitance)
        assert np.linalg.matrix_rank(jac.to_dense()) < jac.tri.diag.size
        with pytest.raises(np.linalg.LinAlgError):
            solver._solve_linear(jac, np.ones((1, jac.tri.diag.size)))

    def test_capacitance_solve_pivots(self):
        # [[1e-20, 1], [1, 1]] is well conditioned, but eliminating with its
        # tiny first entry as the pivot would lose every digit.
        jac = self._pinned_pass([[1e-20, 1.0], [1.0, 1.0]])
        rhs = np.random.default_rng(2).standard_normal(jac.tri.diag.size)
        expected = np.linalg.solve(jac.to_dense(), rhs)
        got = solver._solve_linear(jac, rhs[None])[0]
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_nan_in_factor_raises(self):
        jac, rhs = self._drawn_pass(np.random.default_rng(5), "s2", "midpoint", 3)
        jac.left[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver._solve_linear(jac, rhs[None])

    @pytest.mark.parametrize("kernel", ["quadratic", "gaussian"])
    def test_newton_solves_per_pass(self, kernel, monkeypatch):
        # A quadratic pass is one Newton solve (plus any continuation in dt,
        # none at this step); a general kernel's pass solves stage by stage.
        g = grid_2d(2.0, 0.25)
        base = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
        if kernel == "gaussian":
            base = SchemeSetup(base.scheme, base.model, tabulate_kernel(Gaussian(0.5, -1.0), g))
        calls = []
        original = solver.newton_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counting)
        out = advance_step_2d(smooth_field(g, 0.3), 0.1, base, NewtonConfig())
        assert len(calls) == (2 if kernel == "quadratic" else 2 * g.n_cells)
        assert out.row_solves == 2 * g.n_cells

    def test_failed_pass_solve_raises_without_a_stage_loop(self, monkeypatch):
        # A quadratic pass is its one Newton system. When that solve fails
        # (an S1 flocking pass at dt = 0.05: 50 iterations leave 2.7e-7),
        # NewtonError reaches the caller, for drive_step to halve dt, and no
        # stage is solved on its own.
        g = grid_2d(4.0, 0.5)
        model = flocking(g, noise=0.5)
        setup = build_setup(model, "s1", stage="midpoint")
        spec = InitialSpec("gaussian", mass=1.0, width=0.6, center=(0.3, -0.2))
        rho = build_initial(spec, g, 0.0, model)
        solves, original = [], split2d.solve_lines

        def spy(problem, config=None):
            solves.append(problem.across is not None)
            return original(problem, config)

        def no_stage_loop(*args):
            raise AssertionError("the stage loop ran for a quadratic kernel")

        monkeypatch.setattr(split2d, "solve_lines", spy)
        monkeypatch.setattr(split2d, "SpectralBackground", no_stage_loop)
        with pytest.raises(NewtonError, match="did not reach tolerance"):
            advance_sweep_axis(rho, 0, 0.05, setup, NewtonConfig())
        assert solves == [True]

    def test_one_banded_solve_per_newton_iteration(self, monkeypatch):
        # A quadratic 8x8 pass: each Newton iteration makes one gtsv call, on
        # [U_0, U_1, b] for every line laid end to end, and no dense solve.
        g = grid_2d(2.0, 0.5)
        setup = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
        rng = np.random.default_rng(11)
        field = 1.0 + draws.floats(rng, g.shape, 0.0, 1.0, subnormal=False)
        shapes, dense = [], []
        banded, lu = solver._solve_lines_tridiagonal, np.linalg.solve

        def banded_spy(tri, rhs):
            shapes.append(rhs.shape)
            return banded(tri, rhs)

        def lu_spy(a, b):
            dense.append(a.shape)
            return lu(a, b)

        monkeypatch.setattr(solver, "_solve_lines_tridiagonal", banded_spy)
        monkeypatch.setattr(np.linalg, "solve", lu_spy)
        tel = PassTelemetry()
        advance_sweep_axis(field, 0, 0.1, setup, NewtonConfig(), tel)
        iterations = tel.newton_iterations // g.n_cells  # L per pass iteration
        assert iterations >= 2
        assert shapes == [(g.n_cells**2, 3)] * iterations
        assert dense == []

    def test_s1_peak_speed_covers_every_line(self):
        g = grid_2d(3.0, 0.25)
        setup = build_setup(nonlocal_fokker_planck(g), "s1", stage="midpoint")
        field = smooth_field(g, shift=0.6)
        dt = g.dx**2 / 8
        tel = PassTelemetry()
        swept = advance_sweep_axis(field, 0, dt, setup, NewtonConfig(), tel)
        # A fresh pass problem's face velocities at the swept lines.
        kernel = setup.kernel
        row_kernel = kernel.row_kernels[0]
        problem = line_problem(setup, field.T.copy(), dt, setup.model.v_table.T, row_kernel,
                               across=PassMomentBackground(kernel, field, 0))
        u = problem.potential(swept.T.ravel())[1]
        assert tel.max_velocity == np.abs(u).max() > 0.0


def _stalled_pass_field():
    """8x8 data on which the one Newton system of an S2 midpoint pass along axis 0
    under W = |x|^2/2, dt = 98, reaches its root only through continuation in
    dt; test_recorded_fields also solves it by the stage loop."""
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
    # Both axes, and the model's quadratic kernel or a Gaussian well, in turn.
    variants = list(itertools.product([0, 1], [False, True]))

    @pytest.mark.parametrize("seed", range(60))
    def test_each_stage_conserves_mass_and_dissipates(self, seed):
        rng = np.random.default_rng(seed)
        axis, gaussian = self.variants[seed % len(self.variants)]
        field = draws.floats(rng, self.g.shape, 0.0, 10.0, subnormal=False)
        dt = draws.floats(rng, (), 1e-4, 100.0, log=True)
        self._check_pass(field, dt, axis, gaussian)

    @pytest.mark.parametrize("field, dt", [(_stalled_pass_field(), 98.0),
                                           (_near_vacuum_field(), 38.0)],
                             ids=["stalled_pass", "near_vacuum"])
    def test_recorded_fields(self, field, dt):
        # The quadratic pass as one Newton system, and as the stage loop that
        # an untagged copy of its table (no exact_form) routes to: each keeps
        # every stage's guarantees, and both reach the same root.
        swept = self._check_pass(field, dt, 0, False)
        staged = self._check_pass(field, dt, 0, False, untagged=True)
        assert np.abs(staged - swept).max() <= 1e-12 * np.abs(swept).max()

    def _check_pass(self, field, dt, axis, gaussian, untagged=False):
        g = self.g
        model = nonlocal_fokker_planck(g)
        base = build_setup(model, "s2", stage="midpoint")
        kernel = tabulate_kernel(Gaussian(0.5, -1.0), g) if gaussian else base.kernel
        if untagged:
            kernel = KernelTable(kernel.values, kernel.cell_measure)
        setup = SchemeSetup(base.scheme, model, kernel)
        # The Newton tolerance is absolute on R*dt, whose roundoff floor is
        # about eps*dt*max(rho)*max|xi|/dx^2 (|H'| <= 40 above the vacuum
        # floor); it is set above that floor so that every example can converge.
        xi = np.abs(convolve(kernel, field)).max() + 40.0
        floor = np.finfo(float).eps * dt * field.max() * xi / g.dx**2
        cfg = NewtonConfig(tolerance=max(1e-10, 4.0 * floor))
        slack = 10 * cfg.tolerance
        mass0 = field.sum() * g.cell_measure
        energies = [discrete_energy(field, model, kernel).total]
        swept = advance_sweep_axis(field, axis, dt, setup, cfg)
        for working in stage_fields(field, swept, axis):
            assert abs(working.sum() * g.cell_measure - mass0) <= slack * (1 + mass0)
            assert working.min() >= -slack
            clipped = np.maximum(working, 0.0)
            energies.append(discrete_energy(clipped, model, kernel).total)
            assert energies[-1] <= energies[-2] + 10 * slack * (1 + abs(energies[-2]))
        assert len(energies) == g.n_cells + 1
        return swept

    def test_long_step_next_to_vacuum(self):
        # Newton from the old state misses this stage's root; the S2 solve
        # reaches it by continuation in dt.
        g = self.g
        model = nonlocal_fokker_planck(g)
        base = build_setup(model, "s2", stage="midpoint")
        setup = SchemeSetup(base.scheme, model, tabulate_kernel(Gaussian(0.5, -1.0), g))
        field = np.full(g.shape, 4.0)
        field[0, 0] = 0.0
        out = advance_sweep_axis(field, 0, 5.0, setup, NewtonConfig())
        assert abs(out.sum() - field.sum()) <= 1e-9 * field.sum()
        assert out.min() > 0.0


class TestMatrixStepGuarantees:
    """One 2D step of every MODEL_MATRIX model on seeded 8x8 data keeps the guarantees.

    S2 takes the drawn dt; S1 keeps within its CFL bound by the step
    driver's halving. Under stage=auto a model without W, or with a
    negative definite W, takes split passes; under midpoint a model with W
    takes sweep passes. Each pass of the accepted attempt, and each stage of
    a sweep pass (``stage_fields``), conserves mass to 10*tol, stays above
    -10*tol and does not raise the discrete energy of its clipped field.
    """

    g = grid_2d(2.0, 0.5)
    SEEDS = range(4)

    @staticmethod
    def _record_passes(monkeypatch):
        """(input values, axis, output, swept) of every pass advance_step_2d makes."""
        passes = []
        for name in ("advance_split_axis", "advance_sweep_axis"):
            def recorded(rho, axis, *args, _pass=getattr(split2d, name),
                         _swept=name == "advance_sweep_axis"):
                out = _pass(rho, axis, *args)
                passes.append((split2d.field_values(rho), axis, out, _swept))
                return out

            monkeypatch.setattr(split2d, name, recorded)
        return passes

    @pytest.mark.parametrize("stage", ["auto", "midpoint"])
    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_every_pass_and_stage(self, name, kind, stage, monkeypatch):
        model = MODEL_MATRIX[name](self.g)
        setup = build_setup(model, kind, stage=stage)
        coupled = setup.kernel is not None and setup.scheme.stage_rule != "explicit"
        cfg = NewtonConfig()
        slack = 10 * cfg.tolerance
        passes = self._record_passes(monkeypatch)
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            field = draws.floats(rng, self.g.shape, 0.0, 5.0)
            dt = draws.floats(rng, (), 1e-3, 1.0, log=True)
            passes.clear()
            out = advance_step_2d(field, dt, setup, cfg)
            accepted = passes[-2:]  # the attempts before it were retried at a smaller dt
            assert [(axis, swept) for _, axis, _, swept in accepted] == [(0, coupled), (1, coupled)]
            assert np.array_equal(accepted[0][0], field)
            assert np.array_equal(accepted[1][2], out.field.values)
            states = [field]
            for before, axis, after, swept in accepted:
                states += list(stage_fields(before, after, axis)) if swept else [after]
            mass = field.sum() * self.g.cell_measure
            energy = clipped_energy(setup, field)
            for state in states[1:]:
                assert abs(state.sum() * self.g.cell_measure - mass) <= slack * (1 + mass), seed
                assert state.min() >= -slack, seed
                after = clipped_energy(setup, state)
                assert after <= energy + 100 * cfg.tolerance * (1 + abs(energy)), seed
                energy = after


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
