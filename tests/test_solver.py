"""Newton iteration, Jacobian assembly, and the 1D step driver."""

import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from aggdiff import analysis, solver
from aggdiff.kernels import IMPLICIT, MIDPOINT, make_kernel_1d
from aggdiff.model import InternalEnergy
from aggdiff.scheme1d import S1, S2, LineProblem, SchemeConfig, TridiagonalLowRank
from aggdiff.errors import DomainError, NewtonError, NumericalError
from aggdiff.presets import (
    grid_1d,
    heat,
    linear_fokker_planck,
    nonlocal_fokker_planck,
    porous_medium,
)
from aggdiff.analysis import ReferenceSolution, sample_reference
from aggdiff.solver import (
    NewtonConfig,
    PassTelemetry,
    advance_step_1d,
    assemble_jacobian,
    build_setup,
    clipped_energy,
    drive_step,
    implicit_step_1d,
    newton_solve,
)


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started on invalid input")


def _diagonal(slope):
    """A Jacobian callable for a residual acting cell by cell, with dR_j/dx_j = slope(x_j)."""
    def jacobian(x, lines=None):
        return np.eye(x.shape[-1]) * slope(x)[..., None, :]
    return jacobian


class TestNewton:
    def test_one_cell_square_root(self):
        root, iters, norm = newton_solve(lambda x: x * x - 2.0, np.array([1.0]),
                                         jacobian=_diagonal(lambda x: 2.0 * x))
        assert abs(root[0] - np.sqrt(2.0)) <= 1e-10
        assert iters >= 1

    def test_already_converged_returns_unchanged(self):
        guess = np.array([1.0, 2.0])
        root, iters, norm = newton_solve(lambda x: np.zeros(2), guess,
                                         jacobian=_diagonal(np.ones_like))
        assert iters == 0
        assert np.array_equal(root, guess)

    def test_max_iterations_carries_best_iterate(self):
        cfg = NewtonConfig(max_iterations=3)
        # x^2 + 1 = 0 has no real root; Newton must give up.
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda x: x * x + 1.0, np.array([0.7]), cfg,
                         jacobian=_diagonal(lambda x: 2.0 * x))
        assert info.value.best_iterate is not None
        assert info.value.best_norm > 0

    def test_exhausted_line_search_raises(self):
        # |x| + 1 has no root and its least norm is at the guess: no halving
        # of any step reduces it. The Jacobian is its slope on x >= 0.
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda x: np.abs(x) + 1.0, np.zeros(3),
                         jacobian=_diagonal(np.ones_like))
        assert "halvings" in str(info.value)
        assert info.value.best_norm == pytest.approx(1.0)

    def test_exhausted_line_search_in_a_batch(self):
        # Line 0 converges in one iteration; line 1 cannot decrease. The
        # solve stops at line 1's second exhausted search, long before
        # max_iterations, and carries both lines.
        calls = []

        def f(z, lines=None):
            calls.append(z.shape[0])
            rows = np.arange(2) if lines is None else lines
            return np.where((rows == 1)[:, None], np.abs(z) + 1.0, z - 1.0)

        with pytest.raises(NewtonError) as info:
            newton_solve(f, np.zeros((2, 3)), jacobian=_diagonal(np.ones_like))
        best = info.value.best_iterate
        assert best.shape == (2, 3)
        assert np.abs(best[0] - 1.0).max() <= 1e-9
        assert info.value.best_norm == pytest.approx(1.0)
        # The guess, then two iterations of one trial and 30 halvings each
        # (63 calls), not max_iterations of them.
        assert len(calls) == 63

    def test_single_exhausted_search_recovers(self):
        # Porous medium from compactly supported data: the first Newton step
        # starts on the vacuum floor's kink and no halving of it decreases
        # the norm; the tiny step it takes moves the iterate off the kink.
        g = grid_1d(3.0, 0.25)
        setup = build_setup(porous_medium(g, 2.0), "s2", stage="midpoint")
        rho = sample_reference(ReferenceSolution("barenblatt", 1, exponent=2.0, mass=1.0), 1.0, g)
        _, iters, norm = implicit_step_1d(rho, 0.5, setup)
        assert norm <= NewtonConfig().tolerance and iters >= 2

    def test_nan_residual_raises_numerical_error(self):
        with pytest.raises(NumericalError):
            newton_solve(lambda x: np.array([np.nan]), np.array([1.0]),
                         jacobian=_diagonal(np.ones_like))

    def test_damping_handles_overshoot(self):
        # Strongly curved residual where full steps overshoot: atan has tiny
        # derivative far out, classic damping test. From 3 the undamped
        # iteration diverges (its first step lands near -9.5).
        root, _, _ = newton_solve(np.arctan, np.array([3.0]), NewtonConfig(max_iterations=50),
                                  jacobian=_diagonal(lambda x: 1.0 / (1.0 + x * x)))
        assert abs(root[0]) <= 1e-10

    @pytest.mark.parametrize("guess", [[3.0], [3.0, 0.5], [[3.0, 0.5], [0.1, 0.2]]],
                             ids=["one-cell", "one-line", "batch"])
    def test_states_seen_stay_unchanged(self, guess):
        # The callables may cache per state object (see LineProblem), so no
        # array handed to them may change afterwards: not by a line search's
        # halving, and not by the update of a batch's remaining lines.
        seen = []

        def spy(z, lines=None):
            seen.append((z, z.tobytes()))
            return np.arctan(z)

        root, _, _ = newton_solve(spy, np.array(guess),
                                  jacobian=_diagonal(lambda x: 1.0 / (1.0 + x * x)))
        assert np.abs(root).max() <= 1e-10
        assert len(seen) > 4
        assert all(z.tobytes() == before for z, before in seen)

    def test_vector_linear_system(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        rhs = np.array([1.0, 6.0])
        root, iters, _ = newton_solve(lambda x: a @ x - rhs, np.zeros(2), jacobian=lambda x: a)
        assert np.allclose(root, np.linalg.solve(a, rhs), atol=1e-10)

    def test_jacobian_is_required(self):
        with pytest.raises(TypeError):
            newton_solve(lambda x: x - 1.0, np.zeros(2))

    def test_scheme_solves_have_no_jacobian_mode(self):
        with pytest.raises(TypeError):
            NewtonConfig(jacobian_mode="fd")


class TestAssembleJacobian:
    def test_identity_residual(self):
        jac = assemble_jacobian(lambda x: x.copy(), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(jac, np.eye(3), atol=1e-7)

    def test_linear_residual(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5))
        jac = assemble_jacobian(lambda x: a @ x, rng.random(5))
        assert np.abs(jac - a).max() <= 1e-6 * np.abs(a).max()


class TestAdvanceStep:
    def test_uniform_state_is_stationary(self):
        g = grid_1d(2.0, 0.5)
        setup = build_setup(heat(g), "s2", stage="midpoint")
        rho = np.full(g.n_cells, 0.7)
        out = advance_step_1d(rho, 0.3, setup, NewtonConfig())
        assert out.iterations <= 1
        assert np.allclose(out.field.values, rho, atol=1e-12)

    def test_s2_positivity_with_vacuum_and_large_dt(self):
        g = grid_1d(2.0, 0.25)
        setup = build_setup(porous_medium(g, 3.0), "s2", stage="midpoint")
        rho = np.zeros(g.n_cells)
        rho[5:10] = [0.5, 1.0, 0.0, 1.0, 0.5]  # includes an interior zero cell
        cfg = NewtonConfig()
        out = advance_step_1d(rho, 10.0 * g.dx, setup, cfg)
        assert out.field.values.min() >= -10.0 * cfg.tolerance
        assert out.dt_used == 10.0 * g.dx

    def test_s1_energy_dissipates_on_linear_fp(self):
        g = grid_1d(5.0, 0.25)
        setup = build_setup(linear_fokker_planck(g), "s1", stage="midpoint")
        ref = ReferenceSolution("heat_kernel", 1)
        rho = sample_reference(ref, 0.5, g)
        out = advance_step_1d(rho, g.dx**2, setup, NewtonConfig())
        assert clipped_energy(setup, out.field.values) <= clipped_energy(setup, rho) + 1e-12

    def test_mass_conserved_per_step(self):
        g = grid_1d(3.0, 0.25)
        setup = build_setup(porous_medium(g, 2.0), "s2", stage="midpoint")
        ref = ReferenceSolution("barenblatt", 1, exponent=2.0, mass=1.0)
        rho = sample_reference(ref, 1.0, g)
        cfg = NewtonConfig()
        out = advance_step_1d(rho, 0.5, setup, cfg)
        assert abs(out.field.mass - rho.sum() * g.dx) <= 10 * cfg.tolerance * 2

    def test_newton_count_small_on_smooth_heat(self):
        # Quadratic convergence: a dt = dx implicit heat step needs few steps.
        g = grid_1d(15.0, 0.5)
        setup = build_setup(heat(g), "s2", stage="midpoint")
        ref = ReferenceSolution("heat_kernel", 1)
        rho = sample_reference(ref, 2.0, g)
        out = advance_step_1d(rho, g.dx, setup, NewtonConfig())
        assert out.iterations <= 8

    def test_s1_cfl_halves_when_requested_dt_too_big(self):
        g = grid_1d(5.0, 0.25)
        setup = build_setup(linear_fokker_planck(g), "s1", stage="midpoint")
        ref = ReferenceSolution("fp_steady", 1)
        rho = sample_reference(ref, 1.0, g) * (1 + 0.3 * np.cos(g.axis_centers()))
        rho = np.maximum(rho, 0.0)
        out = advance_step_1d(rho, 5.0, setup, NewtonConfig())
        assert out.cfl_retries >= 1
        assert out.dt_used < 5.0
        assert out.field.values.min() >= -1e-9

        # One pass, a single line solve, at the last halving that meets
        # dx / (2 max|u|) on its converged velocities; the one before missed it.
        def solve(dt):
            problem = solver.line_problem(setup, rho, dt)
            new, iters, norm = solver.solve_lines(problem)
            return new, iters, norm, g.dx / (2.0 * np.abs(problem.velocity(new)).max())

        new, iters, norm, bound = solve(out.dt_used)
        assert np.array_equal(out.field.values, new) and out.row_solves == 1
        assert (out.iterations, out.residual_norm) == (iters, norm)
        assert out.dt_used <= bound * (1 + 1e-12)
        assert 2.0 * out.dt_used > solve(2.0 * out.dt_used)[3] * (1 + 1e-12)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_bad_dt_fails_fast(self, dt):
        # No solve starts: no divide-by-zero warning, no Newton iterations.
        g = grid_1d(2.0, 0.5)
        rho = np.full(g.n_cells, 1.0)
        for kind in ("s1", "s2"):
            setup = build_setup(heat(g), kind, stage="midpoint")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    implicit_step_1d(rho, dt, setup)
                with pytest.raises(DomainError):
                    advance_step_1d(rho, dt, setup, NewtonConfig())

    @pytest.mark.parametrize("bad", ["nan", "inf", "negative", "shape"])
    def test_bad_density_fails_before_any_solve(self, bad, monkeypatch):
        g = grid_1d(2.0, 0.5)
        rho = np.full(g.n_cells, 1.0)
        if bad == "shape":
            rho = rho[:-1]
        else:
            rho[2] = {"nan": np.nan, "inf": np.inf, "negative": -1e-6}[bad]
        monkeypatch.setattr(solver, "solve_lines", _no_solve)
        for kind in ("s1", "s2"):
            setup = build_setup(heat(g), kind, stage="midpoint")
            with pytest.raises(DomainError):
                advance_step_1d(rho, 0.1, setup, NewtonConfig())

    def test_density_within_slack_is_accepted(self):
        g = grid_1d(2.0, 0.5)
        rho = np.full(g.n_cells, 1.0)
        rho[2] = -5.0 * NewtonConfig().tolerance  # DensityField's slack is 10*tol
        setup = build_setup(heat(g), "s2", stage="midpoint")
        out = advance_step_1d(rho, 0.1, setup, NewtonConfig())
        assert out.field.values.min() >= -10 * NewtonConfig().tolerance

    def test_step_computes_no_energy(self, monkeypatch):
        monkeypatch.setattr(analysis, "discrete_energy", _no_solve)
        g = grid_1d(2.0, 0.5)
        setup = build_setup(heat(g), "s2", stage="midpoint")
        out = advance_step_1d(np.full(g.n_cells, 1.0), 0.1, setup, NewtonConfig())
        assert out.dt_used == 0.1

    @pytest.mark.parametrize("dt", [2.0, 1.0, 0.5])
    def test_singular_newton_system_halves_dt(self, dt):
        # One occupied cell under an implicit |x|^2/2 stage: at dt = 1 a
        # Woodbury system is singular to working precision (a step from 2
        # halves into it). The failed solve is a NewtonError, so S1 halves dt
        # on until a step is accepted.
        g = grid_1d(4.0, 0.5)
        with pytest.warns(UserWarning, match="voids the energy-dissipation guarantee"):
            setup = build_setup(nonlocal_fokker_planck(g), "s1", stage="implicit")
        rho = np.zeros(g.n_cells)
        rho[7] = 1.0
        if dt == 1.0:
            with pytest.raises(NewtonError, match="singular"):
                solver.solve_lines(solver.line_problem(setup, rho, dt))
        out = advance_step_1d(rho, dt, setup, NewtonConfig())
        assert out.cfl_retries >= 1 and out.dt_used < dt
        assert out.field.mass == pytest.approx(g.dx)

    def test_singular_newton_system_carries_the_iterate(self):
        def residual(x):
            return x - np.array([1.0, 2.0])

        guess = np.array([0.0, 0.0])
        with pytest.raises(NewtonError, match="singular") as info:
            newton_solve(residual, guess, jacobian=lambda x: np.zeros((2, 2)))
        assert np.array_equal(info.value.best_iterate, guess)
        assert info.value.best_norm == 2.0


def _fixed_speed_attempt(speed):
    """An attempt that keeps the field and reports ``speed`` as its peak |u|."""

    def attempt(values, dt, cfg, tel):
        tel.max_velocity = speed
        return values.copy()

    return attempt


class TestCFLBound:
    """S1's bound dt <= dx / (2 max|u|), owned by the step driver."""

    def test_s1_halves_down_to_the_bound(self):
        g = grid_1d(2.0, 0.5)
        setup = build_setup(heat(g), "s1", stage="midpoint")
        out = drive_step(_fixed_speed_attempt(2.0), np.ones(g.n_cells), 1.0, setup)
        assert (out.dt_used, out.cfl_retries) == (0.125, 3)  # 0.5 / (2 * 2)

    def test_zero_velocity_is_unlimited(self):
        g = grid_1d(2.0, 0.5)
        setup = build_setup(heat(g), "s1", stage="midpoint")
        out = drive_step(_fixed_speed_attempt(0.0), np.ones(g.n_cells), 1e6, setup)
        assert (out.dt_used, out.cfl_retries) == (1e6, 0)

    def test_s2_records_no_velocity(self):
        # So S2's bound is infinite, at any dt.
        g = grid_1d(5.0, 0.25)
        setup = build_setup(linear_fokker_planck(g), "s2", stage="midpoint")
        rho = sample_reference(ReferenceSolution("heat_kernel", 1), 0.5, g)
        problem = solver.line_problem(setup, rho, 5.0)
        tel = PassTelemetry()
        tel.absorb(problem, solver.solve_lines(problem)[0], 3, 1e-12)
        assert (tel.max_velocity, tel.row_solves, tel.newton_iterations) == (0.0, 1, 3)


class TestStageOverride:
    def test_override_that_voids_the_guarantee_warns(self):
        g = grid_1d(4.0, 0.5)
        with pytest.warns(UserWarning, match="voids the energy-dissipation guarantee"):
            setup = build_setup(nonlocal_fokker_planck(g), "s2", stage="implicit")
        assert setup.scheme.stage_rule == IMPLICIT

    def test_guaranteed_override_is_silent(self):
        g = grid_1d(4.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            setup = build_setup(nonlocal_fokker_planck(g), "s2", stage="midpoint")
        assert setup.scheme.stage_rule == MIDPOINT

    def test_unknown_stage_rejected(self):
        g = grid_1d(4.0, 0.5)
        with pytest.raises(DomainError):
            build_setup(nonlocal_fokker_planck(g), "s2", stage="sideways")

    def test_unknown_stage_rejected_without_a_kernel(self):
        g = grid_1d(4.0, 0.5)
        with pytest.raises(DomainError, match="unknown stage rule 'sideways'"):
            build_setup(heat(g), "s2", stage="sideways")


class TestEnergyMonotonicityMatrix:
    """Per-step dissipation across the model family, both schemes."""

    @pytest.mark.parametrize("kind", ["s1", "s2"])
    @pytest.mark.parametrize(
        "name", ["heat", "pme_m2", "pme_m3", "linear_fp", "nonlinear_fp",
                 "nonlocal_fp", "bistable", "flocking"],
    )
    def test_dissipation(self, kind, name):
        from aggdiff.presets import MODEL_MATRIX

        g = grid_1d(4.0, 0.25)
        model = MODEL_MATRIX[name](g)
        setup = build_setup(model, kind, stage="auto")
        x = g.axis_centers()
        rho = np.exp(-((x - 0.3) ** 2))
        rho /= rho.sum() * g.dx
        cfg = NewtonConfig()
        dt = 0.5 if kind == "s2" else g.dx**2 / 4
        for _ in range(3):
            out = advance_step_1d(rho, dt, setup, cfg)
            before, after = clipped_energy(setup, rho), clipped_energy(setup, out.field.values)
            tol = 100 * cfg.tolerance * (1 + abs(before))
            assert after <= before + tol
            rho = out.field.values


class TestStructuredSolve:
    """Woodbury on tridiagonal + rank 2 against LU of the dense coupled Jacobian."""

    n, dx = 16, 0.25
    offsets = dx * np.arange(-(n - 1), n)
    density = st.floats(0.0, 5.0, allow_subnormal=False)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        old=hnp.arrays(float, n, elements=density),
        change=hnp.arrays(float, n, elements=st.floats(-0.5, 0.5)),
        rhs=hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)),
        kind=st.sampled_from([S1, S2]),
        stage=st.sampled_from([IMPLICIT, MIDPOINT]),
        strength=st.sampled_from([1.0, -1.0]),
        dt=st.floats(1e-3, 10.0),
    )
    def test_matches_dense_lu(self, old, change, rhs, kind, stage, strength, dt):
        at = np.maximum(old + change, 0.0)
        values = 0.5 * strength * self.offsets**2
        form = "quadratic+" if strength > 0 else "quadratic-"
        energy = InternalEnergy.entropy(1.0)
        v = 0.1 * np.arange(self.n)

        def problem(kernel):
            return LineProblem(SchemeConfig(kind, stage), old, dt, self.dx, energy, v, kernel)

        quadratic = problem(make_kernel_1d(values, self.dx, form))
        structured = quadratic.jacobian(at)
        dense = problem(make_kernel_1d(values, self.dx)).jacobian(at)
        assert isinstance(structured, TridiagonalLowRank) and isinstance(dense, np.ndarray)
        assert np.abs(structured.to_dense() - dense).max() <= 1e-12 * np.abs(dense).max()
        # LU is the reference where the answer is well determined. A Jacobian
        # singular to working precision (e.g. S1 with one occupied cell at
        # dt = 2) or a subnormal right-hand side (whose solution rounds to the
        # absolute grid of gradual underflow) leaves two solvers free to
        # differ; there the Woodbury solve must raise LinAlgError or have a
        # small backward error, up to that grid's spacing.
        subnormal = (rhs != 0) & (np.abs(rhs) < np.finfo(float).tiny)
        well_posed = np.linalg.cond(dense) < 1e12 and not subnormal.any()
        for j, scale in ((structured, 1.0), (quadratic.update_jacobian(at), dt)):
            if well_posed:
                expected = np.linalg.solve(scale * dense, rhs)
                got = solver._solve_linear(j, rhs[None])[0]
                assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()
                continue
            try:
                got = solver._solve_linear(j, rhs[None])[0]
            except np.linalg.LinAlgError:
                continue
            norm = np.abs(scale * dense).sum(axis=1).max()
            grid = self.n * norm * np.finfo(float).smallest_subnormal
            backward = np.abs(scale * dense @ got - rhs).max()
            assert backward <= 1e-10 * norm * np.abs(got).max() + grid
