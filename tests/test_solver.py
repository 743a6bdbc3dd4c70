"""Newton iteration, Jacobian assembly, and the 1D step driver."""

import warnings

import numpy as np
import pytest

from aggdiff import solver
from aggdiff.errors import DomainError, NewtonError, NumericalError
from aggdiff.presets import grid_1d, heat, linear_fokker_planck, porous_medium
from aggdiff.analysis import ReferenceSolution, sample_reference
from aggdiff.solver import (
    NewtonConfig,
    advance_step_1d,
    assemble_jacobian,
    build_setup,
    implicit_step_1d,
    newton_solve,
)


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started on invalid input")


class TestNewton:
    def test_scalar_square_root(self):
        root, iters, norm = newton_solve(lambda x: x * x - 2.0, 1.0)
        assert abs(root - np.sqrt(2.0)) <= 1e-10
        assert iters >= 1

    def test_already_converged_returns_unchanged(self):
        guess = np.array([1.0, 2.0])
        root, iters, norm = newton_solve(lambda x: np.zeros(2), guess)
        assert iters == 0
        assert np.array_equal(root, guess)

    def test_max_iterations_carries_best_iterate(self):
        cfg = NewtonConfig(max_iterations=3)
        # x^2 + 1 = 0 has no real root; Newton must give up.
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda x: x * x + 1.0, 0.7, cfg)
        assert info.value.best_iterate is not None
        assert info.value.best_norm > 0

    def test_exhausted_line_search_raises(self):
        # |x| + 1 has no root and its least norm is at the guess: no halving
        # of any step reduces it.
        with pytest.raises(NewtonError) as info:
            newton_solve(lambda x: np.abs(x) + 1.0, np.zeros(3))
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
            newton_solve(f, np.zeros((2, 3)))
        best = info.value.best_iterate
        assert best.shape == (2, 3)
        assert np.abs(best[0] - 1.0).max() <= 1e-9
        assert info.value.best_norm == pytest.approx(1.0)
        # Two iterations of an FD Jacobian and 30 halvings (71 calls), not
        # max_iterations of them.
        assert len(calls) < 100

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
            newton_solve(lambda x: np.array([np.nan]), np.array([1.0]))

    def test_damping_handles_overshoot(self):
        # Strongly curved residual where full steps overshoot: atan has tiny
        # derivative far out, classic damping test.
        root, _, _ = newton_solve(np.arctan, 1.3, NewtonConfig(max_iterations=50))
        assert abs(root) <= 1e-10

    def test_vector_linear_system(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        rhs = np.array([1.0, 6.0])
        root, iters, _ = newton_solve(lambda x: a @ x - rhs, np.zeros(2))
        assert np.allclose(root, np.linalg.solve(a, rhs), atol=1e-10)


class TestAssembleJacobian:
    def test_identity_residual(self):
        jac = assemble_jacobian(lambda x: x.copy(), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(jac, np.eye(3), atol=1e-7)

    def test_linear_residual(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5))
        jac = assemble_jacobian(lambda x: a @ x, rng.random(5))
        assert np.abs(jac - a).max() <= 1e-6 * np.abs(a).max()

    def test_analytic_mode_requires_callable(self):
        with pytest.raises(Exception):
            assemble_jacobian(lambda x: x, np.ones(2), mode="analytic")


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
        assert out.energy_after <= out.energy_before + 1e-12

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

    def test_fd_and_analytic_jacobians_reach_same_root(self):
        g = grid_1d(3.0, 0.25)
        ref = ReferenceSolution("heat_kernel", 1)
        rho = sample_reference(ref, 0.5, g)
        roots = []
        for mode in ("analytic", "fd"):
            setup = build_setup(heat(g), "s2", stage="midpoint")
            cfg = NewtonConfig(jacobian_mode=mode)
            out = advance_step_1d(rho, 0.1, setup, cfg)
            roots.append(out.field.values)
        assert np.abs(roots[0] - roots[1]).max() <= 1e-9

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

    def test_energy_can_be_skipped(self):
        g = grid_1d(2.0, 0.5)
        setup = build_setup(heat(g), "s2", stage="midpoint")
        out = advance_step_1d(
            np.full(g.n_cells, 1.0), 0.1, setup, NewtonConfig(), compute_energy=False
        )
        assert out.energy_before is None and out.energy_after is None


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
            tol = 100 * cfg.tolerance * (1 + abs(out.energy_before))
            assert out.energy_after <= out.energy_before + tol
            rho = out.field.values
