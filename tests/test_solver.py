"""Newton iteration, Jacobian assembly, and the 1D step driver."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

import draws
from aggdiff import analysis, solver
from aggdiff.experiments import step
from aggdiff.kernels import (
    EXPLICIT,
    IMPLICIT,
    INDETERMINATE,
    MIDPOINT,
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    KernelTable,
    classify_definiteness,
    tabulate_kernel,
)
from aggdiff.model import DensityField, InternalEnergy, ModelSpec, TabulatedInteraction
from aggdiff.scheme1d import (
    S1,
    S2,
    LineProblem,
    SchemeConfig,
    Tridiagonal,
    TridiagonalLowRank,
    residual_jacobian,
)
from aggdiff.errors import DomainError, NewtonError, NumericalError, StepError
from aggdiff.presets import (
    MODEL_MATRIX,
    aggregation_diffusion,
    grid_1d,
    grid_2d,
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


class TestNewtonConfig:
    """A field that no solve can use is refused by name."""

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(DomainError, match="tolerance must be positive and finite"):
            NewtonConfig(tolerance=tolerance)

    @pytest.mark.parametrize("count", [2.5, 3.0])
    def test_max_iterations_must_be_an_integer(self, count):
        with pytest.raises(DomainError, match="max_iterations must be an integer >= 1"):
            NewtonConfig(max_iterations=count)
        assert NewtonConfig(max_iterations=np.int64(3)).max_iterations == 3


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


# One-state layouts of a 6-cell state: a line (n,), a batch of one line (1, n),
# and a sweep pass of 2 lines of 3 cells laid end to end (L*n,), whose
# Jacobian is a TridiagonalLowRank (here with zero low-rank factors).
PASS_LINES = 2
LAYOUTS = ["line", "row", "pass"]


def _one_state(layout, line):
    return line[None] if layout == "row" else line.copy()


def _one_state_jacobian(layout, slope):
    """_diagonal's Jacobian, as the layout's solve takes it."""
    if layout != "pass":
        return _diagonal(slope)

    def jacobian(x):
        s = slope(x).reshape(PASS_LINES, -1)
        lines, n = s.shape
        tri = Tridiagonal(np.zeros((lines, n - 1)), s, np.zeros((lines, n - 1)))
        return TridiagonalLowRank(tri, np.zeros((2, lines, n)), np.zeros((n, 2)), 2.0)

    return jacobian


@pytest.mark.parametrize("layout", LAYOUTS)
class TestBothNewtonLoopsAlike:
    """A one-state guess against a batch of two copies of it.

    The shape of the guess picks newton_solve's loop: the one-state loop
    here, the batched loop for the copies. Each copy must take the one
    state's iterates, so both fail with the same message, after as many
    residual evaluations, and carry the same best iterate bit for bit.
    """

    line = np.array([0.7, 0.3, -1.2, 2.0, 0.5, -0.4])

    def _both(self, layout, residual, slope, line, config=None):
        """(one, batch): the error each solve raises, and its residual calls."""
        outcomes = []
        for guess, jacobian in ((_one_state(layout, line), _one_state_jacobian(layout, slope)),
                                (np.stack([line, line]), _diagonal(slope))):
            calls = []

            def counted(z, lines=None):
                calls.append(z.shape)
                return residual(z)

            with pytest.raises((NewtonError, NumericalError)) as info:
                newton_solve(counted, guess, config, jacobian=jacobian)
            outcomes.append((info.value, len(calls)))
        (one, one_calls), (batch, batch_calls) = outcomes
        assert type(one) is type(batch) and str(one) == str(batch)
        assert one_calls == batch_calls
        if isinstance(one, NewtonError):
            assert one.best_iterate.shape == _one_state(layout, line).shape
            best = one.best_iterate.reshape(-1).tobytes()
            assert best == batch.best_iterate[0].tobytes() == batch.best_iterate[1].tobytes()
            assert one.best_norm == batch.best_norm
        return one

    def test_exhausted_line_search(self, layout):
        error = self._both(layout, lambda x: np.abs(x) + 1.0, np.ones_like, np.zeros(6))
        assert "no decrease in 30 halvings on two iterations in a row" in str(error)
        assert error.best_norm == 1.0 + 2.0**-30  # after the one tiny step taken

    def test_max_iterations(self, layout):
        error = self._both(layout, lambda x: x * x + 1.0, lambda x: 2.0 * x, self.line,
                           NewtonConfig(max_iterations=3))
        assert "did not reach tolerance 1e-10 in 3 iterations" in str(error)

    def test_nan_residual(self, layout):
        error = self._both(layout, lambda x: np.full(x.shape, np.nan), np.ones_like, self.line)
        assert str(error) == "residual returned a non-finite value"

    def test_singular_jacobian(self, layout):
        error = self._both(layout, lambda x: x - np.arange(1.0, 7.0), np.zeros_like, np.zeros(6))
        assert "singular to working precision" in str(error)
        assert error.best_iterate.tobytes() == np.zeros(6).tobytes() and error.best_norm == 6.0

    def test_states_seen_stay_unchanged(self, layout):
        # From 3, atan's undamped Newton diverges, so the line search halves.
        line = np.array([3.0, 0.5, -2.0, 0.1, 0.2, 1.5])
        slope = lambda x: 1.0 / (1.0 + x * x)  # noqa: E731
        results = []
        for guess, jacobian in ((_one_state(layout, line), _one_state_jacobian(layout, slope)),
                                (np.stack([line, line]), _diagonal(slope))):
            seen = []

            def spy(z, lines=None):
                seen.append((z, z.tobytes()))
                return np.arctan(z)

            results.append(newton_solve(spy, guess, jacobian=jacobian))
            assert len(seen) > 4
            assert all(z.tobytes() == before for z, before in seen)
        (root, iters, norm), (roots, batch_iters, batch_norm) = results
        assert np.abs(root).max() <= 1e-10
        assert root.shape == _one_state(layout, line).shape
        assert root.reshape(-1).tobytes() == roots[0].tobytes() == roots[1].tobytes()
        assert 2 * iters == batch_iters and norm == batch_norm


class TestBandedFiniteCheck:
    """The banded solve's finite-input check: one sum, then entry by entry only if needed."""

    n = 6

    def _system(self, k, scale=1.0):
        rng = np.random.default_rng(k)
        tri = Tridiagonal(scale * (rng.random(self.n - 1) - 0.5), scale * (4.0 + rng.random(self.n)),
                          scale * (rng.random(self.n - 1) - 0.5))
        rhs = scale * rng.uniform(-1.0, 1.0, self.n if k == 1 else (self.n, k))
        return tri, rhs

    @pytest.mark.parametrize("k", [1, 3])
    def test_finite_entries_whose_sum_overflows_still_solve(self, k):
        tri, rhs = self._system(k, scale=1e308 / 5.0)  # entries up to 1e308
        with np.errstate(over="ignore", invalid="ignore"):  # the check's own sum overflows
            assert not np.isfinite(tri.diag.sum())
            got = solver._solve_lines_tridiagonal(tri, rhs)
        ab = np.zeros((3, self.n))
        ab[0, 1:], ab[1], ab[2, :-1] = tri.upper, tri.diag, tri.lower
        expected = solve_banded((1, 1), ab, rhs)
        assert np.isfinite(got).all() and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["lower", "diag", "upper", "rhs"])
    def test_non_finite_entry_is_rejected(self, where, bad, k):
        tri, rhs = self._system(k)
        (rhs if where == "rhs" else getattr(tri, where)).flat[2] = bad
        with pytest.raises(ValueError, match=r"^array must not contain infs or NaNs$"):
            solver._solve_lines_tridiagonal(tri, rhs)

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (2, 6)], ids=["line", "row", "batch"])
    def test_newton_reports_the_rejected_input(self, shape):
        def jacobian(x, lines=None):
            diag = np.ones(x.shape)
            diag[..., 3] = np.nan
            return Tridiagonal(np.zeros(diag.shape[:-1] + (5,)), diag, np.zeros(diag.shape[:-1] + (5,)))

        message = "the Newton linear solve rejected its input: array must not contain infs or NaNs"
        with pytest.raises(NumericalError, match=f"^{message}$"):
            newton_solve(lambda x, lines=None: x - 1.0, np.zeros(shape), jacobian=jacobian)


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
            return new, iters, norm, g.dx / (2.0 * np.abs(problem.potential(new)[1]).max())

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

    def attempt(field, dt, cfg, tel):
        tel.max_velocity = speed
        return field.values.copy()

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
        solver.solve_lines(problem)
        tel.absorb(problem, 3, 1e-12)
        assert (tel.max_velocity, tel.row_solves, tel.newton_iterations) == (0.0, 1, 3)


class TestPostStepGuards:
    """drive_step refuses an attempt whose result breaks a guarantee, naming the breach."""

    g = grid_1d(2.0, 0.5)

    def _attempt(self, change):
        """An attempt that reports one Newton iteration and returns the field after ``change``."""

        def attempt(field, dt, cfg, tel):
            tel.newton_iterations = 1
            new = field.values.copy()
            change(new)
            return new

        return attempt

    def _drive(self, attempt, kind="s2"):
        setup = build_setup(heat(self.g), kind, stage="midpoint")
        return drive_step(attempt, np.ones(self.g.n_cells), 0.1, setup)

    def test_leaked_mass(self):
        def leak(new):
            new[3] += 1e-8 / self.g.dx  # 1e-8 of mass, above 10*tol*(1 + mass)

        with pytest.raises(StepError, match="mass drifted by 1e-08 over one step"):
            self._drive(self._attempt(leak))

    def test_dip_below_the_slack(self):
        def dip(new):
            new[3] = -1e-8  # below -10*tol

        with pytest.raises(StepError, match="accepted field dips to -1e-08, below -10\\*tol"):
            self._drive(self._attempt(dip))

    def test_s1_bound_never_met(self):
        # dx / (2 * 1e12) lies below dt / 2^20, so every halving misses it.
        with pytest.raises(StepError, match="CFL halving exhausted after 20 retries"):
            self._drive(_fixed_speed_attempt(1e12), kind="s1")


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

    def test_kernel_classified_once_per_setup(self, monkeypatch):
        from aggdiff import kernels

        calls = []
        classify = kernels.classify_definiteness
        monkeypatch.setattr(kernels, "classify_definiteness",
                            lambda kernel: calls.append(1) or classify(kernel))
        g = grid_1d(4.0, 0.5)
        build_setup(heat(g), "s2")
        assert calls == []
        for stage in ("auto", "midpoint", "implicit"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                build_setup(nonlocal_fokker_planck(g), "s2", stage=stage)
        assert calls == [1, 1, 1]


class TestEnergyMonotonicityMatrix:
    """Per-step guarantees across the model family, both schemes, on seeded data.

    Each case, a model (the model matrix, plus the attractive Gaussian
    kernel, which the energy convolves) under a scheme, draws a density and
    a dt from each of SEEDS and takes three steps. S1 keeps within its CFL
    bound by the step driver's halving. Every step conserves mass, stays
    above -10*tol and does not raise the energy; the energy of a step's
    field, whose convolution the next step shares, equals that of its
    clipped values priced from scratch, bit for bit.
    """

    models = {**MODEL_MATRIX, "aggregation": aggregation_diffusion}
    SEEDS = range(4)

    @pytest.mark.parametrize("kind", [S1, S2])
    @pytest.mark.parametrize("name", sorted(models))
    def test_dissipation(self, kind, name):
        g = grid_1d(4.0, 0.25)
        model = self.models[name](g)
        setup = build_setup(model, kind, stage="auto")
        cfg = NewtonConfig()
        slack = 10 * cfg.tolerance
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            field = DensityField(draws.floats(rng, g.n_cells, 0.0, 5.0), g)
            dt = draws.floats(rng, (), 1e-3, 1.0, log=True)
            energy = clipped_energy(setup, field)
            for _ in range(3):
                new = advance_step_1d(field, dt, setup, cfg).field
                after = clipped_energy(setup, new)
                fresh = analysis.discrete_energy(np.maximum(new.values, 0.0), model, setup.kernel)
                assert abs(new.mass - field.mass) <= slack * (1 + field.mass), seed
                assert new.values.min() >= -slack, seed
                assert after == fresh.total, seed
                assert after <= energy + 100 * cfg.tolerance * (1 + abs(energy)), seed
                field, energy = new, after


class TestRandomKernelsUnderAutoStage:
    """Seeded random symmetric kernel tables under stage=auto keep the guarantees.

    Each table is drawn with a circulant spectrum of one sign (negative or
    positive definite) or as raw symmetric samples (mostly indeterminate).
    build_setup must pick a rule that the class classify_definiteness reports
    guarantees, without the warning a voided guarantee raises, and one S2
    step from a seeded density must conserve mass, stay above -10*tol and
    not raise the clipped energy.
    """

    GUARANTEED = {
        NEGATIVE_DEFINITE: {EXPLICIT, MIDPOINT},
        POSITIVE_DEFINITE: {IMPLICIT, MIDPOINT},
        INDETERMINATE: {MIDPOINT},
    }
    SEEDS = range(36)

    @staticmethod
    def _table(rng, shape, pattern):
        """A symmetric offset table: spectrum-signed for "negative"/"positive", else raw."""
        if pattern == "raw":
            values = draws.floats(rng, shape, -1.0, 1.0)
        else:
            spectrum = draws.floats(rng, shape, 0.1, 1.0, subnormal=False)
            spectrum = spectrum if pattern == "positive" else -spectrum
            values = np.fft.fftshift(np.fft.ifftn(spectrum).real)
        flipped = values[(slice(None, None, -1),) * values.ndim]
        return 0.5 * (values + flipped)  # symmetric bit for bit

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_auto_stage_is_guaranteed_and_dissipates(self, dimension):
        g = grid_1d(2.0, 0.25) if dimension == 1 else grid_2d(1.0, 0.25)
        cfg = NewtonConfig()
        slack = 10 * cfg.tolerance
        seen = set()
        for seed in self.SEEDS:
            rng = np.random.default_rng([seed, dimension])
            pattern = ("negative", "positive", "raw")[seed % 3]
            table = self._table(rng, (2 * g.n_cells - 1,) * dimension, pattern)
            samples = tuple(map(tuple, table)) if dimension == 2 else tuple(table)
            model = ModelSpec(InternalEnergy("entropy", 1.0), g,
                              interaction=TabulatedInteraction(samples))
            label = classify_definiteness(tabulate_kernel(model.interaction, g))
            seen.add(label)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a voided guarantee warns
                setup = build_setup(model, S2, stage="auto")
            assert setup.scheme.stage_rule in self.GUARANTEED[label], (seed, label)
            field = DensityField(draws.floats(rng, g.shape, 0.0, 5.0), g)
            dt = draws.floats(rng, (), 1e-3, 1.0, log=True)
            new = step(field, dt, setup, cfg).field
            assert abs(new.mass - field.mass) <= slack * (1 + field.mass), seed
            assert new.values.min() >= -slack, seed
            energy = clipped_energy(setup, field)
            assert clipped_energy(setup, new) <= energy + 100 * cfg.tolerance * (1 + abs(energy)), seed
        assert seen == set(self.GUARANTEED)


class TestClippedEnergy:
    """clipped_energy of a DensityField equals that of its values, bit for bit."""

    @pytest.mark.parametrize("entry", [0.25, 0.0, -0.0, -5e-324, -1e-10])
    def test_field_priced_like_its_values(self, entry):
        g = grid_1d(2.0, 0.25)
        setup = build_setup(aggregation_diffusion(g), "s2")
        values = np.exp(-g.axis_centers() ** 2)
        values[3] = entry
        field = DensityField(values, g, min_allowed=1e-9)
        energy = clipped_energy(setup, field)
        assert energy == clipped_energy(setup, values)

    def test_field_priced_once_per_setup(self, monkeypatch):
        g = grid_1d(2.0, 0.25)
        setups = [build_setup(aggregation_diffusion(g), "s2") for _ in range(2)]
        field = DensityField(np.exp(-g.axis_centers() ** 2), g)
        calls = []
        energy = analysis.discrete_energy

        def counted(*args, **kwargs):
            calls.append(1)
            return energy(*args, **kwargs)

        monkeypatch.setattr(analysis, "discrete_energy", counted)
        prices = [clipped_energy(s, field) for s in (*setups, setups[1])]
        assert len(calls) == 2 and prices[0] == prices[1] == prices[2]


class TestStructuredSolve:
    """Woodbury on tridiagonal + rank 2 against LU of the dense coupled Jacobian."""

    n, dx = 16, 0.25
    offsets = dx * np.arange(-(n - 1), n)
    # Every kind, stage rule and kernel sign, in turn.
    variants = list(itertools.product([S1, S2], [IMPLICIT, MIDPOINT], [1.0, -1.0]))

    @pytest.mark.parametrize("seed", range(120))
    def test_matches_dense_lu(self, seed):
        rng = np.random.default_rng(seed)
        kind, stage, strength = self.variants[seed % len(self.variants)]
        old = draws.floats(rng, self.n, 0.0, 5.0, subnormal=False)
        change = draws.floats(rng, self.n, -0.5, 0.5)
        rhs = draws.floats(rng, self.n, -1.0, 1.0)
        dt = draws.floats(rng, (), 1e-3, 10.0, log=True)
        at = np.maximum(old + change, 0.0)
        values = 0.5 * strength * self.offsets**2
        form = "quadratic+" if strength > 0 else "quadratic-"
        energy = InternalEnergy("entropy", 1.0)
        v = 0.1 * np.arange(self.n)

        def unscaled(kernel):
            return residual_jacobian(kind, at, old, dt, self.dx, energy, v, kernel, stage)

        quadratic = KernelTable(values, self.dx, form)
        structured = unscaled(quadratic)
        dense = unscaled(KernelTable(values, self.dx))
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
        scaled = LineProblem(SchemeConfig(kind, stage), old, dt, self.dx, energy, v,
                             quadratic).update_jacobian(at)
        for j, scale in ((structured, 1.0), (scaled, dt)):
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
