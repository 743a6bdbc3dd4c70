"""Newton solution of the implicit systems and the time step driver.

The schemes' updates are roots of a nonlinear residual. A damped Newton
iteration with vacuum regularization solves them; the second-order scheme's
CFL bound references the *converged* velocities, so it is enforced a
posteriori with time-step halving and re-solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import analysis, scheme1d
from .errors import DomainError, NewtonError, NumericalError, StepError
from .kernels import (
    KernelTable,
    classify_definiteness,
    select_stage_rule,
    tabulate_kernel,
)
from .model import DensityField, ModelSpec, field_values, sample_confinement
from .scheme1d import S2, LineProblem, SchemeConfig, Tridiagonal


@dataclass(frozen=True)
class NewtonConfig:
    """Newton controls. The tolerance is absolute on the max norm of R*dt."""

    tolerance: float = 1e-10
    max_iterations: int = 50
    jacobian_mode: str = "analytic"  # "analytic" | "fd"
    fd_step: float = 1e-7

    def __post_init__(self):
        if not self.tolerance > 0:
            raise DomainError("Newton tolerance must be positive")
        if self.max_iterations < 1:
            raise DomainError("Newton needs at least one iteration")
        if self.jacobian_mode not in ("analytic", "fd"):
            raise DomainError(f"unknown jacobian mode {self.jacobian_mode!r}")


@dataclass
class StepOutcome:
    """Accepted field plus solver telemetry for one time step."""

    field: DensityField
    iterations: int
    residual_norm: float
    dt_used: float
    cfl_retries: int
    energy_before: float | None = None
    energy_after: float | None = None
    row_solves: int = 1


@dataclass(frozen=True)
class SchemeSetup:
    """Pre-tabulated ingredients for stepping one model with one scheme."""

    scheme: SchemeConfig
    model: ModelSpec
    v_table: np.ndarray
    kernel: KernelTable | None

    @property
    def dx(self) -> float:
        return self.model.grid.dx

    @property
    def energy(self):
        return self.model.energy


def build_setup(model: ModelSpec, scheme, stage: str = "auto", theta: float = 2.0) -> SchemeSetup:
    """Tabulate V and W once and resolve the convolution stage rule.

    ``scheme`` is a SchemeConfig (used as-is) or a kind string, in which case
    ``stage`` may be "auto" to pick the rule from the kernel's definiteness.
    """
    v_table = sample_confinement(model.potentials, model.grid)
    if model.interaction is None:
        kernel = None
    else:
        kernel = tabulate_kernel(
            model.interaction, model.grid, singular=model.potentials.interaction_singular
        )
        if kernel.is_zero:
            kernel = None
    if isinstance(scheme, SchemeConfig):
        cfg = scheme
    else:
        if stage == "auto":
            if kernel is None:
                stage_rule = "midpoint"
            else:
                stage_rule = select_stage_rule(classify_definiteness(kernel))
        else:
            stage_rule = stage
        cfg = SchemeConfig(scheme, stage_rule, theta)
    return SchemeSetup(cfg, model, v_table, kernel)


def _solve_linear(jac, rhs):
    """Newton updates for the lines of rhs, shaped (lines, n)."""
    if isinstance(jac, Tridiagonal):
        return solve_banded((1, 1), jac.to_banded(), rhs.ravel()).reshape(rhs.shape)
    return np.linalg.solve(np.atleast_2d(jac), rhs[..., None])[..., 0]


def assemble_jacobian(residual_fn, rho, mode: str = "fd", analytic_fn=None, step: float = 1e-7):
    """Jacobian of residual_fn at rho.

    Finite-difference mode uses column-wise forward differences with
    increment step*max(|rho_j|, 1); on (..., n) lines the column is
    perturbed on every line at once, giving one (n, n) block per line.
    Analytic mode delegates to the scheme's exact assembly.
    """
    if mode == "analytic":
        if analytic_fn is None:
            raise DomainError("analytic jacobian requested but none provided")
        return analytic_fn(rho)
    x = np.asarray(rho, dtype=float)
    f0 = np.asarray(residual_fn(x), dtype=float)
    n = x.shape[-1]
    jac = np.empty(f0.shape + (n,))
    for j in range(n):
        h = step * np.maximum(np.abs(x[..., j]), 1.0)
        xj = x.copy()
        xj[..., j] += h
        jac[..., j] = (np.asarray(residual_fn(xj), dtype=float) - f0) / h[..., None]
    return jac


MAX_LINE_SEARCH_HALVINGS = 30


def newton_solve(residual_fn, guess, config: NewtonConfig | None = None, jacobian=None):
    """Damped Newton iteration to max-norm tolerance, line by line.

    ``guess`` is a scalar, one line (n,) or a batch of independent lines
    (L, n). Each line has its own norm, convergence test, iteration count
    and line search: a step that increases the line's residual norm is
    halved, up to 30 times per iteration. A line whose last halving still
    increases its norm takes that tiny step once: it moves the iterate off a
    kink of the residual (a vacuum cell at the density floor, where the
    one-sided Jacobian points the wrong way). If its next line search runs
    out too, NewtonError is raised with the iterate before that step. Lines
    at tolerance drop out; while some do, the callables get ``(z, lines)``:
    the remaining lines and their batch indices. ``jacobian`` returns a
    Tridiagonal (one banded solve for every line) or, for one line, a dense
    matrix; when absent, finite differences of residual_fn are used. Raises
    NewtonError if any line misses the tolerance. Returns (root, iterations
    summed over lines, worst norm).
    """
    cfg = config or NewtonConfig()
    shape = np.shape(guess)
    x = np.atleast_2d(np.array(guess, dtype=float, order="C"))

    def shaped(z):
        return float(z[0, 0]) if not shape else z.reshape(shape)

    def call(fn, z, lines):
        if lines is not None:
            return fn(z, lines)
        return fn(shaped(z))

    def evaluate(z, lines=None):
        r = np.asarray(call(residual_fn, z, lines), dtype=float).reshape(z.shape)
        if not np.all(np.isfinite(r)):
            raise NumericalError("residual returned a non-finite value")
        return r

    r = evaluate(x)
    norm = np.abs(r).max(axis=1)
    iterations = np.zeros(len(x), dtype=int)
    stalled = np.zeros(len(x), dtype=bool)  # the line's last line search ran out
    for _ in range(cfg.max_iterations):
        active = norm > cfg.tolerance
        if not active.any():
            break
        # Indexing the active lines is skipped while every line is active.
        lines = None if active.all() else np.flatnonzero(active)
        xa, ra, na = (x, r, norm) if lines is None else (x[lines], r[lines], norm[lines])
        if jacobian is not None:
            jac = call(jacobian, xa, lines)
        else:
            jac = assemble_jacobian(lambda w: evaluate(w, lines), xa, step=cfg.fd_step)
        delta = _solve_linear(jac, -ra)
        step_x = xa + delta
        r_new = evaluate(step_x, lines)
        norm_new = np.abs(r_new).max(axis=1)
        halvings = 0
        while halvings < MAX_LINE_SEARCH_HALVINGS and (worse := norm_new > na).any():
            h = np.flatnonzero(worse)
            delta[h] *= 0.5
            step_x[h] = xa[h] + delta[h]
            sub = lines if worse.all() else h if lines is None else lines[h]
            r_new[h] = evaluate(step_x[h], sub)
            norm_new[h] = np.abs(r_new[h]).max(axis=1)
            halvings += 1
        # Still worse after every halving: the Newton step is no descent direction.
        exhausted = norm_new > na
        if (exhausted & (stalled if lines is None else stalled[lines])).any():
            raise NewtonError(
                f"Newton line search found no decrease in {halvings} halvings "
                f"on two iterations in a row (best norm {norm.max():g})",
                best_iterate=shaped(x),
                best_norm=float(norm.max()),
            )
        if lines is None:
            x, r, norm, stalled = step_x, r_new, norm_new, exhausted
            iterations += 1
        else:
            x[lines], r[lines], norm[lines], stalled[lines] = step_x, r_new, norm_new, exhausted
            iterations[lines] += 1
    root = shaped(x)
    worst = float(norm.max())
    if worst > cfg.tolerance:
        raise NewtonError(
            f"Newton did not reach tolerance {cfg.tolerance:g} in "
            f"{cfg.max_iterations} iterations (best norm {worst:g})",
            best_iterate=root,
            best_norm=worst,
        )
    return root, int(iterations.sum()), worst


_UNSET = object()


def line_problem(setup: SchemeSetup, rho_old, dt, v_table=None, kernel=_UNSET,
                 dx=None) -> LineProblem:
    """The setup's implicit step as a LineProblem on rho_old, shaped (..., n).

    ``v_table``/``kernel``/``dx`` override the setup's tables (``kernel=None``
    disables the interaction); the 2D passes give their per-line tables here.
    """
    sch = setup.scheme
    return LineProblem(
        sch.kind, rho_old, dt, setup.dx if dx is None else dx, setup.energy,
        setup.v_table if v_table is None else v_table,
        setup.kernel if kernel is _UNSET else kernel, sch.stage_rule, sch.theta,
    )


MAX_CONTINUATION_HALVINGS = 10


def solve_lines(problem: LineProblem, config: NewtonConfig | None = None, *, _depth: int = 0):
    """Newton on the update-form residual R*dt of every line of ``problem`` at once.

    Newton from the old state can miss the root of a long S2 step, e.g. under
    strong aggregation next to a vacuum cell. S2 then solves the step over
    dt/2 first (nested up to MAX_CONTINUATION_HALVINGS times) and restarts
    Newton from that root; the root moves continuously with dt. S1 halves
    the step itself instead (see ``drive_step``).

    Returns (rho_new, iterations summed over lines, worst norm).
    """
    cfg = config or NewtonConfig()
    dt = problem.dt

    def f(a, lines=None):
        return dt * problem.residual(a, lines)

    jac = None
    if cfg.jacobian_mode == "analytic":
        def jac(a, lines=None):
            j = problem.jacobian(a, lines)
            return j.scaled(dt) if isinstance(j, Tridiagonal) else dt * j

    try:
        return newton_solve(f, problem.old, cfg, jacobian=jac)
    except NewtonError:
        if problem.kind != S2 or _depth >= MAX_CONTINUATION_HALVINGS:
            raise
    start, iters, _ = solve_lines(problem.with_dt(0.5 * dt), cfg, _depth=_depth + 1)
    root, more, norm = newton_solve(f, start, cfg, jacobian=jac)
    return root, iters + more, norm


def implicit_step_1d(rho_old, dt, setup: SchemeSetup, config: NewtonConfig | None = None,
                     v_table=None, kernel=_UNSET, dx=None):
    """One implicit solve of the scheme (no CFL retry logic); see line_problem.

    Returns (rho_new, iterations, norm).
    """
    return solve_lines(line_problem(setup, rho_old, dt, v_table, kernel, dx), config)


MAX_CFL_HALVINGS = 20


def drive_step(attempt, rho, dt, setup: SchemeSetup, config: NewtonConfig | None = None,
               compute_energy: bool = True) -> StepOutcome:
    """One time step around ``attempt``, the only part that depends on dimension.

    ``attempt(values, dt, cfg) -> (new, iterations, worst_norm, row_solves,
    cfl_bound)`` solves the step. The input density is checked before any
    solve: a wrong shape, a non-finite value or a value below -10*tol raises
    DomainError. S1's CFL bound references the converged velocities, so a
    violation halves dt and re-solves; S1's implicit system may also be
    unsolvable well above the bound, so a NewtonError is retried smaller too.
    S2 reports non-convergence instead of guessing. At most MAX_CFL_HALVINGS
    retries. The accepted field must conserve mass and stay above -10*tol.
    """
    cfg = config or NewtonConfig()
    b = field_values(rho)
    grid = setup.model.grid
    tol = cfg.tolerance
    if b.shape != grid.shape:
        raise DomainError(f"density shape {b.shape} does not match the grid's {grid.shape}")
    if not np.all(np.isfinite(b)):
        raise DomainError("density must be finite")
    if b.min() < -10.0 * tol:
        raise DomainError(f"density dips to {b.min():g}, below -10*tol")

    energy_before = clipped_energy(setup, b, compute_energy)
    dt = float(dt)
    retries = 0
    while True:
        try:
            a, iters, norm, row_solves, bound = attempt(b, dt, cfg)
        except NewtonError:
            if setup.scheme.kind == S2 or retries >= MAX_CFL_HALVINGS:
                raise
        else:
            if dt <= bound * (1.0 + 1e-12):
                break
            if retries >= MAX_CFL_HALVINGS:
                raise StepError(
                    f"CFL halving exhausted after {retries} retries (dt={dt:g}, bound={bound:g})"
                )
        dt *= 0.5
        retries += 1

    if a.min() < -10.0 * tol:
        raise StepError(f"accepted field dips to {a.min():g}, below -10*tol")
    mass_new = a.sum() * grid.cell_measure
    mass_old = b.sum() * grid.cell_measure
    if abs(mass_new - mass_old) > 10.0 * tol * (1.0 + abs(mass_old)):
        raise StepError(f"mass drifted by {mass_new - mass_old:g} over one step")

    field = DensityField(a, grid, min_allowed=10.0 * tol)
    return StepOutcome(field, iters, norm, dt, retries, energy_before,
                       clipped_energy(setup, a, compute_energy), row_solves)


def advance_step_1d(rho_old, dt_request, setup: SchemeSetup, config: NewtonConfig | None = None,
                    compute_energy: bool = True) -> StepOutcome:
    """Advance one 1D time step (see drive_step); S2 accepts any dt."""

    def attempt(values, dt, cfg):
        problem = line_problem(setup, values, dt)
        a, iters, norm = solve_lines(problem, cfg)
        # S2 has no bound; skipping it saves one potential evaluation per step.
        bound = np.inf if problem.kind == S2 else scheme1d.max_stable_dt(
            problem.kind, problem.velocity(a), setup.dx, order=2)
        return a, iters, norm, 1, bound

    return drive_step(attempt, rho_old, dt_request, setup, config, compute_energy)


def clipped_energy(setup: SchemeSetup, values, compute: bool = True):
    """Discrete energy of max(values, 0), or None when not computed."""
    if not compute:
        return None
    return analysis.discrete_energy(np.maximum(values, 0.0), setup.model, setup.kernel).total
