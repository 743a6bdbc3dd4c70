"""Newton solution of the implicit systems and the time step driver.

The schemes' updates are roots of a nonlinear residual. A damped Newton
iteration with vacuum regularization solves them. The step driver owns the
second-order scheme's CFL bound, dt <= dx / (2 max|u|): it references the
*converged* face velocities, so it is enforced a posteriori with time-step
halving and re-solves.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from . import analysis
from .errors import DomainError, NewtonError, NumericalError, StepError
from .kernels import EXPLICIT, QUADRATIC_FORMS, KernelTable, select_stage_rule, tabulate_kernel
from .model import DensityField, ModelSpec, field_values
from .scheme1d import S1, S2, LineProblem, SchemeConfig, Tridiagonal, TridiagonalLowRank


def _fix_heap_thresholds():
    """Fix glibc's malloc thresholds, so that a step's freed arrays stay in the process.

    glibc starts its mmap and trim thresholds at 128 KiB and raises them as
    mmapped blocks are freed. So the process's earlier frees, set-up and
    imports included, decided whether a Newton iteration's freed arrays went
    back to the kernel (unmapped, or trimmed off the heap's top) and were
    faulted in again, page by page, by the next one: 25k-95k minor faults on
    some 2D runs, where an 80x80 sweep needs about 400. With fixed thresholds
    no block under 32 MiB is mmapped, and the heap is trimmed only once 64 MiB
    at its top are free. Where the C library has no mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_fix_heap_thresholds()  # before any step: a step needs this module


@dataclass(frozen=True)
class NewtonConfig:
    """Newton controls. The tolerance is absolute on the max norm of R*dt.

    Scheme solves always use the exact Jacobian (see solve_lines).
    """

    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        count = self.max_iterations
        if not isinstance(count, Integral) or count < 1:
            raise DomainError(f"max_iterations must be an integer >= 1, got {count!r}")


@dataclass
class StepOutcome:
    """Accepted field plus solver telemetry for one time step."""

    field: DensityField
    iterations: int
    residual_norm: float
    dt_used: float
    cfl_retries: int
    row_solves: int


@dataclass(frozen=True)
class SchemeSetup:
    """Pre-tabulated ingredients for stepping one model with one scheme.

    ``kernel`` is W's table, None when W is absent or zero; V's is ``model.v_table``.
    A 2D pass's lines are ``coupled`` through a kernel not staged explicitly.
    """

    scheme: SchemeConfig
    model: ModelSpec
    kernel: KernelTable | None

    @property
    def coupled(self) -> bool:
        return self.kernel is not None and self.scheme.stage_rule != EXPLICIT


def build_setup(model: ModelSpec, scheme: str, stage: str = "auto",
                theta: float = 2.0) -> SchemeSetup:
    """Tabulate V and W once and resolve the convolution stage rule.

    ``scheme`` is the scheme kind, S1 or S2; select_stage_rule resolves
    ``stage`` against the kernel. An unknown kind, stage rule or theta raises
    DomainError here, before any step. A 2D step FFT-convolves every table
    but a coupled sweep's quadratic one, which works from moments; W's
    spectrum (and scipy.fft) is taken here for the others, not in a step.
    """
    model.v_table  # V is tabulated here, once per model, so a misshapen one fails here too
    if model.interaction is None:
        kernel = None
    else:
        kernel = tabulate_kernel(model.interaction, model.grid)
        if kernel.is_zero:
            kernel = None
    setup = SchemeSetup(SchemeConfig(scheme, select_stage_rule(kernel, stage), theta),
                        model, kernel)
    if model.grid.dimension == 2 and kernel is not None and not (
            setup.coupled and kernel.exact_form in QUADRATIC_FORMS):
        kernel.spectrum
    return setup


_GTSV = get_lapack_funcs("gtsv", dtype=np.float64)

# The reductions behind ndarray.sum, .min and .max (with axis=None), without
# their Python wrappers: the same calls, so the same bits.
_sum, _min, _max = np.add.reduce, np.minimum.reduce, np.maximum.reduce


def _solve_lines_tridiagonal(tri, rhs):
    """One gtsv for the Tridiagonal lines of ``tri`` laid end to end, rhs shaped (N,) or (N, k).

    The band entries that would couple the last cell of one line to the first
    of the next are zero, so the one solve treats every line alone. This is
    the LAPACK routine scipy.linalg.solve_banded calls for (1, 1) bands,
    without its per-call wrapper: the same bits, and the same finite-input
    check and LinAlgError on a singular matrix. The check is one sum of the
    four arrays: a finite sum has finite terms only. Only a sum that is not
    finite (an inf or NaN entry, or finite entries whose sum overflows) has
    the arrays checked entry by entry.
    """
    n = tri.diag.shape[-1]
    diag = tri.diag.reshape(-1)
    own_bands = diag.size != n  # bands made here, which gtsv may overwrite
    if own_bands:
        lower, upper = np.empty(diag.size), np.empty(diag.size)
        rows = lower.reshape(-1, n)
        rows[:, :-1] = tri.lower.reshape(-1, n - 1)
        rows[:, -1] = 0.0
        rows = upper.reshape(-1, n)
        rows[:, 1:] = tri.upper.reshape(-1, n - 1)
        rows[:, 0] = 0.0
        lower, upper = lower[:-1], upper[1:]
    else:
        lower, upper = tri.lower.reshape(-1), tri.upper.reshape(-1)
    finite_sum = _sum(lower) + _sum(diag) + _sum(upper) + _sum(rhs, axis=None)
    if not math.isfinite(finite_sum) and not (
            np.isfinite(lower).all() and np.isfinite(diag).all()
            and np.isfinite(upper).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = _GTSV(lower, diag, upper, rhs,
                             overwrite_dl=own_bands, overwrite_du=own_bands)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def _solve_linear(jac, rhs):
    """Newton updates for rhs, shaped like the state: one state, or (lines, n).

    A Tridiagonal is one gtsv over every line laid end to end. A
    TridiagonalLowRank, a sweep pass's or a single coupled line's, goes to
    _solve_pass. Any other Jacobian is a dense matrix, solved by LU.
    """
    if isinstance(jac, Tridiagonal):
        return _solve_lines_tridiagonal(jac, rhs.ravel()).reshape(rhs.shape)
    if isinstance(jac, TridiagonalLowRank):
        return _solve_pass(jac, rhs)
    return np.linalg.solve(jac, rhs[..., None])[..., 0]


def _solve_pass(jac, rhs):
    """Block forward substitution for L coupled lines of n cells (see TridiagonalLowRank).

    Line r's block row reads D_r d_r + below * U_r mu_r = b_r, with the
    diagonal block D_r = A_r + U_r V^T, the rank-2 factor U_r = left[:, r].T
    and mu_r = V^T (d_0 + ... + d_{r-1}). One gtsv over every line laid end to
    end gives Z_r = A_r^-1 U_r and Y_r = A_r^-1 b_r. With the capacitance
    C_r = I + V^T Z_r, the Woodbury identity gives D_r^-1 U_r = Z_r C_r^-1 and
    V^T D_r^-1 b_r = C_r^-1 V^T Y_r, so that d_r = Y_r - Z_r w_r with
    w_r = C_r^-1 (V^T Y_r + below * mu_r). The L 2x2 capacitances are solved
    at once, one (L,) array per entry, by elimination with partial pivoting
    as LAPACK's getrf does (LinAlgError on an exactly zero pivot), for
    C_r^-1 V^T Y_r and below * C_r^-1. Only the 2-vector mu carries the
    coupling, in Python floats from mu_0 = 0: mu_{r+1} = mu_r + V^T d_r,
    which is w_r + (1 - below) * mu_r.
    """
    tri, left, right, below = jac
    _, lines, n = left.shape
    stacked = np.empty((3, lines, n))
    stacked[:2] = left
    stacked[2] = rhs.reshape(lines, n)
    solved = _solve_lines_tridiagonal(tri, stacked.reshape(3, -1).T).T.reshape(3, lines, n)
    z0, z1, y = solved
    # Row j of every line's augmented system [C_r | V^T Y_r | below * I], one (L,) array
    # per entry; the first three columns are V_j^T times Z_0, Z_1 and Y.
    eye = np.eye(2)[..., None]
    aug = np.empty((2, 5, lines))
    aug[:, :3] = (right.T @ solved.reshape(-1, n).T).reshape(2, 3, lines)
    aug[:, :2] += eye
    aug[:, 3:] = below * eye
    # Partial pivoting: the row with the larger |C_r[j, 0]| eliminates the other.
    aug = np.where(np.abs(aug[1, 0]) > np.abs(aug[0, 0]), aug[::-1], aug)
    pivot = aug[0, 0]
    if not pivot.all():
        raise LinAlgError("singular matrix")
    eliminated = aug[1, 1:] - aug[1, 0] / pivot * aug[0, 1:]
    if not eliminated[0].all():
        raise LinAlgError("singular matrix")
    # Rows 0 and 1 of the solutions C_r^-1 V^T Y_r, below * C_r^-1 e_0 and below * C_r^-1 e_1.
    x1 = eliminated[1:] / eliminated[0]
    x0 = aug[0, 2:] - aug[0, 1] * x1
    x0 /= pivot
    keep = 1.0 - below
    mu0 = mu1 = 0.0
    w0s, w1s = [], []
    for g0, m00, m01, g1, m10, m11 in zip(*x0.tolist(), *x1.tolist()):
        w0 = g0 + (m00 * mu0 + m01 * mu1)
        w1 = g1 + (m10 * mu0 + m11 * mu1)
        w0s.append(w0)
        w1s.append(w1)
        mu0, mu1 = w0 + keep * mu0, w1 + keep * mu1
    w = np.array((w0s, w1s))[..., None]
    y -= z0 * w[0]
    y -= z1 * w[1]
    return y.reshape(rhs.shape)


def assemble_jacobian(residual_fn, rho):
    """Finite-difference Jacobian of residual_fn at rho.

    Column-wise forward differences with increment 1e-7*max(|rho_j|, 1); on
    (..., n) lines the column is perturbed on every line at once, giving one
    (n, n) block per line.
    """
    x = np.asarray(rho, dtype=float)
    f0 = np.asarray(residual_fn(x), dtype=float)
    n = x.shape[-1]
    jac = np.empty(f0.shape + (n,))
    for j in range(n):
        h = 1e-7 * np.maximum(np.abs(x[..., j]), 1.0)
        xj = x.copy()
        xj[..., j] += h
        jac[..., j] = (np.asarray(residual_fn(xj), dtype=float) - f0) / h[..., None]
    return jac


MAX_LINE_SEARCH_HALVINGS = 30


def newton_solve(residual_fn, guess, config: NewtonConfig | None = None, *, jacobian):
    """Damped Newton iteration to max-norm tolerance, line by line.

    ``guess`` is an array: one state, or a batch of independent lines
    (L, n) with L > 1. One state is a line (n,), a batch of one line
    (1, n), or a sweep pass's lines laid end to end (L*n,); it goes to a
    loop with a float norm and one line search, and a batch to a loop in
    which each line keeps its own norm, convergence test, iteration count
    and line search. The guess's shape alone picks the loop; both take the
    same iterates on the same line. A step that increases the norm is
    halved, up to 30 times per iteration. A line whose last halving still
    increases its norm takes that tiny step once: it moves the iterate off a
    kink of the residual (a vacuum cell at the density floor, where the
    one-sided Jacobian points the wrong way). If its next line search runs
    out too, NewtonError is raised with the iterate before that step. A
    batch's lines at tolerance drop out; while some do, the callables get
    ``(z, lines)``: the remaining lines and their batch indices.
    ``jacobian``, the exact dR/dx, returns a Tridiagonal (one banded solve
    for every line) or, for one state, a TridiagonalLowRank or a dense
    matrix (see _solve_linear). Raises NewtonError if any line misses the
    tolerance, and NumericalError for a non-finite residual or a linear
    solve that rejects its input (a non-finite Jacobian). Returns (root,
    iterations summed over lines, worst norm).

    The callables see the state in the guess's shape, and a repeated state
    as the same object (the iterate a residual was evaluated at is the one
    the next Jacobian gets), so they may cache per state (see LineProblem).
    No state is modified after a callable has seen it: each trial step and
    each update of some lines is written into a fresh array.
    """
    cfg = config or NewtonConfig()
    x = np.array(guess, dtype=float, order="C")
    if x.ndim < 2 or len(x) == 1:
        return _newton_state(residual_fn, jacobian, x, cfg)
    return _newton_lines(residual_fn, jacobian, x, cfg)


def _residual_norm(residual_fn, z):
    """(r, norm): the residual at state z, shaped like z, and its max norm as a float."""
    r = np.asarray(residual_fn(z), dtype=float)
    if r.shape != z.shape:
        r = r.reshape(z.shape)
    norm = float(_max(np.abs(r), axis=None))
    if not math.isfinite(norm):  # NaN propagates through the max
        raise NumericalError("residual returned a non-finite value")
    return r, norm


# The failures of both loops, each carrying the iterate x and its worst norm.
def _singular(worst, x):
    return NewtonError(f"Newton system is singular to working precision (norm {worst:g})",
                       best_iterate=x, best_norm=float(worst))


def _stalled(halvings, worst, x):
    return NewtonError(f"Newton line search found no decrease in {halvings} halvings "
                       f"on two iterations in a row (best norm {worst:g})",
                       best_iterate=x, best_norm=float(worst))


def _unconverged(cfg, worst, x):
    return NewtonError(f"Newton did not reach tolerance {cfg.tolerance:g} in "
                       f"{cfg.max_iterations} iterations (best norm {worst:g})",
                       best_iterate=x, best_norm=float(worst))


def _newton_state(residual_fn, jacobian, x, cfg):
    """newton_solve on one state x, its own array (see there)."""
    tol = cfg.tolerance
    r, worst = _residual_norm(residual_fn, x)
    iterations = 0
    stalled = False  # the last line search ran out
    for _ in range(cfg.max_iterations):
        if worst <= tol:
            break
        iterations += 1
        jac = jacobian(x)
        try:
            delta = _solve_linear(jac, -r)
        except LinAlgError as exc:
            raise _singular(worst, x) from exc
        except ValueError as exc:  # the banded solves' finite-input check, chiefly
            raise NumericalError(f"the Newton linear solve rejected its input: {exc}") from exc
        del jac  # its bands are not needed for the trial steps
        step_x = x + delta
        r_new, norm_new = _residual_norm(residual_fn, step_x)
        halvings = 0
        while norm_new > worst and halvings < MAX_LINE_SEARCH_HALVINGS:
            delta *= 0.5
            step_x = x + delta
            r_new, norm_new = _residual_norm(residual_fn, step_x)
            halvings += 1
        # Still worse after every halving: the Newton step is no descent direction.
        if norm_new > worst:
            if stalled:
                raise _stalled(halvings, worst, x)
            stalled = True
        else:
            stalled = False
        x, r, worst = step_x, r_new, norm_new
    if worst > tol:
        raise _unconverged(cfg, worst, x)
    return x, iterations, worst


def _newton_lines(residual_fn, jacobian, x, cfg):
    """newton_solve on a batch x of L > 1 independent lines, its own array (see there)."""
    tol = cfg.tolerance
    batch = len(x)

    def evaluate(z, lines=None):
        """(r, norm, worst): the residual at the lines of z, each line's max norm, their max."""
        r = np.asarray(residual_fn(z) if lines is None else residual_fn(z, lines), dtype=float)
        if r.shape != z.shape:
            r = r.reshape(z.shape)
        norm = np.abs(r).max(axis=1)
        worst = norm.max()
        if not math.isfinite(worst):  # NaN propagates through the max
            raise NumericalError("residual returned a non-finite value")
        return r, norm, worst

    r, norm, worst = evaluate(x)
    iterations = 0
    stalled = None  # per line: its last line search ran out (None while none did)
    for _ in range(cfg.max_iterations):
        if worst <= tol:
            break
        active = norm > tol
        count = np.count_nonzero(active)
        iterations += count
        if count == batch:
            lines, xa, na = None, x, norm
            jac = jacobian(xa)
        else:
            lines = np.flatnonzero(active)
            xa, na = x[lines], norm[lines]
            jac = jacobian(xa, lines)
        try:
            delta = _solve_linear(jac, -(r if lines is None else r[lines]))
        except LinAlgError as exc:
            raise _singular(worst, x) from exc
        except ValueError as exc:  # the banded solves' finite-input check, chiefly
            raise NumericalError(f"the Newton linear solve rejected its input: {exc}") from exc
        del jac  # its bands are not needed for the trial steps
        step_x = xa + delta
        r_new, norm_new, worst_new = evaluate(step_x, lines)
        worse = norm_new > na
        halvings = 0
        while halvings < MAX_LINE_SEARCH_HALVINGS and worse.any():
            h = np.flatnonzero(worse)
            delta[h] *= 0.5
            step_x = step_x.copy()
            step_x[h] = xa[h] + delta[h]
            sub = lines if len(h) == len(worse) else h if lines is None else lines[h]
            r_new[h], norm_new[h], _ = evaluate(step_x[h], sub)
            worse = norm_new > na
            halvings += 1
            worst_new = norm_new.max()
        # Still worse after every halving: the Newton step is no descent direction.
        if halvings < MAX_LINE_SEARCH_HALVINGS or not worse.any():
            stalled = None
        else:
            if stalled is not None and (worse & stalled[active]).any():
                raise _stalled(halvings, worst, x)
            stalled = np.zeros(batch, dtype=bool)
            stalled[active] = worse
        if lines is None:
            x, r, norm, worst = step_x, r_new, norm_new, worst_new
        else:
            x = x.copy()
            x[lines], r[lines], norm[lines] = step_x, r_new, norm_new
            worst = norm.max()
    worst = float(worst)
    if worst > tol:
        raise _unconverged(cfg, worst, x)
    return x, int(iterations), worst


_UNSET = object()


def line_problem(setup: SchemeSetup, rho_old, dt, v_table=None, kernel=_UNSET,
                 across=None) -> LineProblem:
    """The setup's implicit step as a LineProblem on rho_old, shaped (..., n).

    ``v_table``/``kernel`` override the setup's tables (``kernel=None``
    disables the interaction); the 2D passes give their per-line tables here.
    ``across`` couples the lines into a sweep pass (see LineProblem).
    """
    model = setup.model
    v_table = model.v_table if v_table is None else v_table
    kernel = setup.kernel if kernel is _UNSET else kernel
    return LineProblem(setup.scheme, rho_old, dt, model.grid.dx, model.energy, v_table, kernel,
                       across)


# A long S2 step next to near-vacuum cells (a cell at 1e-11 amid density 7,
# dt from 38 to 94) has needed Newton from the old state at dt/2^11 to dt/2^14.
MAX_CONTINUATION_HALVINGS = 16


def solve_lines(problem: LineProblem, config: NewtonConfig | None = None, *, _depth: int = 0):
    """Newton on the update-form residual R*dt of every line of ``problem`` at once.

    The problem's ``update_residual`` and its exact Jacobian
    ``update_jacobian`` go to ``newton_solve`` as they are. Independent
    lines keep their own convergence tests; the coupled lines of a sweep
    pass (``problem.across``) are one state, laid end to end, so the test
    is their worst line's and the line search scales the whole step.

    Newton from the old state can miss the root of a long S2 step, e.g. under
    strong aggregation next to a vacuum cell. S2 then solves the step over
    dt/2 first (nested up to MAX_CONTINUATION_HALVINGS times) and restarts
    Newton from that root; the root moves continuously with dt. S1 halves
    the step itself instead (see ``drive_step``).

    Returns (rho_new, iterations summed over lines, worst norm); a pass's
    rho_new is its lines laid end to end, and it counts as one line.
    """
    cfg = config or NewtonConfig()
    residual, jacobian = problem.update_residual, problem.update_jacobian
    start = problem.old if problem.across is None else problem.old.reshape(-1)
    try:
        return newton_solve(residual, start, cfg, jacobian=jacobian)
    except NewtonError:
        if problem.kind != S2 or _depth >= MAX_CONTINUATION_HALVINGS:
            raise
    start, iters, _ = solve_lines(problem.with_dt(0.5 * problem.dt), cfg, _depth=_depth + 1)
    root, more, norm = newton_solve(residual, start, cfg, jacobian=jacobian)
    return root, iters + more, norm


def implicit_step_1d(rho_old, dt, setup: SchemeSetup, config: NewtonConfig | None = None,
                     v_table=None, kernel=_UNSET):
    """One implicit solve of the scheme (no CFL retry logic); see line_problem.

    Returns (rho_new, iterations, norm).
    """
    return solve_lines(line_problem(setup, rho_old, dt, v_table, kernel), config)


class PassTelemetry:
    """Counters accumulated over the line solves of one step attempt."""

    def __init__(self):
        self.row_solves = 0
        self.newton_iterations = 0
        self.max_velocity = 0.0
        self.worst_norm = 0.0

    def absorb(self, problem, iters, norm):
        """Count one solve of ``problem``: a row solve per line, and a sweep pass's
        (``across``) iterations once per line. S1 also records the converged |u|."""
        lines = problem.old.size // problem.old.shape[-1]
        self.row_solves += lines
        self.newton_iterations += iters if problem.across is None else iters * lines
        self.worst_norm = max(self.worst_norm, norm)
        if problem.kind == S1:
            self.max_velocity = max(self.max_velocity, problem.peak_speed())


MAX_CFL_HALVINGS = 20


def drive_step(attempt, rho, dt, setup: SchemeSetup,
               config: NewtonConfig | None = None) -> StepOutcome:
    """One time step around ``attempt``, the only part that depends on dimension.

    ``attempt(field, dt, cfg, tel) -> new`` solves the step from ``field``,
    the input as a DensityField: its passes over the lines, each solve
    absorbed into ``tel``, a fresh PassTelemetry per attempt. ``new`` is a
    new array, which the accepted field takes over. The input density is
    checked before any solve: a wrong shape, a non-finite value or a value
    below -10*tol raises DomainError. A DensityField on the setup's grid
    whose slack is at most 10*tol passed those checks when it was made, so
    it is not checked again. S1's CFL bound dt <= dx / (2 max|u|)
    references the converged face velocities of every pass
    (``tel.max_velocity``; infinite when it is 0, as under S2, whose
    telemetry records none), so a violation halves dt and re-solves; S1's
    implicit system may also be unsolvable well above the bound, so a
    NewtonError is retried smaller too. A Newton system singular to working
    precision counts as a NewtonError. S2 reports non-convergence instead of
    guessing. At most MAX_CFL_HALVINGS retries.

    The accepted field must conserve mass and stay above -10*tol; it keeps
    the minimum and mass those checks take (see DensityField). A step that
    does not move (no Newton iteration, and the input's bits) accepts the
    input field itself, so that nothing it keeps is computed again. The
    StepOutcome reports the accepted attempt's telemetry. The step computes
    no energy; callers that report one use clipped_energy.
    """
    cfg = config or NewtonConfig()
    grid = setup.model.grid
    slack = 10.0 * cfg.tolerance
    field = rho
    if not (isinstance(rho, DensityField) and rho.grid == grid and rho.slack <= slack):
        b = field_values(rho)
        if b.shape != grid.shape:
            raise DomainError(f"density shape {b.shape} does not match the grid's {grid.shape}")
        field = DensityField(b, grid, min_allowed=slack)

    dt = float(dt)
    retries = 0
    while True:
        tel = PassTelemetry()
        try:
            a = attempt(field, dt, cfg, tel)
        except NewtonError:
            if setup.scheme.kind == S2 or retries >= MAX_CFL_HALVINGS:
                raise
        else:
            peak = tel.max_velocity
            bound = math.inf if peak == 0.0 else grid.dx / (2.0 * peak)
            if dt <= bound * (1.0 + 1e-12):
                break
            if retries >= MAX_CFL_HALVINGS:
                raise StepError(
                    f"CFL halving exhausted after {retries} retries (dt={dt:g}, bound={bound:g})"
                )
        dt *= 0.5
        retries += 1

    if not (tel.newton_iterations == 0 and _same_bits(a, field.values)):
        low = _min(a, axis=None)
        if low < -slack:
            raise StepError(f"accepted field dips to {low:g}, below -10*tol")
        total = _sum(a, axis=None)
        mass_new, mass_old = total * grid.cell_measure, field.mass
        if abs(mass_new - mass_old) > slack * (1.0 + abs(mass_old)):
            raise StepError(f"mass drifted by {mass_new - mass_old:g} over one step")
        field = DensityField.adopt(a, grid, slack, low, total)
    return StepOutcome(field, tel.newton_iterations, tel.worst_norm, dt, retries, tel.row_solves)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def advance_step_1d(rho_old, dt_request, setup: SchemeSetup,
                    config: NewtonConfig | None = None) -> StepOutcome:
    """Advance one 1D time step (see drive_step): one pass, a single line solve."""

    def attempt(field, dt, cfg, tel):
        problem = line_problem(setup, field, dt)
        new, iters, norm = solve_lines(problem, cfg)
        tel.absorb(problem, iters, norm)
        return new

    return drive_step(attempt, rho_old, dt_request, setup, config)


def clipped_energy(setup: SchemeSetup, rho) -> float:
    """Discrete energy of max(rho, 0) under the setup's model and kernel table.

    ``rho`` is an array or a DensityField. A field is priced once per setup
    (it keeps the last price, ``priced``). One with no negative entry and no
    -0.0 (which the clip would turn into +0.0) is its own clip, so the
    energy reads the convolution the field keeps, which the step that
    starts from it reads too.
    """
    if not isinstance(rho, DensityField):
        return analysis.discrete_energy(np.maximum(rho, 0.0), setup.model, setup.kernel).total
    priced_under, energy = rho.priced
    if priced_under is not setup:
        low = rho.minimum
        own_clip = low > 0.0 or (low == 0.0 and not np.signbit(rho.values).any())
        clipped = rho if own_clip else np.maximum(rho.values, 0.0)
        energy = analysis.discrete_energy(clipped, setup.model, setup.kernel).total
        rho.priced = (setup, energy)
    return energy
