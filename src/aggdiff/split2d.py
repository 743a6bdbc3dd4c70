"""Two-dimensional stepping: dimensional splitting and sweeping splitting.

A 2D step is an x-direction pass followed by a y-direction pass. When the
convolution is frozen over a pass (no interaction, or explicit staging), the
lines decouple: the whole pass is one LineProblem with the lines on its
leading axis, solved by one batched Newton iteration in which every line
keeps its own convergence test and line search. When the interaction is
staged implicitly or at the midpoint, lines do not decouple; the sweeping
form restores tractability by updating one line at a time, the convolution
seeing the stage-rule value on the active line and the latest frozen values
elsewhere. Each sweep stage is then exactly a 1D implicit solve with an
effective confinement table.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

from .errors import RoutingError
from .kernels import EXPLICIT, convolve, make_kernel_1d
from .model import DensityField, field_values
from .scheme1d import S1, max_stable_dt
from .solver import (
    NewtonConfig,
    SchemeSetup,
    StepOutcome,
    check_step_postconditions,
    clipped_energy,
    line_problem,
    retry_halving_dt,
    solve_lines,
)


class PassTelemetry:
    """Counters accumulated over one directional pass."""

    def __init__(self):
        self.row_solves = 0
        self.newton_iterations = 0
        self.max_velocity = 0.0
        self.worst_norm = 0.0

    def absorb(self, problem, new_lines, iters, norm):
        """Count one solve of ``problem``; S1 also records the converged |u|."""
        self.row_solves += new_lines.size // new_lines.shape[-1]
        self.newton_iterations += iters
        self.worst_norm = max(self.worst_norm, norm)
        if problem.kind == S1:
            speed = float(np.abs(problem.velocity(new_lines)).max(initial=0.0))
            self.max_velocity = max(self.max_velocity, speed)


def _lines(field, axis):
    """The field with the lines of an ``axis`` pass on its first axis (a view).

    axis 0 sweeps the x-direction (line j varies i); axis 1 sweeps y.
    """
    return field.T if axis == 0 else field


def _convolution_increment(setup, axis, index, delta):
    """Update of W * field when one line changes by ``delta``.

    The increment is a 1D convolution of delta against every offset slice of
    the kernel, evaluated in one pass along the sweep axis.
    """
    w = setup.kernel.values
    n = delta.size
    if axis == 0:
        # Field changed on column j=index: increment[:, l] from slice (l-index).
        g = fftconvolve(w, delta[:, None], axes=0)[n - 1 : 2 * n - 1, :]
        block = g[:, n - 1 - index : 2 * n - 1 - index]
    else:
        g = fftconvolve(w, delta[None, :], axes=1)[:, n - 1 : 2 * n - 1]
        block = g[n - 1 - index : 2 * n - 1 - index, :]
    return block * setup.kernel.cell_measure


def advance_split_axis(rho, axis, dt, setup: SchemeSetup, config: NewtonConfig | None = None,
                       telemetry: PassTelemetry | None = None) -> np.ndarray:
    """One decoupled directional pass: a single Newton solve over every line.

    Requires the convolution to be frozen over the pass (W absent, or the
    explicit stage rule), so that each line is an independent 1D implicit
    step with the effective confinement V + W * rho_old. All lines form one
    LineProblem and one batched Newton (see ``newton_solve``), in which each
    line keeps its own convergence test, iteration count and line search,
    and reaches the same iterate as a solve of that line alone. With an
    implicit or midpoint stage the lines couple and the sweeping form must
    be used instead.
    """
    field = field_values(rho)
    if setup.kernel is not None and setup.scheme.stage_rule != EXPLICIT:
        raise RoutingError(
            "dimensional splitting does not decouple with an implicitly staged "
            "interaction; use sweeping"
        )
    tel = telemetry if telemetry is not None else PassTelemetry()
    v_eff = setup.v_table  # plus the convolution, frozen over the pass
    if setup.kernel is not None:
        v_eff = v_eff + convolve(setup.kernel, field)
    problem = line_problem(setup, _lines(field, axis), dt, _lines(v_eff, axis), kernel=None)
    new_lines, iters, norm = solve_lines(problem, config)
    tel.absorb(problem, new_lines, iters, norm)
    return np.ascontiguousarray(_lines(new_lines, axis))


def advance_sweep_axis(rho, axis, dt, setup: SchemeSetup, config: NewtonConfig | None = None,
                       telemetry: PassTelemetry | None = None, stage_hook=None) -> np.ndarray:
    """One sweeping directional pass: lines update sequentially.

    At stage r only line r changes; its implicit 1D solve sees the
    interaction of the whole field through an effective confinement, with
    the stage rule applied to line r's own contribution. The running
    convolution is updated incrementally after each stage (one kernel-slice
    product per stage, matching a full re-convolution to roundoff).
    """
    field = field_values(rho).copy()
    cfg = config or NewtonConfig()
    tel = telemetry if telemetry is not None else PassTelemetry()
    n = setup.model.grid.n_cells
    if setup.kernel is None:
        # No coupling: the sweep degenerates to the decoupled pass.
        return advance_split_axis(field, axis, dt, setup, cfg, tel)

    # The 1D kernel slice that couples the cells of one line.
    row_kernel = make_kernel_1d(setup.kernel.axis_slice(axis), setup.kernel.cell_measure)
    conv = convolve(setup.kernel, field)
    lines, conv_lines, v_lines = (_lines(a, axis) for a in (field, conv, setup.v_table))
    for r in range(n):
        old_line = lines[r].copy()
        background = conv_lines[r] - convolve(row_kernel, old_line)
        problem = line_problem(setup, old_line, dt, v_lines[r] + background, row_kernel)
        new_line, iters, norm = solve_lines(problem, cfg)
        tel.absorb(problem, new_line, iters, norm)
        lines[r] = new_line
        delta = new_line - old_line
        if np.any(delta):
            conv += _convolution_increment(setup, axis, r, delta)
        if stage_hook is not None:
            stage_hook(axis, r, field)
    return field


def advance_step_2d(rho, dt_request, setup: SchemeSetup, config: NewtonConfig | None = None,
                    compute_energy: bool = True) -> StepOutcome:
    """One full 2D step: x-pass then y-pass, routed to split or sweep.

    S1 enforces the split CFL bound (the minimum of the per-pass face-velocity
    bounds) a posteriori, halving dt and retrying the whole step on violation.
    """
    cfg = config or NewtonConfig()
    field = field_values(rho)
    grid = setup.model.grid
    sch = setup.scheme
    decoupled = setup.kernel is None or sch.stage_rule == EXPLICIT
    advance = advance_split_axis if decoupled else advance_sweep_axis

    energy_before = clipped_energy(setup, field, compute_energy)

    def attempt(dt):
        tel = PassTelemetry()
        half = advance(field, 0, dt, setup, cfg, tel)
        full = advance(half, 1, dt, setup, cfg, tel)
        # The split bound is the smallest of the passes' face-velocity bounds.
        return (full, tel), max_stable_dt(sch.kind, np.array([tel.max_velocity]), setup.dx)

    (full, tel), dt, retries = retry_halving_dt(attempt, dt_request, sch.kind)
    check_step_postconditions(full, field, grid.cell_measure, cfg.tolerance)

    energy_after = clipped_energy(setup, full, compute_energy)

    out_field = DensityField(full, grid, min_allowed=10.0 * cfg.tolerance)
    return StepOutcome(
        out_field, tel.newton_iterations, tel.worst_norm, dt, retries,
        energy_before, energy_after, row_solves=tel.row_solves,
    )
