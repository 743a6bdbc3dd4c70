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
effective confinement table. A sweep pass convolves the whole field once;
a stage then costs one 1D FFT of its line's change and one inverse FFT of
its own line's background, and its coupled solve uses the row kernel's
Toeplitz matrix, built once per pass.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import RoutingError
from .kernels import EXPLICIT, convolve, make_kernel_1d
from .model import DensityField, field_values
from .scheme1d import S1, max_stable_dt
from .solver import (
    NewtonConfig,
    SchemeSetup,
    StepOutcome,
    check_step_input,
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
    the stage rule applied to line r's own contribution. The field is
    convolved once per pass; what earlier stages changed reaches line r
    through a spectral accumulator along the line. After each stage, one
    rfft of the line's change, times the kernel's rfft at each later line's
    offset (taken once per pass), is added to the later lines, and stage r
    takes one irfft of its own row. Lines before r are never read again in
    the pass, so they are not updated. Matches a full re-convolution at
    every stage to roundoff.
    """
    field = field_values(rho).copy()
    cfg = config or NewtonConfig()
    tel = telemetry if telemetry is not None else PassTelemetry()
    n = setup.model.grid.n_cells
    if setup.kernel is None:
        # No coupling: the sweep degenerates to the decoupled pass.
        return advance_split_axis(field, axis, dt, setup, cfg, tel)

    kernel = setup.kernel
    # The 1D kernel slice that couples the cells of one line.
    row_kernel = make_kernel_1d(kernel.axis_slice(axis), kernel.cell_measure)
    conv = convolve(kernel, field)
    lines, conv_lines, v_lines = (_lines(a, axis) for a in (field, conv, setup.v_table))
    # Row m of w_hat: the in-line kernel at line offset m - (n-1). Linear
    # convolutions of length 3n-2 do not wrap at this size.
    nfft = next_fast_len(3 * n - 2, real=True)
    w_hat = rfft(_lines(kernel.values, axis), nfft, axis=1)
    acc = np.zeros((n, nfft // 2 + 1), dtype=complex)
    for r in range(n):
        old_line = lines[r].copy()
        earlier = irfft(acc[r], nfft)[n - 1 : 2 * n - 1] * kernel.cell_measure
        background = conv_lines[r] + earlier - convolve(row_kernel, old_line)
        problem = line_problem(setup, old_line, dt, v_lines[r] + background, row_kernel)
        new_line, iters, norm = solve_lines(problem, cfg)
        tel.absorb(problem, new_line, iters, norm)
        lines[r] = new_line
        acc[r + 1 :] += rfft(new_line - old_line, nfft) * w_hat[n : 2 * n - 1 - r]
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
    check_step_input(field, grid.shape, cfg.tolerance)
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
