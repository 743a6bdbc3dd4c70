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
effective confinement table: V plus the stage's background, the
convolution of every other line. For a general kernel a sweep pass
convolves the whole field once, and a stage then costs one 1D FFT of its
line's change and one inverse FFT of its own line's background
(SpectralBackground); its coupled solve uses the row kernel's Toeplitz
matrix and a dense LU. For a quadratic kernel (``KernelTable.exact_form``)
the background follows from three moments per line, updated in O(n) per
stage (MomentBackground), and the coupled Jacobian is tridiagonal plus
rank 2, solved by Woodbury.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import RoutingError
from .kernels import EXPLICIT, QUADRATIC_FORMS, convolve, make_kernel_1d
from .model import field_values
from .scheme1d import S1, max_stable_dt, reconstruct_faces
from .solver import (
    NewtonConfig,
    SchemeSetup,
    StepOutcome,
    drive_step,
    line_problem,
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


class SpectralBackground:
    """Stage backgrounds of a sweep pass for any kernel, by FFTs along the line.

    The field is convolved once per pass. What earlier stages changed
    reaches line r through a complex accumulator: after each stage, one
    rfft of the line's change, times the kernel's rfft at each later line's
    offset (taken once per pass), is added to the later lines, and stage r
    takes one irfft of its own row. Lines before r are never read again in
    the pass, so they are not updated.
    """

    def __init__(self, kernel, field, axis, row_kernel):
        n = field.shape[0]
        self.n, self.measure, self.row_kernel = n, kernel.cell_measure, row_kernel
        self.conv = _lines(convolve(kernel, field), axis)
        # Row m of w_hat: the in-line kernel at line offset m - (n-1). Linear
        # convolutions of length 3n-2 do not wrap at this size.
        self.nfft = next_fast_len(3 * n - 2, real=True)
        self.w_hat = rfft(_lines(kernel.values, axis), self.nfft, axis=1)
        self.acc = np.zeros((n, self.nfft // 2 + 1), dtype=complex)

    def __call__(self, r, old_line):
        n = self.n
        earlier = irfft(self.acc[r], self.nfft)[n - 1 : 2 * n - 1] * self.measure
        return self.conv[r] + earlier - convolve(self.row_kernel, old_line)

    def update(self, r, old_line, new_line):
        n = self.n
        self.acc[r + 1 :] += rfft(new_line - old_line, self.nfft) * self.w_hat[n : 2 * n - 1 - r]


class MomentBackground:
    """Stage backgrounds of a sweep pass for a quadratic kernel, by moments.

    For W_(o, q) = alpha*o^2 + beta*q^2 (o along the line, q across it), the
    contribution of line q to cell i of line r is
    measure*(alpha*(p_i^2 M_q - 2 p_i m1_q + m2_q) + beta*(p_r - p_q)^2 M_q),
    with p the centred cell positions and M_q, m1_q, m2_q line q's mass and
    first and second moments along the line. Stage r's background is the
    sum over every line but r: totals minus line r's own row. After a stage
    only line r's three moments change.
    """

    def __init__(self, kernel, field, axis):
        n, c = field.shape[0], kernel.center
        along, across = kernel.axis_slice(axis), kernel.axis_slice(1 - axis)
        # The scalars live as Python floats: the same IEEE doubles, without
        # the per-operation cost of numpy scalars.
        self.alpha = float(along[c + 1] - along[c])
        self.beta = float(across[c + 1] - across[c])
        self.measure = float(kernel.cell_measure)
        p = np.arange(n) - 0.5 * (n - 1)
        self.p_squared, self.p_twice, self.p = p * p, 2.0 * p, p.tolist()
        basis = np.stack((np.ones(n), p, p**2), axis=1)
        self.basis_t, self.basis = basis.T, basis.tolist()
        moments = _lines(field, axis) @ basis  # (n, 3): M, m1, m2 of every line
        self.totals = moments.sum(axis=0).tolist()
        # Across the lines: sum_q M_q, p_q M_q and p_q^2 M_q.
        self.across = (self.basis_t @ moments[:, 0]).tolist()
        self.moments = moments.tolist()

    def __call__(self, r, old_line):
        mass, m1, m2 = (t - m for t, m in zip(self.totals, self.moments[r]))
        pr = self.p[r]
        total_mass, q1, q2 = self.across
        between = self.beta * (pr * pr * total_mass - 2.0 * pr * q1 + q2)
        background = self.p_squared * mass
        background -= self.p_twice * m1
        background += m2
        background *= self.alpha
        background += between
        background *= self.measure
        return background

    def update(self, r, old_line, new_line):
        new = (self.basis_t @ new_line).tolist()
        change = [b - a for a, b in zip(self.moments[r], new)]
        self.moments[r] = new
        self.totals = [t + d for t, d in zip(self.totals, change)]
        self.across = [q + b * change[0] for q, b in zip(self.across, self.basis[r])]


def advance_sweep_axis(rho, axis, dt, setup: SchemeSetup, config: NewtonConfig | None = None,
                       telemetry: PassTelemetry | None = None, stage_hook=None) -> np.ndarray:
    """One sweeping directional pass: lines update sequentially.

    At stage r only line r changes; its implicit 1D solve sees the
    interaction of the whole field through an effective confinement, the
    background: every other line's convolution at its latest value, with
    the stage rule applied to line r's own contribution. A quadratic kernel
    (``exact_form``) takes its backgrounds from per-line moments
    (MomentBackground, O(n) per stage); any other kernel from one 2D
    convolution per pass and a spectral accumulator (SpectralBackground).
    Both match a full re-convolution at every stage to roundoff. Under S1
    the old lines' reconstructed face values are computed once per pass.
    """
    field = field_values(rho).copy()
    cfg = config or NewtonConfig()
    tel = telemetry if telemetry is not None else PassTelemetry()
    if setup.kernel is None:
        # No coupling: the sweep degenerates to the decoupled pass.
        return advance_split_axis(field, axis, dt, setup, cfg, tel)

    kernel = setup.kernel
    # The 1D kernel slice that couples the cells of one line.
    row_kernel = make_kernel_1d(kernel.axis_slice(axis), kernel.cell_measure, kernel.exact_form)
    lines, v_lines = _lines(field, axis), _lines(setup.v_table, axis)
    if kernel.exact_form in QUADRATIC_FORMS:
        background = MomentBackground(kernel, field, axis)
    else:
        background = SpectralBackground(kernel, field, axis, row_kernel)
    # Only stage r writes line r, so every stage's old line is its line at
    # the start of the pass, and reconstruct_faces works line by line.
    east = west = None
    if setup.scheme.kind == S1:
        east, west = reconstruct_faces(lines, setup.scheme.theta)
    for r in range(lines.shape[0]):
        old_line = lines[r].copy()
        v_eff = background(r, old_line)
        v_eff += v_lines[r]
        faces = None if east is None else (east[r], west[r])
        problem = line_problem(setup, old_line, dt, v_eff, row_kernel, faces=faces)
        new_line, iters, norm = solve_lines(problem, cfg)
        tel.absorb(problem, new_line, iters, norm)
        lines[r] = new_line
        background.update(r, old_line, new_line)
        if stage_hook is not None:
            stage_hook(axis, r, field)
    return field


def advance_step_2d(rho, dt_request, setup: SchemeSetup,
                    config: NewtonConfig | None = None) -> StepOutcome:
    """One full 2D step (see drive_step): x-pass then y-pass, routed to split or sweep.

    S1's bound is the split CFL bound: the smallest of the passes'
    face-velocity bounds.
    """
    decoupled = setup.kernel is None or setup.scheme.stage_rule == EXPLICIT
    advance = advance_split_axis if decoupled else advance_sweep_axis

    def attempt(field, dt, cfg):
        tel = PassTelemetry()
        half = advance(field, 0, dt, setup, cfg, tel)
        full = advance(half, 1, dt, setup, cfg, tel)
        bound = max_stable_dt(setup.scheme.kind, np.array([tel.max_velocity]), setup.dx)
        return full, tel.newton_iterations, tel.worst_norm, tel.row_solves, bound

    return drive_step(attempt, rho, dt_request, setup, config)
