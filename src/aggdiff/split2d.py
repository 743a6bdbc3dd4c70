"""Two-dimensional stepping: dimensional splitting and sweeping splitting.

A 2D step is an x-direction pass followed by a y-direction pass. When the
convolution is frozen over a pass (no interaction, or explicit staging), the
lines decouple: the whole pass is one LineProblem with the lines on its
leading axis, solved by one batched Newton iteration in which every line
keeps its own convergence test and line search. When the interaction is
staged implicitly or at the midpoint (``SchemeSetup.coupled``, which every
pass reads), lines do not decouple; the sweeping form restores tractability
by updating one line at a time, the convolution seeing the stage-rule value
on the active line and the latest values elsewhere. Stage r's residual is
then a 1D implicit residual with an effective confinement table: V plus the
stage's background, the convolution of every other line, new before r and
old after it.

For a quadratic kernel (``KernelTable.exact_form``) the pass is solved as
that one system of L stage residuals: the backgrounds follow from prefix
sums of three moments per line (PassMomentBackground), the Jacobian is
block lower triangular with tridiagonal-plus-rank-2 blocks, and a Newton
step is one banded solve over every line, L 2x2 capacitance solves in
closed form and a recurrence of a 2-vector over the lines (see
solver._solve_pass). Should that Newton solve fail, NewtonError reaches the
step driver, which halves an S1 step and reports an S2 one (S2's solve has
already continued in dt). Any other kernel solves stage by stage: the pass
convolves the whole field once, a stage costs one 1D FFT of its line's
change and one inverse FFT of its own line's background
(SpectralBackground), and its coupled solve uses the row kernel's Toeplitz
matrix and a dense LU.
"""

from __future__ import annotations

import numpy as np

from .errors import RoutingError
from .kernels import QUADRATIC_FORMS, convolve
from .model import field_values
from .solver import (
    NewtonConfig,
    PassTelemetry,
    SchemeSetup,
    StepOutcome,
    drive_step,
    line_problem,
    solve_lines,
)


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
    and reaches the same iterate as a solve of that line alone. Coupled
    lines (``setup.coupled``) raise RoutingError: they need the sweep.
    """
    field = field_values(rho)
    if setup.coupled:
        raise RoutingError(
            "dimensional splitting does not decouple with an implicitly staged "
            "interaction; use sweeping"
        )
    tel = telemetry if telemetry is not None else PassTelemetry()
    v_eff = setup.model.v_table  # plus the convolution, frozen over the pass
    if setup.kernel is not None:
        v_eff = v_eff + convolve(setup.kernel, rho)  # kept by a DensityField
    problem = line_problem(setup, _lines(field, axis), dt, _lines(v_eff, axis), kernel=None)
    new_lines, iters, norm = solve_lines(problem, config)
    tel.absorb(problem, iters, norm)
    return np.ascontiguousarray(_lines(new_lines, axis))


class SpectralBackground:
    """Stage backgrounds of a sweep pass for any kernel, by FFTs along the line.

    The field is convolved once per pass. What earlier stages changed
    reaches line r through a complex accumulator: after each stage, one
    rfft of the line's change, times the kernel's rfft at each later line's
    offset (taken once per pass), is added to the later lines, and stage r
    takes one irfft of its own row. Lines before r are never read again in
    the pass, so they are not updated. The axis's row kernel takes out line r's own term.
    """

    def __init__(self, kernel, field, axis):
        from scipy.fft import next_fast_len, rfft  # only this pass needs scipy.fft

        n = field.shape[0]
        self.n, self.measure, self.row_kernel = n, kernel.cell_measure, kernel.row_kernels[axis]
        self.conv = _lines(convolve(kernel, field), axis)
        # Row m of w_hat: the in-line kernel at line offset m - (n-1). Linear
        # convolutions of length 3n-2 do not wrap at this size.
        self.nfft = next_fast_len(3 * n - 2, real=True)
        self.w_hat = rfft(_lines(kernel.values, axis), self.nfft, axis=1)
        self.acc = np.zeros((n, self.nfft // 2 + 1), dtype=complex)

    def __call__(self, r, old_line):
        from scipy.fft import irfft

        n = self.n
        earlier = irfft(self.acc[r], self.nfft)[n - 1 : 2 * n - 1] * self.measure
        return self.conv[r] + earlier - convolve(self.row_kernel, old_line)

    def update(self, r, old_line, new_line):
        from scipy.fft import rfft

        n = self.n
        self.acc[r + 1 :] += rfft(new_line - old_line, self.nfft) * self.w_hat[n : 2 * n - 1 - r]


class PassMomentBackground:
    """The stage backgrounds of a whole sweep pass for a quadratic kernel, by moments.

    For W_(o, q) = alpha*o^2 + beta*q^2 (o along the line, q across it), the
    contribution of line q to cell i of line r is
    measure*(alpha*(p_i^2 M_q - 2 p_i m1_q + m2_q) + beta*(p_r - p_q)^2 M_q),
    with p the centred cell positions and M_q, m1_q, m2_q line q's mass and
    first and second moments along the line. Called at a pass state a, it
    gives every line r the sum over lines s < r at a (prefix sums of a's
    moments) and s > r in the old field (suffix sums, taken once): the
    ``across`` term of the pass's LineProblem.
    """

    def __init__(self, kernel, field, axis):
        n = field.shape[0]
        alphas = kernel.quadratic_coefficients[1]
        p = np.arange(n) - 0.5 * (n - 1)
        self.basis = np.stack((np.ones(n), p, p * p), axis=1)
        # Cell i of line r reads the along sums through alpha*[p_i^2, -2 p_i, 1]
        # and the across sums through beta*[p_r^2, -2 p_r, 1].
        weights = np.stack((p * p, -2.0 * p, np.ones(n)), axis=1)
        self.along_weights = alphas[axis] * weights.T
        self.across_weights = alphas[1 - axis] * weights
        self.measure = kernel.cell_measure
        old = self._moments(_lines(field, axis))
        self.later = np.zeros_like(old)  # sums over the old lines s > r
        np.cumsum(old[:0:-1], axis=0, out=self.later[-2::-1])

    def _moments(self, lines):
        """(L, 6): each line's M, m1, m2 along it, then M * [1, p_q, p_q^2] across."""
        along = lines @ self.basis
        return np.concatenate((along, along[:, :1] * self.basis), axis=1)

    def __call__(self, a):
        sums = self.later.copy()
        sums[1:] += np.cumsum(self._moments(a)[:-1], axis=0)  # lines s < r at a
        background = sums[:, :3] @ self.along_weights
        background += (sums[:, 3:] * self.across_weights).sum(axis=1)[:, None]
        background *= self.measure
        return background


def advance_sweep_axis(rho, axis, dt, setup: SchemeSetup, config: NewtonConfig | None = None,
                       telemetry: PassTelemetry | None = None) -> np.ndarray:
    """One sweeping directional pass: lines update sequentially.

    Stage r changes only line r; its implicit 1D residual sees the
    interaction of the whole field through an effective confinement, the
    background: every other line's convolution at its latest value (new
    before r, old after r), with the stage rule applied to line r's own
    contribution. Only stage r writes line r, so every stage's LineProblem
    reconstructs S1 faces from its line at the start of the pass. Lines that
    do not couple (``setup.coupled`` false) make the sweep the split pass.

    A quadratic kernel (``exact_form``) solves the pass as the one system it
    is: the L stage residuals, each reading the new lines before it, by one
    Newton solve on all lines at once (a LineProblem with ``across``,
    backgrounds from PassMomentBackground, a block lower-triangular Jacobian
    solved by forward substitution). It stops when every stage residual is
    within tolerance, the test each stage's own solve would apply; a failed
    solve raises NewtonError to the step driver (see drive_step). Any other
    kernel solves stage by stage, its backgrounds from one 2D convolution
    per pass and a spectral accumulator (SpectralBackground), its coupled
    solves by dense LU. Either way stage r's field, which the paper's
    guarantees hold for, is the pass's input with lines 0..r from its output.
    """
    field = field_values(rho)
    tel = telemetry if telemetry is not None else PassTelemetry()
    if not setup.coupled:
        return advance_split_axis(field, axis, dt, setup, config, tel)

    kernel = setup.kernel
    row_kernel = kernel.row_kernels[axis]  # couples the cells of one line
    lines, v_lines = _lines(field, axis), _lines(setup.model.v_table, axis)
    if kernel.exact_form in QUADRATIC_FORMS:
        problem = line_problem(setup, lines, dt, v_lines, row_kernel,
                               across=PassMomentBackground(kernel, field, axis))
        new_lines, iters, norm = solve_lines(problem, config)
        tel.absorb(problem, iters, norm)
        return np.ascontiguousarray(_lines(new_lines.reshape(lines.shape), axis))

    new = field.copy()  # the stages write their lines into it
    background = SpectralBackground(kernel, field, axis)
    for r, old_line in enumerate(lines):
        v_eff = background(r, old_line)
        v_eff += v_lines[r]
        problem = line_problem(setup, old_line, dt, v_eff, row_kernel)
        new_line, iters, norm = solve_lines(problem, config)
        tel.absorb(problem, iters, norm)
        _lines(new, axis)[r] = new_line
        background.update(r, old_line, new_line)
    return new


def advance_step_2d(rho, dt_request, setup: SchemeSetup,
                    config: NewtonConfig | None = None) -> StepOutcome:
    """One full 2D step (see drive_step): x-pass then y-pass, swept when ``setup.coupled``.

    Both passes absorb their solves into the attempt's one telemetry, so
    drive_step's S1 bound takes the largest converged face speed of either.
    """
    advance = advance_sweep_axis if setup.coupled else advance_split_axis

    def attempt(field, dt, cfg, tel):
        half = advance(field, 0, dt, setup, cfg, tel)
        return advance(half, 1, dt, setup, cfg, tel)

    return drive_step(attempt, rho, dt_request, setup, config)
