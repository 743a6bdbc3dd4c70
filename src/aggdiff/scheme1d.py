"""Fully discrete 1D schemes: reconstruction, upwind fluxes, residuals.

Two implicit schemes share the skeleton

    (rho_i^{n+1} - rho_i^n)/dt + (F_{i+1/2} - F_{i-1/2})/dx = 0,
    u_{i+1/2} = -(xi_{i+1} - xi_i)/dx,
    xi_i = H'(rho_i^{n+1}) + V_i + (W * rho**)_i,

with no-flux walls (boundary fluxes are hard zeros). The second-order scheme
upwinds minmod-reconstructed face values of the *old* state; the first-order
one upwinds the unknown state itself, which buys unconditional positivity.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .kernels import EXPLICIT, IMPLICIT, MIDPOINT, QUADRATIC_FORMS, STAGE_RULES, convolve
from .model import InternalEnergy, field_values

S1 = "s1"  # second order in space, CFL-conditional guarantees
S2 = "s2"  # first order, unconditional guarantees
SCHEME_KINDS = (S1, S2)


@dataclass(frozen=True)
class SchemeConfig:
    kind: str
    stage_rule: str = MIDPOINT
    theta: float = 2.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise DomainError(f"unknown scheme kind {self.kind!r}")
        if self.stage_rule not in STAGE_RULES:
            raise DomainError(f"unknown stage rule {self.stage_rule!r}")
        if not 1.0 <= self.theta <= 2.0:
            raise DomainError("limiter parameter theta must lie in [1, 2]")


class FaceData(NamedTuple):
    """Per-face velocities and fluxes plus the cell potential xi.

    ``velocity`` and ``flux`` hold one face slot per cell, slot i for face
    i+1/2 and the last for the east wall, +0.0 (see LineProblem).
    """

    velocity: np.ndarray
    flux: np.ndarray
    xi: np.ndarray


def _limit(mn, mx):
    """In place into mn, the minmod of arguments whose smallest is mn and largest mx.

    That is mn where mn > 0, mx where mx < 0 and +0.0 otherwise. A NaN
    argument makes both NaN, which fmax and fmin skip, so it gives 0 as the
    sign tests do; the last + 0.0 turns a -0.0 left by zero arguments into 0.0.
    """
    np.fmax(mn, 0.0, out=mn)
    np.fmin(mn, mx, out=mn)
    mn += 0.0
    return mn


def minmod(z1, z2, z3):
    """Smallest-magnitude slope when all arguments agree in sign, else 0."""
    z1, z2, z3 = np.broadcast_arrays(
        np.asarray(z1, dtype=float), np.asarray(z2, dtype=float), np.asarray(z3, dtype=float)
    )
    # Arrays even for scalar arguments, which _limit writes in place.
    mn = np.minimum(np.minimum(z1, z2), z3, out=np.empty(z1.shape))
    mx = np.maximum(np.maximum(z1, z2), z3, out=np.empty(z1.shape))
    out = _limit(mn, mx)
    if out.ndim == 0:
        return float(out)
    return out


def reconstruct_faces(rho, theta: float = 2.0):
    """East/west face values from limited slopes; preserves non-negativity.

    Works line by line on (..., n) arrays. The two wall cells get zero slope
    (first order at the walls), which keeps the no-flux boundary exact and
    positivity trivial there. Face values are r +- slope*dx/2, the slope*dx
    being minmod(theta*fwd, (fwd + bwd)/2, theta*bwd) of the forward and
    backward differences, taken over the lines laid end to end: fwd and bwd
    view one difference array. The wall cells, whose differences cross from
    line to line, are written last.
    """
    r = field_values(rho)
    n = r.shape[-1]
    east, west = np.empty(r.shape), np.empty(r.shape)
    if n >= 3:
        flat = r.ravel()
        diff = np.subtract(flat[1:], flat[:-1])
        fwd, bwd = diff[1:], diff[:-1]  # of cells 1 .. N-2 of the N laid end to end
        centred = np.add(fwd, bwd)
        centred *= 0.5
        diff *= theta
        mn = np.minimum(fwd, bwd)
        mx = np.maximum(fwd, bwd)
        np.minimum(mn, centred, out=mn)
        np.maximum(mx, centred, out=mx)
        half = _limit(mn, mx)
        half *= 0.5
        np.add(flat[1:-1], half, out=east.ravel()[1:-1])
        np.subtract(flat[1:-1], half, out=west.ravel()[1:-1])
    walls = (Ellipsis, slice(None, None, max(n - 1, 1)))
    np.add(r[walls], 0.0, out=east[walls])  # r +- 0.5 * 0.0
    np.subtract(r[walls], 0.0, out=west[walls])
    return east, west


def chemical_potential(rho, energy: InternalEnergy, v_table, kernel):
    """xi_i = H'(max(rho_i, eps)) + V_i + (W * rho)_i, all at the one density rho."""
    xi = energy.slope_regularized(field_values(rho)) + np.asarray(v_table, dtype=float)
    if kernel is not None and not kernel.is_zero:
        xi = xi + convolve(kernel, rho)
    return xi


def face_velocities(xi, dx: float) -> np.ndarray:
    """u_{i+1/2} = -(xi_{i+1} - xi_i)/dx in face slot i of each line (see LineProblem)."""
    xi = np.ascontiguousarray(xi, dtype=float)
    u = np.empty(xi.shape)
    flat, faces = xi.ravel(), u.ravel()[:-1]
    np.subtract(flat[1:], flat[:-1], out=faces)
    faces /= -dx  # d/(-dx) is -(d/dx), bit for bit
    u[..., -1] = 0.0  # the wall slots, differences across two lines until here
    return u


class Tridiagonal(NamedTuple):
    """Tridiagonal matrices of independent lines, every band shaped (..., n).

    Slot i of ``lower`` is entry (i+1, i) and of ``upper`` entry (i, i+1);
    the last slot of each line is the wall, +0.0, so the lines laid end to
    end are one tridiagonal matrix in which no line touches the next.
    """

    lower: np.ndarray  # sub-diagonal
    diag: np.ndarray
    upper: np.ndarray  # super-diagonal

    def to_dense(self) -> np.ndarray:
        """(..., n, n) dense matrices."""
        n = self.diag.shape[-1]
        dense = np.zeros(self.diag.shape + (n,))
        i = np.arange(n)
        dense[..., i, i] = self.diag
        dense[..., i[:-1], i[1:]] = self.upper[..., :-1]
        dense[..., i[1:], i[:-1]] = self.lower[..., :-1]
        return dense


class TridiagonalLowRank(NamedTuple):
    """The block lower-triangular matrix of L coupled lines of n cells.

    The lines of a sweep pass (see LineProblem), or L = 1 for a single
    coupled line: ``tri`` holds L lines, ``left`` is (rank, L, n), the layout
    the pass solve stacks under its right-hand side (see solver._solve_pass),
    and ``right`` (n, rank) is shared. With U_r = left[:, r].T, diagonal
    block r is tri_r + U_r @ right.T and block (r, s) with s < r is
    below * U_r @ right.T.
    """

    tri: Tridiagonal
    left: np.ndarray
    right: np.ndarray
    below: float

    def to_dense(self) -> np.ndarray:
        """(L*n, L*n), with the lines laid end to end."""
        blocks = np.einsum("kri,jk->rij", self.left, self.right)  # (L, n, n)
        lines, n = self.tri.diag.shape
        scale = np.tril(np.full((lines, lines), self.below), -1) + np.eye(lines)
        dense = np.einsum("rij,rs->risj", blocks, scale)
        dense[np.arange(lines), :, np.arange(lines), :] += self.tri.to_dense()
        return dense.reshape(lines * n, lines * n)


class LineProblem:
    """The implicit system of one time step on a batch of lines.

    R(a) = (a - rho_old)/dt + (F_{i+1/2} - F_{i-1/2})/dx, with ``rho_old``
    and ``v_table`` shaped (..., n), lines on the leading axes. What stays
    fixed over a solve is computed once here: the old lines' S1 face values
    (a line's bits, alone or in a batch) and, under the explicit stage rule,
    the convolution W * rho_old (the one a DensityField keeps). Without
    ``across`` the lines are independent, and an implicitly or midpoint
    staged interaction, which couples every cell of a line to every other,
    is defined on a single line only.

    ``across`` makes the (L, n) lines one sweep pass of a quadratic kernel
    (``exact_form``) under a coupling stage rule: ``across(a)`` is the
    (L, n) interaction of the other lines at state a, line r seeing lines
    s < r at a and lines s > r at rho_old, with a 1D kernel's convolution
    of line s at coefficient 1 plus a constant per line pair. Line r's
    residual is then stage r's of the sweep. The state is the (L*n,) lines
    laid end to end, the form Newton solves them in (see ``solve_lines``);
    the Jacobian is block lower triangular (see TridiagonalLowRank).

    Every per-face quantity (u, the flux, the Jacobian's off-diagonal
    bands) has one slot per cell: slot i holds face i+1/2 and the last slot
    of each line the east wall, written as +0.0. Face differences, upwinding
    and the divergence are then flat operations over the C-contiguous lines
    laid end to end: what they compute across two lines lands in a wall
    slot and is overwritten, and x - (+0.0) is x.

    Each candidate state a gets one record, computed on first use: the face
    velocities u, which the residual's upwind flux (each face upwinds the
    old S1 face values, or a's own cells under S2) and the Jacobian's bands
    read. Every call returns arrays of its own, never written by a later
    call. A call at the same state object as the previous one reuses the
    record, and a Jacobian for some lines at a copy of their rows of the
    previous full state reads those rows; the state must not be modified in
    place between calls. Under S1 every record also keeps its lines' largest
    |u| for ``peak_speed``.

    ``update_residual`` and ``update_jacobian`` give R*dt and dR/da*dt,
    the update form Newton solves, scaled as they are assembled. Both take
    the candidate state and optionally ``lines``, the first-axis indices of
    the lines that state holds. ``scheme`` is a SchemeConfig, which checks
    kind, stage rule and theta; only dt, set per call, is checked here.
    """

    def __init__(self, scheme: SchemeConfig, rho_old, dt, dx, energy, v_table, kernel,
                 across=None):
        if not (math.isfinite(dt) and dt > 0):
            raise DomainError(f"time step must be positive and finite, got {dt!r}")
        self.kind, self.stage_rule = scheme.kind, scheme.stage_rule
        self.dt, self.dx, self.energy = dt, dx, energy
        # Contiguous lines, so that the flat operations read them in place.
        self.old = np.ascontiguousarray(field_values(rho_old))
        self.v = np.ascontiguousarray(v_table, dtype=float)
        self.kernel = None if kernel is None or kernel.is_zero else kernel
        self.coupled = self.kernel is not None and self.stage_rule != EXPLICIT
        if across is not None and not (self.coupled and self.kernel.exact_form in QUADRATIC_FORMS):
            raise DomainError("lines couple across a pass only through a staged quadratic kernel")
        self.across = across
        self.conv = None
        if self.kernel is not None and not self.coupled:
            self.conv = convolve(self.kernel, rho_old)
        if self.kind == S1:
            self.east, self.west = reconstruct_faces(self.old, scheme.theta)
        self._last = (None, None, None)
        self._speeds = None

    def with_dt(self, dt) -> "LineProblem":
        """The same step over another time step, sharing what was precomputed."""
        other = copy.copy(self)
        other.dt, other._last, other._speeds = dt, (None, None, None), None
        return other

    def _state(self, a, lines, rows_of_last=False):
        """The record (a, u) of state a; see the class.

        The record's a is the state, C-contiguous and shaped as the lines
        ((L, n) under ``across``). With ``rows_of_last`` (the Jacobian,
        which Newton asks for only at an iterate it has evaluated), a copy
        of some rows of the last record, when that covers every line, is
        served as a record of those rows, and the last record is let go.
        """
        last_a, last_lines, last = self._last
        if last_a is a and last_lines is lines:
            return last
        key = a
        a = np.ascontiguousarray(a if self.across is None else a.reshape(self.old.shape))
        # Compared bit for bit, so that the rows served are the record a would get.
        if (rows_of_last and lines is not None and last is not None and last_lines is None
                and np.array_equal(last[0][lines].view(np.int64), a.view(np.int64))):
            self._last = (None, None, None)  # Newton asks for no other state's rows
            return a, last[1][lines]
        # The new record replaces the last: let that go before making this one.
        self._last, last = (None, None, None), None
        xi = self._potential(a, lines)
        u = face_velocities(xi, self.dx)
        if self.kind == S1:
            peak = np.abs(u, out=xi).max(axis=-1, initial=0.0)
            if lines is None:
                self._speeds = peak
            else:
                if self._speeds is None:
                    self._speeds = np.zeros(self.old.shape[:-1])
                self._speeds[lines] = peak
        state = (a, u)
        self._last = (key, lines, state)
        return state

    def _potential(self, a, lines):
        """xi at state a, whose lines are ``lines`` (all when None)."""
        xi = self.energy.slope_regularized(a)
        xi += self.v if lines is None else self.v[lines]
        if self.coupled:  # the density the convolution sees under the stage rule
            stage = a if self.stage_rule == IMPLICIT else 0.5 * (a + self.old)
            xi += self.kernel.cell_measure * (stage @ self.kernel.toeplitz.T)
            if self.across is not None:
                xi += self.across(a)
        elif self.conv is not None:
            xi += self.conv if lines is None else self.conv[lines]
        return xi

    def _upwinded(self, a, lines):
        """What the face slots upwind: cell i where u > 0, shaped as a's lines, and
        cell i+1 where u < 0, for slots 0 .. N-2 of the N cells laid end to end."""
        if self.kind == S2:
            return a, a.ravel()[1:]
        if lines is None:
            return self.east, self.west.ravel()[1:]
        return self.east[lines], self.west[lines].ravel()[1:]

    def potential(self, a):
        """(xi, u): the cell potential and the face velocities at state a."""
        if self.across is not None:
            a = a.reshape(self.old.shape)
        xi = self._potential(a, None)
        return xi, face_velocities(xi, self.dx)

    def peak_speed(self) -> float:
        """S1 only: max |u| over the lines, each at the last state a record was made for.

        After a solve that is the root (newton_solve evaluates each line last
        at its accepted iterate), read from records already made; 0 before any.
        """
        return 0.0 if self._speeds is None else float(self._speeds.max(initial=0.0))

    def flux(self, a) -> np.ndarray:
        """Upwind flux in the face slots at state a; the wall slots are +0.0."""
        return self._flux(*self._state(a, None), None)

    def _flux(self, a, u, lines):
        """The upwind flux at a record (a, u) in the face slots."""
        left, right = self._upwinded(a, lines)
        flux = np.maximum(u, 0.0)
        flux *= left
        downwind = np.minimum(u.ravel()[:-1], 0.0)
        downwind *= right
        faces = flux.ravel()[:-1]
        faces += downwind
        flux[..., -1] = 0.0
        return flux

    def update_residual(self, a, lines=None) -> np.ndarray:
        """R(a)*dt; defined for any real a (H' is evaluated above the vacuum floor)."""
        return self._residual(a, lines, True)

    def _residual(self, a, lines, update):
        a, u = self._state(a, lines)
        flux = self._flux(a, u, lines).ravel()
        # F_{i+1/2} - F_{i-1/2}, laid end to end: the west wall's flux is the
        # last line's east wall slot, +0.0, or none at all for the first cell.
        r = np.empty(a.shape)
        divergence = r.ravel()
        divergence[0] = flux[0]
        np.subtract(flux[1:], flux[:-1], out=divergence[1:])
        del flux  # freed before the next array is made
        r /= self.dx
        if lines is None:
            change = np.subtract(a, self.old)
        else:
            change = self.old[lines]
            np.subtract(a, change, out=change)
        change /= self.dt
        r += change  # the divergence plus (a - old)/dt
        if update:
            r *= self.dt
        return r

    def update_jacobian(self, a, lines=None):
        """dR/da*dt, the exact Jacobian of update_residual, scaled as it is assembled.

        Without coupling, a Tridiagonal per line. A coupled line sees every
        cell through the convolution's face differences T[:-1] - T[1:]. Under
        an exactly quadratic kernel (``exact_form``) those have rank 2
        (``KernelTable.difference_factors``), and the Jacobian is a
        TridiagonalLowRank: the tridiagonal part of the decoupled case at the
        coupled u, plus diag(m_face) times the two factors, pushed through
        the divergence. Under ``across`` it has one such block per line on
        its diagonal, and line s < r enters line r through the same factors
        at coefficient 1 (``below``): the constant per line pair drops out of
        the face differences. Any other coupled kernel gives the dense
        (n, n) matrix: the same tridiagonal part plus diag(m_face) times the
        full face differences, pushed through the divergence.
        """
        return self._jacobian(a, lines, self.dt)

    def _jacobian(self, a, lines, c):
        dx = self.dx
        a, u = self._state(a, lines, rows_of_last=True)
        # What each face upwinds at u: left where u > 0, right where u < 0, else 0
        # (the wall slots too), each + 0.0 as the sum with the other side's 0.0 that it is.
        left, right = self._upwinded(a, lines)
        m_face = np.where(u > 0, left, 0.0)
        m_faces = m_face.ravel()[:-1]  # slots 0 .. N-2 of the N laid end to end
        np.copyto(m_faces, right, where=u.ravel()[:-1] < 0)
        m_face += 0.0
        del left, right  # gathered rows under S1, not needed again
        dense = self.coupled and self.kernel.exact_form not in QUADRATIC_FORMS
        scale = 1.0 if dense else c  # a dense sum is scaled once, at the end

        if self.coupled:
            # The convolution's face differences times m_face, through the divergence:
            # dense for a general kernel, the rank-2 left factor for a quadratic one.
            c_rule = 1.0 if self.stage_rule == IMPLICIT else 0.5
            coef = (c_rule * self.kernel.cell_measure / dx) * m_face
            if dense:  # (n, n), the cells on the last axis
                dF = self.kernel.toeplitz_difference * coef[..., :-1, None]
                dF /= dx
                low = np.zeros(a.shape + a.shape[-1:])
                low[..., :-1, :] += dF
                low[..., 1:, :] -= dF
            else:  # (2, L, n), the layout the pass solve reads; a single line is L = 1
                faces, cells = self.kernel.difference_factors  # wall slot 0.0
                dF = faces[:, None, :] * coef
                dF /= dx
                # Laid end to end, cell i gets 0.0 + dF_i - dF_{i-1}; a wall slot's dF is 0.0.
                low = dF + 0.0
                after = low.reshape(2, -1)[:, 1:]
                after -= dF.reshape(2, -1)[:, :-1]

        # d xi_i / d a_i from the diffusion term (vacuum-floored).
        g = self.energy.curvature_regularized(a)
        # dF_j/da_j = m_j g_j/dx [+ u_j^+] and dF_j/da_{j+1} = -m_j g_{j+1}/dx [+ u_j^-],
        # the bracketed terms under S2 only; dleft ends as the first over dx and
        # dright as the second over dx, negated under S1. Both, one (2, ..., n)
        # array scaled at once, and the diagonal in g's buffer become the bands.
        pair = np.empty((2,) + u.shape)
        dleft, dright = pair
        flat_dright = dright.ravel()
        g_next, dright_faces = g.ravel()[1:], flat_dright[:-1]
        np.multiply(m_face, g, out=dleft)
        np.multiply(m_faces, g_next, out=dright_faces)
        flat_dright[-1] = 0.0  # the one slot no product wrote, so no garbage below
        del m_face, m_faces  # read into both bands, freed before the rest are made
        pair /= dx
        if self.kind == S2:
            upwind = np.maximum(u, 0.0)
            dleft += upwind
            np.subtract(np.minimum(u, 0.0, out=upwind), dright, out=dright)
        pair /= dx
        diag = g
        diag.fill(1.0 / self.dt)
        # A wall slot's entries are +-0.0 times a finite g, which leave the diagonal
        # of this line's last cell and the next line's first as they are.
        diag += dleft             # +dF_i/da_i from the right face of cell i
        if self.kind == S2:       # -dF_{i-1}/da_i from the left face
            g_next -= dright_faces  # g_next views diag's cells 1 .. N-1
        else:
            g_next += dright_faces
        diag *= scale
        # lower: -dF_{i-1}/da_{i-1}; upper: +dF_i/da_{i+1}
        if self.kind == S2:
            dleft *= -scale
            dright *= scale
        else:
            pair *= -scale
        pair[..., -1] = 0.0  # the wall slots, +0.0 after any sign change
        tri = Tridiagonal(dleft, diag, dright)
        if not self.coupled:
            return tri
        if dense:
            low += tri.to_dense()
            low *= c
            return low
        low *= c
        if self.across is None:  # a single line, the pass of L = 1
            tri = Tridiagonal(*(band.reshape(1, -1) for band in tri))
        # Earlier lines enter at coefficient 1, not c_rule: 1/c_rule is a power of two.
        return TridiagonalLowRank(tri, low, cells, 1.0 / c_rule)


def face_data(kind, rho_new, rho_old, dx, energy, v_table, kernel, stage_rule,
              theta: float = 2.0) -> FaceData:
    """Velocities, fluxes and xi for a candidate new state."""
    problem = LineProblem(SchemeConfig(kind, stage_rule, theta), rho_old, 1.0, dx, energy,
                          v_table, kernel)
    a = field_values(rho_new)
    xi, u = problem.potential(a)  # dt enters neither xi, u nor F
    return FaceData(u, problem.flux(a), xi)


def residual(kind, rho_new, rho_old, dt, dx, energy, v_table, kernel, stage_rule,
             theta: float = 2.0) -> np.ndarray:
    """R_i = (rho_new - rho_old)/dt + (F_{i+1/2} - F_{i-1/2})/dx.

    R = 0 characterizes the scheme's update; see LineProblem.
    """
    problem = LineProblem(SchemeConfig(kind, stage_rule, theta), rho_old, dt, dx, energy,
                          v_table, kernel)
    return problem._residual(field_values(rho_new), None, False)


def residual_jacobian(kind, rho_new, rho_old, dt, dx, energy, v_table, kernel,
                      stage_rule, theta: float = 2.0):
    """Exact Jacobian of ``residual`` with respect to rho_new.

    Returns a Tridiagonal when the convolution does not couple the unknowns
    (no kernel, or explicit staging); otherwise the implicit convolution
    makes every cell feel every other, and it returns a TridiagonalLowRank
    for a quadratic kernel or a dense matrix (see LineProblem.update_jacobian).
    """
    problem = LineProblem(SchemeConfig(kind, stage_rule, theta), rho_old, dt, dx, energy,
                          v_table, kernel)
    return problem._jacobian(field_values(rho_new), None, 1.0)
