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

    ``velocity`` and ``flux`` cover the 2M-1 interior faces; the boundary
    fluxes are identically zero and are not stored.
    """

    velocity: np.ndarray
    flux: np.ndarray
    xi: np.ndarray


def minmod(z1, z2, z3):
    """Smallest-magnitude slope when all arguments agree in sign, else 0."""
    z1, z2, z3 = np.broadcast_arrays(
        np.asarray(z1, dtype=float), np.asarray(z2, dtype=float), np.asarray(z3, dtype=float)
    )
    mn = np.minimum(np.minimum(z1, z2), z3)
    mx = np.maximum(np.maximum(z1, z2), z3)
    # All three are positive exactly when the smallest is (a NaN fails both
    # tests either way), and all negative exactly when the largest is.
    out = np.where(mn > 0, mn, np.where(mx < 0, mx, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def reconstruct_faces(rho, theta: float = 2.0):
    """East/west face values from limited slopes; preserves non-negativity.

    Works line by line on (..., n) arrays. The two wall cells get zero slope
    (first order at the walls), which keeps the no-flux boundary exact and
    positivity trivial there.
    """
    r = field_values(rho)
    slopes_dx = np.zeros(r.shape)  # slope * dx
    if r.shape[-1] >= 3:
        fwd = r[..., 2:] - r[..., 1:-1]
        bwd = r[..., 1:-1] - r[..., :-2]
        slopes_dx[..., 1:-1] = minmod(theta * fwd, 0.5 * (fwd + bwd), theta * bwd)
    east = r + 0.5 * slopes_dx
    west = r - 0.5 * slopes_dx
    return east, west


def chemical_potential(rho_new, rho_conv, energy: InternalEnergy, v_table, kernel):
    """xi_i = H'(max(rho_i, eps)) + V_i + (W * rho_conv)_i."""
    xi = energy.slope_regularized(field_values(rho_new)) + np.asarray(v_table, dtype=float)
    if kernel is not None and not kernel.is_zero:
        xi = xi + convolve(kernel, rho_conv)
    return xi


def face_velocities(xi, dx: float) -> np.ndarray:
    """u_{i+1/2} = -(xi_{i+1} - xi_i)/dx on the interior faces of each line."""
    xi = np.asarray(xi, dtype=float)
    return (xi[..., 1:] - xi[..., :-1]) / -dx  # d/(-dx) is -(d/dx), bit for bit


class Tridiagonal(NamedTuple):
    """Tridiagonal matrices of independent lines, bands shaped (..., n-1), (..., n)."""

    lower: np.ndarray  # sub-diagonal
    diag: np.ndarray
    upper: np.ndarray  # super-diagonal

    def to_banded(self) -> np.ndarray:
        """scipy.linalg.solve_banded layout of all lines laid end to end.

        The entries that would couple the last cell of one line to the first
        of the next are zero, so one banded solve treats every line alone.
        """
        ab = np.zeros((3,) + self.diag.shape)
        ab[0, ..., 1:] = self.upper
        ab[1] = self.diag
        ab[2, ..., :-1] = self.lower
        return ab.reshape(3, -1)

    def to_dense(self) -> np.ndarray:
        """(..., n, n) dense matrices."""
        n = self.diag.shape[-1]
        dense = np.zeros(self.diag.shape + (n,))
        i = np.arange(n)
        dense[..., i, i] = self.diag
        dense[..., i[:-1], i[1:]] = self.upper
        dense[..., i[1:], i[:-1]] = self.lower
        return dense


class TridiagonalLowRank(NamedTuple):
    """One line's tri + left @ right.T, with left and right shaped (n, rank)."""

    tri: Tridiagonal
    left: np.ndarray
    right: np.ndarray

    def to_dense(self) -> np.ndarray:
        return self.tri.to_dense() + self.left @ self.right.T


class LineProblem:
    """The implicit system of one time step on a batch of independent lines.

    R(a) = (a - rho_old)/dt + (F_{i+1/2} - F_{i-1/2})/dx, with ``rho_old``
    and ``v_table`` shaped (..., n), lines on the leading axes. What stays
    fixed over a solve is computed once here: the old state's S1 face
    values (or ``faces``, the (east, west) pair a caller reconstructed for
    many lines at once) and, under the explicit stage rule, the convolution
    W * rho_old. An implicitly or midpoint staged interaction couples every
    cell of a line to every other and is defined on a single line only.

    Each candidate state a gets one record, computed on first use: xi, the
    face velocities u, u+ = max(u, 0), u- = min(u, 0), and the two values
    each face upwinds (the old S1 face values, or a's own cells under S2).
    The residual's flux, the Jacobian's bands and ``velocity`` all read it;
    a call at the same state object as the previous one reuses it, so the
    state must not be modified in place between calls.

    ``residual`` and ``jacobian`` give R and dR/da; ``update_residual`` and
    ``update_jacobian`` give R*dt and dR/da*dt, the update form Newton
    solves, scaled as they are assembled and equal bit for bit to dt times
    the unscaled forms. All four take the candidate state and optionally
    ``lines``, the first-axis indices of the lines that state holds.
    """

    def __init__(self, kind, rho_old, dt, dx, energy, v_table, kernel, stage_rule,
                 theta: float = 2.0, faces=None):
        if kind not in SCHEME_KINDS:
            raise DomainError(f"unknown scheme kind {kind!r}")
        if stage_rule not in STAGE_RULES:
            raise DomainError(f"unknown stage rule {stage_rule!r}")
        if not (math.isfinite(dt) and dt > 0):
            raise DomainError(f"time step must be positive and finite, got {dt!r}")
        self.kind, self.dt, self.dx, self.energy = kind, dt, dx, energy
        self.old = field_values(rho_old)
        self.v = np.asarray(v_table, dtype=float)
        self.kernel = None if kernel is None or kernel.is_zero else kernel
        self.coupled = self.kernel is not None and stage_rule != EXPLICIT
        self.stage_rule = stage_rule
        self.conv = None
        if self.kernel is not None and not self.coupled:
            self.conv = convolve(self.kernel, self.old)
        if kind == S1:
            self.east, self.west = faces if faces is not None else reconstruct_faces(
                self.old, theta)
            # What a face upwinds when u > 0 and when u < 0.
            self._upwind = (self.east[..., :-1], self.west[..., 1:])
        self._last = (None, None, None)

    def with_dt(self, dt) -> "LineProblem":
        """The same step over another time step, sharing what was precomputed."""
        other = copy.copy(self)
        other.dt, other._last = dt, (None, None, None)
        return other

    def _state(self, a, lines):
        """(xi, u, u+, u-, upwinded left, upwinded right) at state a; see the class."""
        last = self._last
        if last[0] is a and last[1] is lines:
            return last[2]
        xi = self.energy.slope_regularized(a)
        xi += self.v if lines is None else self.v[lines]
        if self.coupled:  # the density the convolution sees under the stage rule
            stage = a if self.stage_rule == IMPLICIT else 0.5 * (a + self.old)
            xi += self.kernel.cell_measure * (self.kernel.toeplitz @ stage)
        elif self.conv is not None:
            xi += self.conv if lines is None else self.conv[lines]
        u = face_velocities(xi, self.dx)
        if self.kind == S1:
            left, right = self._upwind if lines is None else (
                self._upwind[0][lines], self._upwind[1][lines])
        else:
            left, right = a[..., :-1], a[..., 1:]
        state = (xi, u, np.maximum(u, 0.0), np.minimum(u, 0.0), left, right)
        self._last = (a, lines, state)
        return state

    def potential(self, a, lines=None):
        """(xi, u): the cell potential and the face velocities at state a."""
        return self._state(a, lines)[:2]

    def velocity(self, a) -> np.ndarray:
        return self._state(a, None)[1]

    def _walled_flux(self, a, lines):
        """The upwind fluxes at state a between the two zero wall fluxes, (..., n+1)."""
        _, _, up, um, left, right = self._state(a, lines)
        walled = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
        flux = walled[..., 1:-1]
        np.multiply(left, up, out=flux)
        flux += right * um
        return walled

    def flux(self, a, lines=None) -> np.ndarray:
        """Upwind flux on the interior faces at state a; walls carry none."""
        return self._walled_flux(a, lines)[..., 1:-1]

    def residual(self, a, lines=None) -> np.ndarray:
        """R(a); defined for any real a (H' is evaluated above the vacuum floor)."""
        return self._residual(a, lines, False)

    def update_residual(self, a, lines=None) -> np.ndarray:
        """R(a)*dt, equal bit for bit to dt * residual(a, lines)."""
        return self._residual(a, lines, True)

    def _residual(self, a, lines, update):
        walled = self._walled_flux(a, lines)
        divergence = walled[..., 1:] - walled[..., :-1]
        divergence /= self.dx
        r = a - (self.old if lines is None else self.old[lines])
        r /= self.dt
        r += divergence
        if update:
            r *= self.dt
        return r

    def jacobian(self, a, lines=None):
        """Exact dR/da.

        Without coupling, a Tridiagonal per line. A coupled line sees every
        cell through the convolution's face differences T[:-1] - T[1:]. Under
        an exactly quadratic kernel (``exact_form``) those have rank 2
        (``KernelTable.difference_factors``), and the Jacobian is a
        TridiagonalLowRank: the tridiagonal part of the decoupled case at the
        coupled u, plus diag(m_face) times the two factors, pushed through
        the divergence. Any other coupled kernel gives the dense (n, n)
        matrix.
        """
        return self._jacobian(a, lines, 1.0)

    def update_jacobian(self, a, lines=None):
        """dR/da*dt, the Jacobian of update_residual, scaled as it is assembled.

        Every band, dense entry and low-rank left factor equals dt times the
        matching one of ``jacobian`` bit for bit.
        """
        return self._jacobian(a, lines, self.dt)

    def _jacobian(self, a, lines, c):
        dx = self.dx
        _, u, up, um, left, right = self._state(a, lines)
        # d xi_i / d a_i from the diffusion term (vacuum-floored).
        g = self.energy.curvature_regularized(a)
        m_face = np.where(u > 0, left, 0.0) + np.where(u < 0, right, 0.0)
        if self.coupled and self.kernel.exact_form not in QUADRATIC_FORMS:
            return self._dense_jacobian(a, up, um, g, m_face, c)

        # dF_j/da_j = m_j g_j/dx [+ u_j^+] and dF_j/da_{j+1} = -m_j g_{j+1}/dx [+ u_j^-],
        # the bracketed terms under S2 only; dleft and dright end as these over dx.
        dleft = m_face * g[..., :-1]
        dleft /= dx
        dright = m_face * g[..., 1:]
        dright /= dx
        if self.kind == S2:
            dleft += up
            np.subtract(um, dright, out=dright)
        else:
            np.negative(dright, out=dright)
        dleft /= dx
        dright /= dx
        diag = np.empty(a.shape)
        diag.fill(1.0 / self.dt)
        diag[..., :-1] += dleft   # +dF_i/da_i from the right face of cell i
        diag[..., 1:] -= dright   # -dF_{i-1}/da_i from the left face
        diag *= c
        # lower: -dF_{i-1}/da_{i-1}; upper: +dF_i/da_{i+1}
        tri = Tridiagonal(dleft * -c, diag, dright * c)
        if not self.coupled:
            return tri

        c_rule = 1.0 if self.stage_rule == IMPLICIT else 0.5
        faces, cells = self.kernel.difference_factors
        dF = faces * ((c_rule * self.kernel.cell_measure / dx) * m_face)[:, None]
        dF /= dx
        low = np.zeros(cells.shape)
        low[:-1] += dF
        low[1:] -= dF
        low *= c
        return TridiagonalLowRank(tri, low, cells)

    def _dense_jacobian(self, a, up, um, g, m_face, c):
        dx = self.dx
        n = a.size
        c_rule = 1.0 if self.stage_rule == IMPLICIT else 0.5
        # du_j/da = -(dxi_{j+1} - dxi_j)/dx, dxi = c_rule*cell_measure*T + diag(g).
        du = (c_rule * self.kernel.cell_measure / dx) * self.kernel.toeplitz_difference
        idx = np.arange(n - 1)
        du[idx, idx] += g[:-1] / dx
        du[idx, idx + 1] -= g[1:] / dx
        dF = m_face[:, None] * du
        if self.kind == S2:
            dF[idx, idx] += up
            dF[idx, idx + 1] += um
        jac = np.zeros((n, n))
        jac[:-1, :] += dF / dx
        jac[1:, :] -= dF / dx
        jac[np.diag_indices(n)] += 1.0 / self.dt
        jac *= c
        return jac


def face_data(kind, rho_new, rho_old, dx, energy, v_table, kernel, stage_rule,
              theta: float = 2.0) -> FaceData:
    """Velocities, fluxes and xi for a candidate new state."""
    problem = LineProblem(kind, rho_old, 1.0, dx, energy, v_table, kernel, stage_rule, theta)
    a = field_values(rho_new)
    xi, u = problem.potential(a)  # dt enters neither xi, u nor F
    return FaceData(u, problem.flux(a), xi)


def residual(kind, rho_new, rho_old, dt, dx, energy, v_table, kernel, stage_rule,
             theta: float = 2.0) -> np.ndarray:
    """R_i = (rho_new - rho_old)/dt + (F_{i+1/2} - F_{i-1/2})/dx.

    R = 0 characterizes the scheme's update; see LineProblem.
    """
    problem = LineProblem(kind, rho_old, dt, dx, energy, v_table, kernel, stage_rule, theta)
    return problem.residual(field_values(rho_new))


def residual_jacobian(kind, rho_new, rho_old, dt, dx, energy, v_table, kernel,
                      stage_rule, theta: float = 2.0):
    """Exact Jacobian of ``residual`` with respect to rho_new.

    Returns a Tridiagonal when the convolution does not couple the unknowns
    (no kernel, or explicit staging); otherwise the implicit convolution
    makes every cell feel every other, and it returns a TridiagonalLowRank
    for a quadratic kernel or a dense matrix (see LineProblem.jacobian).
    """
    problem = LineProblem(kind, rho_old, dt, dx, energy, v_table, kernel, stage_rule, theta)
    return problem.jacobian(field_values(rho_new))
