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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import toeplitz

from .errors import DomainError
from .kernels import EXPLICIT, IMPLICIT, MIDPOINT, STAGE_RULES, convolve
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
    all_pos = (z1 > 0) & (z2 > 0) & (z3 > 0)
    all_neg = (z1 < 0) & (z2 < 0) & (z3 < 0)
    mn = np.minimum(np.minimum(z1, z2), z3)
    mx = np.maximum(np.maximum(z1, z2), z3)
    out = np.where(all_pos, mn, np.where(all_neg, mx, 0.0))
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
    return -np.diff(np.asarray(xi, dtype=float)) / dx


def assemble_flux(kind: str, velocity, rho_new, east=None, west=None) -> np.ndarray:
    """Upwind flux per interior face; walls carry no flux.

    S1 upwinds the reconstructed old-state face values; S2 upwinds the
    unknown state itself.
    """
    u = np.asarray(velocity, dtype=float)
    up = np.maximum(u, 0.0)
    um = np.minimum(u, 0.0)
    if kind == S1:
        if east is None or west is None:
            raise DomainError("S1 flux needs reconstructed face values")
        return east[..., :-1] * up + west[..., 1:] * um
    if kind == S2:
        r = field_values(rho_new)
        return r[..., :-1] * up + r[..., 1:] * um
    raise DomainError(f"unknown scheme kind {kind!r}")


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

    def scaled(self, c: float) -> "Tridiagonal":
        return Tridiagonal(c * self.lower, c * self.diag, c * self.upper)


class LineProblem:
    """The implicit system of one time step on a batch of independent lines.

    R(a) = (a - rho_old)/dt + (F_{i+1/2} - F_{i-1/2})/dx, with ``rho_old``
    and ``v_table`` shaped (..., n), lines on the leading axes. What stays
    fixed over a solve is computed once here: the old state's S1 face
    values and, under the explicit stage rule, the convolution W * rho_old.
    An implicitly or midpoint staged interaction couples every cell of a
    line to every other and is defined on a single line only.

    ``residual`` and ``jacobian`` take the candidate state and optionally
    ``lines``, the first-axis indices of the lines that state holds. A call
    at the same state object as the previous one reuses its xi and u, so
    the state must not be modified in place between calls.
    """

    def __init__(self, kind, rho_old, dt, dx, energy, v_table, kernel, stage_rule,
                 theta: float = 2.0):
        if kind not in SCHEME_KINDS:
            raise DomainError(f"unknown scheme kind {kind!r}")
        if stage_rule not in STAGE_RULES:
            raise DomainError(f"unknown stage rule {stage_rule!r}")
        if not (np.isfinite(dt) and dt > 0):
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
            self.east, self.west = reconstruct_faces(self.old, theta)
        self._last = None

    @staticmethod
    def _rows(values, lines):
        return values if lines is None else values[lines]

    def potential(self, a, lines=None):
        """(xi, u): the cell potential and the face velocities at state a."""
        last = self._last
        if last is not None and last[0] is a and last[1] is lines:
            return last[2], last[3]
        kernel, stage = None, None
        if self.coupled:  # the density the convolution sees under the stage rule
            kernel = self.kernel
            stage = a if self.stage_rule == IMPLICIT else 0.5 * (a + self.old)
        xi = chemical_potential(a, stage, self.energy, self._rows(self.v, lines), kernel)
        if self.conv is not None:
            xi = xi + self._rows(self.conv, lines)
        u = face_velocities(xi, self.dx)
        self._last = (a, lines, xi, u)
        return xi, u

    def velocity(self, a) -> np.ndarray:
        return self.potential(a)[1]

    def flux(self, a, u, lines=None) -> np.ndarray:
        if self.kind == S1:
            return assemble_flux(S1, u, a, self._rows(self.east, lines),
                                 self._rows(self.west, lines))
        return assemble_flux(S2, u, a)

    def residual(self, a, lines=None) -> np.ndarray:
        """R(a); defined for any real a (H' is evaluated above the vacuum floor)."""
        flux = self.flux(a, self.potential(a, lines)[1], lines)
        divergence = np.diff(flux, prepend=0.0, append=0.0) / self.dx  # zero wall fluxes
        return (a - self._rows(self.old, lines)) / self.dt + divergence

    def jacobian(self, a, lines=None):
        """Exact dR/da: a Tridiagonal per line, or a dense matrix when coupled."""
        dx = self.dx
        u = self.potential(a, lines)[1]
        pos = u > 0
        neg = u < 0
        # d xi_i / d a_i from the diffusion term (vacuum-floored).
        g = self.energy.curvature_regularized(a)
        if self.kind == S1:
            east, west = self._rows(self.east, lines), self._rows(self.west, lines)
            m_face = np.where(pos, east[..., :-1], 0.0) + np.where(neg, west[..., 1:], 0.0)
        else:
            m_face = np.where(pos, a[..., :-1], 0.0) + np.where(neg, a[..., 1:], 0.0)

        if not self.coupled:
            # dF_j/da_j = [S2] u_j^+ + m_j g_j / dx ; dF_j/da_{j+1} = [S2] u_j^- - m_j g_{j+1}/dx
            dF_dleft = m_face * g[..., :-1] / dx
            dF_dright = -m_face * g[..., 1:] / dx
            if self.kind == S2:
                dF_dleft = dF_dleft + np.maximum(u, 0.0)
                dF_dright = dF_dright + np.minimum(u, 0.0)
            diag = np.full(a.shape, 1.0 / self.dt)
            diag[..., :-1] += dF_dleft / dx     # +dF_i/da_i from the right face of cell i
            diag[..., 1:] += -dF_dright / dx    # -dF_{i-1}/da_i from the left face
            # lower: -dF_{i-1}/da_{i-1}; upper: +dF_i/da_{i+1}
            return Tridiagonal(-dF_dleft / dx, diag, dF_dright / dx)

        n = a.size
        c_rule = 1.0 if self.stage_rule == IMPLICIT else 0.5
        w = self.kernel.values
        col = w[n - 1 : 2 * n - 1]      # W at offsets 0..n-1
        row = w[n - 1 :: -1][:n]        # W at offsets 0..-(n-1)
        dxi = c_rule * self.kernel.cell_measure * toeplitz(col, row)
        dxi[np.diag_indices(n)] += g
        du = (dxi[:-1, :] - dxi[1:, :]) / dx  # du_j/da = -(dxi_{j+1} - dxi_j)/dx
        dF = m_face[:, None] * du
        if self.kind == S2:
            idx = np.arange(n - 1)
            dF[idx, idx] += np.maximum(u, 0.0)
            dF[idx, idx + 1] += np.minimum(u, 0.0)
        jac = np.zeros((n, n))
        jac[:-1, :] += dF / dx
        jac[1:, :] -= dF / dx
        jac[np.diag_indices(n)] += 1.0 / self.dt
        return jac


def face_data(kind, rho_new, rho_old, dx, energy, v_table, kernel, stage_rule,
              theta: float = 2.0) -> FaceData:
    """Velocities, fluxes and xi for a candidate new state."""
    problem = LineProblem(kind, rho_old, 1.0, dx, energy, v_table, kernel, stage_rule, theta)
    a = field_values(rho_new)
    xi, u = problem.potential(a)  # dt enters neither xi, u nor F
    return FaceData(u, problem.flux(a, u), xi)


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
    (no kernel, or explicit staging); otherwise a dense matrix -- the
    implicit convolution makes every cell feel every other.
    """
    problem = LineProblem(kind, rho_old, dt, dx, energy, v_table, kernel, stage_rule, theta)
    return problem.jacobian(field_values(rho_new))


def max_stable_dt(kind, velocity, dx, order: int = 2) -> float:
    """Largest dt guaranteeing positivity for the given face velocities.

    S2 is unconditional (+inf). For S1 the second-order bound is
    dx / (2 max_faces max(u^+, -u^-)); the first-order variant uses the
    per-cell spread (u_{i+1/2})^+ - (u_{i-1/2})^-.
    """
    if kind == S2:
        return np.inf
    u = np.asarray(velocity, dtype=float)
    if u.size == 0:
        return np.inf
    if order == 2:
        peak = np.max(np.maximum(np.maximum(u, 0.0), np.maximum(-u, 0.0)))
        if peak == 0.0:
            return np.inf
        return dx / (2.0 * peak)
    if order == 1:
        up = np.concatenate((np.maximum(u, 0.0), [0.0]))   # right face of each cell
        um = np.concatenate(([0.0], np.minimum(u, 0.0)))   # left face of each cell
        spread = np.max(up - um)
        if spread == 0.0:
            return np.inf
        return dx / spread
    raise DomainError("order must be 1 or 2")
