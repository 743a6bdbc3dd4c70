"""Equation instances and the computational grid.

An instance of the aggregation-diffusion family is the triple (H, V, W):
a convex internal-energy density H driving (possibly degenerate) diffusion,
a confinement potential V, and a symmetric interaction potential W acting
through convolution. This module defines those ingredients together with
the uniform no-flux grid and the non-negative cell-average density field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, ShapeError

# Vacuum regularization floor: H and its derivatives are evaluated at
# max(rho, EPS_VACUUM) inside the implicit solves.
EPS_VACUUM = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# Grid


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [-L, L]^d into 2M cells per axis, no-flux walls.

    Cell centers per axis are x_i = -L + dx*(i - 1/2), i = 1..2M.
    """

    dimension: int
    half_width: float
    cells_per_half_axis: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.dimension}")
        if not self.half_width > 0:
            raise DomainError("half_width must be positive")
        if self.cells_per_half_axis < 1:
            raise DomainError("cells_per_half_axis must be >= 1")

    @property
    def dx(self) -> float:
        return self.half_width / self.cells_per_half_axis

    @property
    def n_cells(self) -> int:
        """Cells per axis (2M)."""
        return 2 * self.cells_per_half_axis

    @property
    def cell_measure(self) -> float:
        """dx in 1D, dx*dy in 2D."""
        return self.dx**self.dimension

    @property
    def shape(self) -> tuple:
        return (self.n_cells,) * self.dimension

    def axis_centers(self) -> np.ndarray:
        n = self.n_cells
        return -self.half_width + self.dx * (np.arange(1, n + 1) - 0.5)

    def cell_centers(self):
        """Centers as an (n,) array in 1D or a pair of (n, n) meshes in 2D.

        In 2D the meshes are indexed [i, j] with axis 0 the x direction.
        """
        c = self.axis_centers()
        if self.dimension == 1:
            return c
        return np.meshgrid(c, c, indexing="ij")

    def radius_squared(self) -> np.ndarray:
        """|x|^2 at cell centers, shaped like a field."""
        c = self.axis_centers()
        if self.dimension == 1:
            return c**2
        return c[:, None] ** 2 + c[None, :] ** 2


# ---------------------------------------------------------------------------
# Internal energy densities


@dataclass(frozen=True)
class InternalEnergy:
    """Convex internal-energy density H(rho).

    kinds:
      entropy        H = D (rho log rho - rho)
      power          H = D/(m-1) rho^m
      power_entropy  H = D (rho^m/(m-1) + eps*(rho log rho - rho))

    The flocking family's noise strength sigma is stored as ``diffusion``.
    """

    kind: str
    diffusion: float
    exponent: float = 2.0
    entropy_weight: float = 0.0

    def __post_init__(self):
        if self.kind not in ("entropy", "power", "power_entropy"):
            raise DomainError(f"unknown internal energy kind {self.kind!r}")
        if not self.diffusion > 0:
            raise DomainError("diffusion strength D must be positive")
        if self.kind in ("power", "power_entropy") and not self.exponent > 1:
            raise DomainError("power exponent m must exceed 1")
        if self.entropy_weight < 0:
            raise DomainError("entropy regularization weight must be >= 0")

    @classmethod
    def entropy(cls, diffusion):
        return cls("entropy", diffusion)

    @classmethod
    def power(cls, diffusion, exponent):
        return cls("power", diffusion, exponent)

    @classmethod
    def power_plus_entropy(cls, diffusion, exponent, entropy_weight):
        return cls("power_entropy", diffusion, exponent, entropy_weight)

    # Cached: the solves read both on every residual and Jacobian.
    @cached_property
    def _entropy_coeff(self) -> float:
        if self.kind == "entropy":
            return self.diffusion
        if self.kind == "power_entropy":
            return self.diffusion * self.entropy_weight
        return 0.0

    @cached_property
    def _power_coeff(self) -> float:
        # Coefficient of rho^m in H.
        if self.kind in ("power", "power_entropy"):
            return self.diffusion / (self.exponent - 1.0)
        return 0.0

    def value(self, rho):
        """H(rho), vectorized, with the limit convention H(0) = 0."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        ce = self._entropy_coeff
        if ce:
            out = out + ce * (xlogy(rho, rho) - rho)
        cp = self._power_coeff
        if cp:
            out = out + cp * rho**self.exponent
        return out

    def slope(self, rho):
        """H'(rho), vectorized; -inf/undefined values appear at rho = 0."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        ce = self._entropy_coeff
        if ce:
            with np.errstate(divide="ignore"):
                out = out + ce * np.log(rho)
        cp = self._power_coeff
        if cp:
            out = out + cp * self.exponent * rho ** (self.exponent - 1.0)
        return out

    def curvature(self, rho):
        """H''(rho), vectorized; may diverge at rho = 0."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        ce = self._entropy_coeff
        if ce:
            with np.errstate(divide="ignore"):
                out = out + ce / rho
        cp = self._power_coeff
        if cp:
            m = self.exponent
            with np.errstate(divide="ignore"):
                out = out + cp * m * (m - 1.0) * rho ** (m - 2.0)
        return out

    # The regularized forms evaluate on the floored density, where every term
    # is finite and positive (or +0.0), so they need neither slope()'s
    # errstate nor its zero start: 0.0 + x is x for such x, signed zeros too.

    def slope_regularized(self, rho):
        """H'(max(rho, machine eps)) -- the vacuum-safe form used in solves."""
        floored = np.maximum(rho, EPS_VACUUM)
        ce, cp, m = self._entropy_coeff, self._power_coeff, self.exponent
        if not cp:
            out = np.log(floored)
            if ce != 1.0:  # 1.0 * x is x
                out *= ce
            return out
        power = cp * m * floored ** (m - 1.0)
        return ce * np.log(floored) + power if ce else power

    def curvature_regularized(self, rho):
        """d/drho of slope_regularized: H''(rho) above the floor, 0 below."""
        rho = np.asarray(rho, dtype=float)
        floored = np.maximum(rho, EPS_VACUUM)
        ce, cp, m = self._entropy_coeff, self._power_coeff, self.exponent
        if not cp:
            curv = ce / floored
        else:
            curv = cp * m * (m - 1.0) * floored ** (m - 2.0)
            if ce:
                curv = ce / floored + curv
        return np.where(rho > EPS_VACUUM, curv, 0.0)


# ---------------------------------------------------------------------------
# Confinement and interaction potentials


@dataclass(frozen=True)
class Quadratic:
    """strength * |x|^2 / 2. As an interaction, strength is the sign +-1."""

    strength: float = 1.0

    def radial(self, r2, dimension):
        return 0.5 * self.strength * r2


@dataclass(frozen=True)
class Bistable:
    """strength * (|x|^4/4 - |x|^2/2): double well with minima at |x| = 1."""

    strength: float = 1.0

    def radial(self, r2, dimension):
        return self.strength * (0.25 * r2**2 - 0.5 * r2)


@dataclass(frozen=True)
class Gaussian:
    """sign * (2 pi width^2)^(-d/2) exp(-|x|^2 / (2 width^2))."""

    width: float
    sign: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError("gaussian width must be positive")
        if self.sign not in (1.0, -1.0, 1, -1):
            raise DomainError("gaussian sign must be +1 or -1")

    def radial(self, r2, dimension):
        s2 = self.width**2
        norm = (2.0 * np.pi * s2) ** (-0.5 * dimension)
        return self.sign * norm * np.exp(-0.5 * np.asarray(r2) / s2)


@dataclass(frozen=True)
class TabulatedConfinement:
    """Confinement given directly as cell-center samples."""

    samples: tuple

    def table(self, grid: Grid) -> np.ndarray:
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != grid.shape:
            raise ShapeError(
                f"tabulated confinement has shape {arr.shape}, grid wants {grid.shape}"
            )
        return arr.copy()


@dataclass(frozen=True)
class TabulatedInteraction:
    """Interaction given as offset-indexed samples W(o*dx), o = -(2M-1)..(2M-1).

    Symmetry W(o) = W(-o) is checked on input.
    """

    samples: tuple

    def __post_init__(self):
        arr = self.offsets()
        flipped = arr[::-1] if arr.ndim == 1 else arr[::-1, ::-1]
        if not np.array_equal(arr, flipped):
            raise DomainError("tabulated interaction must be symmetric in the offset")

    def offsets(self) -> np.ndarray:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim not in (1, 2) or any(s % 2 == 0 for s in arr.shape):
            raise ShapeError("offset table must have odd length per axis")
        return arr


RADIAL_POTENTIALS = (Quadratic, Bistable, Gaussian)


@dataclass(frozen=True)
class PotentialSpec:
    """The (V, W) pair; ``None`` stands for an absent potential."""

    confinement: object = None
    interaction: object = None
    interaction_singular: bool = False


@dataclass(frozen=True)
class ModelSpec:
    """One equation instance: internal energy, potentials, grid."""

    energy: InternalEnergy
    potentials: PotentialSpec
    grid: Grid

    @property
    def confinement(self):
        return self.potentials.confinement

    @property
    def interaction(self):
        return self.potentials.interaction


def sample_confinement(potentials: PotentialSpec, grid: Grid) -> np.ndarray:
    """Pointwise V at cell centers; an absent V yields an all-zero table."""
    conf = potentials.confinement
    if conf is None:
        return np.zeros(grid.shape)
    if isinstance(conf, TabulatedConfinement):
        return conf.table(grid)
    if isinstance(conf, RADIAL_POTENTIALS):
        return np.asarray(conf.radial(grid.radius_squared(), grid.dimension), dtype=float)
    raise DomainError(f"unsupported confinement potential {type(conf).__name__}")


# ---------------------------------------------------------------------------
# Density field


class DensityField:
    """Per-cell averages on a grid; non-negative up to a stated slack.

    The value array is frozen after construction; fields are safe to share.
    """

    def __init__(self, values, grid: Grid, min_allowed: float = 0.0):
        arr = np.array(values, dtype=float)
        if arr.shape != grid.shape:
            raise ShapeError(f"field shape {arr.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("density field must be finite")
        if arr.min(initial=0.0) < -abs(min_allowed):
            raise DomainError(
                f"density field has negative entries below {-abs(min_allowed):g}"
            )
        arr.setflags(write=False)
        self.values = arr
        self.grid = grid

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_measure)

    def __repr__(self):
        return f"DensityField(shape={self.values.shape}, mass={self.mass:.6g})"


def field_values(rho) -> np.ndarray:
    """Accept a DensityField or an array-like; return the value array."""
    if isinstance(rho, DensityField):
        return rho.values
    return np.asarray(rho, dtype=float)
