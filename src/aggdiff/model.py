"""Equation instances and the computational grid.

An instance of the aggregation-diffusion family is the triple (H, V, W):
a convex internal-energy density H driving (possibly degenerate) diffusion,
a confinement potential V, and a symmetric interaction potential W acting
through convolution. This module defines those ingredients together with
the uniform no-flux grid and the non-negative cell-average density field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

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
        if not isinstance(self.dimension, Integral) or self.dimension not in (1, 2):
            raise DomainError(f"dimension must be the integer 1 or 2, got {self.dimension!r}")
        if not 0 < self.half_width < math.inf:
            raise DomainError(f"half_width must be positive and finite, got {self.half_width!r}")
        if not isinstance(self.cells_per_half_axis, Integral) or self.cells_per_half_axis < 1:
            raise DomainError(f"cells_per_half_axis must be an integer >= 1, "
                              f"got {self.cells_per_half_axis!r}")

    # Cached: every step reads dx, the cell measure and the shape.
    @cached_property
    def dx(self) -> float:
        return self.half_width / self.cells_per_half_axis

    @property
    def n_cells(self) -> int:
        """Cells per axis (2M)."""
        return 2 * self.cells_per_half_axis

    @cached_property
    def cell_measure(self) -> float:
        """dx in 1D, dx*dy in 2D."""
        return self.dx**self.dimension

    @cached_property
    def shape(self) -> tuple:
        return (self.n_cells,) * self.dimension

    def axis_centers(self) -> np.ndarray:
        n = self.n_cells
        return -self.half_width + self.dx * (np.arange(1, n + 1) - 0.5)

    def cell_centers(self) -> tuple:
        """One (n,)*d mesh of centers per axis, indexed [i, j, ...] with axis 0 the x direction.

        A 1-tuple in 1D.
        """
        return tuple(np.meshgrid(*[self.axis_centers()] * self.dimension, indexing="ij"))

    def radius_squared(self) -> np.ndarray:
        """|x|^2 at cell centers, shaped like a field."""
        return sum(x**2 for x in self.cell_centers())


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
        for name in ("diffusion", "exponent", "entropy_weight"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.diffusion > 0:
            raise DomainError("diffusion strength D must be positive")
        if self.kind in ("power", "power_entropy") and not self.exponent > 1:
            raise DomainError("power exponent m must exceed 1")
        if self.entropy_weight < 0:
            raise DomainError("entropy regularization weight must be >= 0")
        # D/(m-1) can underflow to 0 (and drop the power term) or overflow.
        if self.kind != "entropy" and not 0 < self._power_coeff < math.inf:
            raise DomainError(f"power coefficient diffusion/(exponent - 1) = "
                              f"{self.diffusion!r}/({self.exponent!r} - 1) is "
                              f"{self._power_coeff!r}, not a positive finite number")
        # D*eps can underflow to 0 (and drop the entropy term) or overflow; eps = 0 has none.
        if (self.kind == "power_entropy" and self.entropy_weight
                and not 0 < self._entropy_coeff < math.inf):
            raise DomainError(f"entropy coefficient diffusion*entropy_weight = "
                              f"{self.diffusion!r}*{self.entropy_weight!r} is "
                              f"{self._entropy_coeff!r}, not a positive finite number")
        if self._entropy_coeff:
            self._xlogy  # scipy.special loads with the model, not at its first energy

    # Cached: the solves read both on every residual and Jacobian.
    @cached_property
    def _entropy_coeff(self) -> float:
        if self.kind == "entropy":
            return self.diffusion
        if self.kind == "power_entropy":
            return self.diffusion * self.entropy_weight
        return 0.0

    @cached_property
    def _xlogy(self):
        from scipy.special import xlogy  # only an entropy term needs scipy.special

        return xlogy

    @cached_property
    def _power_coeff(self) -> float:
        # Coefficient of rho^m in H.
        if self.kind in ("power", "power_entropy"):
            return self.diffusion / (self.exponent - 1.0)
        return 0.0

    def value(self, rho):
        """H(rho), vectorized, with the limit convention H(0) = 0.

        The terms add up as a sum started from 0.0 does: the first gets
        + 0.0, which turns a -0.0 into 0.0 and leaves every other value.
        """
        rho = np.asarray(rho, dtype=float)
        out = None
        ce = self._entropy_coeff
        if ce:
            out = self._xlogy(rho, rho)
            out -= rho
            if ce != 1.0:  # 1.0 * x is x
                out *= ce
            out += 0.0
        cp = self._power_coeff
        if cp:
            power = rho**self.exponent
            power *= cp
            if out is None:
                out = power
                out += 0.0
            else:
                out += power
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
        curv = np.maximum(rho, EPS_VACUUM, out=np.empty(rho.shape))  # the floored density
        ce, cp, m = self._entropy_coeff, self._power_coeff, self.exponent
        if not cp:
            np.divide(ce, curv, out=curv)
        else:
            entropy = ce / curv if ce else None
            curv **= m - 2.0
            curv *= cp * m * (m - 1.0)
            if ce:
                curv += entropy
        np.copyto(curv, 0.0, where=~(rho > EPS_VACUUM))
        return curv


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
        try:  # a float width whose square or norm leaves the float range raises here
            s2 = self.width**2
            norm = (2.0 * np.pi * s2) ** (-0.5 * dimension)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(
                f"gaussian width {self.width!r} is out of floating-point range") from None
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
        if not np.array_equal(arr, np.flip(arr)):
            raise DomainError("tabulated interaction must be symmetric in the offset")

    def offsets(self) -> np.ndarray:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim not in (1, 2) or any(s % 2 == 0 for s in arr.shape):
            raise ShapeError("offset table must have odd length per axis")
        return arr


RADIAL_POTENTIALS = (Quadratic, Bistable, Gaussian)


@dataclass(frozen=True)
class ModelSpec:
    """One equation instance: internal energy, grid, confinement V and interaction W.

    ``None`` stands for an absent potential.
    """

    energy: InternalEnergy
    grid: Grid
    confinement: object = None
    interaction: object = None

    @cached_property
    def v_table(self) -> np.ndarray:
        """V at the cell centres (``sample_confinement``), tabulated once and read-only."""
        table = sample_confinement(self.confinement, self.grid)
        table.setflags(write=False)
        return table


def sample_confinement(conf, grid: Grid) -> np.ndarray:
    """Pointwise V at cell centers; an absent V (None) yields an all-zero table.

    A V that is not finite at some center raises DomainError.
    """
    if conf is None:
        return np.zeros(grid.shape)
    if isinstance(conf, TabulatedConfinement):
        table = conf.table(grid)
    elif isinstance(conf, RADIAL_POTENTIALS):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            table = np.asarray(conf.radial(grid.radius_squared(), grid.dimension), dtype=float)
    else:
        raise DomainError(f"unsupported confinement potential {type(conf).__name__}")
    if not np.isfinite(table).all():
        raise DomainError("confinement potential is not finite on the grid")
    return table


# ---------------------------------------------------------------------------
# Density field


class DensityField:
    """Per-cell averages on a grid; non-negative up to a stated slack.

    The value array is frozen after construction, so fields are safe to
    share and nothing derived from the values can go stale. A field keeps
    what its checks computed: ``minimum``, its smallest entry; ``slack``
    (no entry lies below -slack); and ``mass``. It also has two slots that
    others fill on first use: ``convolution``, (table, W * values) for the
    last kernel table it met, which ``kernels.convolve`` fills and reads,
    and ``priced``, (setup, energy) for the last setup, which
    ``solver.clipped_energy`` fills and reads. So a state that is stepped
    from and priced under one setup is convolved once and priced once, and
    a field holds at most one array besides its values.
    """

    def __init__(self, values, grid: Grid, min_allowed: float = 0.0):
        arr = np.array(values, dtype=float)
        if arr.shape != grid.shape:
            raise ShapeError(f"field shape {arr.shape} does not match grid {grid.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("density field must be finite")
        self._take(arr, grid, abs(min_allowed), arr.min(), arr.sum())

    @classmethod
    def adopt(cls, arr, grid: Grid, slack: float, minimum, total) -> "DensityField":
        """A field that takes over ``arr``, a new float array shaped like ``grid``.

        ``minimum`` and ``total`` are ``arr.min()`` and ``arr.sum()``, which
        the caller has taken for checks of its own: they are not taken
        again, and ``arr`` is frozen in place, not copied.
        """
        # A finite sum has finite terms only; any other is checked term by term.
        if not math.isfinite(total) and not np.isfinite(arr).all():
            raise DomainError("density field must be finite")
        field = cls.__new__(cls)
        field._take(arr, grid, slack, minimum, total)
        return field

    def _take(self, arr, grid, slack, minimum, total):
        if minimum < -slack:
            raise DomainError(f"density field dips to {minimum:g}, below -{slack:g}")
        arr.setflags(write=False)
        self.values = arr
        self.grid = grid
        self.minimum = float(minimum)
        self.slack = slack
        self.mass = float(total * grid.cell_measure)
        self.priced = (None, None)
        self.convolution = (None, None)

    def __repr__(self):
        return f"DensityField(shape={self.values.shape}, mass={self.mass:.6g})"


def field_values(rho) -> np.ndarray:
    """Accept a DensityField or an array-like; return the value array."""
    if isinstance(rho, DensityField):
        return rho.values
    return np.asarray(rho, dtype=float)
