"""Diagnostics and analytic reference solutions.

The discrete free energy is the Lyapunov functional the schemes must not
increase; the reference solutions (heat kernel, Barenblatt profile, the
transient and steady Fokker-Planck states) provide the exact fields the
convergence studies measure against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError
from .kernels import QUADRATIC_FORMS, KernelTable, convolve
from .model import DensityField, Grid, ModelSpec, field_values


@dataclass(frozen=True)
class EnergyBreakdown:
    """E = internal + confinement + interaction, stored term by term."""

    internal: float
    confinement: float
    interaction: float

    @property
    def total(self) -> float:
        return self.internal + self.confinement + self.interaction


def discrete_energy(rho, model: ModelSpec, kernel: KernelTable | None = None) -> EnergyBreakdown:
    """Discrete free energy with the H(0) = 0 convention.

    The interaction term must use the same kernel table as the scheme, so
    callers pass the tabulated kernel through rather than re-deriving it.
    It is measure/2 * sum_i rho_i (W * rho)_i, the paper's double sum
    measure^2/2 * sum_{i,k} W_{i-k} rho_i rho_k. For a quadratic table
    (``kernel.exact_form in QUADRATIC_FORMS``, W = +-|x|^2/2 pointwise or
    cell-averaged), W_o = W_0 + sum_a alpha_a o_a^2 turns that sum into
    W_0 M^2 + sum_a 2 alpha_a (M S2_a - S1_a^2), with M the total of rho
    and S1_a, S2_a the first and second moments of its margin along axis a
    in centred index units; no convolution is taken. Every other kernel
    convolves (``convolve``).

    ``rho`` is an array or a DensityField, whose values are finite and whose
    minimum it keeps, so a field is not scanned again; a field's convolution
    is the one it keeps (see ``convolve``). Raises ShapeError for a density
    not shaped like ``model.grid`` and DomainError for a negative or
    non-finite one.
    """
    vals = field_values(rho)
    if vals.shape != model.grid.shape:
        raise ShapeError(f"density shape {vals.shape} does not match the grid's {model.grid.shape}")
    if isinstance(rho, DensityField):
        negative = rho.minimum < 0.0
    else:
        if not np.isfinite(vals).all():
            raise DomainError("discrete energy is defined for finite densities")
        negative = np.any(vals < 0)
    if negative:
        raise DomainError("discrete energy is defined for non-negative densities")
    measure = model.grid.cell_measure
    internal = float(model.energy.value(vals).sum() * measure)
    if model.confinement is None:
        confinement = 0.0
    else:
        confinement = float((model.v_table * vals).sum() * measure)
    if kernel is None or kernel.is_zero:
        interaction = 0.0
    elif kernel.exact_form in QUADRATIC_FORMS:
        interaction = _quadratic_interaction(vals, kernel, measure)
    else:
        interaction = float(0.5 * (vals * convolve(kernel, rho)).sum() * measure)
    return EnergyBreakdown(internal, confinement, interaction)


def _quadratic_interaction(vals, kernel: KernelTable, measure) -> float:
    """The interaction energy of a quadratic table from three moments per axis."""
    w0, alphas = kernel.quadratic_coefficients
    total = vals.sum()
    n = vals.shape[0]
    p = np.arange(n) - 0.5 * (n - 1)
    form = w0 * total * total
    for axis, alpha in enumerate(alphas):
        margin = vals.sum(axis=tuple(a for a in range(vals.ndim) if a != axis))
        s1, s2 = p @ margin, (p * p) @ margin
        form += 2.0 * alpha * (total * s2 - s1 * s1)
    return float(0.5 * measure * kernel.cell_measure * form)


# ---------------------------------------------------------------------------
# Reference solutions

HEAT_KERNEL = "heat_kernel"
BARENBLATT = "barenblatt"
FP_TRANSIENT = "fp_transient"
FP_STEADY = "fp_steady"


@dataclass(frozen=True)
class ReferenceSolution:
    """A closed-form density rho*(t, x) used for validation.

    kinds:
      heat_kernel   (4 pi D t)^(-n/2) exp(-|x|^2 / 4Dt)
      barenblatt    t^(-alpha) (K - kappa |x|^2 t^(-2 beta))_+^(1/(m-1))
      fp_transient  point source evolving under the linear Fokker-Planck flow
      fp_steady     its Gaussian steady state

    For the Barenblatt profile, K is resolved from the total mass through
    mass = a(m, n) K^gamma.
    """

    kind: str
    dimension: int
    diffusion: float = 1.0
    exponent: float = 2.0
    mass: float | None = 1.0

    def __post_init__(self):
        if self.kind not in (HEAT_KERNEL, BARENBLATT, FP_TRANSIENT, FP_STEADY):
            raise DomainError(f"unknown reference kind {self.kind!r}")
        if self.dimension not in (1, 2):
            raise DomainError("reference dimension must be 1 or 2")

    # Barenblatt constants, all derived from (m, n, D).
    @property
    def alpha(self) -> float:
        n, m = self.dimension, self.exponent
        return n / (n * (m - 1.0) + 2.0)

    @property
    def beta(self) -> float:
        return self.alpha / self.dimension

    @property
    def kappa(self) -> float:
        m = self.exponent
        return self.beta * (m - 1.0) / (2.0 * self.diffusion * m)

    @property
    def gamma(self) -> float:
        return 1.0 / (self.exponent - 1.0) + self.dimension / 2.0

    @property
    def mass_constant(self) -> float:
        """a(m, n) in mass = a K^gamma."""
        n, m, d = self.dimension, self.exponent, self.diffusion
        prefactor = (math.pi * 2.0 * d * m * n / (self.alpha * (m - 1.0))) ** (n / 2.0)
        return prefactor * math.gamma(m / (m - 1.0)) / math.gamma(m / (m - 1.0) + n / 2.0)

    @property
    def profile_constant(self) -> float:
        """K resolved from the configured mass."""
        if self.mass is None:
            raise ConfigurationError("Barenblatt profile needs a total mass to fix K")
        return (self.mass / self.mass_constant) ** (1.0 / self.gamma)


def reference_eval(ref: ReferenceSolution, t: float, *coords) -> np.ndarray:
    """Pointwise reference density at time t and the given coordinates.

    Pass one array for 1D, two (broadcastable) arrays for 2D.
    """
    if len(coords) != ref.dimension:
        raise DomainError(f"expected {ref.dimension} coordinate arrays, got {len(coords)}")
    r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
    n = ref.dimension
    d = ref.diffusion
    if ref.kind == HEAT_KERNEL:
        if not t > 0:
            raise DomainError("heat kernel requires t > 0")
        return (4.0 * math.pi * d * t) ** (-n / 2.0) * np.exp(-r2 / (4.0 * d * t))
    if ref.kind == BARENBLATT:
        if not t > 0:
            raise DomainError("Barenblatt profile requires t > 0")
        k = ref.profile_constant
        m = ref.exponent
        arg = k - ref.kappa * r2 * t ** (-2.0 * ref.beta)
        return t ** (-ref.alpha) * np.maximum(arg, 0.0) ** (1.0 / (m - 1.0))
    if ref.kind == FP_TRANSIENT:
        if not t > 0:
            raise DomainError("transient Fokker-Planck solution requires t > 0")
        var = d * (1.0 - math.exp(-2.0 * t))
        return (2.0 * math.pi * var) ** (-n / 2.0) * np.exp(-r2 / (2.0 * var))
    # FP_STEADY
    return (2.0 * math.pi * d) ** (-n / 2.0) * np.exp(-r2 / (2.0 * d))


def sample_reference(ref: ReferenceSolution, t: float, grid: Grid) -> np.ndarray:
    """Reference evaluated at cell centers (the error-table convention)."""
    if grid.dimension != ref.dimension:
        raise DomainError("grid and reference dimensions differ")
    return reference_eval(ref, t, *grid.cell_centers())


def l1_error(rho, ref: ReferenceSolution, t: float, grid: Grid) -> float:
    """Cell-weighted L1 distance to the reference sampled at cell centers."""
    vals = field_values(rho)
    exact = sample_reference(ref, t, grid)
    return float(np.abs(vals - exact).sum() * grid.cell_measure)


def convergence_order(errors) -> list:
    """Order per refinement, log2(Error(2 dx) / Error(dx)).

    A zero error makes the order undefined; the entry becomes None instead
    of dividing by zero.
    """
    errs = [float(e) for e in errors]
    if len(errs) < 2:
        raise DomainError("order estimation needs at least two refinement levels")
    orders = []
    for coarse, fine in zip(errs[:-1], errs[1:]):
        if coarse <= 0.0 or fine <= 0.0:
            orders.append(None)
        else:
            orders.append(math.log2(coarse / fine))
    return orders


def first_moment(rho, grid: Grid) -> np.ndarray:
    """Unnormalized first moment sum x_i rho_i * measure, per component."""
    vals = field_values(rho)
    measure = grid.cell_measure
    return np.array([float((x * vals).sum() * measure) for x in grid.cell_centers()])
