"""Interaction kernel tabulation, discrete convolution, and definiteness.

The interaction enters the schemes only through the offset table
W_{i-k} = W(x_i - x_k) (cell-averaged instead for singular kernels) and the
discrete convolution (W * rho)_i = sum_k W_{i-k} rho_k dx. Whether the
convolution may be staged explicitly or implicitly while keeping the energy
dissipation guarantee depends on the sign-definiteness of the kernel's
quadratic form on mass-neutral differences, classified here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, signal

from .errors import DomainError, KernelError, ShapeError
from .model import Grid, Quadratic, TabulatedInteraction, field_values

# Stage rules for the convolution argument rho** inside the implicit solves.
EXPLICIT = "explicit"   # rho** = old state
IMPLICIT = "implicit"   # rho** = new (unknown) state
MIDPOINT = "midpoint"   # rho** = (old + new) / 2
STAGE_RULES = (EXPLICIT, IMPLICIT, MIDPOINT)

NEGATIVE_DEFINITE = "negative_definite"
POSITIVE_DEFINITE = "positive_definite"
INDETERMINATE = "indeterminate"

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-10, limit=200)


@dataclass(frozen=True)
class KernelTable:
    """Offset-indexed interaction values.

    values[o + P] = W_{o} for offsets o = -(2M-1)..(2M-1) per axis, where
    P = 2M-1 is the center index. ``cell_measure`` is the convolution weight
    (dx in 1D, dx*dy in 2D). ``exact_form`` records a syntactically known
    shape ("quadratic+" / "quadratic-") so definiteness can be certified
    without the DFT test.
    """

    dimension: int
    values: np.ndarray
    cell_measure: float
    singular: bool = False
    exact_form: str | None = None
    _zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != self.dimension:
            raise ShapeError("kernel table dimensionality mismatch")
        if any(s % 2 == 0 for s in vals.shape):
            raise ShapeError("kernel table must have odd length per axis")
        object.__setattr__(self, "values", vals)
        # The table is fixed from here on, and steps read this on every solve.
        object.__setattr__(self, "_zero", not np.any(vals))

    @property
    def n_cells(self) -> int:
        return (self.values.shape[0] + 1) // 2

    @property
    def center(self) -> int:
        return self.n_cells - 1

    @property
    def is_zero(self) -> bool:
        return self._zero

    def at_offset(self, *offset):
        idx = tuple(o + self.center for o in offset)
        return self.values[idx]

    def axis_slice(self, axis: int) -> np.ndarray:
        """2D only: the 1D slice with zero offset along the other axis."""
        if self.dimension != 2:
            raise ShapeError("axis_slice is only defined for 2D kernels")
        return self.values[:, self.center] if axis == 0 else self.values[self.center, :]


def _eval_radial(interaction, x, y=None, dimension=1):
    r2 = np.asarray(x) ** 2 if y is None else np.asarray(x) ** 2 + np.asarray(y) ** 2
    return interaction.radial(r2, dimension)


def _cell_average_1d(interaction, offset_x, dx):
    def f(s):
        return _eval_radial(interaction, offset_x - s, dimension=1)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, -0.5 * dx, 0.5 * dx, **_QUAD_OPTS)
    scale = max(abs(val), 1.0)
    if not np.isfinite(val) or err > 1e-8 * scale:
        raise KernelError(
            f"cell-average quadrature did not converge at offset {offset_x / dx:g}",
            offset=offset_x / dx,
        )
    return val / dx


def _cell_average_2d(interaction, offset_x, offset_y, dx, dy):
    def f(t, s):  # dblquad integrates f(y, x)
        return _eval_radial(interaction, offset_x - s, offset_y - t, dimension=2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.dblquad(
            f, -0.5 * dx, 0.5 * dx, -0.5 * dy, 0.5 * dy, epsabs=0.0, epsrel=1e-10
        )
    scale = max(abs(val), 1.0)
    if not np.isfinite(val) or err > 1e-8 * scale:
        raise KernelError(
            "cell-average quadrature did not converge at offset "
            f"({offset_x / dx:g}, {offset_y / dy:g})",
            offset=(offset_x / dx, offset_y / dy),
        )
    return val / (dx * dy)


def tabulate_kernel(interaction, grid: Grid, singular: bool = False) -> KernelTable:
    """Build the offset table for one interaction on one grid.

    Pointwise mode samples W at center differences o*dx. Singular mode
    replaces each entry by its average over the source cell,
    (1/dx) \\int_{C_k} W(x_i - s) ds, via adaptive quadrature (rel. tol 1e-10);
    this keeps integrable singularities finite.
    """
    n = grid.n_cells
    length = 2 * n - 1
    dx = grid.dx
    measure = grid.cell_measure

    if interaction is None:
        shape = (length,) * grid.dimension
        return KernelTable(grid.dimension, np.zeros(shape), measure, singular=False)

    exact_form = None
    if isinstance(interaction, Quadratic):
        exact_form = "quadratic+" if interaction.strength > 0 else "quadratic-"

    if isinstance(interaction, TabulatedInteraction):
        table = interaction.offsets()
        if table.ndim != grid.dimension or table.shape != (length,) * grid.dimension:
            raise ShapeError(
                f"tabulated interaction shape {table.shape} does not match "
                f"{(length,) * grid.dimension}"
            )
        return KernelTable(grid.dimension, table.copy(), measure, singular=singular)

    offsets = dx * np.arange(-(n - 1), n)
    if grid.dimension == 1:
        if singular:
            half = np.array([_cell_average_1d(interaction, o, dx) for o in offsets[n - 1 :]])
            vals = np.concatenate([half[:0:-1], half])
        else:
            vals = np.asarray(_eval_radial(interaction, offsets, dimension=1), dtype=float)
    else:
        if singular:
            # Point symmetry W(-v) = W(v): tabulate the oy >= 0 half, mirror.
            vals = np.empty((length, length))
            for a, ox in enumerate(offsets):
                for b in range(n - 1, length):
                    vals[a, b] = _cell_average_2d(interaction, ox, offsets[b], dx, dx)
            vals[:, : n - 1] = vals[::-1, : n - 1 : -1]
        else:
            ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
            vals = np.asarray(_eval_radial(interaction, ox, oy, dimension=2), dtype=float)

    return KernelTable(grid.dimension, vals, measure, singular=singular, exact_form=exact_form)


def make_kernel_1d(values, cell_measure, exact_form=None) -> KernelTable:
    """Wrap a raw offset array (used for the per-row slices in 2D sweeps)."""
    return KernelTable(1, np.asarray(values, dtype=float), cell_measure, exact_form=exact_form)


def convolve(kernel: KernelTable, rho, method: str = "auto") -> np.ndarray:
    """(W * rho)_i = sum_k W_{i-k} rho_k * cell_measure, full non-circular sum.

    ``method`` is "direct", "fft", or "auto" (direct below 64 cells per axis).
    Both paths agree to roundoff; the direct sum is the defining one.
    """
    vals = field_values(rho)
    n = kernel.n_cells
    if vals.shape != (n,) * kernel.dimension:
        raise ShapeError(f"field shape {vals.shape} does not match kernel for {n} cells")
    if kernel.is_zero:
        return np.zeros_like(vals)
    if method == "auto":
        if kernel.dimension == 1:
            method = "direct"
        else:
            method = "direct" if n <= 16 else "fft"
    lo = n - 1
    if kernel.dimension == 1:
        if method == "fft":
            full = signal.fftconvolve(kernel.values, vals)
        else:
            full = np.convolve(kernel.values, vals)
        return full[lo : lo + n] * kernel.cell_measure
    if method == "fft":
        full = signal.fftconvolve(kernel.values, vals)
    else:
        full = signal.convolve(kernel.values, vals, method="direct")
    return full[lo : lo + n, lo : lo + n] * kernel.cell_measure


@dataclass(frozen=True)
class DefinitenessClass:
    """Outcome of the kernel classification with its supporting evidence.

    evidence is ("exact", form) for the syntactically certified quadratics,
    ("zero",) for an absent interaction, or ("dft", min, max, tol) when the
    circulant spectrum test ran.
    """

    label: str
    evidence: tuple

    @property
    def used_dft(self) -> bool:
        return self.evidence[0] == "dft"


def _circulant_spectrum(kernel: KernelTable) -> np.ndarray:
    """Real spectrum of the circulant embedding of the tabulated offsets.

    The tabulated sequence W(o*dx), o = -(2M-1)..(2M-1), covers [-2L, 2L];
    wrapped so the zero offset sits first, it defines a circulant whose
    period (4M-1 per axis) exceeds twice the largest offset reachable by
    fields supported on 2M consecutive cells, so no aliasing occurs and the
    spectrum's sign bounds the quadratic form sum W_{i-k} d_i d_k. For a
    symmetric W the spectrum is real.
    """
    base = np.fft.ifftshift(kernel.values)
    spec = np.fft.fft(base) if kernel.dimension == 1 else np.fft.fft2(base)
    if np.abs(spec.imag).max(initial=0.0) > 1e-9 * max(np.abs(spec.real).max(), 1e-300):
        raise DomainError("kernel spectrum is not real; the kernel is not symmetric")
    return spec.real


def classify_definiteness(kernel: KernelTable, grid: Grid | None = None) -> DefinitenessClass:
    """Classify the kernel as negative/positive definite or indeterminate.

    Quadratic potentials are recognized syntactically (their definiteness is
    proven through mass conservation, and their truncated spectra generally
    carry mixed signs); everything else goes through the circulant DFT sign
    test, which is sufficient-only.
    """
    if kernel.is_zero:
        return DefinitenessClass(NEGATIVE_DEFINITE, ("zero",))
    if kernel.exact_form == "quadratic+":
        return DefinitenessClass(NEGATIVE_DEFINITE, ("exact", kernel.exact_form))
    if kernel.exact_form == "quadratic-":
        return DefinitenessClass(POSITIVE_DEFINITE, ("exact", kernel.exact_form))
    spec = _circulant_spectrum(kernel)
    smin = float(spec.min())
    smax = float(spec.max())
    tol = 1e-12 * max(abs(smin), abs(smax))
    if smax <= tol:
        label = NEGATIVE_DEFINITE
    elif smin >= -tol:
        label = POSITIVE_DEFINITE
    else:
        label = INDETERMINATE
    return DefinitenessClass(label, ("dft", smin, smax, tol))


def select_stage_rule(dclass: DefinitenessClass, user_override: str | None = None) -> str:
    """Pick the convolution stage rule that keeps the dissipation guarantee.

    Negative definite permits the explicit stage, positive definite the
    implicit one; midpoint is unconditionally safe and is the default for
    indeterminate kernels. A user override is honored but flagged with a
    warning when it voids the guarantee.
    """
    if dclass.label == NEGATIVE_DEFINITE:
        guaranteed = (EXPLICIT, MIDPOINT)
        chosen = EXPLICIT
    elif dclass.label == POSITIVE_DEFINITE:
        guaranteed = (IMPLICIT, MIDPOINT)
        chosen = IMPLICIT
    else:
        guaranteed = (MIDPOINT,)
        chosen = MIDPOINT
    if user_override is None:
        return chosen
    if user_override not in STAGE_RULES:
        raise DomainError(f"unknown stage rule {user_override!r}")
    if user_override not in guaranteed:
        warnings.warn(
            f"stage rule {user_override!r} voids the energy-dissipation guarantee "
            f"for a {dclass.label} interaction",
            UserWarning,
            stacklevel=2,
        )
    return user_override
