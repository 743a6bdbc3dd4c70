"""Interaction kernel tabulation, discrete convolution, and definiteness.

The interaction enters the schemes only through the offset table
W_{i-k} = W(x_i - x_k) and the discrete convolution
(W * rho)_i = sum_k W_{i-k} rho_k dx, taken as the direct sum in 1D and
through the table's cached spectrum in 2D. Whether the convolution may be
staged explicitly or implicitly while keeping the energy dissipation
guarantee depends on the sign-definiteness of the kernel's quadratic form on
mass-neutral differences, classified here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, KernelError, ShapeError
from .model import DensityField, Grid, Quadratic, TabulatedInteraction, field_values

# Stage rules for the convolution argument rho** inside the implicit solves.
EXPLICIT = "explicit"   # rho** = old state
IMPLICIT = "implicit"   # rho** = new (unknown) state
MIDPOINT = "midpoint"   # rho** = (old + new) / 2
STAGE_RULES = (EXPLICIT, IMPLICIT, MIDPOINT)

# KernelTable.exact_form of W = +-|x|^2/2: the table is exactly quadratic in the offset.
QUADRATIC_FORMS = ("quadratic+", "quadratic-")

NEGATIVE_DEFINITE = "negative_definite"
POSITIVE_DEFINITE = "positive_definite"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class KernelTable:
    """Offset-indexed interaction values.

    values[o + P] = W_{o} for offsets o = -(2M-1)..(2M-1) per axis, where
    P = 2M-1 is the center index. ``cell_measure`` is the convolution weight
    (dx in 1D, dx*dy in 2D). ``exact_form`` records a syntactically known
    shape ("quadratic+" / "quadratic-") so definiteness can be certified
    without the DFT test. ``values`` is a read-only copy of the array given.
    """

    values: np.ndarray
    cell_measure: float
    exact_form: str | None = None
    _zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # a copy: the caller's array stays theirs
        if vals.ndim not in (1, 2) or any(s % 2 == 0 for s in vals.shape):
            raise ShapeError("kernel table must be 1D or 2D with odd length per axis")
        # Read-only, so that what is cached from it below and on first use stays true.
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        # Steps read this on every solve.
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

    def axis_slice(self, axis: int) -> np.ndarray:
        """2D only: the 1D slice with zero offset along the other axis."""
        if self.values.ndim != 2:
            raise ShapeError("axis_slice is only defined for 2D kernels")
        return self.values[:, self.center] if axis == 0 else self.values[self.center, :]

    @cached_property
    def row_kernels(self) -> tuple[KernelTable, KernelTable]:
        """2D only: the 1D tables of ``axis_slice(0)`` and ``axis_slice(1)``.

        Each couples the cells of one line of that axis's sweep pass; built
        once per table, so their own cached operators are too.
        """
        return tuple(
            KernelTable(self.axis_slice(axis), self.cell_measure, self.exact_form)
            for axis in (0, 1)
        )

    @cached_property
    def quadratic_coefficients(self) -> tuple[float, tuple[float, ...]]:
        """Quadratic tables only: (W_0, alpha per axis), W_o = W_0 + sum_a alpha_a*o_a^2.

        alpha_a is the table one offset along axis a minus the table at offset 0.
        """
        if self.exact_form not in QUADRATIC_FORMS:
            raise KernelError("quadratic coefficients need a quadratic kernel table")
        c = self.center
        centre = (c,) * self.values.ndim
        w0 = self.values[centre]
        alphas = tuple(float(self.values[centre[:axis] + (c + 1,) + centre[axis + 1:]] - w0)
                       for axis in range(self.values.ndim))
        return float(w0), alphas

    @cached_property
    def toeplitz(self) -> np.ndarray:
        """1D only: the (n, n) matrix T[i, k] = W_{i-k}, so W * rho = T @ rho * cell_measure.

        Gathered entry by entry from the offset i - k, so an asymmetric table
        keeps its orientation.
        """
        if self.values.ndim != 1:
            raise ShapeError("the Toeplitz operator is only defined for 1D kernels")
        i = np.arange(self.n_cells)
        t = self.values[self.center + i[:, None] - i[None, :]]
        t.setflags(write=False)  # shared by every caller
        return t

    @cached_property
    def spectrum(self) -> np.ndarray:
        """rfftn of the table on fftconvolve's padded shape, next_fast_len(3n - 2) per axis."""
        from scipy.fft import next_fast_len, rfftn  # only FFT convolutions need scipy.fft

        spec = rfftn(self.values, (next_fast_len(3 * self.n_cells - 2, True),) * self.values.ndim)
        spec.setflags(write=False)  # shared by every caller
        return spec

    @cached_property
    def toeplitz_difference(self) -> np.ndarray:
        """1D only: T[:-1] - T[1:], the face differences of the convolution's rows."""
        t = self.toeplitz
        d = t[:-1] - t[1:]
        d.setflags(write=False)
        return d

    @cached_property
    def difference_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """1D quadratic only: (faces, cells) with toeplitz_difference = faces[:, :-1].T @ cells.T.

        For W_o = alpha*o^2 and centred cell positions p_k = k - (n-1)/2,
        T[j, k] - T[j+1, k] = 2*alpha*(p_k - (p_j + 1/2)): rank 2, with
        faces (2, n) = 2*alpha*[-(p_j + 1/2), 1] in face slots (the last, the
        wall, 0.0), the rank first as in the Jacobian's left factor, and cells
        (n, 2) = [1, p_k].
        """
        if self.values.ndim != 1 or self.exact_form not in QUADRATIC_FORMS:
            raise ShapeError("rank-2 face differences need a 1D quadratic kernel")
        n = self.n_cells
        (alpha,) = self.quadratic_coefficients[1]
        p = np.arange(n) - 0.5 * (n - 1)
        faces = 2.0 * alpha * np.stack((-(p + 0.5), np.ones(n)))
        faces[:, -1] = 0.0
        cells = np.stack((np.ones(n), p), axis=1)
        faces.setflags(write=False)
        cells.setflags(write=False)
        return faces, cells


def tabulate_kernel(interaction, grid: Grid) -> KernelTable:
    """Build the offset table for one interaction on one grid, in any dimension.

    A radial W is sampled at the center differences o*dx per axis; a
    TabulatedInteraction gives its offsets as they are (a table of cell
    averages made elsewhere comes in that way). A table that is not finite
    raises DomainError. Only tabulates: build_setup, which knows the stage
    rule, takes a 2D table's ``spectrum`` when the steps will need it.
    """
    n = grid.n_cells
    length = 2 * n - 1
    d = grid.dimension
    measure = grid.cell_measure

    if interaction is None:
        return KernelTable(np.zeros((length,) * d), measure)

    exact_form = None
    if isinstance(interaction, Quadratic):
        exact_form = "quadratic+" if interaction.strength > 0 else "quadratic-"

    if isinstance(interaction, TabulatedInteraction):
        vals = interaction.offsets()
        if vals.shape != (length,) * d:
            raise ShapeError(
                f"tabulated interaction shape {vals.shape} does not match {(length,) * d}"
            )
    else:
        offsets = grid.dx * np.arange(-(n - 1), n)
        r2 = sum(o**2 for o in np.meshgrid(*[offsets] * d, indexing="ij"))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            vals = np.asarray(interaction.radial(r2, d), dtype=float)
    if not np.isfinite(vals).all():
        raise DomainError("interaction table is not finite on the grid")

    return KernelTable(vals, measure, exact_form=exact_form)


def convolve(kernel: KernelTable, rho) -> np.ndarray:
    """(W * rho)_i = sum_k W_{i-k} rho_k * cell_measure, full non-circular sum.

    A DensityField is convolved once per table: the read-only result is
    kept in its ``convolution`` slot, (table, W * values), until the field
    is convolved with another table. See ``_convolve_values`` for the sums.
    """
    if not isinstance(rho, DensityField):
        return _convolve_values(kernel, field_values(rho))
    table, conv = rho.convolution
    if table is not kernel:
        conv = _convolve_values(kernel, rho.values)
        conv.setflags(write=False)
        rho.convolution = (kernel, conv)
    return conv


def _convolve_values(kernel: KernelTable, vals: np.ndarray) -> np.ndarray:
    """The convolution of a value array, computed afresh.

    1D takes the direct sum, only the n outputs in which the field overlaps
    the table whole: np.convolve's "valid" mode, the same dot products as
    the middle n of the full sum, bit for bit. 2D multiplies the field's
    rfftn by ``kernel.spectrum`` on the same padded shape and inverts: the
    bits of scipy.signal.fftconvolve, in this form only (kernel on the left,
    product written over the field's spectrum; numpy's complex multiply
    rounds differently for another operand order or output buffer).
    """
    n = kernel.n_cells
    if vals.shape != (n,) * kernel.values.ndim:
        raise ShapeError(f"field shape {vals.shape} does not match kernel for {n} cells")
    if kernel.is_zero:
        return np.zeros_like(vals)
    if kernel.values.ndim == 1:
        return np.convolve(kernel.values, vals, "valid") * kernel.cell_measure
    from scipy.fft import irfftn, rfftn

    lo = n - 1
    shape = (kernel.spectrum.shape[0],) * 2  # the padded real shape
    field_hat = rfftn(vals, shape)
    np.multiply(kernel.spectrum, field_hat, out=field_hat)
    full = irfftn(field_hat, shape)
    return full[lo : lo + n, lo : lo + n] * kernel.cell_measure


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
    spec = np.fft.fftn(base)
    if np.abs(spec.imag).max(initial=0.0) > 1e-9 * max(np.abs(spec.real).max(), 1e-300):
        raise DomainError("kernel spectrum is not real; the kernel is not symmetric")
    return spec.real


def classify_definiteness(kernel: KernelTable) -> str:
    """Label the kernel negative/positive definite or indeterminate.

    The table alone decides: its offsets already span the grid. Quadratic
    potentials are recognized syntactically (their definiteness is proven
    through mass conservation, and their truncated spectra generally carry
    mixed signs); everything else goes through the circulant DFT sign test,
    which is sufficient-only. An all-zero table passes it as negative definite.
    """
    if kernel.exact_form == "quadratic+":
        return NEGATIVE_DEFINITE
    if kernel.exact_form == "quadratic-":
        return POSITIVE_DEFINITE
    spec = _circulant_spectrum(kernel)
    smin = float(spec.min())
    smax = float(spec.max())
    tol = 1e-12 * max(abs(smin), abs(smax))
    if smax <= tol:
        return NEGATIVE_DEFINITE
    if smin >= -tol:
        return POSITIVE_DEFINITE
    return INDETERMINATE


def select_stage_rule(kernel: KernelTable | None, requested: str = "auto") -> str:
    """The convolution stage rule for ``kernel`` (None when W is absent).

    Without a kernel no rule touches the guarantee: "auto" means midpoint,
    and any other rule is returned for SchemeConfig to validate. With one,
    the kernel is classified: negative definite permits the explicit stage,
    positive definite the implicit one, and midpoint is unconditionally safe.
    "auto" picks the explicit or implicit rule where the class permits it,
    midpoint otherwise. An unknown rule raises DomainError, and a rule that
    voids the guarantee is honored with a UserWarning.
    """
    if kernel is None:
        return MIDPOINT if requested == "auto" else requested
    label = classify_definiteness(kernel)
    # The rules that keep the guarantee for this class, the cheapest first.
    if label == NEGATIVE_DEFINITE:
        guaranteed = (EXPLICIT, MIDPOINT)
    elif label == POSITIVE_DEFINITE:
        guaranteed = (IMPLICIT, MIDPOINT)
    else:
        guaranteed = (MIDPOINT,)
    if requested == "auto":
        return guaranteed[0]
    if requested not in STAGE_RULES:
        raise DomainError(f"unknown stage rule {requested!r}")
    if requested not in guaranteed:
        warnings.warn(
            f"stage rule {requested!r} voids the energy-dissipation guarantee "
            f"for a {label} interaction",
            UserWarning,
            stacklevel=2,
        )
    return requested
