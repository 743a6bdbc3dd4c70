"""Named model builders for the validation cases and experiments."""

from __future__ import annotations

from .model import (
    Bistable,
    Gaussian,
    Grid,
    InternalEnergy,
    ModelSpec,
    Quadratic,
)


def _grid(dimension: int, half_width: float, dx: float) -> Grid:
    m = round(half_width / dx)
    if abs(m * dx - half_width) > 1e-12 * half_width:
        raise ValueError(f"dx={dx} does not tile [-L, L] with L={half_width}")
    return Grid(dimension, half_width, m)


def grid_1d(half_width: float, dx: float) -> Grid:
    return _grid(1, half_width, dx)


def grid_2d(half_width: float, dx: float) -> Grid:
    return _grid(2, half_width, dx)


def heat(grid: Grid, diffusion: float = 1.0) -> ModelSpec:
    return ModelSpec(InternalEnergy("entropy", diffusion), grid)


def porous_medium(grid: Grid, exponent: float, diffusion: float = 1.0) -> ModelSpec:
    return ModelSpec(InternalEnergy("power", diffusion, exponent), grid)


def linear_fokker_planck(grid: Grid, diffusion: float = 1.0) -> ModelSpec:
    return ModelSpec(InternalEnergy("entropy", diffusion), grid, confinement=Quadratic(1.0))


def nonlinear_fokker_planck(grid: Grid, exponent: float = 3.0, diffusion: float = 1.0) -> ModelSpec:
    return ModelSpec(InternalEnergy("power", diffusion, exponent), grid, confinement=Quadratic(1.0))


def nonlocal_fokker_planck(grid: Grid, diffusion: float = 1.0) -> ModelSpec:
    return ModelSpec(InternalEnergy("entropy", diffusion), grid, interaction=Quadratic(1.0))


def bistable_heat(grid: Grid, diffusion: float = 0.25) -> ModelSpec:
    return ModelSpec(InternalEnergy("entropy", diffusion), grid, confinement=Bistable(1.0))


def aggregation_diffusion(grid: Grid, exponent: float = 3.0, diffusion: float = 0.1,
                          width: float = 0.5) -> ModelSpec:
    """Degenerate diffusion with an attractive Gaussian kernel (metastability)."""
    return ModelSpec(InternalEnergy("power", diffusion, exponent), grid,
                     interaction=Gaussian(width, -1.0))


def flocking(grid: Grid, noise: float, alignment: float = 1.0) -> ModelSpec:
    """Noisy kinetic flocking: entropy diffusion, bistable well, quadratic alignment."""
    return ModelSpec(InternalEnergy("entropy", noise), grid,
                     confinement=Bistable(alignment), interaction=Quadratic(1.0))


MODEL_MATRIX = {
    "heat": lambda grid: heat(grid),
    "pme_m2": lambda grid: porous_medium(grid, 2.0),
    "pme_m3": lambda grid: porous_medium(grid, 3.0),
    "linear_fp": lambda grid: linear_fokker_planck(grid),
    "nonlinear_fp": lambda grid: nonlinear_fokker_planck(grid),
    "nonlocal_fp": lambda grid: nonlocal_fokker_planck(grid),
    "bistable": lambda grid: bistable_heat(grid),
    "flocking": lambda grid: flocking(grid, noise=0.5),
}
