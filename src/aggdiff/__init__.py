"""Structure-preserving finite-volume solvers for aggregation-diffusion equations."""

from .model import (
    Bistable,
    DensityField,
    Gaussian,
    Grid,
    InternalEnergy,
    ModelSpec,
    Quadratic,
    TabulatedConfinement,
    TabulatedInteraction,
    sample_confinement,
)
from .kernels import (
    DefinitenessClass,
    KernelTable,
    classify_definiteness,
    convolve,
    select_stage_rule,
    tabulate_kernel,
)
from .scheme1d import S1, S2, SchemeConfig
from .solver import NewtonConfig, SchemeSetup, StepOutcome, advance_step_1d, build_setup, newton_solve
from .split2d import advance_split_axis, advance_step_2d, advance_sweep_axis
from .analysis import (
    EnergyBreakdown,
    ReferenceSolution,
    convergence_order,
    discrete_energy,
    first_moment,
    l1_error,
    reference_eval,
)

__version__ = "0.1.0"
