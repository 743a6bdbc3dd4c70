"""Experiment runners: time-stepping loops, convergence studies, sweeps.

Everything here is deterministic: fixed iteration orders, no randomness, so
re-running a configuration reproduces its outputs byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, scheme1d
from .analysis import ReferenceSolution, convergence_order, l1_error, sample_reference
from .errors import ConfigurationError, DomainError, NewtonError, NumericalError, StepError
from .kernels import convolve
from .model import DensityField, Grid, ModelSpec, field_values
from .presets import (
    heat,
    linear_fokker_planck,
    nonlocal_fokker_planck,
    porous_medium,
)
from .scheme1d import S1, S2
from .solver import (
    NewtonConfig,
    SchemeSetup,
    StepOutcome,
    advance_step_1d,
    build_setup,
    clipped_energy,
)
from .split2d import advance_step_2d


def _format(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.10g}"


def format_row(row) -> str:
    """One CSV line: 10 significant digits, integers and booleans as digits."""
    return ",".join(_format(v) for v in row)


def write_csv(path, header, rows):
    """Comma-separated, header row, 10 significant digits, LF endings."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(format_row(row) + "\n")


def write_snapshot(path, grid: Grid, values):
    """Plain text columns (x, rho) or (x, y, rho), one cell per line.

    Each coordinate is formatted once per axis and the lines go to the file
    in one call; every number reads as ``_format`` writes it.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    vals = field_values(values)
    xs = [_format(x) for x in grid.axis_centers().tolist()]
    if grid.dimension == 1:
        lines = (f"{x} {r:.10g}\n" for x, r in zip(xs, vals.tolist()))
    else:  # one row of Python floats at a time
        lines = (f"{x} {y} {r:.10g}\n"
                 for x, row in zip(xs, vals) for y, r in zip(xs, row.tolist()))
    with open(path, "w", newline="\n") as f:
        f.writelines(lines)


# ---------------------------------------------------------------------------
# Initial conditions


@dataclass(frozen=True)
class InitialSpec:
    """Declarative initial condition.

    kinds: heat_kernel | barenblatt | fp_transient | fp_steady (the model's
    reference solutions sampled at ``time``), gaussian (one normalized bump
    at ``center``), mixture (sum of bumps with given weights), uniform, zero,
    table (explicit values). A center has one number per grid axis (a bare
    number stands for (x,) on a 1D grid); ``center = None`` is the grid's
    origin. A mixture has one bump per entry of ``centers``; ``widths`` and
    ``weights``, when given, have one entry per bump. Widths are positive
    and weights are not negative.
    """

    kind: str
    mass: float = 1.0
    time: float | None = None
    center: tuple | None = None
    width: float = 1.0
    centers: tuple = ()
    widths: tuple = ()
    weights: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        for name in ("mass", "width", "widths", "weights"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigurationError(f"initial {name} must be finite, got "
                                         f"{getattr(self, name)!r}")
        if not self.mass >= 0:
            raise ConfigurationError(f"initial mass must be non-negative, got {self.mass!r}")
        if not self.width > 0:
            raise ConfigurationError(f"initial width must be positive, got {self.width!r}")
        for width in self.widths:
            if not width > 0:
                raise ConfigurationError(f"initial width must be positive, got {width!r} in widths")
        for weight in self.weights:
            if not weight >= 0:
                raise ConfigurationError(f"initial weight must be non-negative, "
                                         f"got {weight!r} in weights")
        for name in ("widths", "weights"):
            given = getattr(self, name)
            if given and len(given) != len(self.centers):
                raise ConfigurationError(f"initial {name} has {len(given)} entries "
                                         f"for {len(self.centers)} centers")


def _gaussian_bump(grid: Grid, center, width, weight):
    xs = grid.axis_centers()
    if grid.dimension == 1:
        (cx,) = center
        return weight * np.exp(-0.5 * ((xs - cx) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    cx, cy = center
    gx = np.exp(-0.5 * ((xs - cx) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    gy = np.exp(-0.5 * ((xs - cy) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    return weight * gx[:, None] * gy[None, :]


def _point(center, grid: Grid, name: str) -> tuple:
    """``center`` as a tuple of one number per grid axis: None is the origin,
    and a bare number is (x,) on a 1D grid.

    Anything else raises ConfigurationError naming it.
    """
    if center is None:
        return (0.0,) * grid.dimension
    if grid.dimension == 1 and np.ndim(center) == 0:
        center = (center,)
    if np.shape(center) != (grid.dimension,):
        shape = "a number" if grid.dimension == 1 else "an (x, y) pair"
        raise ConfigurationError(f"{name} {center!r} is not {shape} on a {grid.dimension}D grid")
    return tuple(center)


def build_initial(spec: InitialSpec, grid: Grid, t_initial: float,
                  model: ModelSpec | None = None) -> np.ndarray:
    kind = spec.kind
    if kind in ("heat_kernel", "barenblatt", "fp_transient", "fp_steady"):
        if model is None:
            raise ConfigurationError(f"initial condition {kind!r} needs the model")
        ref = ReferenceSolution(kind, grid.dimension, diffusion=model.energy.diffusion,
                                exponent=model.energy.exponent, mass=spec.mass)
        if spec.time is None:
            return sample_reference(ref, t_initial, grid)
        try:
            return sample_reference(ref, spec.time, grid)
        except DomainError as exc:  # a time the reference is not defined at
            raise ConfigurationError(f"{exc}, got initial time {spec.time!r}") from None
    if kind == "gaussian":
        center = _point(spec.center, grid, "gaussian center")
        bump = _gaussian_bump(grid, center, spec.width, spec.mass)
        total = bump.sum()
        if not np.isfinite(total):
            raise ConfigurationError(f"gaussian bump of mass {spec.mass!r} and width {spec.width!r} "
                                     "is not finite on the grid")
        if spec.mass > 0 and not total > 0:
            raise ConfigurationError(f"gaussian bump carries no mass on the grid "
                                     f"(center {center}, width {spec.width!r})")
        return bump
    if kind == "mixture":
        if not spec.centers:
            raise ConfigurationError("mixture initial condition needs bump centers")
        widths = spec.widths or (spec.width,) * len(spec.centers)
        weights = spec.weights or (1.0,) * len(spec.centers)
        out = np.zeros(grid.shape)
        for c, w, a in zip(spec.centers, widths, weights):
            out += _gaussian_bump(grid, _point(c, grid, "mixture center"), w, a)
        total = out.sum() * grid.cell_measure
        if not np.isfinite(total):
            raise ConfigurationError(f"mixture bumps total a mass of {float(total)!r} on the grid, "
                                     "which is not finite")
        if total > 0:
            out *= spec.mass / total
        elif spec.mass > 0:
            raise ConfigurationError(f"mixture bumps carry no mass on the grid "
                                     f"(centers {spec.centers})")
        return out
    if kind == "uniform":
        volume = (2.0 * grid.half_width) ** grid.dimension
        return np.full(grid.shape, spec.mass / volume)
    if kind == "zero":
        return np.zeros(grid.shape)
    if kind == "table":
        arr = np.asarray(spec.values, dtype=float)
        cells = grid.n_cells**grid.dimension
        if arr.size != cells:
            raise ConfigurationError(
                f"initial table has {arr.size} values, not the grid's {cells}")
        return arr.reshape(grid.shape).copy()
    raise ConfigurationError(f"unknown initial condition kind {kind!r}")


# ---------------------------------------------------------------------------
# Experiment configuration and run records


@dataclass
class ExperimentConfig:
    model: ModelSpec
    scheme_kind: str = S2
    stage: str = "auto"
    theta: float = 2.0
    t_initial: float = 0.0
    t_final: float = 1.0
    dt: float | str = "auto"
    initial: InitialSpec = field(default_factory=lambda: InitialSpec("gaussian"))
    solver: NewtonConfig = field(default_factory=NewtonConfig)
    output_dir: str | None = None
    snapshots: tuple = ()
    cadence: int = 1

    def __post_init__(self):
        for name in ("t_initial", "t_final"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.t_final > self.t_initial:
            raise ConfigurationError("t_final must exceed t_initial")
        if self.dt != "auto" and not (isinstance(self.dt, (int, float))
                                      and 0 < self.dt < float("inf")):
            raise ConfigurationError(f"dt must be 'auto' or a positive finite number, "
                                     f"got {self.dt!r}")
        if self.cadence < 1:
            raise ConfigurationError(f"output cadence must be at least 1, got {self.cadence}")
        outside = [t for t in self.snapshots if not self.t_initial <= t <= self.t_final + 1e-12]
        if outside:
            raise ConfigurationError(f"snapshot times {outside} (output snapshots) lie outside "
                                     "[t_initial, t_final]")


@dataclass
class RunRecord:
    """Per-step telemetry rows plus final state and any invariant breaches."""

    rows: list
    final: DensityField
    violations: list
    csv_path: str | None = None
    snapshot_paths: tuple = ()

    HEADER = ("t", "energy", "mass", "min_rho", "newton_iterations", "dt", "cfl_retries")

    @property
    def ok(self) -> bool:
        return not self.violations


def step(rho, dt, setup: SchemeSetup, config: NewtonConfig | None = None) -> StepOutcome:
    """One time step of the setup's model, 1D or 2D (see drive_step)."""
    advance = advance_step_1d if setup.model.grid.dimension == 1 else advance_step_2d
    return advance(rho, dt, setup, config)


SLIVER_SHARE = 1e-9  # a last step this close to until absorbs the remainder


def march(setup: SchemeSetup, rho, t, until, dt, config: NewtonConfig | None = None):
    """Step rho from time t toward ``until``, yielding (t, outcome) after each step.

    Each step requests min(dt, until - t), where ``dt`` is a number or a
    callable of the current density; a step that would leave a remainder
    within roundoff of until (at most SLIVER_SHARE of dt) runs to until
    instead. The loop ends once t >= until - 1e-12; a caller stops it
    earlier with ``break``. The latest state is the last outcome's
    ``field``, which the next step starts from (and ``dt`` gets) as it is,
    so what it keeps is computed once (see DensityField). A StepError or
    NewtonError propagates to the caller.
    """
    while t < until - 1e-12:
        h = dt(rho) if callable(dt) else dt
        if until - t - h <= SLIVER_SHARE * h:
            h = until - t
        out = step(rho, h, setup, config)
        rho = out.field
        t += out.dt_used
        yield t, out


def _auto_dt(values, setup: SchemeSetup) -> float:
    """Conservative step suggestion from the current state's velocities."""
    model = setup.model
    dx = model.grid.dx
    if setup.scheme.kind == S2:
        return dx
    xi = scheme1d.chemical_potential(values, model.energy, model.v_table, setup.kernel)
    # The largest face velocity |u| = |xi_{i+1} - xi_i| / dx along any axis.
    peak = max(float(np.abs(np.diff(xi, axis=k)).max(initial=0.0)) for k in range(xi.ndim)) / dx
    if peak == 0.0:
        return dx
    return 0.9 * dx / (2.0 * peak)


def _dt_rule(dt, setup: SchemeSetup):
    """A configured dt as march takes it: a number, or _auto_dt's rule for "auto"."""
    return (lambda values: _auto_dt(values, setup)) if dt == "auto" else float(dt)


def _overflowing_term(setup: SchemeSetup, values) -> str | None:
    """Which term of the potential overflows a step from ``values``, if one does.

    A step divides each term of xi = H'(rho) + V + W * rho by dx twice: the
    face differences over dx are velocities, and those over dx are the rates
    at which mass leaves a cell. Names the first term that is not finite, or
    whose largest rate is not, then a flux (the larger density at a face
    times the speed there) whose rate is not; None when all are in range.
    """
    model = setup.model
    dx = model.grid.dx
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is what is sought
        terms = [(f"the diffusion term H'(rho) at diffusion = {model.energy.diffusion:g}",
                  model.energy.slope_regularized(values)),
                 ("the confinement potential V", model.v_table)]
        if setup.kernel is not None:
            terms.append(("the interaction term W * rho", convolve(setup.kernel, values)))
        for name, term in terms:
            if not np.isfinite(term).all():
                return f"{name} is not finite"
            slope = max(float(np.abs(np.diff(term, axis=k)).max(initial=0.0))
                        for k in range(term.ndim)) / dx
            if not np.isfinite(slope / dx):
                return f"{name} changes too fast between cells (slope {slope:g}, dx = {dx:g})"
        xi = sum(term for _, term in terms)
        for k in range(values.ndim):
            rho, speed = np.moveaxis(values, k, -1), np.moveaxis(np.diff(xi, axis=k) / dx, k, -1)
            if not np.isfinite(np.maximum(rho[..., :-1], rho[..., 1:]) * speed / dx).all():
                return (f"the flux rho * u (the density times its face speed) is not finite "
                        f"at the largest density {values.max():g}; lower [initial] mass")
    return None


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Time-step a configured model, recording telemetry and snapshots.

    The energy column is the clipped discrete energy of each recorded state
    and must be non-increasing within solver tolerance; any breach, or a
    failed step (StepError or NewtonError), is recorded as a violation
    rather than raised, so the rows so far are still written. A
    NumericalError, a number out of floating-point range, is raised with the
    term of the potential that overflows named where one does.
    """
    model = config.model
    grid = model.grid
    setup = build_setup(model, config.scheme_kind, config.stage, config.theta)
    cfg = config.solver
    rho = build_initial(config.initial, grid, config.t_initial, model)
    field = DensityField(np.maximum(rho, 0.0), grid)

    t = config.t_initial
    prev_energy = clipped_energy(setup, field)
    rows = [(t, prev_energy, field.mass, field.minimum, 0, 0.0, 0)]
    violations: list = []
    snapshots_pending = sorted(config.snapshots)
    snapshot_paths = []

    def take_snapshots(current_t, values):
        while snapshots_pending and current_t >= snapshots_pending[0] - 1e-12:
            target = snapshots_pending.pop(0)
            if config.output_dir:
                path = os.path.join(config.output_dir, f"snapshot_t{target:g}.txt")
                write_snapshot(path, grid, values)
                snapshot_paths.append(path)

    take_snapshots(t, field)
    dt = _dt_rule(config.dt, setup)
    try:
        for step_index, (t, out) in enumerate(march(setup, field, t, config.t_final, dt, cfg), 1):
            field = out.field
            energy = clipped_energy(setup, field)
            tol = 100.0 * cfg.tolerance * (1.0 + abs(prev_energy))
            if energy > prev_energy + tol:
                violations.append(
                    f"energy increased by {energy - prev_energy:.3g} at t={t:.6g}"
                )
            prev_energy = energy
            if step_index % config.cadence == 0 or t >= config.t_final - 1e-12:
                rows.append(
                    (t, energy, field.mass, field.minimum,
                     out.iterations, out.dt_used, out.cfl_retries)
                )
            take_snapshots(t, field)
    except (StepError, NewtonError) as exc:
        violations.append(f"step failed at t={t:.6g}: {exc}")
    except NumericalError as exc:
        term = _overflowing_term(setup, field.values)
        if term is None:
            raise
        raise NumericalError(f"{exc}; {term}") from exc

    csv_path = None
    if config.output_dir:
        csv_path = os.path.join(config.output_dir, "series.csv")
        write_csv(csv_path, RunRecord.HEADER, rows)

    return RunRecord(rows, field, violations, csv_path, tuple(snapshot_paths))


# ---------------------------------------------------------------------------
# Convergence studies


# The refinement schedule every study case shares (see run_level).
STUDY_T_INITIAL = 2.0
STUDY_T_FINAL = 3.0
STUDY_DX0 = 0.5
S1_DT_SCALING = 0.25


@dataclass(frozen=True)
class StudyCase:
    """One validation family: model builder, reference and S1's level-0 dt."""

    dimension: int
    half_width: float
    build_model: callable
    reference_kind: str
    s1_dt0: float


def _study_cases(exponent: float | None):
    m = exponent if exponent is not None else 2.0
    return {
        "heat1d": StudyCase(1, 15.0, heat, "heat_kernel", 2.0**-4),
        "heat2d": StudyCase(2, 15.0, heat, "heat_kernel", 2.0**-9),
        "pme1d": StudyCase(1, 6.0, lambda g: porous_medium(g, m), "barenblatt", 2.0**-2),
        "pme2d": StudyCase(2, 6.0, lambda g: porous_medium(g, m), "barenblatt", 2.0**-2),
        "linfp2d": StudyCase(2, 5.0, linear_fokker_planck, "fp_transient", 2.0**-4),
        "nonlocfp2d": StudyCase(2, 5.0, nonlocal_fokker_planck, "fp_transient", 2.0**-6),
    }


STUDY_CASE_NAMES = tuple(_study_cases(None).keys())


@dataclass
class StudyResult:
    case: str
    scheme: str
    rows: list  # (dt, dx, error) or (dt, dx, dy, error)
    errors: list
    orders: list
    csv_path: str | None = None

    def table(self):
        """CSV header and rows, each row ending in its order ("" on the first)."""
        header = ("dt", "dx", "error") if len(self.rows[0]) == 3 else ("dt", "dx", "dy", "error")
        orders = [""] + list(self.orders)
        return header + ("order",), [row + (o,) for row, o in zip(self.rows, orders)]


def run_level(case: StudyCase, scheme_kind: str, level: int) -> tuple:
    """One refinement level; returns (dt, dx, error)."""
    dx = STUDY_DX0 * 0.5**level
    dt = case.s1_dt0 * S1_DT_SCALING**level if scheme_kind == S1 else dx
    m = round(case.half_width / dx)
    grid = Grid(case.dimension, case.half_width, m)
    model = case.build_model(grid)
    ref = ReferenceSolution(
        case.reference_kind, case.dimension,
        diffusion=model.energy.diffusion,
        exponent=model.energy.exponent, mass=1.0,
    )
    setup = build_setup(model, scheme_kind, stage="midpoint")
    rho = sample_reference(ref, STUDY_T_INITIAL, grid)
    for _, out in march(setup, rho, STUDY_T_INITIAL, STUDY_T_FINAL, dt):
        rho = out.field
    error = l1_error(rho, ref, STUDY_T_FINAL, grid)
    return dt, dx, error


def convergence_study(case_name: str, scheme_kind: str, levels: int, exponent=None,
                      output_dir: str | None = None) -> StudyResult:
    """Reproduce one validation table's schedule; ``exponent`` is m of a pme case only."""
    cases = _study_cases(exponent)
    if case_name not in cases:
        raise ConfigurationError(
            f"unknown case {case_name!r}; choose from {sorted(cases)}"
        )
    if exponent is not None and case_name not in ("pme1d", "pme2d"):
        raise ConfigurationError(f"only pme1d and pme2d take an exponent, not {case_name!r}")
    if levels < 1:
        raise ConfigurationError("need at least one level")
    case = cases[case_name]
    rows = []
    errors = []
    for level in range(levels):
        dt, dx, error = run_level(case, scheme_kind, level)
        errors.append(error)
        if case.dimension == 1:
            rows.append((dt, dx, error))
        else:
            rows.append((dt, dx, dx, error))
    orders = convergence_order(errors) if len(errors) >= 2 else []
    result = StudyResult(case_name, scheme_kind, rows, errors, orders)
    if output_dir:
        path = os.path.join(output_dir, f"convergence_{case_name}_{scheme_kind}.csv")
        write_csv(path, *result.table())
        result.csv_path = path
    return result


# ---------------------------------------------------------------------------
# Steady states and bifurcation sweeps

STEADY_L1_TOL = 1e-10


def run_to_steady(setup: SchemeSetup, rho0, dt, t_max, cfg: NewtonConfig | None = None,
                  l1_tol: float = STEADY_L1_TOL, record_energy: bool = False):
    """March S1/S2 until the L1 increment per step drops below tolerance.

    Returns (rho, t_reached, converged, history) where rho is the last
    state's values and history holds the (t, clipped energy) of the start
    and of every step when requested.
    """
    grid = setup.model.grid
    rho = field_values(rho0).copy()
    history = [(0.0, clipped_energy(setup, rho))] if record_energy else []
    t, converged = 0.0, False
    for t, out in march(setup, rho, 0.0, t_max, dt, cfg):
        if record_energy:
            history.append((t, clipped_energy(setup, out.field)))
        increment = np.abs(out.field.values - rho).sum() * grid.cell_measure
        rho = out.field.values
        if increment <= l1_tol:
            converged = True
            break
    return rho, t, converged, history


_PARAM_ALIASES = {
    "diffusion": "diffusion", "d": "diffusion", "sigma": "diffusion", "noise": "diffusion",
    "exponent": "exponent", "m": "exponent",
    "entropy_weight": "entropy_weight", "eps_reg": "entropy_weight",
    "confinement_strength": "confinement_strength", "alpha": "confinement_strength",
    "interaction_width": "interaction_width",
}
_READ_BY = {"diffusion": ("entropy", "power", "power_entropy"),  # the energy kinds that read it
            "exponent": ("power", "power_entropy"), "entropy_weight": ("power_entropy",)}


def _with_parameter(model: ModelSpec, name: str, value: float) -> ModelSpec:
    """The model with one parameter set; one the model does not read raises ConfigurationError."""
    key = _PARAM_ALIASES.get(name.lower())
    if key is None:
        raise ConfigurationError(f"unknown sweep parameter {name!r}")
    if key in _READ_BY:
        if model.energy.kind not in _READ_BY[key]:
            raise ConfigurationError(f"the {model.energy.kind!r} energy does not read {key!r}")
        energy = replace(model.energy, **{key: float(value)})
        return replace(model, energy=energy)
    if key == "confinement_strength":
        conf = model.confinement
        if conf is None or not hasattr(conf, "strength"):
            raise ConfigurationError("model has no confinement strength to sweep")
        return replace(model, confinement=replace(conf, strength=float(value)))
    inter = model.interaction
    if inter is None or not hasattr(inter, "width"):
        raise ConfigurationError("model has no interaction width to sweep")
    return replace(model, interaction=replace(inter, width=float(value)))


SWEEP_SHIFT = 0.5  # asymmetric start: initial centers shifted along +x


@dataclass
class SweepRecord:
    rows: list  # (value, |<x>|, energy, converged, t_reached)
    csv_path: str | None = None

    HEADER = ("value", "first_moment_abs", "energy", "converged", "t_reached")


def bifurcation_sweep(config: ExperimentConfig, parameter: str, values,
                      output_dir: str | None = None) -> SweepRecord:
    """Steady states across a parameter range, from an x-shifted start.

    The start is the config's gaussian or mixture start with every center
    moved SWEEP_SHIFT along +x; any other kind raises ConfigurationError.
    Each value runs to the steady state (L1 increment <= 1e-10 per step) or
    to t_final, stepping as a run does (dt = "auto" is _auto_dt); a row
    that fails to settle is flagged, not fatal. Recorded per value: |<x>| of
    the final state and its discrete energy.
    """
    start = config.initial
    if start.kind not in ("gaussian", "mixture"):
        raise ConfigurationError(f"a {start.kind!r} start has no center for a sweep to shift")
    mixture = start.kind == "mixture"
    centers = tuple((x + SWEEP_SHIFT, *rest) for x, *rest in
                    (_point(c, config.model.grid, f"{start.kind} center")
                     for c in (start.centers if mixture else (start.center,))))
    start = replace(start, centers=centers) if mixture else replace(start, center=centers[0])
    rows = []
    for value in values:
        model = _with_parameter(config.model, parameter, value)
        setup = build_setup(model, config.scheme_kind, config.stage, config.theta)
        rho0 = np.maximum(build_initial(start, model.grid, config.t_initial, model), 0.0)
        rho, t_reached, converged, _ = run_to_steady(
            setup, rho0, _dt_rule(config.dt, setup), config.t_final - config.t_initial,
            config.solver
        )
        moment = analysis.first_moment(rho, model.grid)
        energy = clipped_energy(setup, rho)
        rows.append((float(value), float(np.abs(moment[0])), energy, converged, t_reached))
    record = SweepRecord(rows)
    if output_dir:
        path = os.path.join(output_dir, f"sweep_{parameter}.csv")
        write_csv(path, SweepRecord.HEADER, rows)
        record.csv_path = path
    return record
