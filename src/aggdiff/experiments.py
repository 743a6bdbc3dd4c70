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
from .errors import ConfigurationError, NewtonError, StepError
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
    reference solutions sampled at ``time``), gaussian (one normalized bump),
    mixture (sum of bumps with given weights), uniform, zero, table
    (explicit values).
    """

    kind: str
    mass: float = 1.0
    time: float | None = None
    center: tuple = (0.0, 0.0)
    width: float = 1.0
    centers: tuple = ()
    widths: tuple = ()
    weights: tuple = ()
    values: tuple = ()


def _gaussian_bump(grid: Grid, center, width, weight):
    xs = grid.axis_centers()
    if grid.dimension == 1:
        c = center[0] if np.ndim(center) else float(center)
        return weight * np.exp(-0.5 * ((xs - c) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    cx, cy = center
    gx = np.exp(-0.5 * ((xs - cx) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    gy = np.exp(-0.5 * ((xs - cy) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    return weight * gx[:, None] * gy[None, :]


def build_initial(spec: InitialSpec, grid: Grid, t_initial: float,
                  model: ModelSpec | None = None) -> np.ndarray:
    kind = spec.kind
    if kind in ("heat_kernel", "barenblatt", "fp_transient", "fp_steady"):
        if model is None:
            raise ConfigurationError(f"initial condition {kind!r} needs the model")
        ref = ReferenceSolution(kind, grid.dimension, diffusion=model.energy.diffusion,
                                exponent=model.energy.exponent, mass=spec.mass)
        t0 = spec.time if spec.time is not None else t_initial
        return sample_reference(ref, t0, grid)
    if kind == "gaussian":
        center = spec.center if grid.dimension == 2 else (spec.center[0],)
        return _gaussian_bump(grid, center, spec.width, spec.mass)
    if kind == "mixture":
        if not spec.centers:
            raise ConfigurationError("mixture initial condition needs bump centers")
        widths = spec.widths or (spec.width,) * len(spec.centers)
        weights = spec.weights or (1.0,) * len(spec.centers)
        out = np.zeros(grid.shape)
        for c, w, a in zip(spec.centers, widths, weights):
            center = c if grid.dimension == 2 else (c,)
            out += _gaussian_bump(grid, center, w, a)
        if spec.mass is not None:
            total = out.sum() * grid.cell_measure
            if total > 0:
                out *= spec.mass / total
        return out
    if kind == "uniform":
        volume = (2.0 * grid.half_width) ** grid.dimension
        return np.full(grid.shape, spec.mass / volume)
    if kind == "zero":
        return np.zeros(grid.shape)
    if kind == "table":
        arr = np.asarray(spec.values, dtype=float).reshape(grid.shape)
        return arr.copy()
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
        if not self.t_final > self.t_initial:
            raise ConfigurationError("t_final must exceed t_initial")


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
    ``field.values``. A StepError or NewtonError propagates to the caller.
    """
    while t < until - 1e-12:
        h = dt(rho) if callable(dt) else dt
        if until - t - h <= SLIVER_SHARE * h:
            h = until - t
        out = step(rho, h, setup, config)
        rho = out.field.values
        t += out.dt_used
        yield t, out


def _auto_dt(values, setup: SchemeSetup) -> float:
    """Conservative step suggestion from the current state's velocities."""
    dx = setup.dx
    if setup.scheme.kind == S2:
        return dx
    vals = field_values(values)
    xi = scheme1d.chemical_potential(vals, vals, setup.energy, setup.v_table, setup.kernel)
    # The largest face velocity |u| = |xi_{i+1} - xi_i| / dx along any axis.
    peak = max(float(np.abs(np.diff(xi, axis=k)).max(initial=0.0)) for k in range(xi.ndim)) / dx
    if peak == 0.0:
        return dx
    return 0.9 * dx / (2.0 * peak)


def _dt_rule(dt, setup: SchemeSetup):
    """A configured dt as march takes it: a number, or _auto_dt's rule for "auto"."""
    return (lambda values: _auto_dt(values, setup)) if dt == "auto" else float(dt)


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Time-step a configured model, recording telemetry and snapshots.

    The energy column is the clipped discrete energy of each recorded state
    and must be non-increasing within solver tolerance; any breach, or a
    failed step (StepError or NewtonError), is recorded as a violation
    rather than raised, so the rows so far are still written.
    """
    model = config.model
    grid = model.grid
    setup = build_setup(model, config.scheme_kind, config.stage, config.theta)
    cfg = config.solver
    rho = build_initial(config.initial, grid, config.t_initial, model)
    rho = np.maximum(rho, 0.0)

    t = config.t_initial
    prev_energy = clipped_energy(setup, rho)
    rows = [(t, prev_energy, rho.sum() * grid.cell_measure, float(rho.min()), 0, 0.0, 0)]
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

    take_snapshots(t, rho)
    dt = _dt_rule(config.dt, setup)
    cadence = max(config.cadence, 1)
    try:
        for step_index, (t, out) in enumerate(march(setup, rho, t, config.t_final, dt, cfg), 1):
            rho = out.field.values
            energy = clipped_energy(setup, rho)
            tol = 100.0 * cfg.tolerance * (1.0 + abs(prev_energy))
            if energy > prev_energy + tol:
                violations.append(
                    f"energy increased by {energy - prev_energy:.3g} at t={t:.6g}"
                )
            prev_energy = energy
            if step_index % cadence == 0 or t >= config.t_final - 1e-12:
                rows.append(
                    (t, energy, out.field.mass, float(rho.min()),
                     out.iterations, out.dt_used, out.cfl_retries)
                )
            take_snapshots(t, rho)
    except (StepError, NewtonError) as exc:
        violations.append(f"step failed at t={t:.6g}: {exc}")

    csv_path = None
    if config.output_dir:
        csv_path = os.path.join(config.output_dir, "series.csv")
        write_csv(csv_path, RunRecord.HEADER, rows)

    final = DensityField(rho, grid, min_allowed=10.0 * cfg.tolerance)
    return RunRecord(rows, final, violations, csv_path, tuple(snapshot_paths))


# ---------------------------------------------------------------------------
# Convergence studies


@dataclass(frozen=True)
class StudyCase:
    """One validation family: model builder, reference, and dt schedules."""

    dimension: int
    half_width: float
    build_model: callable
    reference_kind: str
    t_initial: float
    t_final: float
    dx0: float
    dt0: dict  # scheme kind -> dt at level 0
    dt_scaling: dict  # scheme kind -> per-level factor


def _study_cases(exponent: float | None):
    m = exponent if exponent is not None else 2.0
    return {
        "heat1d": StudyCase(1, 15.0, heat, "heat_kernel", 2.0, 3.0, 0.5,
                            {S1: 2.0**-4, S2: 2.0**-1}, {S1: 0.25, S2: 0.5}),
        "heat2d": StudyCase(2, 15.0, heat, "heat_kernel", 2.0, 3.0, 0.5,
                            {S1: 2.0**-9, S2: 2.0**-1}, {S1: 0.25, S2: 0.5}),
        "pme1d": StudyCase(1, 6.0, lambda g: porous_medium(g, m), "barenblatt",
                           2.0, 3.0, 0.5, {S1: 2.0**-2, S2: 2.0**-1}, {S1: 0.25, S2: 0.5}),
        "pme2d": StudyCase(2, 6.0, lambda g: porous_medium(g, m), "barenblatt",
                           2.0, 3.0, 0.5, {S1: 2.0**-2, S2: 2.0**-1}, {S1: 0.25, S2: 0.5}),
        "linfp2d": StudyCase(2, 5.0, linear_fokker_planck, "fp_transient", 2.0, 3.0,
                             0.5, {S1: 2.0**-4, S2: 2.0**-1}, {S1: 0.25, S2: 0.5}),
        "nonlocfp2d": StudyCase(2, 5.0, nonlocal_fokker_planck, "fp_transient", 2.0,
                                3.0, 0.5, {S1: 2.0**-6, S2: 2.0**-1}, {S1: 0.25, S2: 0.5}),
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


def run_level(case: StudyCase, scheme_kind: str, level: int,
              solver: NewtonConfig | None = None) -> tuple:
    """One refinement level; returns (dt, dx, error)."""
    dx = case.dx0 * 0.5**level
    dt = case.dt0[scheme_kind] * case.dt_scaling[scheme_kind] ** level
    m = round(case.half_width / dx)
    grid = Grid(case.dimension, case.half_width, m)
    model = case.build_model(grid)
    ref = ReferenceSolution(
        case.reference_kind, case.dimension,
        diffusion=model.energy.diffusion,
        exponent=model.energy.exponent, mass=1.0,
    )
    setup = build_setup(model, scheme_kind, stage="midpoint")
    rho = sample_reference(ref, case.t_initial, grid)
    for _, out in march(setup, rho, case.t_initial, case.t_final, dt, solver):
        rho = out.field.values
    error = l1_error(rho, ref, case.t_final, grid)
    return dt, dx, error


def convergence_study(case_name: str, scheme_kind: str, levels: int, exponent=None,
                      output_dir: str | None = None,
                      solver: NewtonConfig | None = None) -> StudyResult:
    """Reproduce one validation table's schedule for the requested levels."""
    cases = _study_cases(exponent)
    if case_name not in cases:
        raise ConfigurationError(
            f"unknown case {case_name!r}; choose from {sorted(cases)}"
        )
    if levels < 1:
        raise ConfigurationError("need at least one level")
    case = cases[case_name]
    rows = []
    errors = []
    for level in range(levels):
        dt, dx, error = run_level(case, scheme_kind, level, solver)
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

    Returns (rho, t_reached, converged, history) where history holds the
    (t, clipped energy) of the start and of every step when requested.
    """
    grid = setup.model.grid
    rho = field_values(rho0).copy()
    history = [(0.0, clipped_energy(setup, rho))] if record_energy else []
    t, converged = 0.0, False
    for t, out in march(setup, rho, 0.0, t_max, dt, cfg):
        if record_energy:
            history.append((t, clipped_energy(setup, out.field.values)))
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


def _with_parameter(model: ModelSpec, name: str, value: float) -> ModelSpec:
    key = _PARAM_ALIASES.get(name.lower())
    if key is None:
        raise ConfigurationError(f"unknown sweep parameter {name!r}")
    if key in ("diffusion", "exponent", "entropy_weight"):
        energy = replace(model.energy, **{key: float(value)})
        return replace(model, energy=energy)
    if key == "confinement_strength":
        conf = model.potentials.confinement
        if conf is None or not hasattr(conf, "strength"):
            raise ConfigurationError("model has no confinement strength to sweep")
        pots = replace(model.potentials, confinement=replace(conf, strength=float(value)))
        return replace(model, potentials=pots)
    inter = model.potentials.interaction
    if inter is None or not hasattr(inter, "width"):
        raise ConfigurationError("model has no interaction width to sweep")
    pots = replace(model.potentials, interaction=replace(inter, width=float(value)))
    return replace(model, potentials=pots)


SWEEP_SHIFT = 0.5  # asymmetric start: initial center shifted along +x


@dataclass
class SweepRecord:
    rows: list  # (value, |<x>|, energy, converged, t_reached)
    csv_path: str | None = None

    HEADER = ("value", "first_moment_abs", "energy", "converged", "t_reached")


def bifurcation_sweep(config: ExperimentConfig, parameter: str, values,
                      output_dir: str | None = None) -> SweepRecord:
    """Steady states across a parameter range, from an x-shifted start.

    Each value runs to the steady state (L1 increment <= 1e-10 per step) or
    to t_final, stepping as a run does (dt = "auto" is _auto_dt); a row
    that fails to settle is flagged, not fatal. Recorded per value: |<x>| of
    the final state and its discrete energy.
    """
    rows = []
    for value in values:
        model = _with_parameter(config.model, parameter, value)
        setup = build_setup(model, config.scheme_kind, config.stage, config.theta)
        init = config.initial
        shifted = replace(
            init,
            center=(init.center[0] + SWEEP_SHIFT,) + tuple(init.center[1:]),
        )
        rho0 = np.maximum(build_initial(shifted, model.grid, config.t_initial, model), 0.0)
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
