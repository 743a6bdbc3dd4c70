"""The acceptance gate: one callable per criterion, each self-reporting.

Every criterion is implemented at its stated tolerance against its stated
targets. The functions return structured results so both the CLI
(``aggdiff validate``) and the test suite can run them and print one
pass/fail line per criterion.

A note on the convergence-table targets (criteria 1, 3, 4, 5): the recorded
error values come from an external reference whose pipeline details are not
fully reproducible from its stated protocol. This implementation matches
that reference to 0.01-0.26% on the first-order scheme's heat ladder and to
0.4-2% on the smoothest porous-medium case, which pins the shared
conventions (center-sampled data and errors, the time loop, the vacuum
floor). The remaining table targets differ systematically: the heat
second-order 1D ladder by 6.2% at level 0 and 4.0-4.3% after, and no nearby
convention (cell-averaged data, error or both) comes within its 1% band
(``tests/test_acceptance.py::test_criterion_1_no_error_convention_meets_the_table``
computes all four), the 2D heat rows by an order of magnitude (for the
no-interaction splitting the schemes tensorize exactly, which
``tests/test_acceptance.py::test_criterion_4_heat_split_step_tensorizes``
checks, so the 2D error is forced to ~2x the 1D error, which
``test_criterion_4_2d_error_is_about_twice_the_1d_error`` checks at level 0
along with a 1D error that falls as dt falls - the reference's own 1D and 2D
rows are mutually inconsistent under that identity), the 2D Fokker-Planck
rows by ~30x (their level-0 targets exceed the L1 distance the exact
solution travels over [2, 3], so a field that never moved would beat them:
``test_criterion_5_targets_exceed_the_whole_transient``), and the m = 3
porous-medium errors hang on the front's place in its cell: a shift of a
quarter or half cell moves each of the first four levels' errors by 12-222%,
and turns the 0.33 order row (levels 2 to 3) into 2.41 or 1.14
(``test_criterion_3_m3_errors_move_with_the_front_within_its_cell``). Those
clauses are asserted exactly as stated and fail honestly; every
property-based criterion and every physically meaningful clause (orders, the
linear/nonlocal equivalence, dissipation rates, invariants, metastability,
the phase transition) passes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import ReferenceSolution, sample_reference
from .errors import ConfigurationError
from .experiments import (
    ExperimentConfig,
    InitialSpec,
    bifurcation_sweep,
    build_initial,
    convergence_study,
    march,
    run_to_steady,
    step,
)
from .kernels import KernelTable, convolve, tabulate_kernel
from .model import DensityField, Gaussian, Grid, field_values
from .presets import (
    MODEL_MATRIX,
    aggregation_diffusion,
    flocking,
    grid_1d,
    grid_2d,
    heat,
    linear_fokker_planck,
    nonlinear_fokker_planck,
    nonlocal_fokker_planck,
)
from .scheme1d import S1, S2
from .solver import (
    NewtonConfig,
    SchemeSetup,
    assemble_jacobian,
    build_setup,
    clipped_energy,
    line_problem,
    solve_lines,
)
from .split2d import advance_sweep_axis


@dataclass
class Check:
    label: str
    passed: bool
    detail: str


@dataclass
class CriterionResult:
    index: int
    name: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label, passed, detail=""):
        self.checks.append(Check(label, bool(passed), detail))

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name} ({self.seconds:.1f}s)"


def _rel(measured, target):
    return abs(measured - target) / abs(target)


def _check_errors(result, errors, targets, tol, label_prefix):
    for i, (e, t) in enumerate(zip(errors, targets)):
        r = _rel(e, t)
        result.add(
            f"{label_prefix} error level {i} within {tol:.0%}",
            r <= tol,
            f"measured {e:.10f}, target {t:.10f}, rel diff {r:.2%}",
        )


def _check_orders(result, orders, targets, tol, label_prefix):
    for i, (o, t) in enumerate(zip(orders, targets)):
        result.add(
            f"{label_prefix} order row {i + 1} within ±{tol}",
            abs(o - t) <= tol,
            f"measured {o:.4f}, target {t:.4f}",
        )


# --------------------------------------------------------------------------
# Criteria 1-5: the paper's convergence tables


def criterion_1() -> CriterionResult:
    res = CriterionResult(1, "heat 1D S1 convergence table (levels 0-3)")
    study = convergence_study("heat1d", S1, 4)
    _check_errors(
        res, study.errors,
        [0.0042109083, 0.0010515212, 0.0002646653, 0.0000662580], 0.01, "heat1d S1",
    )
    _check_orders(res, study.orders, [2.0017, 1.9902, 1.9980], 0.05, "heat1d S1")
    return res


def criterion_2() -> CriterionResult:
    res = CriterionResult(2, "heat 1D S2 convergence table (5 levels)")
    study = convergence_study("heat1d", S2, 5)
    res.add(
        "heat1d S2 first error within 1%",
        _rel(study.errors[0], 0.0206792591) <= 0.01,
        f"measured {study.errors[0]:.10f}, target 0.0206792591, "
        f"rel diff {_rel(study.errors[0], 0.0206792591):.2%}",
    )
    table = [0.9274753681, 0.9567759114, 0.9774616438, 0.9888569712]
    _check_orders(res, study.orders, table, 0.05, "heat1d S2")
    rising = all(a < b for a, b in zip(study.orders[:-1], study.orders[1:]))
    res.add(
        "heat1d S2 orders rising toward 1",
        rising and study.orders[-1] < 1.0 + 0.05,
        "orders " + " ".join(f"{o:.4f}" for o in study.orders),
    )
    return res


def criterion_3() -> CriterionResult:
    res = CriterionResult(3, "porous medium 1D S1 tables (m=2 and m=3)")
    study2 = convergence_study("pme1d", S1, 6, exponent=2.0)
    res.add(
        "pme1d m=2 S1 first error within 2%",
        _rel(study2.errors[0], 0.0130915415) <= 0.02,
        f"measured {study2.errors[0]:.10f}, target 0.0130915415, "
        f"rel diff {_rel(study2.errors[0], 0.0130915415):.2%}",
    )
    table2 = [1.6697293690, 2.1573015535, 1.9809505153, 1.9841427616, 1.9606888670]
    for i, (o, t) in enumerate(zip(study2.orders, table2)):
        res.add(
            f"pme1d m=2 S1 order row {i + 1} in [1.6, 2.2] and within ±0.1 of table",
            1.6 <= o <= 2.2 and abs(o - t) <= 0.1,
            f"measured {o:.4f}, table {t:.4f}",
        )
    study3 = convergence_study("pme1d", S1, 6, exponent=3.0)
    final_order = study3.orders[-1]
    res.add(
        "pme1d m=3 S1 final-row order in [1.5, 1.75] (table 1.6261)",
        1.5 <= final_order <= 1.75,
        f"measured {final_order:.4f}; full order sequence "
        + " ".join(f"{o:.4f}" for o in study3.orders),
    )
    return res


def criterion_4() -> CriterionResult:
    res = CriterionResult(4, "heat 2D S1 table (first two rows)")
    study = convergence_study("heat2d", S1, 2)
    _check_errors(res, study.errors, [0.0289894915, 0.0073328480], 0.02, "heat2d S1")
    res.add(
        "heat2d S1 order within ±0.05 of 1.9831",
        abs(study.orders[0] - 1.9830844898) <= 0.05,
        f"measured {study.orders[0]:.4f}",
    )
    return res


def criterion_5() -> CriterionResult:
    res = CriterionResult(5, "linear vs nonlocal Fokker-Planck 2D (S1)")
    lin = convergence_study("linfp2d", S1, 2)
    non = convergence_study("nonlocfp2d", S1, 2)
    _check_errors(res, lin.errors, [0.0130193017, 0.0033748735], 0.02, "linfp2d S1")
    _check_errors(res, non.errors, [0.0128997621, 0.0033440967], 0.02, "nonlocfp2d S1")

    # Equivalence of the two models for identical symmetric initial data.
    grid = grid_2d(5.0, 0.5)
    ref = ReferenceSolution("fp_transient", 2)
    rho0 = sample_reference(ref, 2.0, grid)
    cfg = NewtonConfig()
    finals = []
    for model in (linear_fokker_planck(grid), nonlocal_fokker_planck(grid)):
        setup = build_setup(model, S1, stage="midpoint")
        for _, out in march(setup, rho0, 2.0, 3.0, 2.0**-4, cfg):
            rho = out.field.values
        finals.append(rho)
    diff = float(np.abs(finals[0] - finals[1]).sum() * grid.cell_measure)
    res.add(
        "linear and nonlocal solutions agree to <= 1e-3 in L1 at t=3",
        diff <= 1e-3,
        f"L1 difference {diff:.3e}",
    )
    return res


# --------------------------------------------------------------------------
# Criterion 6: dissipation-rate properties


def _fit_log_slope(ts, rels, lo, hi, t_min=0.0):
    ts = np.asarray(ts)
    rels = np.asarray(rels)
    mask = (rels > lo) & (rels < hi) & (ts > t_min)
    if mask.sum() < 4:
        return None
    return float(np.polyfit(ts[mask], np.log(rels[mask]), 1)[0])


def _energy_history(setup, rho0, dt, t_max):
    rho, _, _, hist = run_to_steady(
        setup, rho0, dt, t_max, NewtonConfig(), l1_tol=1e-13, record_energy=True
    )
    ts = np.array([h[0] for h in hist])
    es = np.array([h[1] for h in hist])
    return ts, es - es[-1]


def criterion_6() -> CriterionResult:
    res = CriterionResult(6, "relative-entropy dissipation rates (O(-4t), O(-8t))")
    # Nonlocal FP in 2D: energy decays like exp(-4t) toward the Gaussian.
    slopes = []
    for dx in (0.5, 0.25, 0.125):
        grid = grid_2d(5.0, dx)
        model = nonlocal_fokker_planck(grid)
        setup = build_setup(model, S2, stage="midpoint")
        rho0 = build_initial(InitialSpec("gaussian", mass=1.0, width=0.5), grid, 0.0, model)
        ts, rel = _energy_history(setup, rho0, dx, 8.0)
        slopes.append(_fit_log_slope(ts, rel, 1e-8, 1e-3))
    finest = slopes[-1]
    res.add(
        "nonlocal FP 2D log-slope within 15% of -4 on the finest mesh",
        finest is not None and abs(finest + 4.0) / 4.0 <= 0.15,
        "slopes per mesh: " + " ".join("n/a" if s is None else f"{s:.3f}" for s in slopes),
    )
    # Nonlinear FP (m=3) in 1D: energy decays like exp(-8t).
    slopes = []
    for dx in (0.125, 0.0625, 0.03125):
        grid = grid_1d(5.0, dx)
        model = nonlinear_fokker_planck(grid, 3.0)
        setup = build_setup(model, S2, stage="midpoint")
        rho0 = build_initial(InitialSpec("gaussian", mass=1.0, width=1.0), grid, 0.0, model)
        ts, rel = _energy_history(setup, rho0, dx, 20.0)
        slopes.append(_fit_log_slope(ts, rel, 3e-5, 3e-3, t_min=0.25))
    finest = slopes[-1]
    res.add(
        "nonlinear FP 1D (m=3) log-slope within 15% of -8 on the finest mesh",
        finest is not None and abs(finest + 8.0) / 8.0 <= 0.15,
        "slopes per mesh: " + " ".join("n/a" if s is None else f"{s:.3f}" for s in slopes),
    )
    return res


# --------------------------------------------------------------------------
# Criterion 7: structural invariants across the model matrix


def criterion_7() -> CriterionResult:
    res = CriterionResult(7, "structural invariants (mass, energy, positivity)")
    cfg = NewtonConfig()
    tol = cfg.tolerance
    for name, build in MODEL_MATRIX.items():
        for dim in (1, 2):
            grid = grid_1d(4.0, 0.25) if dim == 1 else grid_2d(4.0, 0.5)
            model = build(grid)
            center = (0.25, 0.0)[:dim]
            rho0 = np.maximum(
                build_initial(
                    InitialSpec("gaussian", mass=1.0, width=0.6, center=center),
                    grid, 0.0, model,
                ),
                0.0,
            )
            for kind in (S2, S1):
                setup = build_setup(model, kind, stage="auto")
                dts = (
                    [10.0 * grid.dx, grid.dx, grid.dx]
                    if kind == S2
                    else [grid.dx**2 / 4.0] * 3
                )
                rho = DensityField(rho0, grid)
                ok = True
                detail = ""
                try:
                    e0 = clipped_energy(setup, rho)
                    # The step itself fails on a mass drift or a min rho that
                    # breaches its bounds; the energy is checked here.
                    for dt in dts:
                        out = step(rho, dt, setup, cfg)
                        e1 = clipped_energy(setup, out.field)
                        if e1 > e0 + 100 * tol * (1 + abs(e0)):
                            ok, detail = False, f"energy rose by {e1 - e0:.2e}"
                            break
                        rho, e0 = out.field, e1
                except Exception as exc:  # noqa: BLE001 - reported, not raised
                    ok, detail = False, f"step failed: {exc}"
                res.add(f"{name} {dim}D {kind}", ok, detail)
    return res


# --------------------------------------------------------------------------
# Criterion 8: oracle equivalences


def criterion_8() -> CriterionResult:
    res = CriterionResult(8, "oracle equivalences")
    rng = np.random.default_rng(8)

    # (a) sweeping with W = None equals independent per-row 1D stepping.
    grid = grid_2d(4.0, 0.5)
    model = linear_fokker_planck(grid)
    tight = NewtonConfig(tolerance=1e-12)
    for kind in (S1, S2):
        base = build_setup(model, kind, stage="midpoint")
        zero = KernelTable(np.zeros((2 * grid.n_cells - 1,) * 2), grid.cell_measure)
        forced = SchemeSetup(base.scheme, base.model, zero)
        rho0 = sample_reference(ReferenceSolution("fp_steady", 2), 1.0, grid) * (
            1.0 + 0.1 * np.cos(grid.cell_centers()[0])
        )
        dt = grid.dx**2 / 4.0
        swept = advance_sweep_axis(rho0, 0, dt, forced, tight)
        rowwise = rho0.copy()
        for j in range(grid.n_cells):
            row = line_problem(base, rho0[:, j], dt, v_table=model.v_table[:, j], kernel=None)
            rowwise[:, j] = solve_lines(row, tight)[0]
        diff = float(np.abs(swept - rowwise).max())
        res.add(
            f"sweep (W=None) equals per-row 1D stepping, {kind}",
            diff <= 1e-8,
            f"max abs difference {diff:.2e}",
        )

    # (b) FFT convolution, as scipy.signal.fftconvolve computes it, equals the direct sum.
    from scipy.fft import irfft, next_fast_len, rfft

    for m in (8, 32):
        g1 = Grid(1, 2.0, m)
        kernel = tabulate_kernel(Gaussian(0.5, -1.0), g1)
        n = g1.n_cells
        nfft = next_fast_len(3 * n - 2, True)
        worst = 0.0
        for _ in range(100):
            rho = rng.random(n)
            direct = convolve(kernel, rho)
            full = irfft(rfft(kernel.values, nfft) * rfft(rho, nfft), nfft)
            fast = full[n - 1 : 2 * n - 1] * kernel.cell_measure
            scale = np.abs(direct).max()
            worst = max(worst, float(np.abs(direct - fast).max() / scale))
        res.add(
            f"FFT vs direct convolution, M={m}",
            worst <= 1e-12,
            f"worst relative difference {worst:.2e}",
        )

    # (c) analytic Jacobian matches finite differences.
    for label, model1d, stage in (
        ("heat", heat(grid_1d(4.0, 0.5)), "midpoint"),
        ("nonlocal FP", nonlocal_fokker_planck(grid_1d(4.0, 0.5)), "midpoint"),
    ):
        setup = build_setup(model1d, S2, stage=stage)
        n = model1d.grid.n_cells
        rho_old = 0.5 + 0.3 * np.sin(np.linspace(0, np.pi, n))
        rho_at = rho_old * (1 + 0.05 * np.cos(np.arange(n)))
        dt = 0.1
        problem = line_problem(setup, rho_old, dt)
        exact = problem.update_jacobian(rho_at)
        exact = exact if isinstance(exact, np.ndarray) else exact.to_dense()
        approx = assemble_jacobian(problem.update_residual, rho_at)
        scale = np.abs(exact).max()
        err = float(np.abs(exact - approx).max() / scale)
        res.add(
            f"analytic vs FD Jacobian ({label})",
            err <= 1e-6,
            f"max relative entry error {err:.2e}",
        )

    # (d) the 2-cell implicit step equals the scalar bisection oracle.
    g2 = Grid(1, 1.0, 1)
    model2 = heat(g2)
    setup2 = build_setup(model2, S2, stage="midpoint")
    b = np.array([1.5, 0.5])
    dt = 0.1
    problem = line_problem(setup2, b, dt)

    def scalar_residual(a0):
        return problem.update_residual(np.array([a0, 2.0 - a0]))[0]

    lo, hi = 0.5, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if scalar_residual(lo) * scalar_residual(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    solved, _, _ = solve_lines(problem, NewtonConfig())
    res.add(
        "2-cell implicit step matches bisection oracle",
        abs(solved[0] - root) <= 1e-9,
        f"newton {solved[0]:.12f}, bisection {root:.12f}, "
        f"difference {abs(solved[0] - root):.2e}",
    )
    return res


# --------------------------------------------------------------------------
# Criterion 9: metastability


def _support_components(values):
    vals = field_values(values)
    mask = vals > 1e-7 * vals.max()  # the support: cells above 1e-7 of the peak
    return int(np.sum(np.diff(mask.astype(int)) == 1) + mask[0])


METASTABLE_BUMPS = (-0.95, 0.95)
METASTABLE_WIDTH = 0.3
METASTABLE_MASS = 0.4


def criterion_9() -> CriterionResult:
    res = CriterionResult(9, "metastability: two-aggregate energy staircase")
    grid = grid_1d(4.0, 1.0 / 16.0)
    model = aggregation_diffusion(grid, 3.0, 0.1, 0.5)
    setup = build_setup(model, S2, stage="auto")
    spec = InitialSpec(
        "mixture", mass=METASTABLE_MASS, centers=METASTABLE_BUMPS,
        widths=(METASTABLE_WIDTH,) * 2, weights=(0.5, 0.5),
    )
    rho = np.maximum(build_initial(spec, grid, 0.0, model), 0.0)
    cfg = NewtonConfig()
    dt, t_max = 0.1, 150.0
    ts, energies, components = [], [], []
    # Unclamped steps: the last one ends past t_max (at 150.1 after 1501 steps).
    for t, out in march(setup, rho, 0.0, math.inf, dt, cfg):
        ts.append(t)
        energies.append(clipped_energy(setup, out.field))
        components.append(_support_components(out.field))
        if t >= t_max - 1e-12:
            break
    ts = np.array(ts)
    energies = np.array(energies)
    rates = np.abs(np.diff(energies) / np.diff(ts))
    quiet = rates < 1e-6

    plateaus = []
    start = None
    for i, q in enumerate(quiet):
        if q and start is None:
            start = i
        if not q and start is not None:
            plateaus.append((start, i))
            start = None
    if start is not None:
        plateaus.append((start, len(quiet)))
    long_plateaus = [
        (i0, i1) for i0, i1 in plateaus if ts[min(i1, len(ts) - 1)] - ts[i0] >= 5.0
    ]
    res.add(
        ">= 2 energy plateaus of length >= 5 with |dE/dt| < 1e-6",
        len(long_plateaus) >= 2,
        f"found {len(long_plateaus)} plateaus: "
        + " ".join(f"[{ts[a]:.1f},{ts[min(b, len(ts)-1)]:.1f}]" for a, b in long_plateaus),
    )
    two_aggregate_plateau = any(
        max(components[a:b]) >= 2 for a, b in long_plateaus[:1]
    ) if long_plateaus else False
    res.add(
        "the first plateau is a two-aggregate state",
        two_aggregate_plateau,
        f"support components during first plateau: "
        + (f"{set(components[long_plateaus[0][0]:long_plateaus[0][1]])}" if long_plateaus else "n/a"),
    )
    res.add(
        "final support is a single connected component",
        components[-1] == 1,
        f"final component count {components[-1]}",
    )
    if len(long_plateaus) >= 2:
        levels = [float(np.mean(energies[a:b])) for a, b in long_plateaus]
        res.add(
            "plateau energy levels strictly decrease",
            all(x > y for x, y in zip(levels[:-1], levels[1:])),
            "levels " + " ".join(f"{v:.6f}" for v in levels),
        )
    return res


# --------------------------------------------------------------------------
# Criterion 10: noise-driven phase transition


SWEEP_SIGMAS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.55, 0.7, 1.0, 1.5, 2.0)


def criterion_10() -> CriterionResult:
    res = CriterionResult(10, "flocking phase transition: polarization sweep")
    grid = grid_1d(4.0, 1.0 / 16.0)
    config = ExperimentConfig(
        model=flocking(grid, noise=1.0),
        scheme_kind=S2,
        stage="auto",
        t_initial=0.0,
        t_final=300.0,
        dt=0.25,
        initial=InitialSpec("gaussian", mass=1.0, width=0.5),
        solver=NewtonConfig(),
    )
    record = bifurcation_sweep(config, "sigma", SWEEP_SIGMAS)
    moments = [row[1] for row in record.rows]
    detail = " ".join(f"{s:g}:{m:.4f}" for s, m in zip(SWEEP_SIGMAS, moments))
    res.add(
        "smallest noise is polarized: |<x>| >= 0.3",
        moments[0] >= 0.3,
        f"|<x>| = {moments[0]:.4f} at sigma = {SWEEP_SIGMAS[0]}",
    )
    res.add(
        "largest noise is isotropic: |<x>| <= 1e-2",
        moments[-1] <= 1e-2,
        f"|<x>| = {moments[-1]:.2e} at sigma = {SWEEP_SIGMAS[-1]}",
    )
    monotone = all(a >= b - 1e-6 for a, b in zip(moments[:-1], moments[1:]))
    res.add("polarization envelope is monotone in the noise", monotone, detail)
    res.add(
        "all sweep rows reached a steady state",
        all(row[3] for row in record.rows),
        "t_reached " + " ".join(f"{row[4]:.0f}" for row in record.rows),
    )
    return res


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def _check_number(index):
    """ConfigurationError unless ``index`` numbers a criterion, 1 to 10."""
    if index not in range(1, len(ALL_CRITERIA) + 1):  # 0 and -1 would index from the end
        raise ConfigurationError(
            f"no criterion {index!r}: the criteria are numbered 1 to {len(ALL_CRITERIA)}")


def run_criterion(index: int) -> CriterionResult:
    _check_number(index)
    fn = ALL_CRITERIA[index - 1]
    start = time.time()
    result = fn()
    result.seconds = time.time() - start
    return result


def run_all(indices=None):
    indices = list(indices or range(1, len(ALL_CRITERIA) + 1))
    for i in indices:  # every number is checked before any criterion runs
        _check_number(i)
    results = []
    for i in indices:
        result = run_criterion(i)
        results.append(result)
        print(result.summary_line())
        for check in result.checks:
            if not check.passed:
                print(f"    FAILED: {check.label} -- {check.detail}")
    return results
