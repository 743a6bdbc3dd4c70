"""The acceptance gate: every criterion at its stated tolerance.

Each criterion prints one pass/fail line (shown with ``pytest -s`` or on
failure) and asserts that all of its clauses hold. Criteria 1, 3, 4, and 5
pin externally recorded error values that a faithful implementation of the
schemes does not reproduce; the analysis lives in the aggdiff.acceptance
module docstring. Those clauses are asserted as stated and fail honestly
rather than being loosened. The tests after the gate check the parts of
that analysis that the program can measure.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf

from aggdiff import acceptance
from aggdiff.analysis import ReferenceSolution, l1_error, reference_eval, sample_reference
from aggdiff.experiments import _study_cases, march, run_level
from aggdiff.model import Grid
from aggdiff.presets import grid_1d, grid_2d, heat, porous_medium
from aggdiff.solver import NewtonConfig, advance_step_1d, build_setup
from aggdiff.split2d import advance_step_2d


@pytest.mark.parametrize("index", range(1, 11), ids=lambda i: f"criterion_{i}")
def test_criterion(index):
    result = acceptance.run_criterion(index)
    print()
    print(result.summary_line())
    for check in result.checks:
        mark = "ok  " if check.passed else "FAIL"
        print(f"  [{mark}] {check.label}" + (f" -- {check.detail}" if check.detail else ""))
    failed = [c for c in result.checks if not c.passed]
    assert result.passed, (
        f"criterion {index} ({result.name}): {len(failed)} clause(s) failed: "
        + "; ".join(f"{c.label} [{c.detail}]" for c in failed)
    )


def _split_against_outer_product(model, kind, steps=5, dt=0.005):
    """Relative max distance of ``steps`` 2D split steps of f(x)g(y) from the
    outer product of ``steps`` 1D steps of f and of g."""
    g1, g2 = grid_1d(6.0, 0.25), grid_2d(6.0, 0.25)
    cfg = NewtonConfig(tolerance=1e-14)
    setup_1d, setup_2d = build_setup(model(g1), kind), build_setup(model(g2), kind)
    x = g1.axis_centers()
    f, g = np.exp(-((x - 0.5) ** 2)), 1.0 / (1.0 + x**2)
    fg = np.outer(f, g)
    for _ in range(steps):
        outcomes = (advance_step_1d(f, dt, setup_1d, cfg), advance_step_1d(g, dt, setup_1d, cfg),
                    advance_step_2d(fg, dt, setup_2d, cfg))
        assert [o.cfl_retries for o in outcomes] == [0, 0, 0]  # one dt on both sides
        f, g, fg = (o.field.values for o in outcomes)
    outer = np.outer(f, g)
    return np.abs(fg - outer).max() / np.abs(outer).max()


@pytest.mark.parametrize("kind", ["s1", "s2"])
def test_criterion_4_heat_split_step_tensorizes(kind):
    # H = rho log rho - rho: log(f g) = log f + log g, so the x-pass moves
    # each line of f(x)g(y) as the 1D step moves f, and the y-pass likewise.
    # Criterion 4's 2D heat error is hence about twice the 1D error.
    assert _split_against_outer_product(heat, kind) <= 1e-12  # measured 2.9e-14, 1.7e-14
    # Porous medium m = 2 is not homogeneous of degree one: no such identity.
    assert _split_against_outer_product(lambda grid: porous_medium(grid, 2.0), kind) > 1e-3


def test_criterion_4_2d_error_is_about_twice_the_1d_error():
    # Criterion 4's level 0: S1 heat on [-15, 15], dx = 0.5, dt = 2^-9, t from 2 to 3.
    cases = _study_cases(None)
    error_2d = run_level(cases["heat2d"], "s1", 0)[2]
    error_1d = run_level(dataclasses.replace(cases["heat1d"], s1_dt0=2.0**-9), "s1", 0)[2]
    # By the tensorization above; measured 0.0027629 / 0.0015206 = 1.817.
    assert 1.7 <= error_2d / error_1d <= 2.0
    # The table's 2D target 0.0290 would need a 1D error near 0.0145 here, but
    # the 1D error falls as dt falls: measured 0.0039485 at dt = 2^-4.
    assert run_level(cases["heat1d"], "s1", 0)[2] > error_1d


def test_criterion_5_targets_exceed_the_whole_transient():
    # Criterion 5's level 0: fp_transient on [-5, 5]^2, dx = 0.5, t from 2 to 3.
    grid = grid_2d(5.0, 0.5)
    ref = ReferenceSolution("fp_transient", 2)
    # The L1 distance the exact solution travels over [2, 3], which is the
    # error of a field that never moves from its t = 2 start: measured 0.011733.
    still = l1_error(sample_reference(ref, 2.0, grid), ref, 3.0, grid)
    # The table's level-0 targets exceed it, so that field would beat them.
    assert still < 0.0128997621 < 0.0130193017  # nonlocfp2d, linfp2d
    # The scheme tracks the transient: measured 0.00041804 and 0.00028903.
    cases = _study_cases(None)
    for case in ("linfp2d", "nonlocfp2d"):
        assert run_level(cases[case], "s1", 0)[2] < still / 10


def _s1_ladder_run(case, level, start):
    """A 1D S1 ladder level as run_level sets it up (dx = 0.5 / 2^level,
    dt = s1_dt0 / 4^level, t from 2 to 3), from start(grid, 2); returns the
    grid and the density at t = 3."""
    dx = 0.5 * 0.5**level
    grid = Grid(1, case.half_width, round(case.half_width / dx))
    setup = build_setup(case.build_model(grid), "s1", stage="midpoint")
    rho = start(grid, 2.0)
    for _, out in march(setup, rho, 2.0, 3.0, case.s1_dt0 * 0.25**level):
        rho = out.field
    return grid, rho.values


def _heat_kernel_averages(grid, t):
    """Cell averages of the unit-mass heat kernel (D = 1): differences of erf at the faces."""
    faces = -grid.half_width + grid.dx * np.arange(grid.n_cells + 1)
    return 0.5 * np.diff(erf(faces / math.sqrt(4.0 * t))) / grid.dx


def test_criterion_1_no_error_convention_meets_the_table():
    # Criterion 1: S1 heat on [-15, 15], levels 0-3. The data and the error
    # are each taken at cell centres (run_level's convention) or as cell averages.
    case = _study_cases(None)["heat1d"]
    targets = [0.0042109083, 0.0010515212, 0.0002646653, 0.0000662580]
    ref = ReferenceSolution("heat_kernel", 1)
    conventions = {"centres": lambda grid, t: sample_reference(ref, t, grid),
                   "averages": _heat_kernel_averages}
    rel = {}  # (data, error) -> the signed relative difference from the table, per level
    for level, target in enumerate(targets):
        for data, start in conventions.items():
            grid, rho = _s1_ladder_run(case, level, start)
            for error, exact in conventions.items():
                measured = np.abs(rho - exact(grid, 3.0)).sum() * grid.dx
                rel.setdefault((data, error), []).append(measured / target - 1.0)
    measured = {  # in percent
        ("centres", "centres"): [-6.23, -4.32, -4.22, -4.03],
        ("centres", "averages"): [25.24, 28.50, 29.08, 29.51],
        ("averages", "centres"): [-29.56, -32.23, -32.70, -32.86],
        ("averages", "averages"): [-6.96, -4.51, -4.27, -4.04],
    }
    for key, percent in measured.items():
        assert 100 * np.array(rel[key]) == pytest.approx(percent, abs=0.01), key
    # No convention lands within criterion 1's 1% band at any level, and
    # run_level's own comes closest, by its largest difference over the levels.
    assert min(abs(r) for diffs in rel.values() for r in diffs) > 0.01
    worst = {key: max(map(abs, diffs)) for key, diffs in rel.items()}
    assert min(worst, key=worst.get) == ("centres", "centres")


def test_criterion_3_m3_errors_move_with_the_front_within_its_cell():
    # Criterion 3's m = 3 ladder: S1 porous medium on [-6, 6], levels 0-3. The
    # Barenblatt data and the exact solution are both shifted by 0, 1/4 and
    # 1/2 of the level's dx, which moves the front within its cell.
    case = _study_cases(3.0)["pme1d"]
    ref = ReferenceSolution("barenblatt", 1, exponent=3.0)
    errors = []  # per level, the error at each shift
    for level in range(4):
        row = []
        for fraction in (0.0, 0.25, 0.5):
            shift = fraction * 0.5 * 0.5**level
            grid, rho = _s1_ladder_run(
                case, level, lambda grid, t: reference_eval(ref, t, grid.axis_centers() - shift))
            exact = reference_eval(ref, 3.0, grid.axis_centers() - shift)
            row.append(np.abs(rho - exact).sum() * grid.dx)
        errors.append(row)
    errors = np.array(errors)
    # The unshifted column is criterion 3's own ladder.
    assert errors[:, 0] == pytest.approx([0.0376422658, 0.0105310009, 0.0021398932,
                                          0.0017012349], rel=1e-6)
    # The largest relative change of each level's error, far beyond the 2% band.
    change = np.abs(errors - errors[:, :1]).max(axis=1) / errors[:, 0]
    assert 100 * change == pytest.approx([24.65, 11.76, 221.61, 36.21], abs=0.01)
    # So the table's 0.33 order row (levels 2 to 3) is the front's place in its
    # cell: a quarter-cell shift makes it 2.41, a half-cell shift 1.14.
    orders = np.log2(errors[2] / errors[3])
    assert orders == pytest.approx([0.331, 2.415, 1.143], abs=1e-3)
