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

import numpy as np
import pytest

from aggdiff import acceptance
from aggdiff.experiments import _study_cases, run_level
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
