"""The benchmark's layer trace names aggdiff functions; each must still exist.

``perfbench/tracing.py`` looks its traced functions up by module and name and
silently skips a missing one, so a renamed function would only surface later
as missing per-layer metrics. Its ``KEEP`` extractors read fields of the
return values (a step's ``cfl_retries``, ``dt_used`` and ``row_solves``, a
solve's iteration count), so each is applied here to a real result: a renamed
field would otherwise only surface as a crash of a traced benchmark run. The
file is read and executed here without being imported as a module (no
bytecode is written next to it).
"""

import importlib
import runpy
from numbers import Real
from pathlib import Path

import numpy as np
import pytest

from aggdiff.experiments import InitialSpec, build_initial
from aggdiff.kernels import KernelTable
from aggdiff.presets import aggregation_diffusion, grid_1d, grid_2d, heat, linear_fokker_planck
from aggdiff.scheme1d import S1, S2, residual_jacobian
from aggdiff.solver import advance_step_1d, build_setup, newton_solve
from aggdiff.split2d import advance_step_2d

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_TRACE = runpy.run_path(str(TRACING), run_name="perfbench_tracing")
TRACED = _TRACE["SPANNED"] + _TRACE["COUNTED"]
KEEP = _TRACE["KEEP"]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"aggdiff.{module}"), name, None))


def test_is_zero_is_a_counted_property():
    assert isinstance(vars(KernelTable).get("is_zero"), property)


def _s1_step(grid, advance):
    """An S1 linear Fokker-Planck step asked for a dt far above its CFL bound."""
    setup = build_setup(linear_fokker_planck(grid), S1, stage="midpoint")
    center = (0.3, -0.2)[:grid.dimension]
    rho = build_initial(InitialSpec("gaussian", width=0.5, center=center), grid, 0.0)
    out = advance(rho, 1.0, setup)
    assert out.cfl_retries >= 1  # the retrying path
    return out


def _step_1d():
    out = _s1_step(grid_1d(3.0, 0.25), advance_step_1d)
    assert out.row_solves == 1
    return [(out, (out.cfl_retries, out.dt_used, out.row_solves))]


def _step_2d():
    grid = grid_2d(3.0, 0.5)
    out = _s1_step(grid, advance_step_2d)
    assert out.row_solves == 2 * grid.n_cells  # every line of both passes
    return [(out, (out.cfl_retries, out.dt_used, out.row_solves))]


def _newton():
    result = newton_solve(lambda x: x * x - 2.0, np.array([1.0]),
                          jacobian=lambda x: np.diag(2.0 * x))
    _, iterations, _ = result
    assert iterations >= 1
    return [(result, (iterations,))]


def _jacobian():
    """A Tridiagonal, kept as 0, and a dense Jacobian, kept as its size."""
    grid = grid_1d(2.0, 0.5)
    rho = np.linspace(0.5, 1.0, grid.n_cells)
    pairs = []
    for model, expected in ((heat(grid), 0), (aggregation_diffusion(grid), grid.n_cells)):
        setup = build_setup(model, S2, stage="midpoint")
        jac = residual_jacobian(S2, rho, rho, 0.1, grid.dx, model.energy, model.v_table,
                                setup.kernel, setup.scheme.stage_rule)
        pairs.append((jac, (expected,)))
    return pairs


CASES = {
    "solver.newton_solve": _newton,
    "solver.advance_step_1d": _step_1d,
    "split2d.advance_step_2d": _step_2d,
    "scheme1d.residual_jacobian": _jacobian,
}


def test_every_kept_result_has_a_case():
    assert set(KEEP) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_keep_reads_a_real_result(name):
    for result, expected in CASES[name]():
        kept = KEEP[name](result)
        assert kept == expected
        assert all(isinstance(value, Real) for value in kept)
