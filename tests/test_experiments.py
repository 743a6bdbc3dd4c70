"""Experiment runner, convergence studies, sweeps, and output files."""

import os
import re
import warnings

import numpy as np
import pytest

from aggdiff import analysis, experiments, kernels
from aggdiff.analysis import first_moment
from aggdiff.errors import ConfigurationError
from aggdiff.experiments import (
    ExperimentConfig,
    InitialSpec,
    _auto_dt,
    _format,
    bifurcation_sweep,
    build_initial,
    convergence_study,
    march,
    run_experiment,
    run_to_steady,
    step,
    write_snapshot,
)
from aggdiff.kernels import EXPLICIT, convolve
from aggdiff.model import DensityField
from aggdiff.presets import (
    aggregation_diffusion,
    flocking,
    grid_1d,
    grid_2d,
    heat,
    linear_fokker_planck,
    porous_medium,
)
from aggdiff.scheme1d import face_data
from aggdiff.solver import NewtonConfig, advance_step_1d, build_setup, clipped_energy
from aggdiff.split2d import advance_step_2d


class TestInitialConditions:
    def test_gaussian_mass(self):
        g = grid_1d(6.0, 0.125)
        rho = build_initial(InitialSpec("gaussian", mass=2.0, width=0.5), g, 0.0)
        assert rho.sum() * g.dx == pytest.approx(2.0, abs=1e-8)

    def test_mixture_rescaled_to_mass(self):
        g = grid_1d(4.0, 0.125)
        spec = InitialSpec(
            "mixture", mass=0.4, centers=(-1.0, 1.0), widths=(0.3, 0.3),
            weights=(0.5, 0.5),
        )
        rho = build_initial(spec, g, 0.0)
        assert rho.sum() * g.dx == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize("bumps", [dict(centers=(-1.0, 1.0), weights=(0.0, 0.0)),
                                       dict(centers=(30.0,), widths=(0.01,))],
                             ids=["zero_weights", "off_the_grid"])
    def test_mixture_without_mass_on_the_grid_rejected(self, bumps):
        with pytest.raises(ConfigurationError, match="no mass on the grid"):
            build_initial(InitialSpec("mixture", mass=1.0, **bumps), grid_1d(4.0, 0.25), 0.0)

    def test_reference_kind_uses_model_parameters(self):
        from aggdiff.presets import porous_medium

        g = grid_1d(6.0, 0.25)
        model = porous_medium(g, 3.0)
        rho = build_initial(InitialSpec("barenblatt", mass=1.0), g, 2.0, model)
        assert rho.max() > 0
        assert rho.sum() * g.dx == pytest.approx(1.0, abs=2e-2)

    def test_uniform_and_zero(self):
        g = grid_2d(2.0, 0.5)
        uni = build_initial(InitialSpec("uniform", mass=3.0), g, 0.0)
        assert np.allclose(uni, 3.0 / 16.0)
        assert not build_initial(InitialSpec("zero"), g, 0.0).any()

    def test_2d_gaussian_center(self):
        g = grid_2d(3.0, 0.25)
        rho = build_initial(
            InitialSpec("gaussian", mass=1.0, width=0.4, center=(0.5, -0.5)), g, 0.0
        )
        x, y = g.cell_centers()
        peak = np.unravel_index(np.argmax(rho), rho.shape)
        assert abs(x[peak] - 0.5) <= g.dx
        assert abs(y[peak] + 0.5) <= g.dx

    def test_1d_gaussian_takes_a_scalar_center(self):
        g = grid_1d(2.0, 0.25)
        scalar = build_initial(InitialSpec("gaussian", center=0.5), g, 0.0)
        one = build_initial(InitialSpec("gaussian", center=(0.5,)), g, 0.0)
        assert np.array_equal(scalar, one) and scalar.max() > 0

    @pytest.mark.parametrize("center", [(0.5, 0.0), (0.5, 7.0, 3.0)])
    def test_1d_gaussian_center_of_more_numbers_rejected(self, center):
        with pytest.raises(ConfigurationError,
                           match=rf"gaussian center {re.escape(repr(center))} is not a number"):
            build_initial(InitialSpec("gaussian", center=center), grid_1d(2.0, 0.25), 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gaussian_without_center_sits_at_the_origin(self, dim):
        g = grid_1d(2.0, 0.25) if dim == 1 else grid_2d(2.0, 0.5)
        origin = build_initial(InitialSpec("gaussian", center=(0.0,) * dim), g, 0.0)
        assert np.array_equal(build_initial(InitialSpec("gaussian"), g, 0.0), origin)

    def test_1d_gaussian_with_an_empty_center_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"gaussian center \(\) is not a number on a 1D grid"):
            build_initial(InitialSpec("gaussian", center=()), grid_1d(2.0, 0.25), 0.0)

    @pytest.mark.parametrize("bump, message", [
        (dict(center=100.0), "no mass on the grid"),
        # An infinite width is refused as such, before any bump is built.
        (dict(width=float("inf")), "initial width must be finite, got inf"),
    ], ids=["off_the_grid", "infinite_width"])
    def test_gaussian_without_mass_on_the_grid_rejected(self, bump, message):
        with pytest.raises(ConfigurationError, match=message):
            build_initial(InitialSpec("gaussian", mass=1.0, **bump), grid_1d(4.0, 0.25), 0.0)

    @pytest.mark.parametrize("fields, name", [
        (dict(kind="gaussian", mass=np.inf), "mass"),
        (dict(kind="gaussian", width=np.nan), "width"),
        (dict(kind="mixture", centers=(0.0, 1.0), widths=(0.5, np.inf)), "widths"),
        (dict(kind="mixture", centers=(0.0, 1.0), weights=(np.inf, 1.0)), "weights"),
    ])
    def test_non_finite_spec_field_rejected_by_name(self, fields, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning first
            with pytest.raises(ConfigurationError, match=f"initial {name} must be finite"):
                InitialSpec(**fields)

    def test_mixture_whose_total_overflows_rejected(self):
        # Each bump is finite, their total is not: mass / inf zeroed the field.
        spec = InitialSpec("mixture", centers=(0.0, 0.5), weights=(1e308, 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(ConfigurationError, match="mixture bumps total a mass of inf"):
                build_initial(spec, grid_1d(4.0, 0.25), 0.0)

    def test_gaussian_whose_bump_overflows_rejected(self):
        # The bump's peak overflows; the field used to fail later, naming no key.
        spec = InitialSpec("gaussian", mass=1e308, width=0.1)
        with np.errstate(over="ignore"):
            with pytest.raises(ConfigurationError, match="gaussian bump of mass 1e\\+308"):
                build_initial(spec, grid_1d(1.0, 0.0625), 0.0)

    def test_gaussian_on_the_grid_keeps_its_share(self):
        # A bump centred on the edge keeps the half of its mass that lies on
        # the grid: sampled, not renormalized.
        g = grid_1d(4.0, 0.125)
        rho = build_initial(InitialSpec("gaussian", mass=1.0, width=0.5, center=4.0), g, 0.0)
        assert rho.sum() * g.dx == pytest.approx(0.5, rel=1e-2)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_initial(InitialSpec("bananas"), grid_1d(1.0, 0.5), 0.0)

    def test_2d_mixture_with_scalar_centers_rejected(self):
        spec = InitialSpec("mixture", centers=(-1.0, 1.0))
        with pytest.raises(ConfigurationError,
                           match=r"mixture center -1.0 is not an \(x, y\) pair on a 2D grid"):
            build_initial(spec, grid_2d(2.0, 0.5), 0.0)

    def test_1d_mixture_with_pair_centers_rejected(self):
        spec = InitialSpec("mixture", centers=((-1.0, 0.0), (1.0, 0.5)))
        with pytest.raises(ConfigurationError,
                           match=r"mixture center \(-1.0, 0.0\) is not a number on a 1D grid"):
            build_initial(spec, grid_1d(2.0, 0.5), 0.0)

    @pytest.mark.parametrize("center", [(0.5,), (0.5, 0.0, 1.0), 0.5])
    def test_2d_gaussian_center_not_a_pair_rejected(self, center):
        spec = InitialSpec("gaussian", center=center)
        with pytest.raises(ConfigurationError,
                           match=rf"gaussian center {re.escape(repr(center))} is not an \(x, y\)"):
            build_initial(spec, grid_2d(2.0, 0.5), 0.0)

    @pytest.mark.parametrize("kind", ["heat_kernel", "barenblatt", "fp_transient", "fp_steady"])
    def test_reference_kind_needs_the_model(self, kind):
        with pytest.raises(ConfigurationError, match="needs the model"):
            build_initial(InitialSpec(kind), grid_1d(2.0, 0.5), 1.0)


class TestRunExperiment:
    def _config(self, tmp_path=None, **kwargs):
        g = grid_1d(4.0, 0.25)
        defaults = dict(
            model=heat(g),
            scheme_kind="s2",
            stage="midpoint",
            t_initial=0.0,
            t_final=0.5,
            dt=0.1,
            initial=InitialSpec("gaussian", mass=1.0, width=0.6),
            solver=NewtonConfig(),
            output_dir=str(tmp_path) if tmp_path else None,
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), "fast"])
    def test_dt_not_positive_rejected(self, dt):
        with pytest.raises(ConfigurationError, match="dt must be"):
            self._config(dt=dt)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_t_initial_rejected(self, value):
        with pytest.raises(ConfigurationError, match="t_initial must be finite"):
            self._config(t_initial=value)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_t_final_rejected(self, value):
        # t_final = inf used to construct, and run_experiment marched forever.
        with pytest.raises(ConfigurationError, match="t_final must be finite"):
            self._config(t_final=value)

    def test_infinite_dt_rejected(self):
        with pytest.raises(ConfigurationError, match="dt must be 'auto' or a positive finite"):
            self._config(dt=float("inf"))

    def test_zero_initial_field_stays_zero(self):
        record = run_experiment(self._config(initial=InitialSpec("zero")))
        assert record.ok
        assert not record.final.values.any()
        assert all(row[1] == 0.0 for row in record.rows)  # energy column

    def test_uniform_field_unchanged(self):
        record = run_experiment(self._config(initial=InitialSpec("uniform", mass=1.0)))
        first = record.rows[0]
        assert np.allclose(record.final.values, record.final.values[0], atol=1e-12)
        assert record.rows[-1][1] == pytest.approx(first[1], abs=1e-10)

    def test_energy_column_monotone(self):
        record = run_experiment(self._config(t_final=1.0))
        energies = [row[1] for row in record.rows]
        for e0, e1 in zip(energies[:-1], energies[1:]):
            assert e1 <= e0 + 1e-8
        assert record.ok

    def test_outputs_written_and_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        rec1 = run_experiment(self._config(out1, snapshots=(0.0, 0.3, 0.5)))
        rec2 = run_experiment(self._config(out2, snapshots=(0.0, 0.3, 0.5)))
        assert rec1.csv_path and os.path.exists(rec1.csv_path)
        assert len(rec1.snapshot_paths) == 3
        bytes1 = open(rec1.csv_path, "rb").read()
        bytes2 = open(rec2.csv_path, "rb").read()
        assert bytes1 == bytes2  # byte-identical reruns
        for p1, p2 in zip(rec1.snapshot_paths, rec2.snapshot_paths):
            assert open(p1, "rb").read() == open(p2, "rb").read()
        # header and LF-endings, 10 significant digits
        text = bytes1.decode()
        assert text.splitlines()[0] == "t,energy,mass,min_rho,newton_iterations,dt,cfl_retries"
        assert "\r" not in text

    def test_snapshot_format_1d(self, tmp_path):
        rec = run_experiment(self._config(tmp_path, snapshots=(0.0,)))
        lines = open(rec.snapshot_paths[0]).read().splitlines()
        assert len(lines) == 32  # one line per cell
        assert len(lines[0].split()) == 2

    @staticmethod
    def _per_cell_snapshot(path, grid, values):
        """The writer as it was: one _format call per coordinate of every cell."""
        with open(path, "w", newline="\n") as f:
            if grid.dimension == 1:
                for x, r in zip(grid.axis_centers(), values):
                    f.write(f"{_format(x)} {_format(r)}\n")
            else:
                xs = grid.axis_centers()
                for i, x in enumerate(xs):
                    for j, y in enumerate(xs):
                        f.write(f"{_format(x)} {_format(y)} {_format(values[i, j])}\n")

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_snapshot_equals_per_cell_writer(self, tmp_path, dimension):
        grid = grid_1d(3.0, 0.25) if dimension == 1 else grid_2d(3.0, 0.25)
        rng = np.random.default_rng(dimension)
        values = rng.random(grid.shape) * 10.0 ** rng.integers(-12, 4, grid.shape)
        flat = values.reshape(-1)
        flat[:5] = [0.0, -0.0, 5e-324, 2.5e-310, 1e-300]
        write_snapshot(tmp_path / "new.txt", grid, values)
        self._per_cell_snapshot(tmp_path / "old.txt", grid, values)
        new, old = (tmp_path / "new.txt").read_bytes(), (tmp_path / "old.txt").read_bytes()
        assert new == old
        assert new.count(b"\n") == values.size and b" -0\n" in new

    def test_auto_dt_s1(self):
        record = run_experiment(self._config(scheme_kind="s1", dt="auto", t_final=0.05))
        assert record.ok
        assert record.rows[-1][0] == pytest.approx(0.05)

    def test_auto_dt_s1_2d(self):
        g = grid_2d(3.0, 0.5)
        record = run_experiment(self._config(
            model=linear_fokker_planck(g), scheme_kind="s1", dt="auto", t_final=0.05,
        ))
        assert record.ok
        assert record.rows[-1][0] == pytest.approx(0.05)

    def test_final_step_clipped_to_t_final(self):
        record = run_experiment(self._config(dt=0.4, t_final=0.5))
        assert record.rows[-1][0] == pytest.approx(0.5)

    def test_energy_column_is_the_clipped_energy(self):
        record = run_experiment(self._config(t_final=0.3))
        setup = build_setup(heat(grid_1d(4.0, 0.25)), "s2", "midpoint")
        assert record.rows[-1][1] == clipped_energy(setup, record.final.values)


def _flocking_setup(dimension, kind, stage):
    g = grid_1d(4.0, 0.25) if dimension == 1 else grid_2d(4.0, 0.5)
    model = flocking(g, noise=0.5)
    rho = build_initial(
        InitialSpec("gaussian", mass=1.0, width=0.6, center=(0.3, -0.2)[:dimension]), g, 0.0,
        model,
    )
    return build_setup(model, kind, stage), rho


class TestEnergyViolation:
    def test_energy_increase_is_recorded(self, monkeypatch):
        # A step whose outcome concentrates all mass in one cell raises the
        # entropy; the run records it and carries on.
        g = grid_1d(4.0, 0.25)
        spike = np.zeros(g.n_cells)
        spike[g.n_cells // 2] = 1.0 / g.dx

        def concentrating(rho, dt, setup, config=None):
            out = step(rho, dt, setup, config)
            out.field = DensityField(spike, g)
            return out

        monkeypatch.setattr(experiments, "step", concentrating)
        config = ExperimentConfig(heat(g), stage="midpoint", t_final=0.2, dt=0.1,
                                  initial=InitialSpec("gaussian", width=0.6))
        record = run_experiment(config)
        assert len(record.violations) == 1
        assert re.fullmatch(r"energy increased by \S+ at t=0\.1", record.violations[0])
        assert record.rows[1][1] > record.rows[0][1]


class TestAutoDt:
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_matches_the_largest_face_velocity(self, dimension):
        setup, rho = _flocking_setup(dimension, "s1", "explicit")
        dx = setup.model.grid.dx
        v_eff = setup.model.v_table + convolve(setup.kernel, rho)
        peak = 0.0
        for axis in range(dimension):
            lines = np.moveaxis(rho, axis, -1)
            faces = face_data("s1", lines, lines, dx, setup.model.energy,
                              np.moveaxis(v_eff, axis, -1), None, "explicit")
            peak = max(peak, float(np.abs(faces.velocity).max()))
        assert _auto_dt(rho, setup) == pytest.approx(0.9 * dx / (2.0 * peak), rel=1e-12)

    def test_s2_takes_dx(self):
        setup, rho = _flocking_setup(2, "s2", "explicit")
        assert _auto_dt(rho, setup) == setup.model.grid.dx


class TestStepAndMarch:
    @pytest.mark.parametrize("dimension, stage", [(1, "midpoint"), (2, "explicit"),
                                                  (2, "midpoint")])
    def test_step_equals_the_dimension_driver(self, dimension, stage):
        setup, rho = _flocking_setup(dimension, "s1", stage)
        driver = advance_step_1d if dimension == 1 else advance_step_2d
        ours, theirs = step(rho, 0.05, setup), driver(rho, 0.05, setup)
        assert np.array_equal(ours.field.values, theirs.field.values)
        fields = ("iterations", "residual_norm", "dt_used", "cfl_retries", "row_solves")
        assert [getattr(ours, f) for f in fields] == [getattr(theirs, f) for f in fields]

    def test_last_step_clamped_to_until(self):
        setup, rho0 = _flocking_setup(1, "s2", "midpoint")
        seen = list(march(setup, rho0, 0.0, 0.5, lambda values: 0.2))
        assert [out.dt_used for _, out in seen[:2]] == [0.2, 0.2]
        assert len(seen) == 3 and seen[2][1].dt_used == 0.5 - seen[1][0]
        assert seen[-1][0] == pytest.approx(0.5)

    def test_each_step_starts_from_the_last_yielded_field(self):
        setup, rho0 = _flocking_setup(1, "s2", "midpoint")
        seen = list(march(setup, rho0, 0.0, 0.3, 0.1))
        inputs = [rho0] + [out.field.values for _, out in seen[:-1]]
        for values, (_, out) in zip(inputs, seen):
            again = step(values, out.dt_used, setup).field.values
            assert np.array_equal(out.field.values, again)

    def test_break_stops_the_loop(self, monkeypatch):
        setup, rho0 = _flocking_setup(1, "s2", "midpoint")
        taken = []

        def counted(*args, **kwargs):
            taken.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(experiments, "step", counted)
        times = []
        for t, _ in march(setup, rho0, 0.0, 10.0, 0.1):
            times.append(t)
            if len(times) == 2:
                break
        assert times == [0.1, 0.2] and len(taken) == 2

    def test_no_sliver_step_at_the_end(self):
        # 1500 additions of 0.1 stop just short of 150; the last step absorbs
        # the roundoff remainder instead of leaving a ~4e-12 step behind it.
        g = grid_1d(1.0, 0.5)
        setup = build_setup(heat(g), "s2", stage="midpoint")
        steps = [(t, out.dt_used) for t, out in
                 march(setup, np.full(g.n_cells, 0.5), 0.0, 150.0, 0.1)]
        assert len(steps) == 1500 and steps[-1][0] == pytest.approx(150.0, abs=1e-12)
        assert min(dt for _, dt in steps) == pytest.approx(0.1, rel=1e-9)


class TestEnergyEvaluations:
    """A run evaluates the discrete energy once per distinct state: at most N + 1 for N steps.

    A step that takes no Newton iteration accepts its input field, whose
    energy is known.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        energy = analysis.discrete_energy

        def counted(*args, **kwargs):
            calls.append(1)
            return energy(*args, **kwargs)

        monkeypatch.setattr(analysis, "discrete_energy", counted)
        return calls

    def test_run_experiment(self, calls):
        g = grid_1d(4.0, 0.25)
        record = run_experiment(ExperimentConfig(
            model=flocking(g, noise=0.5), scheme_kind="s2", stage="midpoint",
            t_final=1.0, dt=0.1, initial=InitialSpec("gaussian", width=0.6),
        ))
        assert record.ok and len(record.rows) == 11
        assert len(calls) == 11

    def test_steps_that_do_not_move(self, calls):
        # A uniform density is a steady state of the heat flow: every step's
        # residual at its input is zero, so no step takes a Newton iteration.
        g = grid_1d(2.0, 0.25)
        record = run_experiment(ExperimentConfig(
            model=heat(g), scheme_kind="s2", stage="midpoint",
            t_final=1.0, dt=0.1, initial=InitialSpec("uniform"),
        ))
        steps = len(record.rows) - 1
        assert record.ok and steps == 10
        assert all(row[4] == 0 for row in record.rows)
        assert len(calls) == 1 < steps + 1

    def test_run_to_steady(self, calls):
        setup, rho0 = _flocking_setup(1, "s2", "midpoint")
        _, t, converged, history = run_to_steady(setup, rho0, 0.1, 0.6, record_energy=True)
        assert not converged and t == pytest.approx(0.6)
        assert len(history) == 7 and len(calls) == 7
        assert history[0] == (0.0, clipped_energy(setup, rho0))


class TestConvolutionCount:
    """A 1D run under the explicit stage takes one direct sum per distinct accepted state.

    The energy check of a state and the step that starts from it share the
    state's convolution (the DensityField's ``convolution`` slot).
    """

    def test_one_sum_per_state(self, monkeypatch):
        g = grid_1d(4.0, 0.0625)
        config = ExperimentConfig(
            model=aggregation_diffusion(g), scheme_kind="s2", t_final=3.0, dt=0.1,
            initial=InitialSpec("mixture", mass=0.4, centers=(-0.95, 0.95),
                                widths=(0.3, 0.3), weights=(0.5, 0.5)),
        )
        assert build_setup(config.model, "s2").scheme.stage_rule == EXPLICIT
        sums = []
        direct = np.convolve

        def counted(*args, **kwargs):
            sums.append(1)
            return direct(*args, **kwargs)

        monkeypatch.setattr(kernels.np, "convolve", counted)
        record = run_experiment(config)
        moved = sum(1 for row in record.rows[1:] if row[4] > 0)
        assert record.ok and len(record.rows) == 31 and moved >= 25
        assert len(sums) == 1 + moved


class TestConvergenceStudy:
    def test_schedule_matches_table_captions(self):
        study = convergence_study("heat1d", "s1", 3)
        assert [row[0] for row in study.rows] == [2.0**-4, 2.0**-6, 2.0**-8]
        assert [row[1] for row in study.rows] == [0.5, 0.25, 0.125]
        study = convergence_study("heat1d", "s2", 2)
        assert [row[0] for row in study.rows] == [0.5, 0.25]
        study = convergence_study("pme1d", "s1", 2, exponent=2.0)
        assert [row[0] for row in study.rows] == [0.25, 0.0625]
        study = convergence_study("nonlocfp2d", "s1", 1)
        assert study.rows[0][0] == 2.0**-6
        assert len(study.rows[0]) == 4  # dt, dx, dy, error

    def test_single_level_has_no_orders(self):
        study = convergence_study("heat1d", "s2", 1)
        assert study.errors and study.orders == []

    def test_csv_written(self, tmp_path):
        study = convergence_study("heat1d", "s2", 2, output_dir=str(tmp_path))
        text = open(study.csv_path).read()
        lines = text.splitlines()
        assert lines[0] == "dt,dx,error,order"
        assert lines[1].endswith(",")  # first row has empty order column
        assert len(lines) == 3

    def test_unknown_case(self):
        with pytest.raises(ConfigurationError):
            convergence_study("heat9d", "s1", 2)

    @pytest.mark.parametrize("case", ["heat1d", "heat2d", "linfp2d", "nonlocfp2d"])
    def test_exponent_only_for_porous_medium_cases(self, case):
        with pytest.raises(ConfigurationError, match=f"take an exponent, not {case!r}"):
            convergence_study(case, "s2", 2, exponent=3.0)


class TestReferenceAnchors:
    """Externally recorded convergence values this implementation matches.

    These two anchors (first-order heat ladder, smoothest porous-medium
    front) pin the shared conventions: center-sampled data and errors, the
    time loop, the vacuum floor, and both schemes' implicit solves.
    """

    def test_heat_s2_level0_matches_reference(self):
        study = convergence_study("heat1d", "s2", 1)
        assert study.errors[0] == pytest.approx(0.0206792591, rel=0.003)

    def test_pme_m15_levels_match_reference(self):
        study = convergence_study("pme1d", "s1", 2, exponent=1.5)
        assert study.errors[0] == pytest.approx(0.0104485202, rel=0.03)
        assert study.errors[1] == pytest.approx(0.0029208065, rel=0.03)
        study2 = convergence_study("pme1d", "s2", 1, exponent=1.5)
        assert study2.errors[0] == pytest.approx(0.0272797400, rel=0.01)


class TestSweep:
    @pytest.mark.parametrize("kind, dt, t_final", [("s2", 0.25, 200.0), ("s1", "auto", 0.5)])
    def test_single_value_matches_composed_run(self, kind, dt, t_final):
        # A sweep steps as a run does: dt = auto is _auto_dt's rule, not dx.
        g = grid_1d(4.0, 1.0 / 16.0)
        config = ExperimentConfig(
            model=flocking(g, noise=1.0),
            scheme_kind=kind,
            stage="auto",
            t_initial=0.0,
            t_final=t_final,
            dt=dt,
            initial=InitialSpec("gaussian", mass=1.0, width=0.5, center=(0.0,)),
            solver=NewtonConfig(),
        )
        record = bifurcation_sweep(config, "sigma", [0.8])
        _, moment, energy, converged, t_reached = record.rows[0]
        assert converged == (kind == "s2")
        # compose the same run by hand: shifted start, steady march
        model = flocking(g, noise=0.8)
        setup = build_setup(model, kind, "auto")
        rho0 = build_initial(
            InitialSpec("gaussian", mass=1.0, width=0.5, center=(0.5,)), g, 0.0, model
        )
        rule = dt if dt != "auto" else (lambda values: _auto_dt(values, setup))
        rho, t, conv, _ = run_to_steady(setup, np.maximum(rho0, 0), rule, t_final)
        assert (moment, energy, converged, t_reached) == (
            abs(first_moment(rho, g)[0]), clipped_energy(setup, rho), conv, t)

    def test_unknown_parameter(self):
        g = grid_1d(2.0, 0.5)
        config = ExperimentConfig(model=heat(g), t_final=1.0, dt=0.5,
                                  initial=InitialSpec("gaussian"))
        with pytest.raises(ConfigurationError):
            bifurcation_sweep(config, "frobnication", [1.0])

    def test_mixture_start_shifts_every_center(self):
        g = grid_1d(3.0, 0.25)
        spec = InitialSpec("mixture", centers=(-1.0, 0.5), widths=(0.4, 0.6))
        config = ExperimentConfig(model=linear_fokker_planck(g), scheme_kind="s2",
                                  t_final=1.0, dt=0.5, initial=spec)
        # The swept value is the model's own, so only the start can differ.
        _, moment, energy, converged, t_reached = bifurcation_sweep(
            config, "diffusion", [1.0]).rows[0]
        setup = build_setup(config.model, "s2", "auto")
        shifted = InitialSpec("mixture", centers=(-0.5, 1.0), widths=(0.4, 0.6))
        rho0 = np.maximum(build_initial(shifted, g, 0.0, config.model), 0.0)
        rho, t, conv, _ = run_to_steady(setup, rho0, 0.5, 1.0)
        assert (moment, energy, converged, t_reached) == (
            abs(first_moment(rho, g)[0]), clipped_energy(setup, rho), conv, t)

    @pytest.mark.parametrize("kind", ["uniform", "zero", "heat_kernel"])
    def test_start_without_a_center_is_refused(self, kind):
        g = grid_1d(2.0, 0.5)
        config = ExperimentConfig(model=heat(g), t_initial=1.0, t_final=2.0, dt=0.5,
                                  initial=InitialSpec(kind))
        with pytest.raises(ConfigurationError, match=f"a {kind!r} start has no center"):
            bifurcation_sweep(config, "diffusion", [1.0])

    @pytest.mark.parametrize("energy, parameter", [
        ("entropy", "exponent"), ("entropy", "m"), ("entropy", "entropy_weight"),
        ("power", "entropy_weight"), ("power", "eps_reg"),
    ])
    def test_parameter_the_energy_does_not_read_is_refused(self, energy, parameter):
        g = grid_1d(2.0, 0.5)
        model = heat(g) if energy == "entropy" else porous_medium(g, 2.0)
        config = ExperimentConfig(model=model, t_final=1.0, dt=0.5,
                                  initial=InitialSpec("gaussian"))
        with pytest.raises(ConfigurationError, match=f"the {energy!r} energy does not read"):
            bifurcation_sweep(config, parameter, [1.5])

    def test_sweep_csv(self, tmp_path):
        g = grid_1d(3.0, 0.25)
        config = ExperimentConfig(
            model=linear_fokker_planck(g),
            scheme_kind="s2",
            t_final=50.0,
            dt=0.5,
            initial=InitialSpec("gaussian", mass=1.0, width=0.5, center=(0.0,)),
        )
        record = bifurcation_sweep(config, "diffusion", [0.5, 1.0],
                                   output_dir=str(tmp_path))
        assert os.path.exists(record.csv_path)
        lines = open(record.csv_path).read().splitlines()
        assert lines[0] == "value,first_moment_abs,energy,converged,t_reached"
        assert len(lines) == 3
