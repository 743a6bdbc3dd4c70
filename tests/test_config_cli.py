"""Config parsing and the command-line interface."""

import ast
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from aggdiff import acceptance, experiments
from aggdiff.cli import main
from aggdiff.config import GRAMMAR, parse_config
from aggdiff.errors import ConfigurationError, DomainError
from aggdiff.experiments import run_experiment
from aggdiff.model import Bistable, Gaussian, Quadratic

HEAT_CONFIG = """
[model]
energy = entropy
diffusion = 1.0

[grid]
dimension = 1
half_width = 6.0
cells_per_half_axis = 12

[scheme]
kind = s2
stage = midpoint

[time]
t_initial = 2.0
t_final = 2.5
dt = 0.25

[initial]
kind = heat_kernel
mass = 1.0

[output]
snapshots = 2.0, 2.5
"""

FLOCKING_CONFIG = """
[model]
energy = entropy
diffusion = 0.8
confinement = bistable
confinement_strength = 1.0
interaction = quadratic
interaction_sign = 1.0

[grid]
dimension = 1
half_width = 4.0
cells_per_half_axis = 32

[scheme]
kind = s2
stage = auto

[time]
t_initial = 0.0
t_final = 100.0
dt = 0.5

[initial]
kind = gaussian
mass = 1.0
width = 0.5
center = 0.0
"""


@pytest.fixture
def heat_config(tmp_path):
    path = tmp_path / "heat.ini"
    path.write_text(HEAT_CONFIG)
    return str(path)


@pytest.fixture
def flocking_config(tmp_path):
    path = tmp_path / "flocking.ini"
    path.write_text(FLOCKING_CONFIG)
    return str(path)


class TestParsing:
    def test_heat_roundtrip(self, heat_config):
        cfg = parse_config(heat_config)
        assert cfg.model.energy.kind == "entropy"
        assert cfg.model.grid.n_cells == 24
        assert cfg.scheme_kind == "s2"
        assert cfg.dt == 0.25
        assert cfg.initial.kind == "heat_kernel"
        assert cfg.snapshots == (2.0, 2.5)

    def test_flocking_potentials(self, flocking_config):
        cfg = parse_config(flocking_config)
        assert isinstance(cfg.model.confinement, Bistable)
        assert isinstance(cfg.model.interaction, Quadratic)

    def test_gaussian_interaction(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[model]\nenergy = power\nexponent = 3.0\ndiffusion = 0.1\n"
            "interaction = gaussian\ninteraction_sign = -1\ninteraction_width = 0.5\n"
            "[grid]\nhalf_width = 4.0\ncells_per_half_axis = 8\n"
            "[time]\nt_final = 1.0\ndt = 0.1\n"
        )
        cfg = parse_config(str(path))
        inter = cfg.model.interaction
        assert isinstance(inter, Gaussian)
        assert inter.width == 0.5 and inter.sign == -1.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nenergy = entropy\nbananas = 3\n")
        with pytest.raises(ConfigurationError):
            parse_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[plotting]\ncolor = red\n")
        with pytest.raises(ConfigurationError):
            parse_config(str(path))

    def test_default_section_alone_rejected(self, tmp_path):
        # Alone, its key was read as [time] t_final; beside a section, see
        # test_bad_config_exits_two_with_one_error_line.
        path = tmp_path / "bad.ini"
        path.write_text("[DEFAULT]\nt_final = 2.5\n")
        message = r"^\[DEFAULT\] is not accepted; put its keys in their sections: \['t_final'\]$"
        with pytest.raises(ConfigurationError, match=message):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            parse_config("/nonexistent/nowhere.ini")

    def test_table_initial(self, tmp_path):
        table = tmp_path / "rho.txt"
        np.savetxt(table, np.full(8, 0.25))
        path = tmp_path / "c.ini"
        path.write_text(
            "[grid]\nhalf_width = 2.0\ncells_per_half_axis = 4\n"
            "[time]\nt_final = 0.1\ndt = 0.1\n"
            f"[initial]\nkind = table:{table.name}\n"
        )
        cfg = parse_config(str(path))
        assert cfg.initial.kind == "table"
        assert len(cfg.initial.values) == 8

    @pytest.mark.parametrize("key", ["exponent = 3.0", "diffusion = 0.5", "path = rho.txt"])
    def test_initial_keys_that_do_nothing_rejected(self, tmp_path, key):
        path = tmp_path / "c.ini"
        path.write_text(f"[initial]\nkind = barenblatt\n{key}\n")
        with pytest.raises(ConfigurationError, match="unknown keys in \\[initial\\]"):
            parse_config(str(path))

    def test_table_initial_needs_a_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[initial]\nkind = table\n")
        with pytest.raises(ConfigurationError, match="table:FILE"):
            parse_config(str(path))

    def test_solver_jacobian_key_is_unknown(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[solver]\njacobian = analytic\n")
        with pytest.raises(ConfigurationError, match="unknown keys in \\[solver\\]"):
            parse_config(str(path))

    @pytest.mark.parametrize("cadence", [0, -2])
    def test_cadence_below_one_rejected(self, tmp_path, cadence):
        path = tmp_path / "c.ini"
        path.write_text(f"[output]\ncadence = {cadence}\n")
        with pytest.raises(ConfigurationError, match="cadence"):
            parse_config(str(path))

    @pytest.mark.parametrize("kind", ["quadratic", "gaussian"])
    @pytest.mark.parametrize("sign", ["0.3", "0", "nan", "-2", "plus"])
    def test_interaction_sign_other_than_one_rejected(self, tmp_path, kind, sign):
        path = tmp_path / "c.ini"
        path.write_text(f"[model]\ninteraction = {kind}\ninteraction_sign = {sign}\n")
        with pytest.raises(ConfigurationError, match="interaction_sign"):
            parse_config(str(path))

    @pytest.mark.parametrize("sign, strength", [("1", 1.0), ("-1", -1.0), ("+1.0", 1.0)])
    def test_interaction_sign_sets_the_quadratic_strength(self, tmp_path, sign, strength):
        path = tmp_path / "c.ini"
        path.write_text(f"[model]\ninteraction = quadratic\ninteraction_sign = {sign}\n")
        assert parse_config(str(path)).model.interaction == Quadratic(strength)

    @pytest.mark.parametrize("times", ["0.1, 5.0", "-0.5", "1.000001"])
    def test_snapshot_outside_the_run_rejected(self, tmp_path, times):
        path = tmp_path / "c.ini"
        path.write_text(f"[time]\nt_final = 1.0\n[output]\nsnapshots = {times}\n")
        with pytest.raises(ConfigurationError, match="snapshot times"):
            parse_config(str(path))

    def test_snapshots_at_both_ends_accepted(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[time]\nt_initial = 0.5\nt_final = 1.0\n"
                        "[output]\nsnapshots = 0.5, 1.0, 1.0000000000001\n")
        assert parse_config(str(path)).snapshots == (0.5, 1.0, 1.0000000000001)

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_negative_initial_mass_rejected(self, tmp_path, kind):
        path = tmp_path / "c.ini"
        path.write_text(f"[initial]\nkind = {kind}\nmass = -1\n")
        with pytest.raises(ConfigurationError, match="mass"):
            parse_config(str(path))

    @pytest.mark.parametrize("section, key, text", [
        ("grid", "cells_per_half_axis", "abc"),
        ("grid", "half_width", "wide"),
        ("time", "dt", "fast"),
        ("time", "t_final", "1.0s"),
        ("output", "cadence", "1.5"),
        ("solver", "tolerance", "x"),
        ("solver", "max_iterations", "50.0"),
        ("initial", "mass", "one"),
        ("initial", "centers", "0.5, left"),
        ("output", "snapshots", "0.5; 1"),
    ])
    def test_unparsable_number_names_its_key(self, tmp_path, section, key, text):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ConfigurationError, match=re.escape(f"[{section}] {key}")) as info:
            parse_config(str(path))
        assert repr(text) in str(info.value)

    @pytest.mark.parametrize("section, lines, key", [
        ("time", "t_final = inf", "t_final"),
        ("model", "confinement_strength = nan", "confinement_strength"),
        ("model", "interaction = gaussian\ninteraction_width = inf", "interaction_width"),
        ("output", "snapshots = 0.5, -inf", "snapshots"),
    ], ids=["t_final_inf", "confinement_strength_nan", "interaction_width_inf",
            "snapshots_inf"])
    def test_non_finite_number_names_its_key(self, tmp_path, section, lines, key):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{lines}\n")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"[{section}] {key} must be a") + ".*finite"):
            parse_config(str(path))

    def test_duplicated_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[time]\ndt = 0.1\ndt = 0.2\n")
        with pytest.raises(ConfigurationError,
                           match="option 'dt' in section 'time' already exists"):
            parse_config(str(path))

    def test_percent_is_read_as_written(self, tmp_path, monkeypatch):
        monkeypatch.delenv("AGGDIFF_OUTPUT_ROOT", raising=False)
        path = tmp_path / "c.ini"
        path.write_text("[output]\ndirectory = out%1\n")
        assert parse_config(str(path)).output_dir == "out%1"

    @pytest.mark.parametrize("dt", ["0", "-0.1", "nan"])
    def test_dt_not_positive_rejected_at_parse(self, tmp_path, dt):
        path = tmp_path / "c.ini"
        path.write_text(f"[time]\ndt = {dt}\n")
        with pytest.raises(ConfigurationError, match="dt must be"):
            parse_config(str(path))

    @pytest.mark.parametrize("key", ["confinement", "interaction", "kind"])
    def test_table_path_keeps_its_case(self, tmp_path, key):
        count = 15 if key == "interaction" else 8  # an offset table or a cell table
        table = tmp_path / "Rho_Table.TXT"
        np.savetxt(table, np.full(count, 0.25))
        section = "initial" if key == "kind" else "model"
        path = tmp_path / "c.ini"
        path.write_text(
            "[grid]\nhalf_width = 2.0\ncells_per_half_axis = 4\n"
            f"[{section}]\n{key} = Table:{table.name}\n"
        )
        cfg = parse_config(str(path))
        if key == "kind":
            assert cfg.initial.kind == "table" and cfg.initial.values == (0.25,) * count
        else:
            assert getattr(cfg.model, key).samples == (0.25,) * count

    def test_missing_table_names_its_path(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[initial]\nkind = table:Absent.txt\n")
        with pytest.raises(ConfigurationError, match=re.escape(str(tmp_path / "Absent.txt"))):
            parse_config(str(path))

    @pytest.mark.parametrize("lines, match", [
        ("kind = gaussian\nwidth = -0.5", "width must be positive, got -0.5"),
        ("kind = mixture\ncenters = -1, 1\nwidth = 0", "width must be positive, got 0.0"),
        ("kind = mixture\ncenters = -1, 1\nwidths = 0.3, -0.3", "width must be positive"),
        ("kind = mixture\ncenters = -1, 1\nweights = 1, -1", "weight must be non-negative"),
        ("kind = mixture\ncenters = -1, 0, 1\nwidths = 0.3, 0.3", "widths has 2 entries"),
        ("kind = mixture\ncenters = -1, 1\nweights = 0.2, 0.3, 0.5", "weights has 3 entries"),
    ], ids=["negative_width", "zero_width", "negative_widths", "negative_weight",
            "widths_too_short", "weights_too_long"])
    def test_malformed_bumps_rejected(self, tmp_path, lines, match):
        path = tmp_path / "c.ini"
        path.write_text(f"[initial]\n{lines}\n")
        with pytest.raises(ConfigurationError, match=match):
            parse_config(str(path))

    def test_2d_mixture_centers_are_pairs(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[grid]\ndimension = 2\nhalf_width = 3.0\ncells_per_half_axis = 12\n"
            "[initial]\nkind = mixture\ncenters = -1, 1, 1.5, 0\nwidths = 0.4, 0.4\n"
            "weights = 1, 0\nmass = 2.0\n"
        )
        cfg = parse_config(str(path))
        assert cfg.initial.centers == ((-1.0, 1.0), (1.5, 0.0))
        grid = cfg.model.grid
        rho = experiments.build_initial(cfg.initial, grid, 0.0)
        x, y = grid.cell_centers()
        peak = np.unravel_index(np.argmax(rho), rho.shape)
        assert abs(x[peak] + 1.0) <= grid.dx and abs(y[peak] - 1.0) <= grid.dx
        assert rho.sum() * grid.cell_measure == pytest.approx(2.0, rel=1e-12)

    def test_2d_mixture_odd_centers_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[grid]\ndimension = 2\n[initial]\nkind = mixture\ncenters = -1, 1, 0\n")
        with pytest.raises(ConfigurationError, match="x, y pairs"):
            parse_config(str(path))

    def test_relative_output_directory_lands_under_the_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AGGDIFF_OUTPUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "c.ini"
        path.write_text("[output]\ndirectory = rel/out\n")
        assert parse_config(str(path)).output_dir == str(tmp_path / "root" / "rel" / "out")
        path.write_text(f"[output]\ndirectory = {tmp_path / 'abs'}\n")
        assert parse_config(str(path)).output_dir == str(tmp_path / "abs")

    def test_unknown_stage_rule_fails_at_set_up(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text(
            "[grid]\nhalf_width = 2.0\ncells_per_half_axis = 4\n"
            "[scheme]\nkind = s2\nstage = sideways\n"
            "[time]\nt_final = 0.1\ndt = 0.1\n"
        )
        config = parse_config(str(path))  # no interaction: no kernel to check it against

        def no_march(*args, **kwargs):
            raise AssertionError("stepping started")

        monkeypatch.setattr(experiments, "march", no_march)
        with pytest.raises(DomainError, match="unknown stage rule 'sideways'"):
            run_experiment(config)


def _child_env(**extra):
    """os.environ plus ``extra``, with this checkout's src first on PYTHONPATH."""
    src = str(Path(experiments.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "aggdiff.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=_child_env(**(env or {})))


class TestCli:
    def test_run_command(self, heat_config, tmp_path):
        out_dir = tmp_path / "out"
        proc = run_cli("run", "--config", heat_config, "--output", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "series.csv").exists()
        assert "final t=2.5" in proc.stdout

    def test_run_respects_output_root_env(self, heat_config, tmp_path):
        root = tmp_path / "root"
        proc = run_cli(
            "run", "--config", heat_config, "--output", "rel/run1",
            env={"AGGDIFF_OUTPUT_ROOT": str(root)},
        )
        assert proc.returncode == 0, proc.stderr
        assert (root / "rel" / "run1" / "series.csv").exists()

    def test_convergence_respects_output_root_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AGGDIFF_OUTPUT_ROOT", str(tmp_path))
        assert main(["convergence", "--case", "heat1d", "--scheme", "s2", "--levels", "1",
                     "--output", "rel/conv"]) == 0
        assert (tmp_path / "rel" / "conv" / "convergence_heat1d_s2.csv").exists()
        assert f"written: {tmp_path / 'rel' / 'conv'}" in capsys.readouterr().err

    def test_convergence_command(self, tmp_path):
        proc = run_cli("convergence", "--case", "heat1d", "--scheme", "s2",
                       "--levels", "2", "--output", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "dt,dx,error,order"
        assert len(lines) == 3

    def test_sweep_command(self, flocking_config):
        proc = run_cli("sweep", "--config", flocking_config, "--param", "sigma",
                       "--values", "0.2,1.5")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("value,")
        first = float(lines[1].split(",")[1])
        last = float(lines[2].split(",")[1])
        assert first > last  # polarized at low noise, symmetric at high

    def test_validate_single_criterion(self):
        proc = run_cli("validate", "--criteria", "8")
        assert proc.returncode == 0, proc.stderr
        assert "criterion 8" in proc.stdout
        assert "PASS" in proc.stdout

    @pytest.mark.parametrize("criteria, message", [
        ("0", "no criterion 0: the criteria are numbered 1 to 10"),
        ("11", "no criterion 11: the criteria are numbered 1 to 10"),
        ("8,-1", "no criterion -1: the criteria are numbered 1 to 10"),
        ("x", "--criteria takes comma-separated criterion numbers, got 'x'"),
    ], ids=["zero", "eleven", "minus_one_after_eight", "word"])
    def test_validate_bad_criterion_exits_two(self, criteria, message, capsys):
        assert main(["validate", "--criteria", criteria]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert out == ""  # no criterion ran, not even a valid one listed first

    def test_validate_bad_criterion_prints_no_traceback(self):
        proc = run_cli("validate", "--criteria", "0")
        assert proc.returncode == 2
        assert proc.stderr == "error: no criterion 0: the criteria are numbered 1 to 10\n"

    def test_run_does_not_import_the_acceptance_gate(self, tmp_path):
        # Only ``validate`` runs the gate; ``run`` leaves aggdiff.acceptance unloaded.
        config = Path(__file__).parent.parent / "configs" / "heat1d.ini"
        script = ("import sys; from aggdiff.cli import main; "
                  "code = main(['run', '--config', sys.argv[1], '--output', sys.argv[2]]); "
                  "print(code, 'aggdiff.acceptance' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "out")],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_convergence_exponent_off_a_pme_case_exits_two(self, capsys):
        argv = ["convergence", "--case", "heat1d", "--scheme", "s2", "--levels", "2",
                "--exponent", "3"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "error: only pme1d and pme2d take an exponent, not 'heat1d'\n"
        assert out == ""

    def test_sweep_bad_value_exits_two(self, flocking_config, capsys):
        argv = ["sweep", "--config", flocking_config, "--param", "sigma", "--values", "0.1,x"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "error: --values takes comma-separated numbers, got '0.1,x'\n"
        assert out == ""

    def test_failed_step_exits_one_with_series_written(self, tmp_path, capsys):
        # One Newton iteration cannot solve a dt = 1 heat step.
        path = tmp_path / "c.ini"
        path.write_text(
            "[grid]\nhalf_width = 3.0\ncells_per_half_axis = 12\n"
            "[scheme]\nkind = s2\nstage = midpoint\n"
            "[time]\nt_final = 1.0\ndt = 1.0\n"
            "[solver]\nmax_iterations = 1\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(path)]) == 1
        assert "VIOLATION: step failed at t=0" in capsys.readouterr().err
        assert len((tmp_path / "out" / "series.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("lines, message", [
        ("[time]\nt_final = inf\n", "[time] t_final must be a finite number, got 'inf'"),
        ("[time]\ndt = 0.1\ndt = 0.2\n", "option 'dt' in section 'time' already exists"),
        ("[initial]\ncenter =\n", "gaussian center () is not a number on a 1D grid"),
        ("[initial]\ncenter = 100\n", "gaussian bump carries no mass on the grid"),
        ("[initial]\ncenter = 0.5, 7, 3\n",
         "gaussian center (0.5, 7.0, 3.0) is not a number on a 1D grid"),
        ("dimension = 2\n[initial]\ncenter = 0.5\n",
         "gaussian center (0.5,) is not an (x, y) pair on a 2D grid"),
        ("[model]\nconfinement = quadratic\nconfinement_strength = 1e308\n",
         "the Newton linear solve rejected its input: array must not contain infs or NaNs"),
        ("[model]\ninteraction = gaussian\ninteraction_width = 1e308\n",
         "[model] interaction_width 1e+308 is out of floating-point range"),
        ("[model]\ninteraction = gaussian\ninteraction_width = 1e-320\n",
         "[model] interaction_width 1e-320 is out of floating-point range"),
        ("[model]\ninteraction = gaussian\ninteraction_width = 1e154\n",
         "[model] interaction_width 1e+154 is out of floating-point range"),
        # Integers beyond 64 bits, which numpy cannot hold.
        ("dimension = 99999999999999999999\n",
         "[grid] dimension must fit in 64 bits, got '99999999999999999999'"),
        ("cells_per_half_axis = 99999999999999999999\n",
         "[grid] cells_per_half_axis must fit in 64 bits, got '99999999999999999999'"),
        ("[solver]\nmax_iterations = 99999999999999999999\n",
         "[solver] max_iterations must fit in 64 bits, got '99999999999999999999'"),
        ("[output]\ncadence = 99999999999999999999\n",
         "[output] cadence must fit in 64 bits, got '99999999999999999999'"),
        # D/(m-1) underflows to 0.0, which dropped the power term from H.
        ("[model]\nenergy = power\ndiffusion = 1e-320\nexponent = 100000\n"
         "[time]\nt_final = 0.1\ndt = 0.05\n",
         "power coefficient diffusion/(exponent - 1) = 1e-320/(100000.0 - 1) is 0.0"),
        # The bumps' total overflows, which zeroed the field.
        ("[initial]\nkind = mixture\ncenters = 0, 0.5\nweights = 1e308, 1e308\n",
         "mixture bumps total a mass of inf on the grid, which is not finite"),
        ("[model]\ninteraction_singular = true\n",
         "unknown keys in [model]: ['interaction_singular']"),
        # Every key is read, so a malformed one fails where the run does not use it.
        ("[model]\ninteraction = none\ninteraction_width = abc\n",
         "[model] interaction_width must be a finite number, got 'abc'"),
        # D*eps underflows to 0.0, which dropped the entropy term from H.
        ("[model]\nenergy = power_entropy\ndiffusion = 1e-200\nentropy_weight = 1e-200\n"
         "[time]\nt_final = 0.1\ndt = 0.05\n",
         "entropy coefficient diffusion*entropy_weight = 1e-200*1e-200 is 0.0"),
        # The bump's peak overflows, which failed as a density that names no key.
        ("cells_per_half_axis = 16\n[initial]\nmass = 1e308\nwidth = 0.1\n",
         "gaussian bump of mass 1e+308 and width 0.1 is not finite on the grid"),
        # On 8 cells the bump is finite but its flux is not, which named nothing.
        ("[initial]\nmass = 1e308\nwidth = 0.1\n",
         "; the flux rho * u (the density times its face speed) is not finite at the "
         "largest density 1.75283e+307; lower [initial] mass\n"),
        # A reference start at the run's start time, where it is not defined.
        ("[time]\nt_initial = 0\nt_final = 0.1\ndt = 0.05\n[initial]\nkind = heat_kernel\n",
         "error: heat kernel requires t > 0, got [time] t_initial 0.0\n"),
        ("[time]\nt_initial = -1\nt_final = 0.1\ndt = 0.05\n[initial]\nkind = fp_transient\n",
         "error: transient Fokker-Planck solution requires t > 0, got [time] t_initial -1.0\n"),
        ("[model]\nenergy = power\nexponent = 2\n[time]\nt_final = 0.1\ndt = 0.05\n"
         "[initial]\nkind = barenblatt\n",
         "error: Barenblatt profile requires t > 0, got [time] t_initial 0.0\n"),
        ("[DEFAULT]\nt_final = 2.5\n",
         "error: [DEFAULT] is not accepted; put its keys in their sections: ['t_final']\n"),
    ], ids=["t_final_inf", "duplicated_key", "empty_center", "off_grid_center",
            "1d_center_of_three", "2d_center_of_one", "overflowing_confinement_slope",
            "huge_interaction_width", "subnormal_interaction_width", "zero_norm_interaction_width",
            "huge_dimension", "huge_cells", "huge_max_iterations", "huge_cadence",
            "underflowing_power_coefficient", "huge_mixture_weights", "interaction_singular",
            "unused_malformed_key",
            "underflowing_entropy_coefficient", "overflowing_gaussian", "overflowing_flux",
            "heat_kernel_at_t_initial_0", "fp_transient_at_negative_t_initial",
            "barenblatt_at_t_initial_0", "default_section"])
    def test_bad_config_exits_two_with_one_error_line(self, tmp_path, capsys, lines, message):
        path = tmp_path / "c.ini"
        grid = "[grid]\nhalf_width = 2.0\n"
        if "cells_per_half_axis" not in lines:
            grid += "cells_per_half_axis = 4\n"
        path.write_text(grid + lines)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("model, term", [
        ("confinement = quadratic\nconfinement_strength = 1e308\n",
         "; the confinement potential V changes too fast between cells (slope 1.75e+308, "
         "dx = 0.25)\n"),
        ("diffusion = 1e308\n", "; the diffusion term H'(rho) at diffusion = 1e+308 is not finite\n"),
    ], ids=["confinement_strength", "diffusion"])
    def test_overflow_names_its_term_in_one_line(self, tmp_path, capsys, model, term):
        # Finite numbers whose step overflows: the run fails at its first solve.
        path = tmp_path / "c.ini"
        path.write_text("[grid]\nhalf_width = 2.0\ncells_per_half_axis = 8\n[scheme]\nkind = s2\n"
                        f"[model]\n{model}[output]\ndirectory = {tmp_path / 'out'}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(path)]) == 2
        assert [str(w.message) for w in caught] == []  # no numpy RuntimeWarning
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(term)

    @pytest.mark.parametrize("model, message", [
        ("confinement = quadratic\nconfinement_strength = 1e308\n",
         "confinement potential is not finite on the grid"),
        ("interaction = table:w.txt\n", "interaction table is not finite on the grid"),
    ], ids=["confinement", "interaction"])
    def test_non_finite_potential_table_exits_two(self, tmp_path, capsys, model, message):
        (tmp_path / "w.txt").write_text("1 2 3 inf 3 2 1\n")
        path = tmp_path / "c.ini"
        path.write_text("[grid]\nhalf_width = 4.0\ncells_per_half_axis = 2\n[model]\n" + model)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_table_initial_of_wrong_length_exits_two(self, tmp_path, capsys):
        table = tmp_path / "rho.txt"
        np.savetxt(table, np.full(3, 0.25))
        path = tmp_path / "c.ini"
        path.write_text(
            "[grid]\nhalf_width = 2.0\ncells_per_half_axis = 4\n"
            "[time]\nt_final = 0.1\ndt = 0.1\n"
            f"[initial]\nkind = table:{table.name}\n"
        )
        assert main(["run", "--config", str(path)]) == 2
        assert "error: initial table has 3 values, not the grid's 8" in capsys.readouterr().err

    def test_unparsable_number_exits_two(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\ncells_per_half_axis = abc\n")
        proc = run_cli("run", "--config", str(path))
        assert proc.returncode == 2
        assert "error: [grid] cells_per_half_axis must be an integer, got 'abc'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_config_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nenergy = prime_rib\n")
        proc = run_cli("run", "--config", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr


@pytest.mark.parametrize("index", [0, -1, 11, 1.5])
def test_run_criterion_takes_only_1_to_10(index):
    # 0 and -1 would index ALL_CRITERIA from the end and 11 past it.
    with pytest.raises(ConfigurationError, match=f"no criterion {index}: the criteria are numbered"):
        acceptance.run_criterion(index)


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs_clean(path, tmp_path, monkeypatch):
    """Each configs/*.ini runs to t_final and keeps the scheme's invariants."""
    monkeypatch.setenv("AGGDIFF_OUTPUT_ROOT", str(tmp_path))
    config = parse_config(str(path))
    record = run_experiment(config)
    tol = config.solver.tolerance
    t, energy, mass, min_rho = (np.array(column) for column in list(zip(*record.rows))[:4])
    assert record.violations == []
    assert (np.diff(t) > 0).all() and t[-1] == pytest.approx(config.t_final, abs=1e-12)
    assert np.abs(mass - mass[0]).max() <= 10 * tol * (1 + abs(mass[0]))
    assert (np.diff(energy) <= 100 * tol * (1 + np.abs(energy[:-1]))).all()
    assert min_rho.min() >= -10 * tol
    assert record.csv_path.startswith(str(tmp_path))


def test_readme_grammar_lists_the_known_keys():
    """The README's config grammar names exactly the keys parse_config accepts."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    listed, section = set(), None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        key = re.match(r"(\w+)\s*=", line)
        if header:
            section = header.group(1)
        elif key and section is not None:
            listed.add((section, key.group(1)))
    known = {(sec, key) for sec, keys in GRAMMAR.items() for key in keys}
    assert listed == known


STEP_IMPORTS = """
import sys
import numpy as np
import aggdiff.cli
from aggdiff.experiments import step
from aggdiff.presets import aggregation_diffusion, grid_2d
from aggdiff.solver import build_setup, clipped_energy

model = aggregation_diffusion(grid_2d(2.5, 0.25))  # 20 x 20 cells, attractive Gaussian
x, y = model.grid.cell_centers()
rho = np.exp(-(x**2 + y**2))
for stage in ("midpoint", "explicit"):  # a sweep step, then a split step
    setup = build_setup(model, "s2", stage)
    clipped_energy(setup, step(rho, 0.01, setup).field.values)
print(" ".join(m for m in ("scipy.signal", "scipy.stats", "scipy.integrate") if m in sys.modules))
"""


def test_stepping_imports_no_signal_stats_or_integrate():
    """The CLI and a 2D step run without the slow-to-import scipy subpackages."""
    proc = subprocess.run([sys.executable, "-c", STEP_IMPORTS], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


SCIPY_LOADS = """
import sys
from dataclasses import replace

def loaded(when):
    print(when, *(m for m in ("scipy.linalg", "scipy.special", "scipy.fft",
                              "scipy._lib._array_api", "numpy.f2py") if m in sys.modules))

import aggdiff.cli
loaded("cli")
from aggdiff.config import parse_config
from aggdiff.experiments import run_experiment
from aggdiff.solver import build_setup
config = parse_config(sys.argv[1])
loaded("config")
build_setup(config.model, config.scheme_kind, config.stage, config.theta)
loaded("setup")
run_experiment(replace(config, t_final=config.t_initial + 3 * config.dt, snapshots=(),
                       output_dir=None))
loaded("run")
"""

ENTROPY_SPLIT_2D = """\
[grid]
dimension = 2
half_width = 3.0
cells_per_half_axis = 6
[scheme]
kind = s1
[time]
t_initial = 1.0
t_final = 2.0
dt = 0.01
[initial]
kind = heat_kernel
"""


GAUSSIAN_KERNEL_2D = ENTROPY_SPLIT_2D + "[model]\ninteraction = gaussian\n"
QUADRATIC_KERNEL_2D = (ENTROPY_SPLIT_2D.replace("kind = s1", "kind = s2\nstage = {}")
                       + "[model]\ninteraction = quadratic\n")
NONE = ["cli", "config", "setup", "run"]
FFT_LOADS = "scipy.special scipy.fft scipy._lib._array_api numpy.f2py"
FFT = ["cli", "config", f"setup {FFT_LOADS}", f"run {FFT_LOADS}"]


@pytest.mark.parametrize("ini, expected", [
    *((path, NONE) for path in SHIPPED_CONFIGS),
    (ENTROPY_SPLIT_2D, NONE),
    (GAUSSIAN_KERNEL_2D, FFT),
    (QUADRATIC_KERNEL_2D.format("auto"), FFT),
    (QUADRATIC_KERNEL_2D.format("explicit"), FFT),
    (QUADRATIC_KERNEL_2D.format("midpoint"), NONE),
], ids=[*(path.stem for path in SHIPPED_CONFIGS), "heat_2d_entropy_split", "gaussian_kernel_2d",
        "quadratic_kernel_2d_auto", "quadratic_kernel_2d_explicit",
        "quadratic_kernel_2d_midpoint"])
def test_scipy_special_and_fft_load_only_for_a_model_that_uses_them(tmp_path, ini, expected):
    """The CLI loads neither, and no model loads scipy.special for itself.

    No run loads scipy.linalg: the line solves' gtsv comes from scipy's
    compiled _flapack module, loaded from its file without scipy.linalg's
    package init, so neither scipy._lib._array_api nor numpy.f2py (which
    that init loads) is imported either. Every shipped config (flocking and
    heat1d are entropy runs) and a 2D entropy split run load none of these,
    since the entropy energy is on numpy's log. A 2D table that a step will
    FFT-convolve loads scipy.fft when the run is set up (``build_setup``),
    not in a step, and scipy.fft imports scipy.special, scipy._lib._array_api
    and numpy.f2py for itself. That is every 2D table but a quadratic one in
    a coupled sweep: the explicit stage (which ``auto`` picks for W = |x|^2/2)
    convolves it in the split pass, while the midpoint sweep works from its
    moments and loads none of them.
    """
    path = ini
    if isinstance(ini, str):
        path = tmp_path / "c.ini"
        path.write_text(ini)
    proc = subprocess.run([sys.executable, "-c", SCIPY_LOADS, str(path)], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


HEAP_FAULTS = """
import resource, sys
from aggdiff.config import parse_config
from aggdiff.experiments import run_experiment

for path in sys.argv[1:]:
    config = parse_config(path)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_experiment(config)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

SWEEP_80 = """\
[model]
interaction = quadratic
[grid]
dimension = 2
half_width = 5.0
cells_per_half_axis = 40
[scheme]
kind = s2
stage = midpoint
[time]
t_final = 2.5
dt = 0.125
[initial]
width = 0.5
"""

HEAT_240 = """\
[grid]
dimension = 2
half_width = 15.0
cells_per_half_axis = 120
[scheme]
kind = s1
[time]
t_initial = 2.0
t_final = 2.078125
dt = 0.00390625
[initial]
kind = heat_kernel
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_steps_do_not_refault_a_trimmed_heap(tmp_path):
    """A run's minor page faults stay at what its arrays' first touch costs.

    20 steps of an 80x80 quadratic S2 sweep and 20 of a 240x240 heat S1 split
    run, each in a fresh process. With solver's fixed malloc thresholds they
    took 380-410 and 1,400-1,620 faults on a 2-CPU x86-64 Linux host (glibc,
    numpy 2.4); without them 6,300-7,800 and 15,000-25,500, as glibc trimmed
    the heap's top after a pass and the next pass faulted it back in.
    """
    paths = []
    for name, text in (("sweep.ini", SWEEP_80), ("heat.ini", HEAT_240)):
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    proc = subprocess.run([sys.executable, "-c", HEAP_FAULTS, *map(str, paths)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    sweep, heat = map(int, proc.stdout.split())
    assert sweep < 1500
    assert heat < 5000


def test_no_function_imports_a_package_module():
    """Every src/aggdiff module imports the package's modules at its top.

    An import inside a function would hide an import cycle between the
    modules. Lazy imports of other packages stay allowed: scipy.fft loads
    only for the models that use it. The one package import in a function
    is the CLI's ``validate``, the only command that runs the acceptance
    gate; it closes no cycle, since no module imports the CLI.
    """
    package = Path(experiments.__file__).resolve().parent
    lazy, importers_of_cli = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and (node.module == "cli" or (
                    not node.module and any(alias.name == "cli" for alias in node.names))):
                importers_of_cli.append(path.name)
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ImportFrom):
                    modules = ["." * node.level + (node.module or "")]
                    if not node.module:  # from . import name, ...
                        modules = ["." * node.level + alias.name for alias in node.names]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                lazy += [f"{path.name}:{function.name} {module}" for module in modules
                         if module.split(".")[0] in ("", "aggdiff")]
    assert lazy == ["cli.py:_cmd_validate .acceptance"]
    assert importers_of_cli == []


SLOW_SCIPY = ("scipy.integrate", "scipy.signal", "scipy.stats")


def test_no_module_imports_slow_scipy_subpackages():
    """No src/aggdiff module imports scipy.integrate, scipy.signal or scipy.stats,
    at its top or inside a function, in any import form."""
    found = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {module}" for module in modules
                      if ".".join(module.split(".")[:2]) in SLOW_SCIPY]
    assert found == []


def _package_trees():
    package = Path(experiments.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(package.glob("*.py"))}


def test_every_import_is_used():
    """No src/aggdiff module but ``__init__.py`` (which re-exports) imports a name it never reads."""
    unused = []
    for name, tree in _package_trees().items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in read]
    assert unused == []


def test_every_private_top_level_name_is_referenced():
    """A module-level ``_name`` that no module of the package reads is dead code."""
    trees = _package_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for target in targets for n in ast.walk(target)
                           if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{name}:{node.lineno} {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__") and d not in read]
    assert dead == []
