"""Config parsing and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aggdiff import experiments
from aggdiff.cli import main
from aggdiff.config import parse_config
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
        assert isinstance(cfg.model.potentials.confinement, Bistable)
        assert isinstance(cfg.model.potentials.interaction, Quadratic)

    def test_gaussian_interaction(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[model]\nenergy = power\nexponent = 3.0\ndiffusion = 0.1\n"
            "interaction = gaussian\ninteraction_sign = -1\ninteraction_width = 0.5\n"
            "[grid]\nhalf_width = 4.0\ncells_per_half_axis = 8\n"
            "[time]\nt_final = 1.0\ndt = 0.1\n"
        )
        cfg = parse_config(str(path))
        inter = cfg.model.potentials.interaction
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


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "aggdiff.cli", *args]
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=merged)


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

    def test_bad_config_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nenergy = prime_rib\n")
        proc = run_cli("run", "--config", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr


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
