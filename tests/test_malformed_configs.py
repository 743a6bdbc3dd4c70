"""Malformed configs generated from the config grammar, run through the CLI.

Every key of ``aggdiff.config.GRAMMAR`` is written into a small valid base
(1D, 8 cells, two steps) with a non-finite, zero, negative, empty or
wrong-type value, duplicated, and, for a center, off the grid. Each case
either runs clean, keeping its mass (positive where the start asks for
mass), or exits 2 with one ``error:`` line that names the key. The values
are drawn from ``np.random.default_rng(seed)``, the seed in the test id.
"""

import csv

import numpy as np
import pytest

from aggdiff.cli import main
from aggdiff.config import GRAMMAR, parse_config

BASE = {
    "model": {"energy": "entropy", "diffusion": "1.0", "exponent": "2.0",
              "entropy_weight": "0.0", "confinement": "none", "confinement_strength": "1.0",
              "interaction": "none", "interaction_sign": "1", "interaction_width": "1.0"},
    "grid": {"dimension": "1", "half_width": "2.0", "cells_per_half_axis": "4"},
    "scheme": {"kind": "s2", "stage": "auto", "theta": "2.0"},
    "time": {"t_initial": "0.0", "t_final": "0.02", "dt": "0.01"},
    "initial": {"kind": "gaussian", "mass": "1.0", "center": "0.0", "width": "0.5"},
    "solver": {"tolerance": "1e-10", "max_iterations": "50"},
    "output": {"directory": "out", "snapshots": "0.02", "cadence": "1"},
}

# What a key needs around it to be used by the run, set before the key itself.
USED_WITH = {
    ("model", "exponent"): {"model": {"energy": "power"}},
    ("model", "entropy_weight"): {"model": {"energy": "power_entropy"}},
    ("model", "confinement_strength"): {"model": {"confinement": "quadratic"}},
    ("model", "interaction_sign"): {"model": {"interaction": "quadratic"}},
    ("model", "interaction_width"): {"model": {"interaction": "gaussian"}},
    ("initial", "time"): {"initial": {"kind": "heat_kernel"}},
    ("initial", "centers"): {"initial": {"kind": "mixture", "centers": "-0.5, 0.5"}},
    ("initial", "widths"): {"initial": {"kind": "mixture", "centers": "-0.5, 0.5"}},
    ("initial", "weights"): {"initial": {"kind": "mixture", "centers": "-0.5, 0.5"}},
}

KEYS = [(section, key) for section, keys in GRAMMAR.items() for key in keys]
WORDS = ("abc", "none", "auto", "table", "true", "1e")


def malformed_values(rng, section, key):
    """(label, text) pairs for one key; None as the text writes the key twice."""
    reader = GRAMMAR[section][key][0]
    magnitude = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
    cases = [
        ("non_finite", str(rng.choice(["inf", "-inf", "nan"]))),
        ("zero", "0"),
        ("negative", repr(-magnitude)),
        ("empty", ""),
        ("word", str(rng.choice(WORDS))),
        ("duplicated", None),
    ]
    if reader is int:
        cases.append(("fraction", repr(magnitude + 0.5)))
    if key in ("center", "centers"):  # off the [-2, 2] grid, one number per bump
        far = repr(100.0 + magnitude)
        cases.append(("off_grid", far if key == "center" else f"{far}, -{far}"))
    return cases


def write_config(path, section, key, text):
    """The base, made to use ``key``, with ``key = text``, or written twice when text is None."""
    sections = {name: dict(keys) for name, keys in BASE.items()}
    for name, keys in USED_WITH.get((section, key), {}).items():
        sections[name].update(keys)
    value = sections[section].get(key, "1.0") if text is None else text
    sections[section][key] = value
    lines = []
    for name, keys in sections.items():
        lines += [f"[{name}]", *(f"{k} = {v}" for k, v in keys.items())]
        if text is None and name == section:
            lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed, section, key", [(seed, *sk) for seed, sk in enumerate(KEYS)],
                         ids=[f"seed{seed}-{s}-{k}" for seed, (s, k) in enumerate(KEYS)])
def test_malformed_key_runs_clean_or_names_the_key(tmp_path, capsys, monkeypatch,
                                                   seed, section, key):
    monkeypatch.setenv("AGGDIFF_OUTPUT_ROOT", str(tmp_path))
    rng = np.random.default_rng(seed)
    for label, text in malformed_values(rng, section, key):
        path = tmp_path / "c.ini"
        write_config(path, section, key, text)
        case = f"[{section}] {key} = {text!r} ({label})"
        status = main(["run", "--config", str(path)])
        out, err = capsys.readouterr()
        if status == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, case
            assert key in err, f"{case}: {err}"
            continue
        assert status == 0, f"{case}: exit {status}, {err}"
        series = next(line[len("series: "):] for line in out.splitlines()
                      if line.startswith("series: "))
        with open(series) as f:
            mass = np.array([float(row["mass"]) for row in csv.DictReader(f)])
        assert np.abs(mass - mass[0]).max() <= 1e-9 * (1 + abs(mass[0])), case
        if parse_config(str(path)).initial.mass > 0:  # every start here asks for its mass
            assert mass[0] > 0, case
