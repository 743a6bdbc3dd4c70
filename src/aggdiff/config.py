"""Experiment configuration files.

The format is INI-style: named blocks of flat key/value pairs, parsed with
the standard library. All values are nondimensional. See the README for the
full grammar and defaults; unknown keys are rejected to catch typos.
"""

from __future__ import annotations

import configparser
import os

import numpy as np

from .errors import ConfigurationError
from .experiments import ExperimentConfig, InitialSpec
from .model import (
    Bistable,
    Gaussian,
    Grid,
    InternalEnergy,
    ModelSpec,
    PotentialSpec,
    Quadratic,
    TabulatedConfinement,
    TabulatedInteraction,
)
from .solver import NewtonConfig

_KNOWN_KEYS = {
    "model": {
        "energy", "diffusion", "exponent", "entropy_weight",
        "confinement", "confinement_strength",
        "interaction", "interaction_sign", "interaction_width", "interaction_singular",
    },
    "grid": {"dimension", "half_width", "cells_per_half_axis"},
    "scheme": {"kind", "stage", "theta"},
    "time": {"t_initial", "t_final", "dt"},
    "initial": {
        "kind", "mass", "time", "center", "width",
        "centers", "widths", "weights",
    },
    "solver": {"tolerance", "max_iterations", "jacobian"},
    "output": {"directory", "snapshots", "cadence"},
}


def _floats(text: str) -> tuple:
    parts = text.replace(",", " ").split()
    return tuple(float(p) for p in parts)


def _load_table(value: str, base_dir: str) -> np.ndarray:
    path = value
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    return np.loadtxt(path)


def _build_confinement(section, base_dir):
    kind = section.get("confinement", "none").strip().lower()
    strength = float(section.get("confinement_strength", 1.0))
    if kind == "none":
        return None
    if kind == "quadratic":
        return Quadratic(strength)
    if kind == "bistable":
        return Bistable(strength)
    if kind.startswith("table:"):
        return TabulatedConfinement(tuple(np.atleast_1d(
            _load_table(kind.split(":", 1)[1], base_dir)).ravel()))
    raise ConfigurationError(f"unknown confinement kind {kind!r}")


def _build_interaction(section, base_dir):
    kind = section.get("interaction", "none").strip().lower()
    sign = float(section.get("interaction_sign", 1.0))
    if kind == "none":
        return None
    if kind == "quadratic":
        return Quadratic(sign)
    if kind == "gaussian":
        width = float(section.get("interaction_width", 1.0))
        return Gaussian(width, sign)
    if kind.startswith("table:"):
        table = _load_table(kind.split(":", 1)[1], base_dir)
        return TabulatedInteraction(tuple(map(tuple, table)) if table.ndim == 2
                                    else tuple(table))
    raise ConfigurationError(f"unknown interaction kind {kind!r}")


def resolve_output(path):
    """``path`` under $AGGDIFF_OUTPUT_ROOT when that is set and path is relative."""
    root = os.environ.get("AGGDIFF_OUTPUT_ROOT", "")
    if path is not None and root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def parse_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path!r}")
    base_dir = os.path.dirname(os.path.abspath(path))

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigurationError(
                f"unknown keys in [{section}]: {sorted(unknown)}"
            )

    grid_sec = parser["grid"] if parser.has_section("grid") else {}
    grid = Grid(
        int(grid_sec.get("dimension", 1)),
        float(grid_sec.get("half_width", 1.0)),
        int(grid_sec.get("cells_per_half_axis", 16)),
    )

    model_sec = parser["model"] if parser.has_section("model") else {}
    energy_kind = model_sec.get("energy", "entropy").strip().lower()
    diffusion = float(model_sec.get("diffusion", 1.0))
    exponent = float(model_sec.get("exponent", 2.0))
    eps_reg = float(model_sec.get("entropy_weight", 0.0))
    if energy_kind == "entropy":
        energy = InternalEnergy.entropy(diffusion)
    elif energy_kind == "power":
        energy = InternalEnergy.power(diffusion, exponent)
    elif energy_kind in ("power_entropy", "power_plus_entropy"):
        energy = InternalEnergy.power_plus_entropy(diffusion, exponent, eps_reg)
    else:
        raise ConfigurationError(f"unknown energy kind {energy_kind!r}")

    potentials = PotentialSpec(
        confinement=_build_confinement(model_sec, base_dir),
        interaction=_build_interaction(model_sec, base_dir),
        interaction_singular=str(
            model_sec.get("interaction_singular", "false")).strip().lower()
        in ("1", "true", "yes"),
    )
    model = ModelSpec(energy, potentials, grid)

    scheme_sec = parser["scheme"] if parser.has_section("scheme") else {}
    kind = scheme_sec.get("kind", "s2").strip().lower()
    stage = scheme_sec.get("stage", "auto").strip().lower()
    theta = float(scheme_sec.get("theta", 2.0))

    time_sec = parser["time"] if parser.has_section("time") else {}
    t_initial = float(time_sec.get("t_initial", 0.0))
    t_final = float(time_sec.get("t_final", 1.0))
    dt_raw = str(time_sec.get("dt", "auto")).strip().lower()
    dt = "auto" if dt_raw in ("auto", "cfl:auto") else float(dt_raw)

    init_sec = parser["initial"] if parser.has_section("initial") else {}
    init_kind = init_sec.get("kind", "gaussian").strip().lower()
    values: tuple = ()
    if init_kind.startswith("table:"):
        values = tuple(np.atleast_1d(
            _load_table(init_kind.split(":", 1)[1], base_dir)).ravel())
        init_kind = "table"
    elif init_kind == "table":
        raise ConfigurationError("initial kind 'table' needs a file: kind = table:FILE")
    center = _floats(str(init_sec.get("center", "0.0")))
    if len(center) == 1:
        center = (center[0], 0.0)
    initial = InitialSpec(
        kind=init_kind,
        mass=float(init_sec.get("mass", 1.0)),
        time=(float(init_sec["time"]) if "time" in init_sec else None),
        center=center,
        width=float(init_sec.get("width", 1.0)),
        centers=_floats(str(init_sec.get("centers", ""))),
        widths=_floats(str(init_sec.get("widths", ""))),
        weights=_floats(str(init_sec.get("weights", ""))),
        values=values,
    )

    solver_sec = parser["solver"] if parser.has_section("solver") else {}
    solver = NewtonConfig(
        tolerance=float(solver_sec.get("tolerance", 1e-10)),
        max_iterations=int(solver_sec.get("max_iterations", 50)),
        jacobian_mode=solver_sec.get("jacobian", "analytic").strip().lower(),
    )

    out_sec = parser["output"] if parser.has_section("output") else {}
    snapshots = _floats(str(out_sec.get("snapshots", "")))

    return ExperimentConfig(
        model=model,
        scheme_kind=kind,
        stage=stage,
        theta=theta,
        t_initial=t_initial,
        t_final=t_final,
        dt=dt,
        initial=initial,
        solver=solver,
        output_dir=resolve_output(out_sec.get("directory", None)),
        snapshots=snapshots,
        cadence=int(out_sec.get("cadence", 1)),
    )
