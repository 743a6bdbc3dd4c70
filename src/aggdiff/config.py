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
    Quadratic,
    TabulatedConfinement,
    TabulatedInteraction,
)
from .solver import NewtonConfig

_KNOWN_KEYS = {
    "model": {
        "energy", "diffusion", "exponent", "entropy_weight",
        "confinement", "confinement_strength",
        "interaction", "interaction_sign", "interaction_width",
    },
    "grid": {"dimension", "half_width", "cells_per_half_axis"},
    "scheme": {"kind", "stage", "theta"},
    "time": {"t_initial", "t_final", "dt"},
    "initial": {
        "kind", "mass", "time", "center", "width",
        "centers", "widths", "weights",
    },
    "solver": {"tolerance", "max_iterations"},
    "output": {"directory", "snapshots", "cadence"},
}


def _floats(text: str) -> tuple:
    return tuple(float(p) for p in text.replace(",", " ").split())


def _number(section, key, default, kind=float):
    """``[section] key`` read by ``kind``; text it cannot read, or a value that
    is not finite (inf, nan) or, for an integer, not within 64 bits, is a
    ConfigurationError naming the key."""
    text = section.get(key, default)
    try:
        value = kind(text)
    except ValueError:
        value = None
    if kind is int and value is not None and not -(2**63) <= value < 2**63:
        raise ConfigurationError(f"[{section.name}] {key} must fit in 64 bits, got {text!r}")
    if value is not None and np.isfinite(value).all():
        return value
    what = {int: "an integer", float: "a finite number"}.get(kind, "a list of finite numbers")
    raise ConfigurationError(f"[{section.name}] {key} must be {what}, got {text!r}")


def _kind(section, key, default):
    """(kind, FILE): ``[section] key`` lowercased, except FILE in table:FILE (else None)."""
    text = section.get(key, default).strip()
    head, sep, path = text.partition(":")
    if sep and head.strip().lower() == "table":
        return "table", path.strip()
    return text.lower(), None


def _load_table(path: str, base_dir: str) -> np.ndarray:
    """The numbers in a text file, a relative path being relative to base_dir."""
    path = os.path.join(base_dir, path)  # an absolute path stays as it is
    try:
        return np.loadtxt(path)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read table {path!r}: {exc}") from None


def _build_confinement(section, base_dir):
    kind, path = _kind(section, "confinement", "none")
    strength = _number(section, "confinement_strength", 1.0)
    if kind == "none":
        return None
    if kind == "quadratic":
        return Quadratic(strength)
    if kind == "bistable":
        return Bistable(strength)
    if path is not None:
        return TabulatedConfinement(tuple(np.atleast_1d(_load_table(path, base_dir)).ravel()))
    raise ConfigurationError(f"unknown confinement kind {kind!r}")


def _build_interaction(section, base_dir):
    kind, path = _kind(section, "interaction", "none")
    sign = _number(section, "interaction_sign", 1.0)
    if sign not in (1.0, -1.0):
        raise ConfigurationError(f"interaction_sign must be +1 or -1, got {sign!r}")
    if kind == "none":
        return None
    if kind == "quadratic":
        return Quadratic(sign)
    if kind == "gaussian":
        return Gaussian(_number(section, "interaction_width", 1.0), sign)
    if path is not None:
        table = _load_table(path, base_dir)
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
    """The experiment in the INI file at ``path``; any defect raises ConfigurationError.

    Values are read as written (no ``%`` interpolation), so only reading the
    file can raise configparser's own errors, such as a duplicated key.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(" ".join(str(exc).split())) from None
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

    for name in _KNOWN_KEYS:  # an absent section reads as an empty one
        if not parser.has_section(name):
            parser.add_section(name)

    grid_sec = parser["grid"]
    grid = Grid(
        _number(grid_sec, "dimension", 1, int),
        _number(grid_sec, "half_width", 1.0),
        _number(grid_sec, "cells_per_half_axis", 16, int),
    )

    model_sec = parser["model"]
    energy_kind = model_sec.get("energy", "entropy").strip().lower()
    diffusion = _number(model_sec, "diffusion", 1.0)
    exponent = _number(model_sec, "exponent", 2.0)
    eps_reg = _number(model_sec, "entropy_weight", 0.0)
    if energy_kind == "entropy":
        energy = InternalEnergy("entropy", diffusion)
    elif energy_kind == "power":
        energy = InternalEnergy("power", diffusion, exponent)
    elif energy_kind in ("power_entropy", "power_plus_entropy"):
        energy = InternalEnergy("power_entropy", diffusion, exponent, eps_reg)
    else:
        raise ConfigurationError(f"unknown energy kind {energy_kind!r}")

    model = ModelSpec(energy, grid, _build_confinement(model_sec, base_dir),
                      _build_interaction(model_sec, base_dir))

    scheme_sec = parser["scheme"]
    kind = scheme_sec.get("kind", "s2").strip().lower()
    stage = scheme_sec.get("stage", "auto").strip().lower()
    theta = _number(scheme_sec, "theta", 2.0)

    time_sec = parser["time"]
    t_initial = _number(time_sec, "t_initial", 0.0)
    t_final = _number(time_sec, "t_final", 1.0)
    dt_raw = time_sec.get("dt", "auto").strip().lower()
    dt = "auto" if dt_raw in ("auto", "cfl:auto") else _number(time_sec, "dt", None)

    init_sec = parser["initial"]
    init_kind, table_path = _kind(init_sec, "kind", "gaussian")
    values: tuple = ()
    if table_path is not None:
        values = tuple(np.atleast_1d(_load_table(table_path, base_dir)).ravel())
    elif init_kind == "table":
        raise ConfigurationError("initial kind 'table' needs a file: kind = table:FILE")
    centers = _number(init_sec, "centers", "", _floats)
    if grid.dimension == 2:  # x, y pairs
        if len(centers) % 2:
            raise ConfigurationError(
                f"[initial] centers must be x, y pairs on a 2D grid, got {len(centers)} numbers")
        centers = tuple(zip(centers[::2], centers[1::2]))
    initial = InitialSpec(
        kind=init_kind,
        mass=_number(init_sec, "mass", 1.0),
        time=(_number(init_sec, "time", None) if "time" in init_sec else None),
        center=(_number(init_sec, "center", None, _floats) if "center" in init_sec else None),
        width=_number(init_sec, "width", 1.0),
        centers=centers,
        widths=_number(init_sec, "widths", "", _floats),
        weights=_number(init_sec, "weights", "", _floats),
        values=values,
    )

    solver_sec = parser["solver"]
    solver = NewtonConfig(
        tolerance=_number(solver_sec, "tolerance", 1e-10),
        max_iterations=_number(solver_sec, "max_iterations", 50, int),
    )

    out_sec = parser["output"]
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
        snapshots=_number(out_sec, "snapshots", "", _floats),
        cadence=_number(out_sec, "cadence", 1, int),
    )
