"""Experiment configuration files.

The format is INI-style: named blocks of flat key/value pairs, parsed with
the standard library. All values are nondimensional. GRAMMAR below is the
grammar: every section's keys, how each is read and the value it takes when
absent. Unknown sections and keys are rejected to catch typos, and every key
given is read, so a malformed key fails even where the run does not use it.
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


def _number(where: str, text: str, kind=float):
    """``text``, the value of ``where`` ("[section] key"), read by ``kind``;
    text it cannot read, or a value that is not finite (inf, nan) or, for an
    integer, not within 64 bits, is a ConfigurationError naming the key."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if kind is int and value is not None and not -(2**63) <= value < 2**63:
        raise ConfigurationError(f"{where} must fit in 64 bits, got {text!r}")
    if value is not None and np.isfinite(value).all():
        return value
    what = {int: "an integer", float: "a finite number"}.get(kind, "a list of finite numbers")
    raise ConfigurationError(f"{where} must be {what}, got {text!r}")


def _floats(text: str) -> tuple:
    return tuple(float(p) for p in text.replace(",", " ").split())


def _word(text: str) -> str:
    return text.strip().lower()


def _kind(text: str) -> tuple:
    """(kind, FILE): the text lowercased, except FILE in table:FILE (else None)."""
    head, sep, path = text.strip().partition(":")
    if sep and _word(head) == "table":
        return "table", path.strip()
    return _word(text), None


def _dt(where: str, text: str):
    """"auto" (also written cfl:auto), or a number."""
    return "auto" if _word(text) in ("auto", "cfl:auto") else _number(where, text)


# The grammar: per section, each key's reader and its value when absent. Numbers
# (float, int, _floats, and a dt that is not auto) go through _number; str keeps text.
GRAMMAR = {
    "model": {
        "energy": (_word, "entropy"), "diffusion": (float, 1.0), "exponent": (float, 2.0),
        "entropy_weight": (float, 0.0),
        "confinement": (_kind, ("none", None)), "confinement_strength": (float, 1.0),
        "interaction": (_kind, ("none", None)), "interaction_sign": (float, 1.0),
        "interaction_width": (float, 1.0),
    },
    "grid": {"dimension": (int, 1), "half_width": (float, 1.0), "cells_per_half_axis": (int, 16)},
    "scheme": {"kind": (_word, "s2"), "stage": (_word, "auto"), "theta": (float, 2.0)},
    "time": {"t_initial": (float, 0.0), "t_final": (float, 1.0), "dt": (_dt, "auto")},
    "initial": {
        "kind": (_kind, ("gaussian", None)), "mass": (float, 1.0), "time": (float, None),
        "center": (_floats, None), "width": (float, 1.0),
        "centers": (_floats, ()), "widths": (_floats, ()), "weights": (_floats, ()),
    },
    "solver": {"tolerance": (float, 1e-10), "max_iterations": (int, 50)},
    "output": {"directory": (str, None), "snapshots": (_floats, ()), "cadence": (int, 1)},
}


def _read(where: str, text: str, reader):
    """``text``, the value of ``where``, read by its GRAMMAR ``reader``."""
    if reader in (float, int, _floats):
        return _number(where, text, reader)
    return _dt(where, text) if reader is _dt else reader(text)


def _load_table(path: str, base_dir: str) -> np.ndarray:
    """The numbers in a text file, a relative path being relative to base_dir."""
    path = os.path.join(base_dir, path)  # an absolute path stays as it is
    try:
        return np.loadtxt(path)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read table {path!r}: {exc}") from None


def _build_confinement(model, base_dir):
    kind, path = model["confinement"]
    if kind == "none":
        return None
    if kind == "quadratic":
        return Quadratic(model["confinement_strength"])
    if kind == "bistable":
        return Bistable(model["confinement_strength"])
    if path is not None:
        return TabulatedConfinement(tuple(np.atleast_1d(_load_table(path, base_dir)).ravel()))
    raise ConfigurationError(f"unknown confinement kind {kind!r}")


def _build_interaction(model, base_dir):
    kind, path = model["interaction"]
    sign = model["interaction_sign"]
    if sign not in (1.0, -1.0):
        raise ConfigurationError(f"interaction_sign must be +1 or -1, got {sign!r}")
    if kind == "none":
        return None
    if kind == "quadratic":
        return Quadratic(sign)
    if kind == "gaussian":
        width = model["interaction_width"]
        if not width > 0:
            raise ConfigurationError(f"interaction_width must be positive, got {width!r}")
        return Gaussian(width, sign)
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

    for name in parser.sections():
        if name not in GRAMMAR:
            raise ConfigurationError(f"unknown config section [{name}]")
        unknown = set(parser[name]) - set(GRAMMAR[name])
        if unknown:
            raise ConfigurationError(f"unknown keys in [{name}]: {sorted(unknown)}")
    # Every key is read, used or not; an absent one takes its value as given.
    # An absent section reads as an empty one, which holds the [DEFAULT] keys.
    cfg = {}
    for name, keys in GRAMMAR.items():
        section = parser[name] if parser.has_section(name) else parser.defaults()
        cfg[name] = {key: _read(f"[{name}] {key}", section[key], reader) if key in section
                     else absent for key, (reader, absent) in keys.items()}

    grid = Grid(**cfg["grid"])
    model = cfg["model"]
    energy_kind = model["energy"]
    if energy_kind == "entropy":
        energy = InternalEnergy("entropy", model["diffusion"])
    elif energy_kind == "power":
        energy = InternalEnergy("power", model["diffusion"], model["exponent"])
    elif energy_kind in ("power_entropy", "power_plus_entropy"):
        energy = InternalEnergy("power_entropy", model["diffusion"], model["exponent"],
                                model["entropy_weight"])
    else:
        raise ConfigurationError(f"unknown energy kind {energy_kind!r}")
    model = ModelSpec(energy, grid, _build_confinement(model, base_dir),
                      _build_interaction(model, base_dir))

    initial = cfg["initial"]
    kind, table_path = initial.pop("kind")
    values: tuple = ()
    if table_path is not None:
        values = tuple(np.atleast_1d(_load_table(table_path, base_dir)).ravel())
    elif kind == "table":
        raise ConfigurationError("initial kind 'table' needs a file: kind = table:FILE")
    centers = initial["centers"]
    if grid.dimension == 2:  # x, y pairs
        if len(centers) % 2:
            raise ConfigurationError(
                f"[initial] centers must be x, y pairs on a 2D grid, got {len(centers)} numbers")
        initial["centers"] = tuple(zip(centers[::2], centers[1::2]))

    scheme, out = cfg["scheme"], cfg["output"]
    return ExperimentConfig(
        model, scheme["kind"], scheme["stage"], scheme["theta"], **cfg["time"],
        initial=InitialSpec(kind, values=values, **initial), solver=NewtonConfig(**cfg["solver"]),
        output_dir=resolve_output(out["directory"]), snapshots=out["snapshots"],
        cadence=out["cadence"])
