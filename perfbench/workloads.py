"""The benchmark's workloads: seeded input generation and correctness checks.

Each workload is an INI file that ``aggdiff.config.parse_config`` reads, the
same input ``aggdiff run`` takes. The seed picks one of ``VARIANTS`` jittered
inputs per workload (``seed % VARIANTS``); the reference final states of the
solver at the seed commit are recorded per variant in ``reference.json`` by
``make_reference.py``. See README.md for why each workload was chosen.

This module imports only the standard library, so that run.py can generate
inputs without importing numpy; the checks receive plain lists.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

VARIANTS = 8
NEWTON_TOL = 1e-10  # parse_config's default, used by every workload
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

HEAT_DT = 2.0**-11
SWEEP_DT = 0.125
META_DT = 0.1


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _jitter(variant: int, count: int) -> list:
    """``count`` numbers in [-1, 1], fixed per variant."""
    rng = random.Random(variant)
    return [rng.uniform(-1.0, 1.0) for _ in range(count)]


def heat2d_split(variant: int, out_dir: str, steps: int = 100) -> dict:
    # t0 stays on a 2^-8 grid so that t0 + k*dt is exact in binary and the
    # run takes exactly ``steps`` steps with no roundoff sliver at the end.
    (u,) = _jitter(variant, 1)
    t0 = 2.0 + round(16 * u) * 2.0**-8
    t_final = t0 + steps * HEAT_DT
    ini = f"""\
[model]
energy = entropy
diffusion = 1.0

[grid]
dimension = 2
half_width = 15.0
cells_per_half_axis = 60

[scheme]
kind = s1
stage = midpoint

[time]
t_initial = {t0!r}
t_final = {t_final!r}
dt = {HEAT_DT!r}

[initial]
kind = heat_kernel
mass = 1.0

[output]
directory = {out_dir}
snapshots = {t_final!r}
cadence = 10
"""
    return {"ini": ini, "t_final": t_final, "cells": 120 * 120, "kernel_cells": 0, "params": {"t0": t0}}


def nonlocfp2d_sweep(variant: int, out_dir: str, steps: int = 100) -> dict:
    # stage = auto would pick ``explicit`` for W = |x|^2/2 and route to the
    # decoupled pass; midpoint pins the coupled sweep.
    (u,) = _jitter(variant, 1)
    width = 0.5 * (1.0 + 0.02 * u)
    t_final = steps * SWEEP_DT
    ini = f"""\
[model]
energy = entropy
diffusion = 1.0
interaction = quadratic
interaction_sign = 1

[grid]
dimension = 2
half_width = 5.0
cells_per_half_axis = 40

[scheme]
kind = s2
stage = midpoint

[time]
t_initial = 0.0
t_final = {t_final!r}
dt = {SWEEP_DT!r}

[initial]
kind = gaussian
mass = 1.0
center = 0.0, 0.0
width = {width!r}

[output]
directory = {out_dir}
snapshots = {t_final!r}
cadence = 1
"""
    return {"ini": ini, "t_final": t_final, "cells": 80 * 80, "kernel_cells": 159 * 159, "params": {"width": width}}


def metastable1d(variant: int, out_dir: str, steps: int = 1501) -> dict:
    # configs/metastability_two_bumps.ini with jittered bump centres and the
    # output redirected. 150 / 0.1 takes 1500 full steps plus a roundoff
    # sliver; a shortened run ends on a full step instead.
    u1, u2 = _jitter(variant, 2)
    left, right = -0.95 + 0.01 * u1, 0.95 + 0.01 * u2
    t_final = 150.0 if steps == 1501 else steps * META_DT
    snapshots = ", ".join(repr(t) for t in (0.0, 40.0, 90.0, 150.0) if t <= t_final)
    ini = f"""\
[model]
energy = power
exponent = 3.0
diffusion = 0.1
interaction = gaussian
interaction_sign = -1
interaction_width = 0.5

[grid]
dimension = 1
half_width = 4.0
cells_per_half_axis = 64

[scheme]
kind = s2
stage = auto

[time]
t_initial = 0.0
t_final = {t_final!r}
dt = {META_DT!r}

[initial]
kind = mixture
mass = 0.4
centers = {left!r}, {right!r}
widths = 0.3, 0.3
weights = 0.5, 0.5

[output]
directory = {out_dir}
snapshots = {snapshots}
cadence = 5
"""
    return {"ini": ini, "t_final": t_final, "cells": 128, "kernel_cells": 255, "params": {"centers": [left, right]}}


WORKLOADS = {
    "heat2d_split": heat2d_split,
    "nonlocfp2d_sweep": nonlocfp2d_sweep,
    "metastable1d": metastable1d,
}
DEFAULT_STEPS = {"heat2d_split": 100, "nonlocfp2d_sweep": 100, "metastable1d": 1501}

# How strongly each workload's run time follows the host-speed calibration
# (run.py rescales wall time by (reference / calibration) ** sensitivity).
# heat2d_split and metastable1d spend their time in the interpreter, on
# 120-cell lines and a 128-cell grid, and slowed with the calibration at
# fitted slopes of 0.33 to 0.76; nonlocfp2d_sweep spends it in FFTs and dense
# LU on 80x80 fields and did not slow at all while the calibration swung by
# 1.8x (see README.md, "The host's speed").
RUN_SENSITIVITY = {"heat2d_split": 0.5, "nonlocfp2d_sweep": 0.0, "metastable1d": 0.5}

# Cells sampled for the reference comparison: every SAMPLE_STRIDE-th cell
# per axis of the final state (all cells in 1D).
SAMPLE_STRIDE = {"heat2d_split": 8, "nonlocfp2d_sweep": 5, "metastable1d": 1}

# Largest max-abs distance from the analytic heat kernel at t_final. At the
# seed commit it is 1.7e-6 to 2.1e-6 over the variants (dx = 0.25, the data
# sampled at cell centres); the bound leaves room for roundoff-level
# changes, not for a lost order of accuracy.
HEAT_ANALYTIC_MAX_ABS = 1e-5


def sample_final(name: str, final) -> list:
    """The reference-comparison cells of a final state (numpy array)."""
    stride = SAMPLE_STRIDE[name]
    if final.ndim == 1:
        return [float(v) for v in final[::stride]]
    return [float(v) for v in final[::stride, ::stride].ravel()]


def reference_margin(steps: int, scale: float) -> float:
    """Distance two solves to the same Newton tolerance may drift apart.

    Each step's root is fixed only to ``NEWTON_TOL`` in the max norm of the
    update-form residual; allow ten times that per step, relative to the
    field's size.
    """
    return 10.0 * NEWTON_TOL * steps * (1.0 + scale)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def check_run(name: str, variant: int, steps: int, result: dict, reference: dict) -> list:
    """Failures of one run, as readable strings; an empty list passes.

    ``result`` is the child's report: violations, the series rows' mass and
    min_rho columns, final time, the sampled final state and, for the heat
    workload, the distance from the analytic solution.
    """
    failures = list(result["violations"])
    tol = NEWTON_TOL
    mass0 = result["mass"][0]
    drift = max(abs(m - mass0) for m in result["mass"])
    if drift > 10.0 * tol * (1.0 + abs(mass0)):
        failures.append(f"mass drifted by {drift:.3g}")
    low = min(result["min_rho"])
    if low < -10.0 * tol:
        failures.append(f"min_rho fell to {low:.3g}")
    spec = WORKLOADS[name](variant, "", steps)
    if not math.isclose(result["t"], spec["t_final"], rel_tol=0.0, abs_tol=1e-9):
        failures.append(f"run ended at t={result['t']!r}, not {spec['t_final']!r}")
    if name == "heat2d_split" and not result["analytic_max_abs"] <= HEAT_ANALYTIC_MAX_ABS:
        failures.append(
            f"heat kernel distance {result['analytic_max_abs']:.3g} exceeds "
            f"{HEAT_ANALYTIC_MAX_ABS:g}"
        )
    if steps == DEFAULT_STEPS[name]:
        ref = reference[name][str(variant)]["sample"]
        got = result["sample"]
        if len(got) != len(ref):
            failures.append("final state has the wrong number of sampled cells")
        else:
            dist = max(abs(a - b) for a, b in zip(got, ref))
            margin = reference_margin(steps, max(abs(v) for v in ref))
            if not dist <= margin:
                failures.append(
                    f"final state differs from the reference by {dist:.3g} "
                    f"(margin {margin:.3g})"
                )
    return failures
