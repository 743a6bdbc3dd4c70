"""aggdiff benchmark: time to solution of three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Each sample is a fresh interpreter (``child.py``) started from this process,
one after another, that runs the workload's generated INI file through
``aggdiff.config.parse_config`` and ``aggdiff.experiments.run_experiment``.
Samples start while the next one should end within ``--seconds``; there is
always at least one. With ``--trace 0`` the last line reports the end-to-end
metrics (medians over the samples); with ``--trace 1`` samples alternate
untraced and traced, and the last line reports the per-layer metrics of the
traced ones. Every workload runs at least 100 steps, so one traced sample
leaves ten step times beyond the p90. Every sample is one attempted
operation, checked for correctness (see ``workloads.check_run``).

The host's speed drifts by up to 2x in spells of seconds to minutes, and
interpreted Python slows more than native numpy, FFT and LAPACK code. So each
sample also times a fixed calibration (``child.calibrate``) just after
set-up and just after the run, and a wall time ``w`` is reported as
``w * (REFERENCE_CALIBRATION_S / c) ** sensitivity``, where ``c`` is the
calibration time next to it and the sensitivity is how strongly that wall
time follows the calibration (``SETUP_SENSITIVITY``,
``workloads.RUN_SENSITIVITY``). The calibration runs no aggdiff code, so a
faster or slower program moves the reported times just as it moves wall
times. Wall-time medians are printed on the ``#`` lines.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPANS = WORK / "spans"

DEFAULT_SEED = 1
DEADLINE_S = 170.0  # a run ends, with or without a result, within this
# About the median time of child.calibrate() on the machine the benchmark was
# defined on (Intel Xeon vCPU at 2.1 GHz, Python 3.11.7, numpy 2.4.6), so that
# rescaled times read close to that machine's wall times.
REFERENCE_CALIBRATION_S = 0.1
# Importing aggdiff follows the calibration about half as strongly: regressing
# log wall time on log calibration time over samples gave slopes of 0.26 to
# 0.50 for set-up, against 0.33 to 0.76 for the run of an interpreter-bound
# workload (see README.md, "The host's speed").
SETUP_SENSITIVITY = 0.5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    if name.endswith((".s", ".self_s", "base_run_s")):
        return "s"
    if ".step_ms." in name:
        return "ms"
    if name.endswith("computed_flops"):
        return "flop"
    if name.endswith("output_bytes"):
        return "B"
    if name.endswith(("share", "per_step", "per_line_solve", "overhead")):
        return "ratio"
    return "count"


class Sampler:
    """Spawns the child processes of one workload and collects their reports."""

    def __init__(self, workload: str, seed: int, steps: int | None, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.variant = workloads.variant_of(seed)
        self.steps = steps or workloads.DEFAULT_STEPS[workload]
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.out = self.work / "out"
        make = workloads.WORKLOADS[workload]
        self.specs = [make(v, str(self.out), self.steps) for v in range(workloads.VARIANTS)]
        self.spec = self.specs[self.variant]
        self.reference = workloads.load_reference()
        self.failures = []

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for variant, spec in enumerate(self.specs):
            self.ini(variant).write_text(spec["ini"])
        return self

    def ini(self, variant: int) -> Path:
        return self.work / f"input-{variant}.ini"

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    def _spawn(self, *args) -> tuple:
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), *args]
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(self.deadline - started, 1.0))
        return started, proc

    def warm(self) -> dict:
        """Import the package once untimed; returns the machine's library facts."""
        _, proc = self._spawn("--warm")
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import aggdiff from {SRC}:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def sample(self, trace: bool, variant: int) -> dict | None:
        shutil.rmtree(self.out, ignore_errors=True)
        args = ["--ini", str(self.ini(variant)), "--workload", self.workload]
        if trace:
            # The last traced sample's spans outlive the run, for inspection.
            SPANS.mkdir(parents=True, exist_ok=True)
            args += ["--trace", "1", "--spans", str(SPANS / f"{self.workload}.tsv")]
        started, proc = self._spawn(*args)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            self.failures.append(f"sample exited with {proc.returncode}: {last}")
            return None
        report = json.loads(proc.stdout.splitlines()[-1])
        after_setup, after_run = report["calibration_s"]
        report["setup_wall_s"] = report["ready"] - started
        report["run_wall_s"] = report["run_s"]
        report["setup_s"] = rescale(report["setup_wall_s"], after_setup, SETUP_SENSITIVITY)
        report["run_s"] = rescale(report["run_wall_s"], statistics.fmean((after_setup, after_run)),
                                  workloads.RUN_SENSITIVITY[self.workload])
        failures = workloads.check_run(self.workload, variant, self.steps,
                                       report, self.reference)
        self.failures += failures
        report["ok"] = not failures
        return report


def rescale(wall_s: float, calibration_s: float, sensitivity: float) -> float:
    """A wall time as it would read at the reference host speed."""
    return wall_s * (REFERENCE_CALIBRATION_S / calibration_s) ** sensitivity


def median(values):
    return statistics.median(values) if values else 0.0

def measure(workload: str, seed: int, seconds: float, trace: bool,
            steps: int | None, deadline: float) -> dict:
    with Sampler(workload, seed, steps, deadline) as sampler:
        machine = sampler.warm()
        plain, traced, attempted, took, variants = [], [], 0, [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            # Untraced runs step through the variants from the seed's own, so
            # that a run's median does not hang on one input's Newton
            # iteration count (it differs by up to 25% between variants of
            # metastable1d). Traced runs keep the seed's variant, so that
            # their counts repeat exactly.
            variant = sampler.variant
            if not trace:
                variant = (variant + len(took)) % workloads.VARIANTS
            variants.append(variant)
            attempted += 1
            report = sampler.sample(trace=False, variant=variant)
            if report is not None:
                plain.append(report)
            if trace:
                attempted += 1
                report = sampler.sample(trace=True, variant=variant)
                if report is not None:
                    traced.append(report)
            now = time.monotonic()
            took.append(now - began)
            # Start another sample only if it should end within --seconds.
            if now - start + statistics.median(took) > seconds:
                break
        # Timings cover every sample that completed, also one whose output
        # failed a check; "correct" and "failed" report the checks.
        failed = attempted - sum(r["ok"] for r in plain + traced)
        result = {
            "workload": workload, "seed": seed, "variant": sampler.variant,
            "variants": sorted(set(variants)),
            "params": sampler.spec["params"], "steps": sampler.steps,
            "attempted": attempted, "failed": failed, "failures": sampler.failures,
            "samples": len(plain), "machine": machine,
            "wall": {key: median([r[key] for r in plain])
                     for key in ("setup_wall_s", "run_wall_s")},
            "calibration_s": median([c for r in plain for c in r["calibration_s"]]),
        }
        if trace:
            result["metrics"] = layer_metrics(plain, traced)
        else:
            result["metrics"] = {
                "setup_s": median([r["setup_s"] for r in plain]),
                "run_s": median([r["run_s"] for r in plain]),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            }
        return result


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics: per-run medians over the traced samples.

    Counts repeat exactly between samples of one input; step-time
    percentiles pool the steps of every traced sample.
    """
    if not traced:
        return {}
    names = traced[0]["trace"]["metrics"].keys()
    out = {n: median([r["trace"]["metrics"][n] for r in traced]) for n in names}
    for name in tracing.STEPS:
        if f"{name}.step_ms.p50" in out:
            pooled = [ms for r in traced for ms in r["trace"]["step_ms"][name]]
            out[f"{name}.step_ms.p50"], out[f"{name}.step_ms.p90"] = tracing.percentiles(pooled)
    out["experiments.output_bytes"] = median([r["output_bytes"] for r in traced])
    base = median([r["run_s"] for r in plain])
    out["trace.base_run_s"] = base
    out["trace.overhead"] = median([r["run_s"] for r in traced]) / base - 1.0 if base else 0.0
    return out


def machine_block(machine: dict, workload: str, spec: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l2 = None
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        pass
    cells, kernel_cells = spec["cells"], spec["kernel_cells"]
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "l2_cache": l2,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        **machine,
        "working_set": {"workload": workload, "cells": cells, "field_bytes": 8 * cells,
                        "kernel_table_bytes": 8 * kernel_cells},
    }


def report_line(result: dict) -> dict:
    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
        for name, value in result["metrics"].items()
    }
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_summary(result: dict):
    spec = workloads.WORKLOADS[result["workload"]](result["variant"], "", result["steps"])
    print(f"# {result['workload']}: seed {result['seed']} -> variant {result['variant']} "
          f"{json.dumps(result['params'])} (samples ran variants {result['variants']}), "
          f"{result['steps']} steps per run, "
          f"{result['samples']} untraced samples completed, "
          f"{result['attempted'] - result['failed']}/{result['attempted']} runs passed")
    print("# machine " + json.dumps(machine_block(result["machine"], result["workload"], spec)))
    print(f"# wall time medians: setup {result['wall']['setup_wall_s']:.4g} s, "
          f"run {result['wall']['run_wall_s']:.4g} s; calibration "
          f"{result['calibration_s']:.4g} s against {REFERENCE_CALIBRATION_S:g} s")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    for name, m in report_line(result)["metrics"].items():
        print(f"#   {name:48s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="shorten every run (schema check only; skips the "
                             "reference comparison)")
    args = parser.parse_args(argv)

    if not (SRC / "aggdiff" / "__init__.py").is_file():
        print(f"no aggdiff package under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), args.steps,
                             deadline)
            print_summary(result)
            results.append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        line = report_line(results[0])
    else:
        lines = [report_line(r) for r in results]
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{r['workload']}.{k}": v
                        for r, x in zip(results, lines) for k, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
