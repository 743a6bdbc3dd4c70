"""One benchmark sample: a fresh interpreter that runs one workload once.

    python3 child.py --src SRC --ini FILE --workload NAME --trace 0|1 [--spans FILE]
    python3 child.py --src SRC --warm

It prints one JSON line. ``ready`` is ``time.monotonic()`` when the process
is ready to step: aggdiff imported, the config parsed, the setup (V/W
tables, kernel classification, stage rule) built and the initial field made.
The parent subtracts its own monotonic clock reading from just before the
spawn, so set-up time includes interpreter start-up. ``--warm`` imports the
package only, so that bytecode caches exist before anything is timed.

``calibration_s`` holds the time of ``calibrate()`` measured just after
``ready`` and just after the run; the parent rescales set-up and run times by
them (see ``run.py``).

Only the standard library is imported before ``ready``, besides aggdiff.
"""

import argparse
import json
import os
import resource
import sys
import time


def _import_aggdiff(src):
    sys.path.insert(0, src)
    import aggdiff

    if not os.path.abspath(aggdiff.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"aggdiff imported from {aggdiff.__file__}, not from {src}")
    return aggdiff


class _Probe:
    def __init__(self, x):
        self.x = x

    def add(self, y):
        return self.x + y


def calibrate() -> float:
    """Seconds a fixed piece of work takes: the host's speed right now.

    The work uses nothing of aggdiff, so it takes the same time on every
    commit. It mixes what the workloads spend their time on: bytecode
    arithmetic, numpy calls on 128-element arrays, and object creation,
    method calls and dict stores.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i
    a, b = np.linspace(0.0, 1.0, 128), np.ones(128)
    for _ in range(6_000):
        a = np.maximum(a * 0.999 + b * 1e-3, 0.0)
    table = {}
    for i in range(120_000):
        probe = _Probe(i)
        total += probe.add(1)
        table[i & 255] = probe
    return time.perf_counter() - start


def machine_info():
    """Library versions and BLAS threading, read in a workload-like process."""
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--ini")
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="file the traced run's spans are written to")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args()

    _import_aggdiff(args.src)
    if args.warm:
        print(json.dumps(machine_info()))
        return

    from aggdiff import experiments
    from aggdiff.config import parse_config
    from aggdiff.solver import build_setup

    config = parse_config(args.ini)
    build_setup(config.model, config.scheme_kind, config.stage, config.theta)
    experiments.build_initial(config.initial, config.model.grid, config.t_initial, config.model)
    ready = time.monotonic()
    calibration_s = [calibrate()]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(float(config.dt))
        tracer.install()
    start = time.perf_counter()
    record = experiments.run_experiment(config)  # looked up late, so it can be traced
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s.append(calibrate())

    import numpy as np

    from aggdiff.analysis import ReferenceSolution, sample_reference
    from workloads import sample_final

    final = np.asarray(record.final.values)
    grid = config.model.grid
    t_end = record.rows[-1][0]
    outputs = [p for p in (record.csv_path, *record.snapshot_paths) if p]
    report = {
        "ready": ready,
        "run_s": run_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "violations": list(record.violations),
        "mass": [row[2] for row in record.rows],
        "min_rho": [row[3] for row in record.rows],
        "t": t_end,
        "sample": sample_final(args.workload, final),
        "output_bytes": sum(os.path.getsize(p) for p in outputs),
    }
    if args.workload == "heat2d_split":
        exact = sample_reference(ReferenceSolution("heat_kernel", 2), t_end, grid)
        report["analytic_max_abs"] = float(np.abs(final - exact).max())
    if tracer is not None:
        report["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
