"""Outside-in layer tracing: wrap aggdiff's module-level functions.

The wrappers are installed from the benchmark's files, with nothing changed
under ``src/``. ``split2d``, ``experiments`` and others import functions by
name, so each wrapped function is replaced under every name that any
``aggdiff`` module binds to it. Spans (name, start, end, parent) are kept in
memory while the workload runs; afterwards they are turned into metrics and
written out. A span's self time is its duration minus the time its child
spans cover.

Spans live in flat ``array`` columns, not in per-call Python objects: a run
makes up to a few hundred thousand spans, and that many live containers
would slow the traced program through the cyclic garbage collector.

A function that no longer exists is skipped, and the metrics that need it are
left out of the report rather than invented.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

# (module, function) pairs traced with spans, outermost layer first.
SPANNED = (
    ("experiments", "run_experiment"),
    ("experiments", "write_csv"),
    ("experiments", "write_snapshot"),
    ("split2d", "advance_step_2d"),
    ("split2d", "advance_split_axis"),
    ("split2d", "advance_sweep_axis"),
    ("solver", "advance_step_1d"),
    ("solver", "implicit_step_1d"),
    ("solver", "newton_solve"),
    ("scheme1d", "residual"),
    ("scheme1d", "residual_jacobian"),
    ("scheme1d", "reconstruct_faces"),
    ("scheme1d", "face_data"),
    ("analysis", "discrete_energy"),
    ("kernels", "convolve"),
    ("kernels", "tabulate_kernel"),
    ("kernels", "classify_definiteness"),
)
# Hot, cheap calls that are only counted.
COUNTED = (("model", "sample_confinement"),)

STEPS = ("solver.advance_step_1d", "split2d.advance_step_2d")
SLIVER_SHARE = 1e-9  # a step shorter than this share of the nominal dt


def _newton(result):
    return (result[1],)  # (root, iterations, norm)


def _jacobian(result):
    shape = getattr(result, "shape", None)  # a Tridiagonal has no shape
    return (shape[0] if shape is not None else 0,)


def _step(result):
    return (result.cfl_retries, result.dt_used, result.row_solves)


# What is kept of a traced call's return value, as a tuple of numbers.
KEEP = {
    "solver.newton_solve": _newton,
    "scheme1d.residual_jacobian": _jacobian,
    "solver.advance_step_1d": _step,
    "split2d.advance_step_2d": _step,
}


class Tracer:
    def __init__(self, nominal_dt: float):
        self.nominal_dt = nominal_dt
        self.names = []  # span name by id
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kept = {}  # name -> list of (span index, *numbers)
        self.counts = {}
        self.present = set()
        self._stack = []
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "aggdiff" or n.startswith("aggdiff.")]
        for mod_name, fn_name in SPANNED + COUNTED:
            original = getattr(sys.modules.get(f"aggdiff.{mod_name}"), fn_name, None)
            if not callable(original):
                continue
            name = f"{mod_name}.{fn_name}"
            self.present.add(name)
            wrapper = (self._spanned(name, original) if (mod_name, fn_name) in SPANNED
                       else self._counted(name, original))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))
        self._count_is_zero()

    def _count_is_zero(self):
        table = getattr(sys.modules.get("aggdiff.kernels"), "KernelTable", None)
        prop = vars(table).get("is_zero") if table is not None else None
        if not isinstance(prop, property):
            return
        name = "kernels.is_zero"
        counts, fget = self.counts, prop.fget
        counts[name] = 0
        self.present.add(name)

        def counted(obj):
            counts[name] += 1
            return fget(obj)

        table.is_zero = property(counted)
        self._undo.append((table, "is_zero", prop))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        keep = KEEP.get(name)
        kept = self.kept.setdefault(name, [])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if keep is not None:
                kept.append((index, *keep(result)))
            return result

        return wrapper

    def write(self, path):
        """Write the spans as tab-separated name, start, end, parent index."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\n")
            for i in range(len(self.name_id)):
                f.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                        f"{self.end[i]!r}\t{self.parent[i]}\n")

    # -- metrics -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-run metrics, plus each step function's step times in ms."""
        names, nid, parent = self.names, self.name_id, self.parent
        n = len(nid)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += duration[i]
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        self_s = dict.fromkeys(names, 0.0)
        for i in range(n):
            name = names[nid[i]]
            calls[name] += 1
            total[name] += duration[i]
            self_s[name] += duration[i] - covered[i]

        out = {}
        have = self.present.__contains__

        def put(key, value, *needs):
            if all(have(x) for x in needs):
                out[key] = value

        def stats(name, *which):
            for stat in which:
                value = {"calls": calls, "s": total, "self_s": self_s}[stat].get(name, 0)
                put(f"{name}.{stat}", value, name)

        stats("kernels.convolve", "calls", "s")
        put("kernels.is_zero.calls", self.counts.get("kernels.is_zero", 0), "kernels.is_zero")
        stats("kernels.tabulate_kernel", "s")
        stats("kernels.classify_definiteness", "s")

        jac = "scheme1d.residual_jacobian"
        dense = [k for _, k in self.kept.get(jac, []) if k]
        stats("scheme1d.residual", "calls", "s")
        stats(jac, "calls", "s")
        put(f"{jac}.dense_calls", len(dense), jac)
        line_solves = calls.get("solver.implicit_step_1d", 0)
        stats("scheme1d.reconstruct_faces", "calls", "s")
        put("scheme1d.reconstruct_faces.per_line_solve",
            calls.get("scheme1d.reconstruct_faces", 0) / max(line_solves, 1),
            "scheme1d.reconstruct_faces", "solver.implicit_step_1d")
        stats("scheme1d.face_data", "calls", "s")

        stats("solver.implicit_step_1d", "calls", "s")
        newton = "solver.newton_solve"
        solved = self.kept.get(newton, [])
        solves = calls.get(newton, 0)
        # A solve evaluates the residual once up front, once per iteration
        # and once per line-search halving; it assembles one Jacobian per
        # iteration. Only calls made directly by a solve count.
        inner = {"scheme1d.residual": 0, jac: 0}
        for i in range(n):
            name = names[nid[i]]
            if name in inner and parent[i] >= 0 and names[nid[parent[i]]] == newton:
                inner[name] += 1
        put(f"{newton}.calls", solves, newton)
        put(f"{newton}.iterations", sum(it for _, it in solved), newton)
        put(f"{newton}.backtracks", inner["scheme1d.residual"] - inner[jac] - solves,
            newton, "scheme1d.residual", jac)
        put(f"{newton}.failures", solves - len(solved), newton)
        put(f"{newton}.zero_iteration_share",
            sum(1 for _, it in solved if it == 0) / max(solves, 1), newton)
        stats(newton, "self_s")
        put("solver.dense_lu.computed_flops", sum(2.0 * k**3 / 3.0 for k in dense), jac)

        steps = 0
        step_ms = {}
        for name in STEPS:
            if not have(name):
                continue
            done = self.kept.get(name, [])
            steps += len(done)
            ms = step_ms[name] = [1e3 * duration[i] for i, *_ in done]
            stats(name, "calls", "s")
            put(f"{name}.cfl_retries", sum(r for _, r, _, _ in done), name)
            out[f"{name}.step_ms.p50"], out[f"{name}.step_ms.p90"] = percentiles(ms)
            if name == "solver.advance_step_1d":
                put(f"{name}.sliver_steps",
                    sum(1 for _, _, dt, _ in done if dt < SLIVER_SHARE * self.nominal_dt), name)
            else:
                put(f"{name}.row_solves_per_step",
                    sum(rows for *_, rows in done) / max(len(done), 1), name)
        stats("split2d.advance_split_axis", "self_s")
        stats("split2d.advance_sweep_axis", "self_s")

        stats("analysis.discrete_energy", "calls", "s")
        put("analysis.discrete_energy.per_step",
            calls.get("analysis.discrete_energy", 0) / max(steps, 1), "analysis.discrete_energy")
        put("model.sample_confinement.calls", self.counts.get("model.sample_confinement", 0),
            "model.sample_confinement")

        stats("experiments.run_experiment", "s")
        stats("experiments.write_csv", "s")
        stats("experiments.write_snapshot", "s")
        return {"metrics": out, "step_ms": step_ms}


def percentiles(values) -> tuple:
    """(p50, p90), p90 by statistics.quantiles' exclusive method; 0 if empty."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v
    return statistics.median(values), statistics.quantiles(values, n=10)[8]
