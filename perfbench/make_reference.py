"""Record the reference final states that the benchmark compares against.

    python3 perfbench/make_reference.py

Runs every variant of every workload once at its default length and writes
the sampled final state of each to ``reference.json``. Run it only on the
commit whose results define "correct" (it was made at the benchmark's seed
commit); a later commit is checked against those states within a Newton
tolerance margin, never re-recorded to make a check pass.
"""

import json
import shutil
import subprocess
import sys

import workloads
from run import HERE, SRC, WORK


def main():
    reference = {"newton_tolerance": workloads.NEWTON_TOL}
    for name, make in workloads.WORKLOADS.items():
        steps = workloads.DEFAULT_STEPS[name]
        reference[name] = {}
        for variant in range(workloads.VARIANTS):
            work = WORK / f"reference-{name}-{variant}"
            work.mkdir(parents=True, exist_ok=True)
            spec = make(variant, str(work / "out"), steps)
            ini = work / "input.ini"
            ini.write_text(spec["ini"])
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--ini", str(ini),
                 "--workload", name, "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            shutil.rmtree(work)
            report = json.loads(proc.stdout.splitlines()[-1])
            entry = {"params": spec["params"], "t_final": report["t"],
                     "sample": report["sample"]}
            if "analytic_max_abs" in report:
                entry["analytic_max_abs"] = report["analytic_max_abs"]
            reference[name][str(variant)] = entry
            print(name, variant, spec["params"], report.get("analytic_max_abs", ""), flush=True)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
