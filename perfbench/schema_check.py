"""Fast schema check: every workload, a few steps, every metric by name and unit.

    python3 perfbench/schema_check.py

Runs ``run.py`` on each workload in ``BENCHMARK.json`` with shortened runs,
once untraced and once traced, and checks the last output line against the
declared metrics: exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; every declared metric present with its declared unit and a
numeric value; nothing undeclared. Shortened runs skip only the comparison
with the recorded reference states, so every run must still pass. Exits 1 on
the first mismatch. Takes about a minute.
"""

import json
import numbers
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHORT_STEPS = {"heat2d_split": 3, "nonlocfp2d_sweep": 2, "metastable1d": 20}


def check(workload: str, trace: int, declared: list) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--steps", str(SHORT_STEPS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    line = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if line.get("correct") is not True or line.get("failed") != 0:
        problems.append(f"runs failed: {proc.stdout.strip()[-800:]}")
    metrics = line.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, declared {m['unit']!r}")
        elif not isinstance(got.get("value"), numbers.Real) or isinstance(got["value"], bool):
            problems.append(f"{m['name']} value {got.get('value')!r} is not a number")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems = check(workload, trace, declared)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
