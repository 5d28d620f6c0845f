#!/usr/bin/env python3
"""Must-trip test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run from the repository root. Each deliberate corruption below must make
run.py report correct=false with a failed check and exit non-zero:

  paper_mix   --inject kernel_output     a wrong kernel output fails Verify
  ftl_churn   --inject readback          a flipped read-back byte fails the compare
  ftl_churn   --inject unpaced           the seed's FTL CHECK-abort counts as a
                                         failed run (fail_ratio 1), not a crash
  fleet_serve --inject fleet_unverified  a fleet report with verified = false
  fleet_synth --inject fleet_unverified  counts every served request as failed

It also checks that a clean run passes, that run.py's metric tables match
BENCHMARK.json, and that in a directory holding only BENCHMARK.json and
perfbench/ the command fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

INJECTIONS = [
    ("paper_mix", "kernel_output"),
    ("ftl_churn", "readback"),
    ("ftl_churn", "unpaced"),
    ("fleet_serve", "fleet_unverified"),
    ("fleet_synth", "fleet_unverified"),
]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0.1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    problems = []

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != {n: u for n, (u, _) in run.END_TO_END.items()}:
        problems.append("end_to_end metrics differ between BENCHMARK.json and run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER:
        problems.append("per_layer metrics differ between BENCHMARK.json and run.py")
    if [w["name"] for w in spec["workloads"]] != [w for w in run.WORKLOADS if w not in run.UNGATED]:
        problems.append("workloads differ between BENCHMARK.json and run.py")

    code, result = bench("--workload", "fleet_synth")
    if code != 0 or not result or not result["correct"] or result["failed"] != 0:
        problems.append(f"clean fleet_synth run did not pass (exit {code}, {result})")
    elif set(result["metrics"]) != set(declared):
        problems.append("clean run did not print exactly the end-to-end metrics")

    for workload, inject in INJECTIONS:
        code, result = bench("--workload", workload, "--inject", inject)
        tripped = (code != 0 and result is not None and not result["correct"]
                   and result["failed"] > 0)
        print(f"{workload:<12} {inject:<17} exit {code} "
              f"failed {result['failed'] if result else '?'} of "
              f"{result['attempted'] if result else '?'}: "
              f"{'tripped' if tripped else 'DID NOT TRIP'}")
        if not tripped:
            problems.append(f"{workload} --inject {inject} did not trip the check")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", "fleet_synth", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {code}, result printed: {result is not None}")
    if code == 0 or result is not None:
        problems.append("the benchmark did not fail in a directory without the sources")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("FAILED" if problems else "all checks trip and the clean run passes"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
