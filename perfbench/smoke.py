#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Runs all four workloads untraced and traced and checks that every check
passes and that every metric BENCHMARK.json names is printed, nonzero
for the end-to-end ones.  Then runs them again with one planted wrong
expected answer each and checks that the benchmark counts it: the run is
not correct and every workload's ok_ratio (1 - failed_ratio) drops
below 1.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_all(*flags: str) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
           "--seed", "0", "--seconds", "0.5", *flags]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=600, cwd=ROOT)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    if not set(workloads) <= set(run.NAMES):
        problems.append("BENCHMARK.json names a workload run.py does not have")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != tracer.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        status, result = run_all("--trace", trace)
        if status != 0 or not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: exit {status}, correct {result['correct']}, failed {result['failed']}")
        for workload in run.NAMES:
            for metric in spec[section]:
                got = result["metrics"].get(f"{workload}/{metric['name']}")
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"trace {trace}: {workload} lacks {metric['name']} [{metric['unit']}]")
                elif section == "end_to_end" and got["value"] == 0:
                    problems.append(f"{workload}: {metric['name']} is 0")

    status, result = run_all("--trace", "0", "--plant-fault")
    if status == 0 or result["correct"] or not result["failed"]:
        problems.append(f"planted fault not reported: exit {status}, failed {result['failed']}")
    for workload in run.NAMES:
        if result["metrics"][f"{workload}/ok_ratio"]["value"] >= 1:
            problems.append(f"{workload}: planted wrong answer not counted in ok_ratio")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
