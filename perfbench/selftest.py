#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

Runs every workload for one second with tracing off and on, and checks
that

* the result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and reports a correct run;
* every end-to-end metric (tracing off) and every per-layer metric
  (tracing on) named in ``BENCHMARK.json`` is emitted with its unit, and
  no other metric;
* the traced run's ``unattributed_s`` stays within ``UNATTRIBUTED_SHARE``
  of its wall clock, so a layer that goes unmeasured shows up;
* in a directory that holds only ``BENCHMARK.json`` and the benchmark's
  own files, the benchmark exits non-zero without printing a result.

Run from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

#: Largest share of the traced wall clock allowed outside every layer span.
UNATTRIBUTED_SHARE = 0.10


def run_benchmark(args, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int, expected_units: dict) -> list:
    """Problems with one reduced-size run, as messages."""
    completed = run_benchmark(
        ["--workload", workload, "--seed", "2017", "--seconds", "1", "--trace", str(trace)]
    )
    if completed.returncode != 0:
        return [f"exit code {completed.returncode}: {completed.stderr.strip()[-400:]}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        problems.append(f"not correct: {result.get('failed')} of {result.get('attempted')} failed")
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    missing = sorted(set(expected_units) - set(units))
    extra = sorted(set(units) - set(expected_units))
    wrong = sorted(n for n in set(units) & set(expected_units) if units[n] != expected_units[n])
    if missing or extra or wrong:
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"extra {extra}, wrong unit {wrong}")
    if trace and not missing:
        metrics = result["metrics"]
        share = metrics["unattributed_s"]["value"] / metrics["traced_wall_s"]["value"]
        if share > UNATTRIBUTED_SHARE:
            problems.append(f"unattributed_s is {share:.1%} of the traced wall clock "
                            f"(limit {UNATTRIBUTED_SHARE:.0%})")
    return problems


def check_refuses_without_source() -> list:
    bare = os.path.join(SCRATCH, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        completed = run_benchmark(
            ["--workload", "screen", "--seed", "2017", "--seconds", "1", "--trace", "0"], cwd=bare
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        return ["without the program's source it must exit non-zero and print no result"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    failed = False
    checks = [
        (f"{workload['name']} --trace {trace}",
         lambda w=workload["name"], t=trace: check_run(w, t, expected[t]))
        for workload in spec["workloads"]
        for trace in (0, 1)
    ]
    checks.append(("bare directory", check_refuses_without_source))
    for label, check in checks:
        problems = check()
        failed = failed or bool(problems)
        print(("FAIL " if problems else "ok   ") + label)
        for problem in problems:
            print("     " + problem)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
