#!/usr/bin/env python3
"""Smoke-test the benchmark itself on a tiny corpus (about a minute).

For every workload, runs ``run.py --size tiny`` once untraced and once
traced, and checks that the result line is well formed, that the run
passed its own output checks, that every metric BENCHMARK.json names is
printed with its unit, and that the traced run wrote its spans.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "5", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    context = json.loads(lines[-2].removeprefix("context "))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} not printed")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {metric['name']} printed as {got}")
    if trace:
        spans_file = ROOT / context["spans_file"]
        spans = json.loads(spans_file.read_text(encoding="utf-8"))["spans"] \
            if spans_file.is_file() else []
        if not spans:
            problems.append(f"{where}: no spans written to {spans_file}")
    for key in ("seed", "records", "enzymes", "labels", "one_hot_dim", "gbdt_rounds",
                "nproc", "python", "numpy"):
        if key not in context:
            problems.append(f"{where}: run context lacks {key}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload:16s} trace={trace}  {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
