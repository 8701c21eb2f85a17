"""Guard: a traced benchmark run ends with a strict-JSON result line.

The traced run's last stdout line carries every per-layer metric that
``BENCHMARK.json`` declares.  Plain ``json.loads`` accepts ``NaN`` and
``Infinity``, which ``json.dumps`` writes for non-finite floats but which
are not JSON, so the line is parsed with every such constant refused.
The run context on the line before must list no missing metric or
wrap target, and the traced ``integrate`` must still see the queries.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"non-JSON constant {constant} in the result line")


def test_traced_predict_homolog_prints_a_strict_json_result():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "predict-homolog",
           "--size", "tiny", "--seconds", "5", "--seed", "7", "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_refuse)
    assert result["correct"] is True
    context_prefix = "context "
    assert lines[-2].startswith(context_prefix)
    context = json.loads(lines[-2][len(context_prefix):], parse_constant=_refuse)
    assert context["missing_metrics"] == [] and context["missing_targets"] == []

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    for entry in declared:
        assert entry["name"] in metrics, f"per-layer metric {entry['name']} not printed"
        value = metrics[entry["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), entry["name"]
    assert metrics["integrate.route_alignment_share"]["value"] >= 0.9
