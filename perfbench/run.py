#!/usr/bin/env python3
"""The ecann benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload {predict-homolog,serve}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of
the checkout this file sits in; without it the run exits non-zero.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the same workload runs with every layer wrapped and
the last line carries the per-layer metrics, while the spans go to
``.perfbench_out/spans-<workload>-seed<N>.json``.  The line before it is
the run context: seed, corpus size, rates, core count and versions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Every workload reports every one of these:
#   setup_s           input generation (~10 ms) plus train_bundle + save of the
#                     bundle the workload serves; median of workloads.SETUPS
#   load_s            Annotator.load, median of 10 loads before and 10 after
#                     the measured phase
#   latency_ms_p50/90 predict-homolog: over queries, of each query's mean one-query
#                     annotate_to_tsv call; serve: open-loop job latency from
#                     when the submit was due until the result is read
#   throughput_per_s  predict-homolog: batch annotate_to_tsv queries/s;
#                     serve: closed-loop jobs/s, median over equal windows
#   peak_rss_mb       peak RSS of this process; serve: of the server process
#   ec_micro_f1, enzyme_f1  quality on the corpus's chronological probe set
END_TO_END = (
    ("setup_s", "s"),
    ("load_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ec_micro_f1", "share"),
    ("enzyme_f1", "share"),
)


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "ecann" / "__init__.py").is_file():
        raise SystemExit(f"error: no ecann package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import ecann

    if Path(ecann.__file__).resolve().parent != (src / "ecann").resolve():
        raise SystemExit(f"error: imported ecann from {ecann.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["predict-homolog", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: a seconds-long smoke run for the self-test")
    args = parser.parse_args(argv)
    _import_package()
    # A terminated run still unwinds, so the server process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import numpy

    import inputs
    import layers
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    size = inputs.TINY if args.size == "tiny" else inputs.FULL
    bench = workloads.Bench(workdir, args.seed, args.seconds, size, tracer)
    bench.context.update(
        workload=args.workload, trace=args.trace, size=args.size, nproc=os.cpu_count(),
        python=platform.python_version(), numpy=numpy.__version__,
    )

    correct = True
    start = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](bench)
    except workloads.CheckFailed as exc:
        correct = False
        bench.context["check_failed"] = str(exc)
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        wall = time.perf_counter() - start
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {name: {"value": bench.metrics[name], "unit": unit}
                   for name, unit in END_TO_END if name in bench.metrics}
    else:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        metrics, missing = layers.layer_metrics(tracer, tracing.span_cost_s(), wall)
        bench.context.update(spans_file=str(spans_path.relative_to(ROOT)),
                             missing_metrics=missing, missing_targets=tracer.missing)
        for name in missing:
            print(f"warning: per-layer metric {name} is missing: its call target is gone",
                  file=sys.stderr)
    bench.context["wall_s"] = wall
    correct = correct and bench.failed == 0
    print("context " + json.dumps(bench.context, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
