"""Batch workflow commands: prepare-dataset, embed, train, predict, evaluate, tune, serve.

Every artifact-producing subcommand writes into a run directory with a
``manifest.json`` recording the command, input digests, parameters, and
library versions — and nothing time-dependent, so identical inputs
reproduce identical manifests.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import date
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .agents import CountModelParams, EcRankerParams, EnzymeGateParams, RankingMode
from .bundle import Annotator, BundleParams, annotate_to_tsv, sha256_file, train_bundle
from .core import Task, build_label_dictionary
from .dataset import (
    Snapshot,
    chronological_split,
    function_count_partition,
    parse_fasta,
    parse_flatfile,
    preprocess,
    write_flatfile,
    write_rejects,
)
from .embedding import (
    load_embedding_table,
    one_hot_table,
    save_embedding_table,
)
from .gbdt import GbdtParams
from .integrate import DEFAULT_IDENTITY_GRID, DEFAULT_THRESHOLD_GRID, PolicyGrid, greedy_tune
from .metrics import (
    CELLS,
    ConfusionCounts,
    Task1Report,
    Task2Report,
    Task3Report,
    binary_metrics,
    evaluate_task,
    format_report_table,
    load_external_predictions,
    report_to_tsv,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ROW_FAILURES = 2


def _write_manifest(
    run_dir: Path, command: str, inputs: Mapping[str, Path], params: Mapping
) -> None:
    manifest = {
        "command": command,
        "inputs": {
            name: {"path": str(path), "sha256": sha256_file(Path(path))}
            for name, path in sorted(inputs.items())
        },
        "params": params,
        "versions": {"ecann": __version__, "numpy": np.__version__},
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _run_dir(raw: str) -> Path:
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_records(path: str | Path, what: str):
    records, rejects = parse_flatfile(path)
    if rejects:
        log.warning("%s: %d malformed row(s) skipped", what, len(rejects))
    if not records:
        raise SystemExit(f"error: {what} ({path}) holds no usable records")
    return records, rejects


# --------------------------------------------------------------------------
# prepare-dataset


def cmd_prepare(args: argparse.Namespace) -> int:
    run = _run_dir(args.out)
    earlier_raw, earlier_rejects = _read_records(args.earlier, "earlier snapshot")
    later_raw, later_rejects = _read_records(args.later, "later snapshot")
    earlier_clean = preprocess(earlier_raw)
    later_clean = preprocess(later_raw)
    earlier = Snapshot(tag=Path(args.earlier).stem, released=args.earlier_date,
                       records=earlier_clean.records)
    later = Snapshot(tag=Path(args.later).stem, released=args.later_date,
                     records=later_clean.records)

    report: dict = {
        "snapshots": {
            "earlier": {"tag": earlier.tag, "n_raw": earlier_clean.report.raw_count,
                        "n_clean": earlier_clean.report.clean_count,
                        "removed": earlier_clean.report.removals(),
                        "n_rejected_rows": len(earlier_rejects)},
            "later": {"tag": later.tag, "n_raw": later_clean.report.raw_count,
                      "n_clean": later_clean.report.clean_count,
                      "removed": later_clean.report.removals(),
                      "n_rejected_rows": len(later_rejects)},
        },
        "tasks": {},
        "function_count_partition": {
            str(k): v
            for k, v in sorted(function_count_partition(earlier.enzymes).items())
        },
    }
    write_rejects(earlier_rejects, run / "earlier.rejects.tsv")
    write_rejects(later_rejects, run / "later.rejects.tsv")
    for task in Task:
        split = chronological_split(earlier, later, task, cutoff=args.cutoff)
        write_flatfile(split.train, run / f"{task.value}.train.tsv")
        write_flatfile(split.test, run / f"{task.value}.test.tsv")
        report["tasks"][task.value] = {
            "n_train": len(split.train), "n_test": len(split.test),
        }
    (run / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _write_manifest(
        run, "prepare-dataset",
        {"earlier": Path(args.earlier), "later": Path(args.later)},
        {"earlier_date": args.earlier_date.isoformat(),
         "later_date": args.later_date.isoformat(),
         "cutoff": args.cutoff.isoformat() if args.cutoff else None},
    )
    print(json.dumps(report["tasks"], sort_keys=True))
    return EXIT_OK


# --------------------------------------------------------------------------
# embed


def cmd_embed(args: argparse.Namespace) -> int:
    run = _run_dir(args.out)
    if args.table:
        table = load_embedding_table(args.table, tag=args.tag)
        inputs = {"table": Path(args.table)}
        params = {"source": "external", "tag": table.tag}
    else:
        records, _ = _read_records(args.records, "records")
        table = one_hot_table(records, args.max_len)
        inputs = {"records": Path(args.records)}
        params = {"source": "one-hot", "max_len": args.max_len}
    save_embedding_table(table, run / "embeddings.bin")
    _write_manifest(run, "embed", inputs, params)
    print(f"{len(table)} vectors, dim {table.dim}, tag {table.tag}")
    return EXIT_OK


# --------------------------------------------------------------------------
# train


def _bundle_params(args: argparse.Namespace) -> BundleParams:
    gbdt = GbdtParams(
        n_estimators=args.gbdt_rounds,
        max_depth=args.gbdt_depth,
        min_child_weight=args.gbdt_min_child,
    )
    return BundleParams(
        max_len=args.max_len,
        gate=EnzymeGateParams(n_neighbors=args.gate_neighbors),
        counts=CountModelParams(sp=gbdt, mp=gbdt),
        ranker=EcRankerParams(
            negative_budget=args.negative_budget,
            shortlist_size=args.shortlist,
            svm_max_iter=args.svm_max_iter,
        ),
    )


def cmd_train(args: argparse.Namespace) -> int:
    run = _run_dir(args.out)
    records, _ = _read_records(args.train, "training set")
    table = load_embedding_table(args.table, tag=args.tag) if args.table else None
    params = _bundle_params(args)
    annotator, tune_result = train_bundle(
        records,
        params,
        table=table,
        tune_grid=PolicyGrid() if args.tune else None,
        validation_fraction=args.validation_fraction,
    )
    bundle_dir = run / "bundle"
    annotator.save(bundle_dir)
    inputs = {"train": Path(args.train)}
    if args.table:
        inputs["table"] = Path(args.table)
    _write_manifest(run, "train", inputs,
                    {"bundle": params.to_dict(), "tune": bool(args.tune),
                     "validation_fraction": args.validation_fraction})
    if tune_result is not None:
        (run / "tune.json").write_text(
            json.dumps(
                {
                    "policy": tune_result.policy.to_dict(),
                    "objective": tune_result.objective,
                    "scoreboard": [
                        {"policy": policy.to_dict(), "f1": score}
                        for policy, score in tune_result.scoreboard
                    ],
                },
                sort_keys=True, indent=2,
            ) + "\n",
            encoding="utf-8",
        )
    print(f"bundle written to {bundle_dir}")
    return EXIT_OK


# --------------------------------------------------------------------------
# predict


def cmd_predict(args: argparse.Namespace) -> int:
    annotator = Annotator.load(args.bundle)
    pairs = parse_fasta(args.fasta)
    vectors = None
    if args.vectors:
        vectors = load_embedding_table(args.vectors, tag=annotator.table.tag)
    mode = RankingMode(args.mode)
    tsv, n_failed = annotate_to_tsv(annotator, pairs, mode, vectors=vectors)
    Path(args.out).write_text(tsv, encoding="utf-8")
    if n_failed:
        print(f"{n_failed} of {len(pairs)} queries failed", file=sys.stderr)
        return EXIT_ROW_FAILURES
    return EXIT_OK


# --------------------------------------------------------------------------
# evaluate


def _counts_table(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines if line.strip()]
    header, body = rows[0], rows[1:]
    want = ("name",) + CELLS
    if tuple(header) != want:
        raise SystemExit(f"error: counts fixture needs columns {want}, got {header}")
    out = ["name\tacc\tppv\tnpv\trecall\tf1"]
    for row in body:
        counts = ConfusionCounts(**{f: int(v) for f, v in zip(CELLS, row[1:])})
        rep = binary_metrics(counts)
        cells = [row[0]] + [
            "undefined" if v is None else f"{v:.4f}"
            for v in (rep.acc, rep.ppv, rep.npv, rep.recall, rep.f1)
        ]
        out.append("\t".join(cells))
    return "\n".join(out) + "\n"


def _headline_f1(report) -> Optional[float]:
    if isinstance(report, Task1Report):
        return report.metrics.f1
    if isinstance(report, Task2Report):
        return report.macro.m_f1_perclass
    if isinstance(report, Task3Report):
        return report.micro_f1
    raise TypeError(f"unknown report {type(report)!r}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.counts:
        text = _counts_table(Path(args.counts))
        sys.stdout.write(text)
        if args.out:
            run = _run_dir(args.out)
            (run / "report.tsv").write_text(text, encoding="utf-8")
            _write_manifest(run, "evaluate", {"counts": Path(args.counts)},
                            {"mode": "counts"})
        return EXIT_OK

    if not (args.pred and args.gold and args.task):
        raise SystemExit("error: need --task, --pred and --gold (or --counts)")
    task = Task(args.task)
    predictions = load_external_predictions(args.pred)
    gold, _ = _read_records(args.gold, "gold records")
    label_dict = None
    if task is Task.EC_NUMBER:
        if not args.train:
            raise SystemExit("error: --task ec-number needs --train for the label dictionary")
        train_records, _ = _read_records(args.train, "training set")
        label_dict = build_label_dictionary(train_records)
    report = evaluate_task(predictions, gold, task, label_dict)
    print(format_report_table(report))
    if args.out:
        run = _run_dir(args.out)
        (run / "report.tsv").write_text(report_to_tsv(report), encoding="utf-8")
        inputs = {"pred": Path(args.pred), "gold": Path(args.gold)}
        if args.train:
            inputs["train"] = Path(args.train)
        _write_manifest(run, "evaluate", inputs,
                        {"task": task.value, "min_f1": args.min_f1})
    if args.min_f1 is not None:
        f1 = _headline_f1(report)
        if f1 is None or f1 < args.min_f1:
            shown = "undefined" if f1 is None else f"{f1:.4f}"
            print(f"F1 gate failed: {shown} < {args.min_f1}", file=sys.stderr)
            return EXIT_ERROR
    return EXIT_OK


# --------------------------------------------------------------------------
# tune


def cmd_tune(args: argparse.Namespace) -> int:
    run = _run_dir(args.out)
    annotator = Annotator.load(args.bundle)
    validation, _ = _read_records(args.validation, "validation set")
    vectors = None
    if args.vectors:
        vectors = load_embedding_table(args.vectors, tag=annotator.table.tag)
    outputs_by_id, hits_by_id = annotator.tuning_inputs(validation, vectors)
    grid = PolicyGrid(identities=tuple(args.identities),
                      thresholds=tuple(args.thresholds))
    result = greedy_tune(validation, outputs_by_id, hits_by_id, grid)
    (run / "policy.json").write_text(
        json.dumps(result.policy.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    board = ["alignment_min_identity\tagent1_threshold\tprecedence\tuse_count_hint\tf1"]
    for policy, score in result.scoreboard:
        board.append("\t".join([
            str(policy.alignment_min_identity),
            str(policy.agent1_threshold),
            ">".join(r.value for r in policy.precedence),
            str(policy.use_count_hint),
            f"{score:.6f}",
        ]))
    (run / "scoreboard.tsv").write_text("\n".join(board) + "\n", encoding="utf-8")
    _write_manifest(run, "tune",
                    {"bundle": Path(args.bundle) / "manifest.json",
                     "validation": Path(args.validation)},
                    {"identities": list(args.identities),
                     "thresholds": list(args.thresholds),
                     "apply": bool(args.apply)})
    if args.apply:
        annotator.policy = result.policy
        annotator.save(args.bundle)
        print(f"bundle policy updated: {result.policy.to_dict()}")
    print(f"best policy F1 {result.objective:.4f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# serve


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import run_service

    host, port = args.host, args.port
    bind = os.environ.get("ECANN_BIND")
    if bind:
        host, _, raw_port = bind.rpartition(":")
        port = int(raw_port)
    store = os.environ.get("ECANN_STORE", args.store)
    run_service(
        args.bundle, store, host=host, port=port,
        workers=args.workers, ttl_seconds=args.ttl,
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _date(raw: str) -> date:
    return date.fromisoformat(raw)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecann",
        description="Enzyme EC-number annotation workflows",
    )
    parser.add_argument("--version", action="version", version=f"ecann {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO level")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prepare-dataset", aliases=["prepare"],
                       help="clean two snapshots and emit chronological splits")
    p.add_argument("--earlier", required=True, help="earlier snapshot flat file")
    p.add_argument("--later", required=True, help="later snapshot flat file")
    p.add_argument("--earlier-date", required=True, type=_date)
    p.add_argument("--later-date", required=True, type=_date)
    p.add_argument("--cutoff", type=_date, default=None,
                   help="optional integration-date cutoff")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("embed", help="build or import an embedding table")
    p.add_argument("--records", help="flat file to one-hot encode")
    p.add_argument("--max-len", type=int, default=1000)
    p.add_argument("--table", help="existing table (TSV or binary) to import")
    p.add_argument("--tag", default=None, help="tag for imported TSV tables")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="fit the full annotation stack")
    p.add_argument("--train", required=True, help="training flat file")
    p.add_argument("--table", help="precomputed embedding table")
    p.add_argument("--tag", default=None)
    p.add_argument("--max-len", type=int, default=1000)
    p.add_argument("--tune", action="store_true",
                   help="tune the policy on a chronological holdout")
    p.add_argument("--validation-fraction", type=float, default=0.1)
    p.add_argument("--gbdt-rounds", type=int, default=120)
    p.add_argument("--gbdt-depth", type=int, default=6)
    p.add_argument("--gbdt-min-child", type=float, default=6.0)
    p.add_argument("--gate-neighbors", type=int, default=5)
    p.add_argument("--svm-max-iter", type=int, default=1200)
    p.add_argument("--negative-budget", type=int, default=700)
    p.add_argument("--shortlist", type=int, default=700)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="annotate a FASTA file with a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--mode", choices=[m.value for m in RankingMode],
                   default=RankingMode.PREDICTION.value)
    p.add_argument("--vectors", help="embedding table for external-tag bundles")
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions or a counts fixture")
    p.add_argument("--task", choices=[t.value for t in Task])
    p.add_argument("--pred", help="prediction TSV")
    p.add_argument("--gold", help="gold flat file")
    p.add_argument("--train", help="training flat file (ec-number label dictionary)")
    p.add_argument("--counts", help="confusion-count fixture TSV")
    p.add_argument("--min-f1", type=float, default=None,
                   help="exit 1 unless headline F1 reaches this")
    p.add_argument("--out", default=None, help="optional run directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="tune the integration policy of a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--validation", required=True, help="validation flat file")
    p.add_argument("--vectors", help="embedding table for external-tag bundles")
    p.add_argument("--identities", type=_floats,
                   default=DEFAULT_IDENTITY_GRID)
    p.add_argument("--thresholds", type=_floats,
                   default=DEFAULT_THRESHOLD_GRID)
    p.add_argument("--apply", action="store_true",
                   help="write the tuned policy back into the bundle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("serve", help="run the HTTP job service")
    p.add_argument("--bundle", required=True)
    p.add_argument("--store", required=True, help="job store directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8570)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--ttl", type=float, default=None,
                   help="result retention seconds (default unlimited)")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
