"""Command-line workflow tests: each subcommand plus determinism checks."""

import json
from pathlib import Path

import numpy as np
import pytest

from ecann.bundle import BundleParams, train_bundle
from ecann.cli import EXIT_ERROR, EXIT_OK, EXIT_ROW_FAILURES, main
from ecann.core import Prediction, PredictionSource
from ecann.dataset import parse_flatfile, write_flatfile
from ecann.demo import make_demo_records, make_demo_snapshots
from ecann.embedding import EmbeddingTable, load_embedding_table, save_embedding_table_tsv
from ecann.metrics import write_predictions_tsv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FAST_TRAIN_FLAGS = [
    "--max-len", "192",
    "--gbdt-rounds", "20", "--gbdt-depth", "3", "--gbdt-min-child", "0.5",
    "--svm-max-iter", "300", "--negative-budget", "60", "--shortlist", "60",
]


@pytest.fixture(scope="module")
def flatfiles(tmp_path_factory):
    root = tmp_path_factory.mktemp("flat")
    earlier_raw, later_raw = make_demo_records(seed=3, n_families=14)
    write_flatfile(earlier_raw, root / "earlier.tsv")
    write_flatfile(later_raw, root / "later.tsv")
    return root / "earlier.tsv", root / "later.tsv"


@pytest.fixture(scope="module")
def prepared(flatfiles, tmp_path_factory):
    earlier, later = flatfiles
    run = tmp_path_factory.mktemp("runs") / "prep"
    code = main([
        "prepare-dataset", "--earlier", str(earlier), "--later", str(later),
        "--earlier-date", "2018-01-01", "--later-date", "2020-06-01",
        "--out", str(run),
    ])
    assert code == EXIT_OK
    return run


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    run = tmp_path_factory.mktemp("runs") / "train"
    code = main([
        "train", "--train", str(prepared / "enzyme-or-not.train.tsv"),
        "--out", str(run), *FAST_TRAIN_FLAGS,
    ])
    assert code == EXIT_OK
    return run / "bundle"


def _write_fasta(path, records):
    path.write_text(
        "".join(f">{rec.id}\n{rec.seq}\n" for rec in records), encoding="utf-8"
    )


class TestPrepare:
    def test_outputs_and_report(self, prepared):
        for task in ("enzyme-or-not", "function-count", "ec-number"):
            assert (prepared / f"{task}.train.tsv").is_file()
            assert (prepared / f"{task}.test.tsv").is_file()
        report = json.loads((prepared / "report.json").read_text())
        partition = {int(k): v for k, v in report["function_count_partition"].items()}
        earlier_clean = report["snapshots"]["earlier"]["n_clean"]
        train, _ = parse_flatfile(prepared / "enzyme-or-not.train.tsv")
        assert len(train) == earlier_clean
        assert sum(partition.values()) == sum(1 for r in train if r.is_enzyme)

    def test_rerun_reproduces_every_artifact(self, flatfiles, prepared, tmp_path):
        earlier, later = flatfiles
        again = tmp_path / "prep2"
        code = main([
            "prepare", "--earlier", str(earlier), "--later", str(later),
            "--earlier-date", "2018-01-01", "--later-date", "2020-06-01",
            "--out", str(again),
        ])
        assert code == EXIT_OK
        for path in sorted(prepared.iterdir()):
            assert (again / path.name).read_bytes() == path.read_bytes(), path.name

    def test_missing_input_is_a_clean_error(self, tmp_path):
        code = main([
            "prepare-dataset", "--earlier", str(tmp_path / "nope.tsv"),
            "--later", str(tmp_path / "nope.tsv"),
            "--earlier-date", "2018-01-01", "--later-date", "2020-06-01",
            "--out", str(tmp_path / "run"),
        ])
        assert code == EXIT_ERROR


class TestEmbed:
    def test_one_hot_round_trip(self, prepared, tmp_path):
        run = tmp_path / "emb"
        code = main([
            "embed", "--records", str(prepared / "enzyme-or-not.train.tsv"),
            "--max-len", "128", "--out", str(run),
        ])
        assert code == EXIT_OK
        table = load_embedding_table(run / "embeddings.bin")
        assert table.tag == "one-hot"
        assert table.dim == 25 * 128
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["params"]["max_len"] == 128
        assert set(manifest["inputs"]) == {"records"}

    def test_tsv_import(self, tmp_path):
        src = tmp_path / "ext.tsv"
        src.write_text("a\t1.0\t2.0\nb\t3.0\t4.0\n")
        run = tmp_path / "emb"
        code = main(["embed", "--table", str(src), "--tag", "external-x",
                     "--out", str(run)])
        assert code == EXIT_OK
        table = load_embedding_table(run / "embeddings.bin")
        assert table.tag == "external-x" and table.dim == 2


class TestTrainPredict:
    def test_bundle_manifest_written(self, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["format"] == "ec-annotation-bundle"
        run_manifest = json.loads((trained.parent / "manifest.json").read_text())
        assert run_manifest["command"] == "train"
        assert "sha256" in run_manifest["inputs"]["train"]

    def test_self_predict_transfers_labels(self, prepared, trained, tmp_path):
        records, _ = parse_flatfile(prepared / "enzyme-or-not.train.tsv")
        fasta = tmp_path / "q.fasta"
        _write_fasta(fasta, records[:8])
        out = tmp_path / "pred.tsv"
        code = main(["predict", "--bundle", str(trained), "--fasta", str(fasta),
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "id\tis_enzyme\tfunction_count\tecs\tscores\tsource"
        assert len(lines) == 9
        for rec, line in zip(records[:8], lines[1:]):
            cells = line.split("\t")
            assert cells[0] == rec.id
            assert cells[5] == "alignment"
            assert cells[1] == ("1" if rec.is_enzyme else "0")

    def test_predict_is_deterministic(self, prepared, trained, tmp_path):
        records, _ = parse_flatfile(prepared / "enzyme-or-not.train.tsv")
        fasta = tmp_path / "q.fasta"
        _write_fasta(fasta, records[:5])
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["predict", "--bundle", str(trained), "--fasta", str(fasta),
                     "--out", str(out1)]) == EXIT_OK
        assert main(["predict", "--bundle", str(trained), "--fasta", str(fasta),
                     "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_fasta_gives_header_only_and_exit_zero(self, trained, tmp_path):
        fasta = tmp_path / "empty.fasta"
        fasta.write_text("")
        out = tmp_path / "pred.tsv"
        code = main(["predict", "--bundle", str(trained), "--fasta", str(fasta),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == "id\tis_enzyme\tfunction_count\tecs\tscores\tsource\n"

    def test_recommendation_mode_flag(self, prepared, trained, tmp_path):
        records, _ = parse_flatfile(prepared / "enzyme-or-not.train.tsv")
        enzyme = next(r for r in records if r.is_enzyme)
        fasta = tmp_path / "q.fasta"
        _write_fasta(fasta, [enzyme])
        out = tmp_path / "pred.tsv"
        assert main(["predict", "--bundle", str(trained), "--fasta", str(fasta),
                     "--mode", "recommendation", "--out", str(out)]) == EXIT_OK
        row = out.read_text().splitlines()[1].split("\t")
        assert 1 <= len(row[3].split(";")) <= 20

    def test_missing_external_vector_fails_that_row_only(self, tmp_path):
        earlier, _ = make_demo_snapshots(seed=3, n_families=10)
        records = earlier.records
        rng = np.random.default_rng(0)
        table = EmbeddingTable(
            tag="external-x", dim=6,
            vectors={rec.id: rng.normal(size=6) for rec in records},
        )
        from ecann.agents import CountModelParams, EcRankerParams
        from ecann.gbdt import GbdtParams

        fast_gbdt = GbdtParams(n_estimators=20, max_depth=3,
                               min_child_weight=0.5, subsample=1.0)
        params = BundleParams(
            counts=CountModelParams(sp=fast_gbdt, mp=fast_gbdt),
            ranker=EcRankerParams(negative_budget=30, shortlist_size=30,
                                  svm_max_iter=200),
        )
        annotator, _ = train_bundle(records, params, table=table)
        bundle_dir = tmp_path / "bundle"
        annotator.save(bundle_dir)
        vectors_tsv = tmp_path / "vectors.tsv"
        known = {rec.id: table.get(rec.id) for rec in records[:2]}
        save_embedding_table_tsv(
            EmbeddingTable(tag="external-x", dim=6, vectors=known), vectors_tsv
        )
        fasta = tmp_path / "q.fasta"
        _write_fasta(fasta, records[:3])  # third id has no vector
        out = tmp_path / "pred.tsv"
        code = main(["predict", "--bundle", str(bundle_dir), "--fasta", str(fasta),
                     "--vectors", str(vectors_tsv), "--out", str(out)])
        assert code == EXIT_ROW_FAILURES
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[3].split("\t")[5].startswith("error:")
        assert lines[1].split("\t")[5] in {"alignment", "agents"}


class TestEvaluate:
    def test_counts_fixture_prints_published_rows(self, capsys):
        code = main(["evaluate", "--counts", str(FIXTURES / "published_counts.tsv")])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "name\tacc\tppv\tnpv\trecall\tf1"
        assert out[1] == "ours\t0.9312\t0.9525\t0.9160\t0.8899\t0.9201"
        assert out[2] == "knn-baseline\t0.9248\t0.9391\t0.9134\t0.8965\t0.9173"

    def test_task_gate_passes_on_perfect_predictions(self, prepared, tmp_path):
        gold_path = prepared / "enzyme-or-not.test.tsv"
        gold, _ = parse_flatfile(gold_path)
        preds = [
            Prediction(id=rec.id, is_enzyme=rec.is_enzyme,
                       ranked_ecs=tuple((ec, 1.0) for ec in rec.ecs),
                       source=PredictionSource.EXTERNAL)
            for rec in gold
        ]
        pred_path = tmp_path / "pred.tsv"
        write_predictions_tsv(preds, pred_path)
        code = main(["evaluate", "--task", "enzyme-or-not",
                     "--pred", str(pred_path), "--gold", str(gold_path),
                     "--min-f1", "0.999", "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        assert (tmp_path / "run" / "report.tsv").is_file()

    def test_task_gate_fails_on_flipped_predictions(self, prepared, tmp_path):
        gold_path = prepared / "enzyme-or-not.test.tsv"
        gold, _ = parse_flatfile(gold_path)
        preds = [
            Prediction(id=rec.id, is_enzyme=not rec.is_enzyme, ranked_ecs=(),
                       source=PredictionSource.EXTERNAL)
            for rec in gold
        ]
        pred_path = tmp_path / "pred.tsv"
        write_predictions_tsv(preds, pred_path)
        code = main(["evaluate", "--task", "enzyme-or-not",
                     "--pred", str(pred_path), "--gold", str(gold_path),
                     "--min-f1", "0.5"])
        assert code == EXIT_ERROR

    def test_repeated_prediction_id_fails_naming_id_and_line(self, prepared, tmp_path, capsys):
        gold_path = prepared / "enzyme-or-not.test.tsv"
        gold, _ = parse_flatfile(gold_path)
        preds = [Prediction(id=rec.id, is_enzyme=rec.is_enzyme, ranked_ecs=(),
                            source=PredictionSource.EXTERNAL) for rec in gold]
        pred_path = tmp_path / "pred.tsv"
        write_predictions_tsv(preds + preds[:1], pred_path)  # header, then one row a line
        code = main(["evaluate", "--task", "enzyme-or-not",
                     "--pred", str(pred_path), "--gold", str(gold_path)])
        assert code == EXIT_ERROR
        line = len(preds) + 2
        assert f"{pred_path}:{line}: duplicate id {gold[0].id!r}" in capsys.readouterr().err

    def test_ec_task_requires_train_flag(self, prepared, tmp_path):
        pred_path = tmp_path / "pred.tsv"
        write_predictions_tsv([], pred_path)
        with pytest.raises(SystemExit):
            main(["evaluate", "--task", "ec-number", "--pred", str(pred_path),
                  "--gold", str(prepared / "ec-number.test.tsv")])


class TestTune:
    def test_tune_writes_policy_and_scoreboard(self, prepared, trained, tmp_path):
        run = tmp_path / "tune"
        code = main([
            "tune", "--bundle", str(trained),
            "--validation", str(prepared / "enzyme-or-not.test.tsv"),
            "--identities", "0.4,0.9", "--thresholds", "0.5",
            "--out", str(run),
        ])
        assert code == EXIT_OK
        policy = json.loads((run / "policy.json").read_text())
        assert set(policy) == {"alignment_min_identity", "precedence",
                               "agent1_threshold", "use_count_hint"}
        board = (run / "scoreboard.tsv").read_text().splitlines()
        assert board[0].startswith("alignment_min_identity")
        assert len(board) == 1 + 2 * 1 * 4  # identities x thresholds x precedences

    def test_vector_table_missing_a_validation_id_is_an_error(
        self, prepared, trained, tmp_path, capsys
    ):
        validation = prepared / "enzyme-or-not.test.tsv"
        first = parse_flatfile(validation)[0][0].id
        vectors_tsv = tmp_path / "vectors.tsv"
        vectors_tsv.write_text("unrelated\t0.0\t1.0\n", encoding="utf-8")
        code = main([
            "tune", "--bundle", str(trained), "--validation", str(validation),
            "--vectors", str(vectors_tsv), "--out", str(tmp_path / "tune"),
        ])
        assert code == EXIT_ERROR
        assert f"error: record {first!r} has no vector" in capsys.readouterr().err
