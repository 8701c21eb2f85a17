import datetime
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ecann.core import (
    MAX_FUNCTIONS,
    Prediction,
    PredictionSource,
    ProteinRecord,
    LabelDictionary,
    Task,
    format_ec,
    parse_ec,
)
from ecann.metrics import (
    BinaryReport,
    ConfusionCounts,
    Task1Report,
    Task2Report,
    Task3Report,
    _fmt,
    binary_metrics,
    ec_set_confusion,
    evaluate_task,
    format_report_table,
    load_external_predictions,
    macro_metrics,
    micro_ec_f1,
    report_to_tsv,
    write_predictions_tsv,
)


def oracle_binary(c: ConfusionCounts) -> BinaryReport:
    """Independent re-derivation of the five metrics with exact rationals."""

    def ratio(num, den):
        return None if den == 0 else Fraction(num, den)

    acc = ratio(c.tp + c.tn, c.tp + c.fp + c.tn + c.fn + c.up + c.un)
    ppv = ratio(c.tp, c.tp + c.fp)
    npv = ratio(c.tn, c.tn + c.fn)
    recall = ratio(c.tp, c.tp + c.fn + c.up)
    if ppv is None or recall is None or ppv + recall == 0:
        f1 = None
    else:
        f1 = 2 * ppv * recall / (ppv + recall)
    as_float = lambda v: None if v is None else float(v)
    return BinaryReport(as_float(acc), as_float(ppv), as_float(npv), as_float(recall), as_float(f1))


class TestBinaryMetrics:
    def test_published_enzyme_detection_row(self):
        # Integrated-framework confusion counts from the reference
        # benchmark; the derived metrics are fixed to four decimals.
        rep = binary_metrics(ConfusionCounts(tp=3185, fp=159, tn=4295, fn=394, up=0, un=0))
        assert rep.acc == pytest.approx(0.9312, abs=1e-4)
        assert rep.ppv == pytest.approx(0.9525, abs=1e-4)
        assert rep.npv == pytest.approx(0.9160, abs=1e-4)
        assert rep.recall == pytest.approx(0.8899, abs=1e-4)
        assert rep.f1 == pytest.approx(0.9201, abs=1e-4)

    def test_published_knn_detection_row(self):
        rep = binary_metrics(ConfusionCounts(tp=2962, fp=192, tn=3605, fn=342, up=0, un=0))
        assert rep.acc == pytest.approx(0.9248, abs=1e-4)
        assert rep.ppv == pytest.approx(0.9391, abs=1e-4)
        assert rep.npv == pytest.approx(0.9134, abs=1e-4)
        assert rep.recall == pytest.approx(0.8965, abs=1e-4)
        assert rep.f1 == pytest.approx(0.9173, abs=1e-4)

    def test_abstentions_hit_accuracy_and_recall_only(self):
        with_up = binary_metrics(ConfusionCounts(tp=8, fp=2, tn=5, fn=1, up=4, un=0))
        assert with_up.ppv == pytest.approx(0.8)  # 8 / 10, unaffected by up
        assert with_up.recall == pytest.approx(8 / 13)  # up joins the denominator
        assert with_up.acc == pytest.approx(13 / 20)

    def test_zero_denominators_are_undefined_not_zero(self):
        rep = binary_metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=0, up=0, un=0))
        assert rep.ppv is None
        assert rep.recall is None
        assert rep.f1 is None
        assert rep.npv == pytest.approx(1.0)
        empty = binary_metrics(ConfusionCounts(0, 0, 0, 0, 0, 0))
        assert empty.acc is None

    def test_f1_undefined_when_both_components_zero(self):
        rep = binary_metrics(ConfusionCounts(tp=0, fp=2, tn=1, fn=3, up=0, un=0))
        assert rep.ppv == 0.0 and rep.recall == 0.0
        assert rep.f1 is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


@given(
    st.builds(
        ConfusionCounts,
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        tn=st.integers(0, 500),
        fn=st.integers(0, 500),
        up=st.integers(0, 100),
        un=st.integers(0, 100),
    )
)
def test_binary_metrics_match_rational_oracle(counts):
    got = binary_metrics(counts)
    want = oracle_binary(counts)
    for name in ("acc", "ppv", "npv", "recall", "f1"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None
        else:
            assert g == pytest.approx(w, abs=1e-12)
        if g is not None:
            assert 0.0 <= g <= 1.0


class TestMacroMetrics:
    def test_unweighted_mean(self):
        per_class = {
            "a": ConfusionCounts(tp=9, fp=1, tn=10, fn=0),
            "b": ConfusionCounts(tp=1, fp=9, tn=10, fn=0),
        }
        rep = macro_metrics(per_class)
        assert rep.m_ppv == pytest.approx((0.9 + 0.1) / 2)
        assert rep.m_recall == pytest.approx(1.0)

    def test_undefined_class_contributes_zero_but_is_counted(self):
        per_class = {
            "seen": ConfusionCounts(tp=10, fp=0, tn=10, fn=0),
            "ghost": ConfusionCounts(tp=0, fp=0, tn=20, fn=0),  # never predicted nor gold
        }
        rep = macro_metrics(per_class)
        assert rep.m_ppv == pytest.approx(0.5)  # (1.0 + 0) / 2
        assert rep.m_f1_perclass == pytest.approx(0.5)
        assert rep.n_undefined == 3  # ghost's ppv, recall, f1

    def test_two_f1_flavours_differ_and_are_both_reported(self):
        per_class = {
            "a": ConfusionCounts(tp=10, fp=0, tn=5, fn=0),
            "b": ConfusionCounts(tp=1, fp=9, tn=5, fn=0),
        }
        rep = macro_metrics(per_class)
        per_f1 = [binary_metrics(c).f1 for c in per_class.values()]
        assert rep.m_f1_perclass == pytest.approx(sum(per_f1) / 2)
        expected_harmonic = 2 * rep.m_ppv * rep.m_recall / (rep.m_ppv + rep.m_recall)
        assert rep.m_f1_harmonic == pytest.approx(expected_harmonic)
        assert rep.m_f1_perclass != pytest.approx(rep.m_f1_harmonic)

    def test_empty_mapping(self):
        rep = macro_metrics({})
        assert rep.m_f1_perclass is None
        assert rep.classes == ()


# --------------------------------------------------------------------------
# Task evaluation fixtures


def record(rec_id, ecs=(), is_enzyme=None, seq="MKVL"):
    if is_enzyme is None:
        is_enzyme = bool(ecs)
    return ProteinRecord(
        id=rec_id,
        name=rec_id,
        seq=seq,
        is_enzyme=is_enzyme,
        ecs=tuple(parse_ec(e) for e in ecs),
        date_integrated=datetime.date(2018, 1, 1),
        date_sequence_update=datetime.date(2018, 1, 1),
    )


def prediction(rec_id, ecs=(), is_enzyme=True, scores=None, source=PredictionSource.AGENTS):
    parsed = [parse_ec(e) for e in ecs]
    if scores is None:
        scores = [1.0] * len(parsed)
    return Prediction(
        id=rec_id,
        is_enzyme=is_enzyme,
        ranked_ecs=tuple(zip(parsed, scores)),
        source=source,
    )


class TestEnzymeTask:
    def test_counts_and_abstentions(self):
        gold = [
            record("A", ecs=("1.1.1.1",)),
            record("B", ecs=("2.1.1.1",)),
            record("C"),
            record("D"),
            record("E", ecs=("1.1.1.1",)),
        ]
        preds = [
            prediction("A", ecs=("1.1.1.1",)),              # tp
            prediction("B", is_enzyme=False),                 # fn
            prediction("C", ecs=("1.1.1.1",)),              # fp
            prediction("D", is_enzyme=False),                 # tn
            Prediction("E", None, (), PredictionSource.EXTERNAL),  # up
        ]
        rep = evaluate_task(preds, gold, Task.ENZYME)
        assert (rep.counts.tp, rep.counts.fp, rep.counts.tn, rep.counts.fn) == (1, 1, 1, 1)
        assert rep.counts.up == 1 and rep.counts.un == 0

    def test_id_mismatch_raises(self):
        gold = [record("A", ecs=("1.1.1.1",))]
        with pytest.raises(ValueError, match="mismatch"):
            evaluate_task([prediction("Z", ecs=("1.1.1.1",))], gold, Task.ENZYME)

    def test_order_invariance(self):
        gold = [record("A", ecs=("1.1.1.1",)), record("B")]
        preds = [prediction("B", is_enzyme=False), prediction("A", ecs=("1.1.1.1",))]
        rep = evaluate_task(preds, gold, Task.ENZYME)
        assert rep.counts.tp == 1 and rep.counts.tn == 1


class TestFunctionCountTask:
    def test_macro_over_observed_counts(self):
        gold = [
            record("A", ecs=("1.1.1.1",)),
            record("B", ecs=("1.1.1.1", "2.1.1.1")),
            record("C"),  # non-enzyme: ignored for this task
        ]
        preds = [
            prediction("A", ecs=("1.1.1.1",)),
            prediction("B", ecs=("1.1.1.1",)),  # says 1, truth 2
            prediction("C", is_enzyme=False),
        ]
        rep = evaluate_task(preds, gold, Task.FUNCTION_COUNT)
        assert rep.n_records == 2
        assert set(rep.macro.classes) == {"1", "2"}
        counts_1 = rep.macro.per_class["1"][0]
        assert (counts_1.tp, counts_1.fp, counts_1.fn, counts_1.tn) == (1, 1, 0, 0)
        counts_2 = rep.macro.per_class["2"][0]
        assert (counts_2.tp, counts_2.fp, counts_2.fn, counts_2.tn) == (0, 0, 1, 1)

    def test_non_enzyme_claim_counts_against_every_class(self):
        gold = [record("A", ecs=("1.1.1.1",))]
        preds = [prediction("A", is_enzyme=False)]
        rep = evaluate_task(preds, gold, Task.FUNCTION_COUNT)
        counts_1 = rep.macro.per_class["1"][0]
        assert counts_1.fn == 1 and counts_1.tp == 0


class TestEcTask:
    def make_dict(self):
        return LabelDictionary([parse_ec("1.1.1.1"), parse_ec("2.1.1.1"), parse_ec("1.14.-.-")])

    def test_exact_match_micro_accuracy(self):
        gold = [
            record("A", ecs=("1.1.1.1",)),
            record("B", ecs=("1.1.1.1", "2.1.1.1")),
        ]
        preds = [
            prediction("A", ecs=("1.1.1.1",)),
            prediction("B", ecs=("1.1.1.1",)),  # partial: set inequality
        ]
        rep = evaluate_task(preds, gold, Task.EC_NUMBER, label_dict=self.make_dict())
        assert rep.micro_accuracy == pytest.approx(0.5)
        # Per-EC macro still gives B credit for 1.1.1.1.
        counts = rep.macro.per_class["1.1.1.1"][0]
        assert counts.tp == 2

    def test_unseen_gold_labels_excluded(self):
        gold = [
            record("A", ecs=("1.1.1.1",)),
            record("B", ecs=("6.1.1.3",)),  # not in training dictionary
        ]
        preds = [prediction("A", ecs=("1.1.1.1",)), prediction("B", ecs=("1.1.1.1",))]
        rep = evaluate_task(preds, gold, Task.EC_NUMBER, label_dict=self.make_dict())
        assert rep.n_included == 1
        assert rep.n_excluded == 1
        assert rep.micro_accuracy == pytest.approx(1.0)

    def test_incomplete_ec_is_a_real_class(self):
        gold = [record("A", ecs=("1.14.-.-",))]
        preds = [prediction("A", ecs=("1.14.-.-",))]
        rep = evaluate_task(preds, gold, Task.EC_NUMBER, label_dict=self.make_dict())
        assert rep.micro_accuracy == pytest.approx(1.0)
        assert "1.14.-.-" in rep.macro.classes

    def test_near_miss_on_last_level_scores_zero(self):
        gold = [record("A", ecs=("1.1.1.1",))]
        preds = [prediction("A", ecs=("1.1.1.2",))]
        d = LabelDictionary([parse_ec("1.1.1.1"), parse_ec("1.1.1.2")])
        rep = evaluate_task(preds, gold, Task.EC_NUMBER, label_dict=d)
        assert rep.micro_accuracy == 0.0

    def test_abstention_becomes_up(self):
        gold = [record("A", ecs=("1.1.1.1",))]
        preds = [Prediction("A", None, (), PredictionSource.EXTERNAL)]
        rep = evaluate_task(preds, gold, Task.EC_NUMBER, label_dict=self.make_dict())
        counts = rep.macro.per_class["1.1.1.1"][0]
        assert counts.up == 1 and counts.fn == 0
        assert rep.micro_accuracy == 0.0

    def test_label_dict_required(self):
        with pytest.raises(ValueError, match="dictionary"):
            evaluate_task([], [], Task.EC_NUMBER)

    def test_duplicate_prediction_ids_rejected(self):
        gold = [record("A", ecs=("1.1.1.1",))]
        preds = [prediction("A", ecs=("1.1.1.1",)), prediction("A", ecs=("2.1.1.1",))]
        with pytest.raises(ValueError, match=r"duplicate prediction ids \(e\.g\. 'A'\)"):
            evaluate_task(preds, gold, Task.EC_NUMBER, label_dict=self.make_dict())


class TestMicroEcF1:
    def test_counts(self):
        gold = [record("A", ecs=("1.1.1.1", "2.1.1.1")), record("B")]
        preds = [prediction("A", ecs=("1.1.1.1", "3.1.1.1")), prediction("B", ecs=("1.1.1.1",))]
        tp, fp, fn = ec_set_confusion(preds, gold)
        assert (tp, fp, fn) == (1, 2, 1)
        assert micro_ec_f1(preds, gold) == pytest.approx(2 * 1 / (2 * 1 + 2 + 1))

    def test_empty_everything_scores_zero(self):
        gold = [record("B")]
        preds = [prediction("B", is_enzyme=False)]
        assert micro_ec_f1(preds, gold) == 0.0


class TestPredictionIo:
    def test_round_trip_through_own_writer(self, tmp_path):
        preds = [
            prediction("A", ecs=("1.1.1.1", "2.1.1.1"), scores=[0.9, 0.4]),
            prediction("B", is_enzyme=False),
            Prediction("C", None, (), PredictionSource.EXTERNAL),
        ]
        path = tmp_path / "preds.tsv"
        write_predictions_tsv(preds, path)
        loaded = load_external_predictions(path)
        assert [p.id for p in loaded] == ["A", "B", "C"]
        assert loaded[0].is_enzyme is True
        assert loaded[0].ec_set == {"1.1.1.1", "2.1.1.1"}
        assert loaded[1].is_enzyme is False
        assert loaded[2].is_enzyme is None

    def test_minimal_three_column_format(self, tmp_path):
        path = tmp_path / "tool.tsv"
        path.write_text("P1\t1\t1.1.1.1;2.3.1.41\nP2\t0\t\nP3\t\t\nP4\t\t4.1.1.1\n")
        preds = load_external_predictions(path)
        assert preds[0].ec_set == {"1.1.1.1", "2.3.1.41"}
        assert preds[1].is_enzyme is False
        assert preds[2].is_enzyme is None and preds[2].abstained_on_ec()
        # EC list with blank flag implies an enzyme claim.
        assert preds[3].is_enzyme is True

    def test_repeated_id_names_its_line(self, tmp_path):
        path = tmp_path / "tool.tsv"
        path.write_text("id\tis_enzyme\tecs\nP1\t1\t1.1.1.1\n\nP2\t0\t\nP1\t0\t\n")
        with pytest.raises(ValueError, match=f"{path}:5: duplicate id 'P1'"):  # blanks count
            load_external_predictions(path)

    def test_contradictory_row_rejected(self, tmp_path):
        path = tmp_path / "tool.tsv"
        path.write_text("P1\t0\t1.1.1.1\n")
        with pytest.raises(ValueError, match="non-enzyme"):
            load_external_predictions(path)

    def test_enzyme_claim_without_ecs_abstains_on_ec_only(self, tmp_path):
        path = tmp_path / "tool.tsv"
        path.write_text("P1\t1\t\n")
        pred = load_external_predictions(path)[0]
        assert pred.is_enzyme is True
        assert pred.abstained_on_ec()

    def test_report_renderers(self):
        gold = [record("A", ecs=("1.1.1.1",)), record("B"), record("C", ecs=("2.1.1.1",))]
        preds = [
            prediction("A", ecs=("1.1.1.1",)),
            prediction("B", ecs=("2.1.1.1",)),
            Prediction("C", None, (), PredictionSource.EXTERNAL),
        ]
        rep = evaluate_task(preds, gold, Task.ENZYME)
        assert report_to_tsv(rep) == (
            "task\tenzyme-or-not\nn_records\t3\ntp\t1\nfp\t1\ntn\t0\nfn\t0\nup\t1\n"
            "un\t0\nacc\t0.3333\nppv\t0.5000\nnpv\tundefined\nrecall\t0.5000\nf1\t0.5000\n"
        )
        assert format_report_table(rep).splitlines()[:3] == [
            "task       enzyme-or-not", "n_records  3", "tp         1",
        ]


@given(st.data())
def test_evaluation_is_permutation_invariant(data):
    n = data.draw(st.integers(2, 8))
    gold = []
    preds = []
    for i in range(n):
        has_ec = data.draw(st.booleans())
        gold.append(record(f"R{i}", ecs=("1.1.1.1",) if has_ec else ()))
        says = data.draw(st.sampled_from(["yes", "no", "abstain"]))
        if says == "yes":
            preds.append(prediction(f"R{i}", ecs=("1.1.1.1",)))
        elif says == "no":
            preds.append(prediction(f"R{i}", is_enzyme=False))
        else:
            preds.append(Prediction(f"R{i}", None, (), PredictionSource.EXTERNAL))
    base = evaluate_task(preds, gold, Task.ENZYME)
    perm = data.draw(st.permutations(preds))
    shuffled = evaluate_task(list(perm), gold, Task.ENZYME)
    assert shuffled.counts == base.counts


# --------------------------------------------------------------------------
# Parity with the per-task confusion loops that preceded ``_confusion``.
# The code of the functions below is kept verbatim (names prefixed, long
# docstrings dropped) as the oracle for the task evaluators and the
# per-class report rows.


def oracle_pair_by_id(predictions, gold):
    by_id = {p.id: p for p in predictions}
    if len(by_id) != len(predictions):
        raise ValueError("duplicate prediction ids")
    gold_ids = {g.id for g in gold}
    missing = sorted(gold_ids - by_id.keys())
    extra = sorted(by_id.keys() - gold_ids)
    if missing or extra:
        raise ValueError(
            f"prediction/gold id mismatch: {len(missing)} gold ids without "
            f"predictions (e.g. {missing[:3]}), {len(extra)} predictions "
            f"without gold (e.g. {extra[:3]})"
        )
    return [(by_id[g.id], g) for g in gold]


def oracle_count_of(pred):
    """Predicted function count; None when the tool abstained."""
    if pred.is_enzyme is None:
        return None
    if pred.is_enzyme is False:
        return 0
    return pred.function_count


def oracle_evaluate_enzyme_task(predictions, gold):
    """Binary enzyme-or-not evaluation over all gold records."""
    pairs = oracle_pair_by_id(predictions, gold)
    tp = fp = tn = fn = up = un = 0
    for pred, rec in pairs:
        if pred.is_enzyme is None:
            if rec.is_enzyme:
                up += 1
            else:
                un += 1
        elif pred.is_enzyme and rec.is_enzyme:
            tp += 1
        elif pred.is_enzyme and not rec.is_enzyme:
            fp += 1
        elif not pred.is_enzyme and rec.is_enzyme:
            fn += 1
        else:
            tn += 1
    counts = ConfusionCounts(tp, fp, tn, fn, up, un)
    return Task1Report(counts=counts, metrics=binary_metrics(counts), n_records=len(pairs))


def oracle_evaluate_function_count_task(predictions, gold):
    pairs = [(p, g) for p, g in oracle_pair_by_id(predictions, gold) if g.is_enzyme]
    observed: set[int] = set()
    for pred, rec in pairs:
        observed.add(rec.function_count)
        predicted = oracle_count_of(pred)
        if predicted is not None and 1 <= predicted <= MAX_FUNCTIONS:
            observed.add(predicted)
    per_class: dict[str, ConfusionCounts] = {}
    for cls in sorted(observed):
        tp = fp = tn = fn = up = un = 0
        for pred, rec in pairs:
            gold_has = rec.function_count == cls
            predicted = oracle_count_of(pred)
            if predicted is None:
                if gold_has:
                    up += 1
                else:
                    un += 1
            elif predicted == cls and gold_has:
                tp += 1
            elif predicted == cls:
                fp += 1
            elif gold_has:
                fn += 1
            else:
                tn += 1
        per_class[str(cls)] = ConfusionCounts(tp, fp, tn, fn, up, un)
    return Task2Report(macro=macro_metrics(per_class), n_records=len(pairs))


def oracle_ec_set_confusion(predictions, gold):
    tp = fp = fn = 0
    for pred, rec in oracle_pair_by_id(predictions, gold):
        gold_set = {format_ec(ec) for ec in rec.ecs}
        pred_set = set() if pred.is_enzyme is None else set(pred.ec_set)
        tp += len(pred_set & gold_set)
        fp += len(pred_set - gold_set)
        fn += len(gold_set - pred_set)
    return tp, fp, fn


def oracle_micro_ec_f1(predictions, gold):
    """Micro-F1 over exact EC matches; 0.0 when nothing is predicted or gold."""
    tp, fp, fn = oracle_ec_set_confusion(predictions, gold)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def oracle_evaluate_ec_task(predictions, gold, label_dict):
    enzyme_gold = [g for g in gold if g.is_enzyme]
    included = [g for g in enzyme_gold if all(ec in label_dict for ec in g.ecs)]
    n_excluded = len(enzyme_gold) - len(included)
    preds_by_id = {p.id: p for p in predictions}
    missing = [g.id for g in included if g.id not in preds_by_id]
    if missing:
        raise ValueError(f"no prediction for gold ids (e.g. {missing[:3]})")
    pairs = [(preds_by_id[g.id], g) for g in included]

    n_correct = 0
    classes: set[str] = set()
    for pred, rec in pairs:
        gold_set = {format_ec(ec) for ec in rec.ecs}
        classes.update(gold_set)
        if not pred.abstained_on_ec():
            classes.update(pred.ec_set)
            if set(pred.ec_set) == gold_set:
                n_correct += 1
    per_class: dict[str, ConfusionCounts] = {}
    for cls in sorted(classes):
        tp = fp = tn = fn = up = un = 0
        for pred, rec in pairs:
            gold_has = any(format_ec(ec) == cls for ec in rec.ecs)
            if pred.abstained_on_ec():
                if gold_has:
                    up += 1
                else:
                    un += 1
                continue
            pred_has = cls in pred.ec_set
            if pred_has and gold_has:
                tp += 1
            elif pred_has:
                fp += 1
            elif gold_has:
                fn += 1
            else:
                tn += 1
        per_class[cls] = ConfusionCounts(tp, fp, tn, fn, up, un)

    included_preds = [p for p, _ in pairs]
    micro_acc = None if not pairs else n_correct / len(pairs)
    micro = oracle_micro_ec_f1(included_preds, included) if pairs else None
    return Task3Report(
        macro=macro_metrics(per_class),
        micro_accuracy=micro_acc,
        micro_f1=micro,
        n_included=len(pairs),
        n_excluded=n_excluded,
    )


def oracle_report_to_tsv(report):
    lines = [f"{name}\t{_fmt(value)}" for name, value in report.rows()]
    macro = getattr(report, "macro", None)
    if macro is not None:
        lines.append("")
        lines.append("class\ttp\tfp\ttn\tfn\tup\tun\tppv\trecall\tf1")
        for cls in macro.classes:
            counts, rep = macro.per_class[cls]
            lines.append(
                "\t".join(
                    [
                        cls,
                        str(counts.tp),
                        str(counts.fp),
                        str(counts.tn),
                        str(counts.fn),
                        str(counts.up),
                        str(counts.un),
                        _fmt(rep.ppv),
                        _fmt(rep.recall),
                        _fmt(rep.f1),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


# More ECs than MAX_FUNCTIONS, so a claim can name a count no gold record has;
# incomplete codes are classes of their own.
EC_POOL = (
    "1.1.1.1", "1.1.1.2", "2.1.1.1", "2.3.1.41", "1.14.-.-",
    "1.14.11.38", "3.5.2.-", "4.1.1.1", "6.1.1.3", "7.-.-.-",
)


@st.composite
def evaluation_cases(draw):
    """Shuffled predictions, gold records, predictions without gold, a dictionary.

    Gold mixes enzymes and non-enzymes; predictions mix abstentions,
    non-enzyme claims, enzyme claims without ECs and EC lists; the
    dictionary may miss gold labels.
    """
    gold, preds = [], []
    for i in range(draw(st.integers(0, 12))):
        rid = f"R{i}"
        gold.append(record(rid, ecs=draw(
            st.lists(st.sampled_from(EC_POOL), max_size=MAX_FUNCTIONS, unique=True))))
        kind = draw(st.sampled_from(["abstain", "non-enzyme", "enzyme-only", "ecs"]))
        if kind == "abstain":
            preds.append(Prediction(rid, None, (), PredictionSource.EXTERNAL))
        elif kind == "non-enzyme":
            preds.append(prediction(rid, is_enzyme=False))
        elif kind == "enzyme-only":
            preds.append(prediction(rid))
        else:
            ecs = draw(st.lists(st.sampled_from(EC_POOL), min_size=1, unique=True))
            scores = draw(st.lists(st.floats(0, 1), min_size=len(ecs), max_size=len(ecs)))
            preds.append(prediction(rid, ecs=ecs, scores=sorted(scores, reverse=True)))
    extras = [prediction(f"X{j}", ecs=(EC_POOL[j],)) for j in range(draw(st.integers(0, 2)))]
    known = draw(st.lists(st.sampled_from(EC_POOL), unique=True))
    label_dict = LabelDictionary([parse_ec(e) for e in known])
    return list(draw(st.permutations(preds))), gold, extras, label_dict


@given(evaluation_cases())
def test_task_reports_match_the_oracle_byte_for_byte(case):
    preds, gold, extras, label_dict = case
    reports = [
        (evaluate_task(preds, gold, Task.ENZYME), oracle_evaluate_enzyme_task(preds, gold)),
        (evaluate_task(preds, gold, Task.FUNCTION_COUNT),
         oracle_evaluate_function_count_task(preds, gold)),
        (evaluate_task(preds + extras, gold, Task.EC_NUMBER, label_dict),
         oracle_evaluate_ec_task(preds + extras, gold, label_dict)),
    ]
    for new, old in reports:
        assert new == old
        assert report_to_tsv(new) == oracle_report_to_tsv(old)
        assert format_report_table(new) == format_report_table(old)
    assert ec_set_confusion(preds, gold) == oracle_ec_set_confusion(preds, gold)
    assert micro_ec_f1(preds, gold) == oracle_micro_ec_f1(preds, gold)
