"""Confusion-count metrics and task-level evaluation.

The confusion vocabulary has six cells.  Besides the usual four, UP and
UN count gold-positive and gold-negative queries on which a tool made
no call at all; abstentions lower accuracy and recall but never count
against precision.  ``_confusion`` applies this rule to one (claim,
truth) pair per record; ``_one_vs_rest`` applies it to every class of
a task in one pass over the records' claimed and gold sets.  Metrics
with a zero denominator are reported as an explicit undefined marker
(``None``), never silently as zero; macro averages treat undefined
per-class values as zero contributions while keeping the class in the
denominator.

Two macro-F1 flavours are reported side by side because they genuinely
differ: ``m_f1_perclass`` averages per-class F1 scores, while
``m_f1_harmonic`` is the harmonic mean of macro-precision and
macro-recall.  Published comparison tables usually show the per-class
average, which is the smaller of the two on imbalanced label sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .core import (
    ECNumber,
    LabelDictionary,
    MAX_FUNCTIONS,
    Prediction,
    PredictionSource,
    ProteinRecord,
    Task,
    format_ec,
    format_ec_list,
    parse_ec_list,
)

UNDEFINED = "undefined"  # rendering of None metric values in reports

CELLS = ("tp", "fp", "tn", "fn", "up", "un")


@dataclass(frozen=True)
class ConfusionCounts:
    """Six-cell confusion counts; up/un are abstentions on gold +/-."""

    tp: int
    fp: int
    tn: int
    fn: int
    up: int = 0
    un: int = 0

    def __post_init__(self) -> None:
        for name in CELLS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn + self.up + self.un


def _confusion(calls: Iterable[tuple[Optional[bool], bool]]) -> ConfusionCounts:
    """Six-cell counts from (claim, truth) pairs; a ``None`` claim is an abstention."""
    tally = dict.fromkeys(CELLS, 0)
    for claim, truth in calls:
        if claim is None:
            tally["up" if truth else "un"] += 1
        elif claim:
            tally["tp" if truth else "fp"] += 1
        else:
            tally["fn" if truth else "tn"] += 1
    return ConfusionCounts(**tally)


@dataclass(frozen=True)
class BinaryReport:
    """Point metrics from one set of confusion counts; None = undefined."""

    acc: Optional[float]
    ppv: Optional[float]
    npv: Optional[float]
    recall: Optional[float]
    f1: Optional[float]

    def rows(self) -> list[tuple[str, Optional[float]]]:
        return [
            ("acc", self.acc),
            ("ppv", self.ppv),
            ("npv", self.npv),
            ("recall", self.recall),
            ("f1", self.f1),
        ]


def _ratio(num: int, den: int) -> Optional[float]:
    return None if den == 0 else num / den


def binary_metrics(counts: ConfusionCounts) -> BinaryReport:
    """Accuracy, precision, NPV, recall, F1 from six-cell counts.

    Abstentions land in the denominators of accuracy and recall only.
    """
    acc = _ratio(counts.tp + counts.tn, counts.total)
    ppv = _ratio(counts.tp, counts.tp + counts.fp)
    npv = _ratio(counts.tn, counts.tn + counts.fn)
    recall = _ratio(counts.tp, counts.tp + counts.fn + counts.up)
    if ppv is None or recall is None or ppv + recall == 0:
        f1 = None
    else:
        f1 = 2 * ppv * recall / (ppv + recall)
    return BinaryReport(acc=acc, ppv=ppv, npv=npv, recall=recall, f1=f1)


@dataclass(frozen=True)
class MacroReport:
    """Unweighted averages over per-class binary reports.

    ``n_undefined`` counts (metric, class) pairs whose per-class value
    was undefined and therefore contributed zero to the average.
    """

    classes: tuple[str, ...]
    per_class: Mapping[str, tuple[ConfusionCounts, BinaryReport]]
    m_acc: Optional[float]
    m_ppv: Optional[float]
    m_npv: Optional[float]
    m_recall: Optional[float]
    m_f1_perclass: Optional[float]
    m_f1_harmonic: Optional[float]
    n_undefined: int

    def rows(self) -> list[tuple[str, Optional[float]]]:
        return [
            ("m_acc", self.m_acc),
            ("m_ppv", self.m_ppv),
            ("m_npv", self.m_npv),
            ("m_recall", self.m_recall),
            ("m_f1_perclass", self.m_f1_perclass),
            ("m_f1_harmonic", self.m_f1_harmonic),
        ]


def macro_metrics(per_class: Mapping[str, ConfusionCounts]) -> MacroReport:
    """Average per-class metrics without weighting by class size."""
    classes = tuple(per_class.keys())
    if not classes:
        return MacroReport((), {}, None, None, None, None, None, None, 0)
    detailed = {c: (per_class[c], binary_metrics(per_class[c])) for c in classes}
    sums = {"acc": 0.0, "ppv": 0.0, "npv": 0.0, "recall": 0.0, "f1": 0.0}
    n_undefined = 0
    for _, report in detailed.values():
        for name, value in report.rows():
            if value is None:
                n_undefined += 1
            else:
                sums[name] += value
    k = len(classes)
    m_ppv = sums["ppv"] / k
    m_recall = sums["recall"] / k
    if m_ppv + m_recall == 0:
        harmonic = None
    else:
        harmonic = 2 * m_ppv * m_recall / (m_ppv + m_recall)
    return MacroReport(
        classes=classes,
        per_class=detailed,
        m_acc=sums["acc"] / k,
        m_ppv=m_ppv,
        m_npv=sums["npv"] / k,
        m_recall=m_recall,
        m_f1_perclass=sums["f1"] / k,
        m_f1_harmonic=harmonic,
        n_undefined=n_undefined,
    )


# --------------------------------------------------------------------------
# Task-level evaluation


@dataclass(frozen=True)
class Task1Report:
    counts: ConfusionCounts
    metrics: BinaryReport
    n_records: int

    def rows(self) -> list[tuple[str, object]]:
        head: list[tuple[str, object]] = [
            ("task", Task.ENZYME.value),
            ("n_records", self.n_records),
        ]
        cells = [(name, getattr(self.counts, name)) for name in CELLS]
        return head + cells + list(self.metrics.rows())


@dataclass(frozen=True)
class Task2Report:
    macro: MacroReport
    n_records: int

    def rows(self) -> list[tuple[str, object]]:
        head: list[tuple[str, object]] = [
            ("task", Task.FUNCTION_COUNT.value),
            ("n_records", self.n_records),
            ("n_classes", len(self.macro.classes)),
        ]
        return head + list(self.macro.rows())


@dataclass(frozen=True)
class Task3Report:
    macro: MacroReport
    micro_accuracy: Optional[float]
    micro_f1: Optional[float]
    n_included: int
    n_excluded: int

    def rows(self) -> list[tuple[str, object]]:
        head: list[tuple[str, object]] = [
            ("task", Task.EC_NUMBER.value),
            ("n_included", self.n_included),
            ("n_excluded", self.n_excluded),
            ("n_classes", len(self.macro.classes)),
            ("micro_accuracy", self.micro_accuracy),
            ("micro_f1", self.micro_f1),
        ]
        return head + list(self.macro.rows())


TaskReport = Task1Report | Task2Report | Task3Report


def _by_id(predictions: Sequence[Prediction]) -> dict[str, Prediction]:
    by_id: dict[str, Prediction] = {}
    for pred in predictions:
        if pred.id in by_id:
            raise ValueError(f"duplicate prediction ids (e.g. {pred.id!r})")
        by_id[pred.id] = pred
    return by_id


def _pair_by_id(
    predictions: Sequence[Prediction], gold: Sequence[ProteinRecord]
) -> list[tuple[Prediction, ProteinRecord]]:
    by_id = _by_id(predictions)
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


def _count_of(pred: Prediction) -> Optional[int]:
    """Predicted function count; None when the tool abstained."""
    if pred.is_enzyme is None:
        return None
    if pred.is_enzyme is False:
        return 0
    return pred.function_count


def _gold_ecs(rec: ProteinRecord) -> frozenset[str]:
    return frozenset(format_ec(ec) for ec in rec.ecs)


def _one_vs_rest(
    claims: Sequence[tuple[Optional[AbstractSet], AbstractSet]], classes: Iterable
) -> dict[str, ConfusionCounts]:
    """Per-class counts from (claimed set or None, gold set) per record, in one pass.

    A class's tp, fp, fn and up come from the records whose sets hold it;
    its tn and un are the remaining records that made a claim, or abstained.
    """
    order = sorted(classes)
    cells = {cls: dict.fromkeys(CELLS, 0) for cls in order}
    made = abstained = 0
    for claimed, truth in claims:
        if claimed is None:
            abstained += 1
            for cls in truth & cells.keys():
                cells[cls]["up"] += 1
            continue
        made += 1
        for cls in claimed & cells.keys():
            cells[cls]["tp" if cls in truth else "fp"] += 1
        for cls in (truth - claimed) & cells.keys():
            cells[cls]["fn"] += 1
    for tally in cells.values():
        tally["tn"] = made - tally["tp"] - tally["fp"] - tally["fn"]
        tally["un"] = abstained - tally["up"]
    return {str(cls): ConfusionCounts(**cells[cls]) for cls in order}


def evaluate_enzyme_task(
    predictions: Sequence[Prediction], gold: Sequence[ProteinRecord]
) -> Task1Report:
    """Binary enzyme-or-not evaluation over all gold records."""
    pairs = _pair_by_id(predictions, gold)
    counts = _confusion((pred.is_enzyme, rec.is_enzyme) for pred, rec in pairs)
    return Task1Report(counts=counts, metrics=binary_metrics(counts), n_records=len(pairs))


def evaluate_function_count_task(
    predictions: Sequence[Prediction], gold: Sequence[ProteinRecord]
) -> Task2Report:
    """Macro-averaged one-vs-rest evaluation of the function count.

    Scored over gold enzymes only.  A prediction of "non-enzyme" counts
    as claiming zero functions, which is simply wrong for every class;
    an abstention contributes UP/UN cells instead.
    """
    pairs = [(p, g) for p, g in _pair_by_id(predictions, gold) if g.is_enzyme]
    counts = [(_count_of(pred), rec.function_count) for pred, rec in pairs]
    observed = {truth for _, truth in counts}
    observed.update(c for c, _ in counts if c is not None and 1 <= c <= MAX_FUNCTIONS)
    claims = [(None if c is None else {c}, {truth}) for c, truth in counts]
    return Task2Report(macro=macro_metrics(_one_vs_rest(claims, observed)), n_records=len(pairs))


def _set_confusion(sets: Iterable[tuple[AbstractSet, AbstractSet]]) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for claimed, truth in sets:
        tp += len(claimed & truth)
        fp += len(claimed - truth)
        fn += len(truth - claimed)
    return tp, fp, fn


def _f1_of(tp: int, fp: int, fn: int) -> float:
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def ec_set_confusion(
    predictions: Sequence[Prediction], gold: Sequence[ProteinRecord]
) -> tuple[int, int, int]:
    """Micro (tp, fp, fn) over (record, EC) pairs with exact 4-level match.

    Abstentions are treated as empty predictions here (an abstention
    carries no ECs): every gold EC of an abstained record becomes a
    miss.  Non-enzyme gold records simply contribute false positives
    for any EC claimed on them.
    """
    return _set_confusion(
        (pred.ec_set, _gold_ecs(rec)) for pred, rec in _pair_by_id(predictions, gold)
    )


def micro_ec_f1(
    predictions: Sequence[Prediction], gold: Sequence[ProteinRecord]
) -> float:
    """Micro-F1 over exact EC matches; 0.0 when nothing is predicted or gold."""
    return _f1_of(*ec_set_confusion(predictions, gold))


def evaluate_ec_task(
    predictions: Sequence[Prediction],
    gold: Sequence[ProteinRecord],
    label_dict: LabelDictionary,
) -> Task3Report:
    """EC assignment evaluation over gold enzymes.

    Gold records carrying any EC absent from the training label
    dictionary are excluded up front: no classifier trained on that
    dictionary can ever emit them, so scoring them measures the
    dictionary, not the model.  Micro accuracy requires exact set
    equality of predicted and gold EC sets; the macro table gives
    per-EC credit one class at a time.
    """
    enzyme_gold = [g for g in gold if g.is_enzyme]
    included = [g for g in enzyme_gold if all(ec in label_dict for ec in g.ecs)]
    n_excluded = len(enzyme_gold) - len(included)
    preds_by_id = _by_id(predictions)
    missing = [g.id for g in included if g.id not in preds_by_id]
    if missing:
        raise ValueError(f"no prediction for gold ids (e.g. {missing[:3]})")

    sets, claims = [], []  # (claimed ECs, gold ECs); claims hold None on an abstention
    for rec in included:
        pred, truth = preds_by_id[rec.id], _gold_ecs(rec)
        claimed = pred.ec_set  # empty on an abstention
        sets.append((claimed, truth))
        claims.append((None if pred.abstained_on_ec() else claimed, truth))
    classes = set().union(*(claimed | truth for claimed, truth in sets))
    n_correct = sum(claimed == truth for claimed, truth in sets)
    return Task3Report(
        macro=macro_metrics(_one_vs_rest(claims, classes)),
        micro_accuracy=n_correct / len(claims) if claims else None,
        micro_f1=_f1_of(*_set_confusion(sets)) if claims else None,
        n_included=len(claims),
        n_excluded=n_excluded,
    )


def evaluate_task(
    predictions: Sequence[Prediction],
    gold: Sequence[ProteinRecord],
    task: Task,
    label_dict: Optional[LabelDictionary] = None,
) -> TaskReport:
    if task is Task.ENZYME:
        return evaluate_enzyme_task(predictions, gold)
    if task is Task.FUNCTION_COUNT:
        return evaluate_function_count_task(predictions, gold)
    if task is Task.EC_NUMBER:
        if label_dict is None:
            raise ValueError("EC-number evaluation needs the training label dictionary")
        return evaluate_ec_task(predictions, gold, label_dict)
    raise ValueError(f"unknown task {task!r}")


# --------------------------------------------------------------------------
# Prediction I/O


_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}
_BLANK = {"", "-", "na", "none"}

PREDICTION_COLUMNS = ("id", "is_enzyme", "function_count", "ecs", "scores", "source")


def prediction_row(pred: Prediction) -> str:
    """One prediction as a canonical six-column tab-separated line."""
    enzyme = "" if pred.is_enzyme is None else ("1" if pred.is_enzyme else "0")
    ecs = format_ec_list([ec for ec, _ in pred.ranked_ecs])
    scores = ";".join(f"{s:.6g}" for _, s in pred.ranked_ecs)
    return "\t".join(
        [pred.id, enzyme, str(pred.function_count), ecs, scores, pred.source.value]
    )


def write_predictions_tsv(predictions: Sequence[Prediction], path: str | Path) -> None:
    """Write predictions in the canonical six-column tab-separated layout."""
    lines = ["\t".join(PREDICTION_COLUMNS)] + [prediction_row(p) for p in predictions]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_enzyme_field(raw: str, where: str) -> Optional[bool]:
    token = raw.strip().lower()
    if token in _BLANK:
        return None
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise ValueError(f"{where}: cannot interpret enzyme flag {raw!r}")


def load_external_predictions(path: str | Path) -> list[Prediction]:
    """Read tool output as id / enzyme-flag-or-blank / EC-list-or-blank.

    Blank fields are abstentions.  The canonical six-column layout
    written by :func:`write_predictions_tsv` round-trips through this
    reader; minimal three-column files from external tools load the
    same way.  A row listing ECs with a blank enzyme flag implicitly
    claims "enzyme".
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        return []
    start = 0
    header: Optional[list[str]] = None
    first = [c.strip().lower() for c in lines[0][1].split("\t")]
    if first and first[0] in {"id", "#id"}:
        header = first
        start = 1
    predictions: list[Prediction] = []
    seen: set[str] = set()
    for line_no, line in lines[start:]:
        cols = line.split("\t")
        where = f"{path}:{line_no}"
        if header is not None:
            row = dict(zip(header, cols))
            rec_id = row.get("id", "").strip()
            enzyme_raw = row.get("is_enzyme", row.get("isenzyme", ""))
            ec_raw = row.get("ecs", row.get("ec", ""))
            score_raw = row.get("scores", "")
        elif len(cols) >= 4:
            # Headerless canonical layout: id, flag, count, ecs[, scores[, source]].
            rec_id, enzyme_raw, ec_raw = cols[0].strip(), cols[1], cols[3]
            score_raw = cols[4] if len(cols) > 4 else ""
        else:
            rec_id = cols[0].strip()
            enzyme_raw = cols[1] if len(cols) > 1 else ""
            ec_raw = cols[2] if len(cols) > 2 else ""
            score_raw = ""
        if not rec_id:
            raise ValueError(f"{where}: missing id")
        if rec_id in seen:
            raise ValueError(f"{where}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        is_enzyme = _parse_enzyme_field(enzyme_raw, where)
        ecs = parse_ec_list(ec_raw) if ec_raw.strip().lower() not in _BLANK else ()
        if ecs and is_enzyme is None:
            is_enzyme = True
        if ecs and is_enzyme is False:
            raise ValueError(f"{where}: row claims non-enzyme but lists EC numbers")
        if ecs:
            if score_raw.strip():
                scores = [float(tok) for tok in score_raw.split(";")]
                if len(scores) != len(ecs):
                    raise ValueError(f"{where}: {len(ecs)} ECs but {len(scores)} scores")
            else:
                scores = [1.0] * len(ecs)
            ranked = sorted(zip(ecs, scores), key=lambda pair: -pair[1])
        else:
            ranked = []
        predictions.append(
            Prediction(
                id=rec_id,
                is_enzyme=is_enzyme,
                ranked_ecs=tuple(ranked),
                source=PredictionSource.EXTERNAL,
            )
        )
    return predictions


# --------------------------------------------------------------------------
# Report rendering


def _fmt(value: object) -> str:
    if value is None:
        return UNDEFINED
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def report_to_tsv(report: TaskReport) -> str:
    lines = [f"{name}\t{_fmt(value)}" for name, value in report.rows()]
    macro = getattr(report, "macro", None)
    if macro is not None:
        lines.append("")
        lines.append("\t".join(("class",) + CELLS + ("ppv", "recall", "f1")))
        for cls in macro.classes:
            counts, rep = macro.per_class[cls]
            cells = [str(getattr(counts, name)) for name in CELLS]
            lines.append("\t".join([cls, *cells, _fmt(rep.ppv), _fmt(rep.recall), _fmt(rep.f1)]))
    return "\n".join(lines) + "\n"


def format_report_table(report: TaskReport) -> str:
    """Human-readable two-column table of the headline numbers."""
    rows = report.rows()
    width = max(len(name) for name, _ in rows)
    lines = [f"{name.ljust(width)}  {_fmt(value)}" for name, value in rows]
    return "\n".join(lines)
