"""Confusion matrix and project-economics evaluation measures.

Every measure reads one confusion matrix built from per-module outcomes
(actual class, predicted class, LoC): rows are actuals, columns are
predictions, both in severity order, and each cell holds a module count and
those modules' LoC. The (clean, clean) cell is the only true negative; the
LoC-weighted measures (saved budget, remaining edits, service times) read it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .corpus import _parse_loc, csv_header, csv_records, fill_module_ids
from .errors import RowError, SchemaError, SevpredictError
from .severity import (
    CLASS_INDEX,
    DEFAULT_WEIGHTS,
    DEFECTIVE_CLASSES,
    SEVERITY_ORDER,
    SeverityClass,
    validate_weights,
)


@dataclass(frozen=True)
class Outcome:
    actual: SeverityClass
    predicted: SeverityClass
    loc: int
    module_id: str | None = None

    def __post_init__(self):
        if self.loc < 1:
            raise SevpredictError(f"loc must be >= 1, got {self.loc}")


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: tuple[tuple[int, ...], ...]  # [actual][predicted], severity order
    loc: tuple[tuple[int, ...], ...]  # LoC of the modules in each cell

    @property
    def n_t(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def total_loc(self) -> int:
        return sum(sum(row) for row in self.loc)

    def count(self, actual: SeverityClass, predicted: SeverityClass) -> int:
        return self.counts[CLASS_INDEX[actual]][CLASS_INDEX[predicted]]

    def actual_total(self, cls: SeverityClass) -> int:
        return sum(self.counts[CLASS_INDEX[cls]])

    def predicted_total(self, cls: SeverityClass) -> int:
        j = CLASS_INDEX[cls]
        return sum(row[j] for row in self.counts)


def build_confusion(outcomes: Iterable[Outcome]) -> ConfusionMatrix:
    """Module count and LoC per (actual, predicted) cell; raises on no outcomes."""
    counts = [[0] * len(SEVERITY_ORDER) for _ in SEVERITY_ORDER]
    loc = [[0] * len(SEVERITY_ORDER) for _ in SEVERITY_ORDER]
    for o in outcomes:
        i, j = CLASS_INDEX[o.actual], CLASS_INDEX[o.predicted]
        counts[i][j] += 1
        loc[i][j] += o.loc
    cm = ConfusionMatrix(tuple(map(tuple, counts)), tuple(map(tuple, loc)))
    if cm.n_t == 0:
        raise SevpredictError("outcome set is empty")
    return cm


def _clean_split(cm: ConfusionMatrix) -> tuple[int, int, int]:
    """(true negatives, their LoC, LoC of clean modules predicted defective)."""
    c = CLASS_INDEX[SeverityClass.CLEAN]
    return cm.counts[c][c], cm.loc[c][c], sum(cm.loc[c]) - cm.loc[c][c]


def accuracy(cm: ConfusionMatrix) -> float:
    # diagonal mass: the four per-class true positives plus clean true negatives
    return sum(cm.counts[i][i] for i in range(len(SEVERITY_ORDER))) / cm.n_t


def risk_factor(
    cm: ConfusionMatrix, weights: Mapping[SeverityClass, float] | None = None
) -> dict[SeverityClass, float]:
    """Per defective class: mean ordinal-weight gap of under-severe predictions.

    Only predictions strictly less severe than the actual class count; the
    gap |w_predicted - w_actual| prices how far the prediction fell. A class
    with no actual members scores 0.
    """
    w = validate_weights(weights if weights is not None else DEFAULT_WEIGHTS)
    result: dict[SeverityClass, float] = {}
    for r, cls in enumerate(DEFECTIVE_CLASSES):
        n_r = cm.actual_total(cls)
        if n_r == 0:
            result[cls] = 0.0
            continue
        penalty = 0.0
        for s in range(r + 1, len(SEVERITY_ORDER)):
            penalty += cm.counts[r][s] * abs(w[SEVERITY_ORDER[s]] - w[cls])
        result[cls] = penalty / n_r
    return result


def system_risk_factor(per_class: Mapping[SeverityClass, float]) -> float:
    """Sum of the four defective-class risk factors."""
    missing = [c.value for c in DEFECTIVE_CLASSES if c not in per_class]
    if missing:
        raise SevpredictError(f"risk factors missing classes: {', '.join(missing)}")
    total = 0.0
    for cls in DEFECTIVE_CLASSES:
        total += per_class[cls]
    return total


@dataclass(frozen=True)
class EconConfig:
    delta: float = 100.0  # LoC serviced per hour
    ordinal_weights: tuple[float, float, float, float, float] = tuple(DEFAULT_WEIGHTS.values())

    def __post_init__(self):
        if not 0 < self.delta < math.inf:  # also rejects NaN
            raise SevpredictError(f"delta must be a finite number > 0, got {self.delta}")
        if len(self.ordinal_weights) != len(SEVERITY_ORDER):
            raise SevpredictError("ordinal_weights must list one weight per class")
        validate_weights(self.weight_map())

    def weight_map(self) -> dict[SeverityClass, float]:
        return dict(zip(SEVERITY_ORDER, self.ordinal_weights))


# Columns of one report as a CSV row: the rates, then the risk factors.
# `f_measure` is the weighted F-measure and `rf_<class>` that class's risk factor.
RATE_COLUMNS: tuple[str, ...] = ("accuracy", "f_measure", "psb", "lsb", "pre", "rst_hours", "gst_hours")
RISK_COLUMNS: tuple[str, ...] = (*(f"rf_{cls.value}" for cls in DEFECTIVE_CLASSES), "system_rf")
REPORT_CSV_HEADER: tuple[str, ...] = RATE_COLUMNS + RISK_COLUMNS


@dataclass(frozen=True)
class MetricReport:
    accuracy: float  # diagonal share of test modules
    per_class: dict[str, dict[str, float]]  # class name -> precision/recall/f1, 0 on a zero denominator
    f_measure_macro: float  # unweighted mean F1 over classes present in actuals
    f_measure_weighted: float  # mean F1 weighted by actual class counts
    risk_factor: dict[str, float]  # defective class name -> RF
    system_rf: float  # sum of the four risk factors
    ptn: float  # true-negative share of test modules
    psb: float  # saved_budget / total LoC
    saved_budget: float  # LoC of correctly skipped clean modules; integer for a single run
    lsb: float  # LoC share of clean modules flagged defective
    pntn: float  # non-true-negative share of test modules
    pre: float  # remaining_edits / total LoC
    remaining_edits: float  # LoC still on the review queue; integer for a single run
    rst_hours: float  # remaining service time at delta LoC per hour
    gst_hours: float  # service time gained back on mispredicted clean modules
    delta: float
    ordinal_weights: tuple[float, ...]

    def __post_init__(self):
        # JSON has no infinity: an extreme delta or weight must fail here, not reach a report
        if not (math.isfinite(self.rst_hours) and math.isfinite(self.gst_hours)):
            raise SevpredictError(f"delta {self.delta!r} is too small: service hours overflow a float")
        if not math.isfinite(self.system_rf):
            raise SevpredictError(f"ordinal weights {list(self.ordinal_weights)} overflow the risk factors")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def column(self, name: str) -> float:
        """The value of one of REPORT_CSV_HEADER's columns."""
        if name.startswith("rf_"):
            return self.risk_factor[name.removeprefix("rf_")]
        return getattr(self, "f_measure_weighted" if name == "f_measure" else name)

    def csv_values(self) -> list:
        return [self.column(name) for name in REPORT_CSV_HEADER]


def full_report(outcomes: Iterable[Outcome], config: EconConfig = EconConfig()) -> MetricReport:
    """Every measure of one non-empty set of outcomes, read off its confusion matrix."""
    cm = build_confusion(outcomes)
    n, total_loc = cm.n_t, cm.total_loc
    per_class: dict[str, dict[str, float]] = {}
    for cls in SEVERITY_ORDER:
        tp, predicted, actual = cm.count(cls, cls), cm.predicted_total(cls), cm.actual_total(cls)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls.value] = {"precision": precision, "recall": recall, "f1": f1}
    present = [cls for cls in SEVERITY_ORDER if cm.actual_total(cls) > 0]
    rf = risk_factor(cm, config.weight_map())
    tn, saved, lost = _clean_split(cm)
    remaining = total_loc - saved
    return MetricReport(
        accuracy=accuracy(cm),
        per_class=per_class,
        f_measure_macro=sum(per_class[c.value]["f1"] for c in present) / len(present),
        f_measure_weighted=sum(per_class[c.value]["f1"] * cm.actual_total(c) for c in present) / n,
        risk_factor={cls.value: rf[cls] for cls in DEFECTIVE_CLASSES},
        system_rf=system_risk_factor(rf),
        ptn=tn / n,
        psb=saved / total_loc,
        saved_budget=saved,
        lsb=lost / total_loc,
        pntn=(n - tn) / n,
        pre=remaining / total_loc,
        remaining_edits=remaining,
        rst_hours=remaining / config.delta,
        gst_hours=lost / config.delta,
        delta=config.delta,
        ordinal_weights=tuple(config.ordinal_weights),
    )


# ---------------------------------------------------------------------------
# Predictions file: module_id, loc, actual, predicted

PREDICTIONS_HEADER: tuple[str, ...] = ("module_id", "loc", "actual", "predicted")


def parse_predictions(source: Iterable[str]) -> tuple[Outcome, ...]:
    records = csv_records(source)
    if tuple(csv_header(records)) != PREDICTIONS_HEADER:
        raise SchemaError(f"predictions header must be {','.join(PREDICTIONS_HEADER)}")
    outcomes: list[Outcome] = []
    for line, fields in records:
        if not fields:
            continue
        if len(fields) != len(PREDICTIONS_HEADER):
            raise RowError(line, f"expected {len(PREDICTIONS_HEADER)} fields, found {len(fields)}")
        module_id = fields[0].strip()
        loc = _parse_loc(fields[1], line)
        try:
            actual = SeverityClass.from_name(fields[2].strip())
            predicted = SeverityClass.from_name(fields[3].strip())
        except SevpredictError as exc:
            raise RowError(line, str(exc)) from None
        outcomes.append(Outcome(actual, predicted, loc, module_id))
    return tuple(outcomes)


def write_predictions(outcomes: Iterable[Outcome], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PREDICTIONS_HEADER)
    outcomes = list(outcomes)
    for o, module_id in zip(outcomes, fill_module_ids(o.module_id for o in outcomes)):
        writer.writerow([module_id, o.loc, o.actual.value, o.predicted.value])
