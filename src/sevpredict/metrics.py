"""Confusion matrix and project-economics evaluation measures.

All measures derive from a set of per-module outcomes (actual class,
predicted class, LoC). Rows of the confusion matrix are actuals, columns
are predictions, both in severity order. A module counts as a true
negative only when it is clean and predicted clean; LoC-weighted measures
(saved budget, remaining edits, service times) follow from that partition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .corpus import _parse_int, csv_records
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

    @property
    def is_true_negative(self) -> bool:
        return self.actual is SeverityClass.CLEAN and self.predicted is SeverityClass.CLEAN


class OutcomeSet:
    """Non-empty bundle of outcomes for one evaluated test set."""

    def __init__(self, outcomes: Iterable[Outcome]):
        self.outcomes: tuple[Outcome, ...] = tuple(outcomes)
        if not self.outcomes:
            raise SevpredictError("outcome set is empty")

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @cached_property
    def total_loc(self) -> int:
        return sum(o.loc for o in self.outcomes)

    @cached_property
    def clean_loc_split(self) -> tuple[int, int, int]:
        """(true negatives, their LoC, LoC of clean modules predicted defective)."""
        tn = saved = flagged = 0
        for o in self.outcomes:
            if o.is_true_negative:
                tn += 1
                saved += o.loc
            elif o.actual is SeverityClass.CLEAN:
                flagged += o.loc
        return tn, saved, flagged


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: tuple[tuple[int, ...], ...]  # [actual][predicted], severity order

    @property
    def n_t(self) -> int:
        return sum(sum(row) for row in self.counts)

    def count(self, actual: SeverityClass, predicted: SeverityClass) -> int:
        return self.counts[CLASS_INDEX[actual]][CLASS_INDEX[predicted]]

    def actual_total(self, cls: SeverityClass) -> int:
        return sum(self.counts[CLASS_INDEX[cls]])

    def predicted_total(self, cls: SeverityClass) -> int:
        j = CLASS_INDEX[cls]
        return sum(row[j] for row in self.counts)


def build_confusion(outcomes: OutcomeSet) -> ConfusionMatrix:
    grid = [[0] * len(SEVERITY_ORDER) for _ in SEVERITY_ORDER]
    for o in outcomes:
        grid[CLASS_INDEX[o.actual]][CLASS_INDEX[o.predicted]] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in grid))


def accuracy(cm: ConfusionMatrix) -> float:
    # diagonal mass: the four per-class true positives plus clean true negatives
    return sum(cm.counts[i][i] for i in range(len(SEVERITY_ORDER))) / cm.n_t


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class FMeasures:
    per_class: dict[SeverityClass, ClassScores]
    macro: float  # unweighted mean over classes present in actuals
    weighted: float  # weighted by actual class counts


def f_measures(cm: ConfusionMatrix) -> FMeasures:
    per_class: dict[SeverityClass, ClassScores] = {}
    for cls in SEVERITY_ORDER:
        tp = cm.count(cls, cls)
        predicted = cm.predicted_total(cls)
        actual = cm.actual_total(cls)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls] = ClassScores(precision, recall, f1)
    present = [cls for cls in SEVERITY_ORDER if cm.actual_total(cls) > 0]
    macro = sum(per_class[c].f1 for c in present) / len(present)
    weighted = sum(per_class[c].f1 * cm.actual_total(c) for c in present) / cm.n_t
    return FMeasures(per_class, macro, weighted)


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
class BudgetMetrics:
    ptn: float  # true-negative share of test modules
    saved_budget: int  # LoC of correctly skipped clean modules
    psb: float  # saved_budget / total LoC
    lsb: float  # LoC share of clean modules flagged defective


def budget_metrics(outcomes: OutcomeSet) -> BudgetMetrics:
    total_loc = outcomes.total_loc
    tn, saved, lost = outcomes.clean_loc_split
    return BudgetMetrics(
        ptn=tn / len(outcomes),
        saved_budget=saved,
        psb=saved / total_loc,
        lsb=lost / total_loc,
    )


@dataclass(frozen=True)
class ServiceMetrics:
    pntn: float  # non-true-negative share of test modules
    remaining_edits: int  # LoC still on the review queue
    pre: float  # remaining_edits / total LoC
    rst_hours: float  # remaining service time at delta LoC per hour
    gst_hours: float  # service time gained back on mispredicted clean modules


def service_metrics(outcomes: OutcomeSet, config: "EconConfig") -> ServiceMetrics:
    total_loc = outcomes.total_loc
    tn, saved, gained = outcomes.clean_loc_split
    remaining = total_loc - saved
    return ServiceMetrics(
        pntn=(len(outcomes) - tn) / len(outcomes),
        remaining_edits=remaining,
        pre=remaining / total_loc,
        rst_hours=remaining / config.delta,
        gst_hours=gained / config.delta,
    )


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


# Column order for one report as a CSV row. `f_measure` is the weighted
# F-measure and `rf_<class>` that class's risk factor.
REPORT_CSV_HEADER: tuple[str, ...] = (
    "accuracy",
    "f_measure",
    "psb",
    "lsb",
    "pre",
    "rst_hours",
    "gst_hours",
    *(f"rf_{cls.value}" for cls in DEFECTIVE_CLASSES),
    "system_rf",
)


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    per_class: dict[str, dict[str, float]]  # class name -> precision/recall/f1
    f_measure_macro: float
    f_measure_weighted: float
    risk_factor: dict[str, float]  # defective class name -> RF
    system_rf: float
    ptn: float
    psb: float
    saved_budget: float  # integer LoC for a single run; fractional when averaged
    lsb: float
    pntn: float
    pre: float
    remaining_edits: float
    rst_hours: float
    gst_hours: float
    delta: float
    ordinal_weights: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_values(self) -> list:
        return [
            self.risk_factor[name.removeprefix("rf_")]
            if name.startswith("rf_")
            else getattr(self, "f_measure_weighted" if name == "f_measure" else name)
            for name in REPORT_CSV_HEADER
        ]


def full_report(outcomes: OutcomeSet, config: EconConfig = EconConfig()) -> MetricReport:
    """Compose every measure over one outcome set."""
    cm = build_confusion(outcomes)
    fm = f_measures(cm)
    rf = risk_factor(cm, config.weight_map())
    return MetricReport(
        accuracy=accuracy(cm),
        per_class={cls.value: asdict(fm.per_class[cls]) for cls in SEVERITY_ORDER},
        f_measure_macro=fm.macro,
        f_measure_weighted=fm.weighted,
        risk_factor={cls.value: rf[cls] for cls in DEFECTIVE_CLASSES},
        system_rf=system_risk_factor(rf),
        **asdict(budget_metrics(outcomes)),
        **asdict(service_metrics(outcomes, config)),
        delta=config.delta,
        ordinal_weights=tuple(config.ordinal_weights),
    )


# ---------------------------------------------------------------------------
# Predictions file: module_id, loc, actual, predicted

PREDICTIONS_HEADER: tuple[str, ...] = ("module_id", "loc", "actual", "predicted")


def parse_predictions(source: Iterable[str]) -> OutcomeSet:
    records = csv_records(source)
    _, header = next(records, (0, None))
    if header is None:
        raise SchemaError("empty input: missing header row")
    if tuple(h.strip() for h in header) != PREDICTIONS_HEADER:
        raise SchemaError(f"predictions header must be {','.join(PREDICTIONS_HEADER)}")
    outcomes: list[Outcome] = []
    for line, fields in records:
        if not fields:
            continue
        if len(fields) != len(PREDICTIONS_HEADER):
            raise RowError(line, f"expected {len(PREDICTIONS_HEADER)} fields, found {len(fields)}")
        module_id = fields[0].strip()
        loc = _parse_int(fields[1], line, "loc", minimum=1)
        try:
            actual = SeverityClass.from_name(fields[2].strip())
            predicted = SeverityClass.from_name(fields[3].strip())
        except SevpredictError as exc:
            raise RowError(line, str(exc)) from None
        outcomes.append(Outcome(actual, predicted, loc, module_id))
    return OutcomeSet(outcomes)


def write_predictions(outcomes: OutcomeSet, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PREDICTIONS_HEADER)
    auto = 0
    for o in outcomes:
        module_id = o.module_id
        if module_id is None:
            module_id, auto = f"m{auto:05d}", auto + 1
        writer.writerow([module_id, o.loc, o.actual.value, o.predicted.value])
