"""End-to-end experiment: split, train both arms, evaluate, compare.

The baseline arm (BST) fits one tree on the labelled training data,
balanced by default. The self-training arm (AST) starts from the same kind
of pool, balanced or raw by its own flag, and additionally absorbs
confident pseudo-labels from the unlabelled pool; when both arms start
from the same pool, AST continues from BST's tree. Both arms are scored on
the identical held-out test set, so their metric deltas isolate the
contribution of the unlabelled data.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints

from .adasyn import SamplerConfig, adasyn_balance
from .cart import DecisionTree, TreeConfig, fit_tree, predict_label
from .corpus import Corpus, LabelledPool, class_summary, stratified_kfold, stratified_split
from .errors import SevpredictError
from .metrics import RATE_COLUMNS, RISK_COLUMNS, EconConfig, MetricReport, Outcome, full_report
from .selftrain import SelfTrainConfig, SelfTrainTrace, self_train
from .severity import SEVERITY_ORDER


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    test_fraction: float = 0.2
    folds: int | None = None
    sampler: SamplerConfig = SamplerConfig()
    tree: TreeConfig = TreeConfig()
    selftrain: SelfTrainConfig = SelfTrainConfig()
    econ: EconConfig = EconConfig()
    bst_oversample: bool = True  # False gives the raw-baseline reading
    oversample_first: bool = True  # False starts self-training from the raw labelled pool

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise SevpredictError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.test_fraction < 1.0:
            raise SevpredictError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.folds is not None and self.folds < 2:
            raise SevpredictError(f"folds must be >= 2, got {self.folds}")

    def settings(self) -> dict:
        """Flat name -> value view of every setting: the report's `config` echo."""
        flat = {}
        for section, name, _ in _SETTING_FIELDS:
            value = getattr(getattr(self, section) if section else self, name)
            flat[name] = list(value) if isinstance(value, tuple) else value
        return flat

    @classmethod
    def from_settings(cls, settings: Mapping) -> "PipelineConfig":
        """Config from a flat settings dict as `settings()` returns it.

        Missing keys keep their defaults, so `from_settings(cfg.settings())`
        equals `cfg`. Each value must have its field's type: true/false for a
        flag, an integer for an int, any finite number for a float, null
        where the field allows None, and a list of finite numbers for the
        ordinal weights.
        """
        base = cls()
        top: dict = {}
        sections: dict[str, dict] = {}
        for section, name, hint in _SETTING_FIELDS:
            if name in settings:
                value = _checked(name, settings[name], hint)
                (sections.setdefault(section, {}) if section else top)[name] = value
        for section, values in sections.items():
            top[section] = replace(getattr(base, section), **values)
        return replace(base, **top)


def _setting_fields() -> tuple:
    """(section or None, name, type) for every setting; nested fields keep their own names."""
    hints = get_type_hints(PipelineConfig)
    flat = []
    for outer in fields(PipelineConfig):
        if not is_dataclass(outer.default):
            flat.append((None, outer.name, hints[outer.name]))
            continue
        for name, hint in get_type_hints(type(outer.default)).items():
            flat.append((outer.name, name, hint))
    return tuple(flat)


_SETTING_FIELDS = _setting_fields()


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _checked(name: str, value, hint):
    """`value` as the type `hint` of setting `name`, or a SevpredictError."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        hint = next(t for t in get_args(hint) if t is not type(None))
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and all(map(_is_finite_number, value)):
            return tuple(float(v) for v in value)
        expected = "a list of finite numbers"
    elif hint is bool:
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        expected = "an integer"
    else:  # float
        if _is_finite_number(value):
            return float(value)
        expected = "a finite number"
    raise SevpredictError(f"setting {name!r} must be {expected}, got {value!r}")


@dataclass
class ExperimentReport:
    project: str
    corpus_summary: dict
    training: dict
    bst: MetricReport
    ast: MetricReport
    deltas: dict
    trace: SelfTrainTrace | None
    test_outcomes: list[dict]
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "project": self.project,
            "corpus": self.corpus_summary,
            "training": self.training,
            "bst": self.bst.to_json_dict(),
            "ast": self.ast.to_json_dict(),
            "deltas": self.deltas,
            "self_training": self.trace.to_dict() if self.trace is not None else None,
            "test_outcomes": self.test_outcomes,
            "config": self.config,
        }


def report_to_json(report: ExperimentReport | MetricReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


# Every MetricReport carries the EconConfig it was computed under.
_ECON_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(EconConfig))

SCALAR_FIELDS: tuple[str, ...] = tuple(
    name
    for name, hint in get_type_hints(MetricReport).items()
    if hint is float and name not in _ECON_FIELDS
)


def _require_same_econ(reports: Sequence[MetricReport], verb: str) -> None:
    if len({tuple(getattr(r, name) for name in _ECON_FIELDS) for r in reports}) > 1:
        raise SevpredictError(f"cannot {verb} reports computed under different economics configs")


def compare(baseline: MetricReport, other: MetricReport) -> dict:
    """Field-wise deltas (other minus baseline) over comparable reports."""
    _require_same_econ((baseline, other), "compare")
    deltas: dict = {name: getattr(other, name) - getattr(baseline, name) for name in SCALAR_FIELDS}
    deltas["risk_factor"] = {
        name: other.risk_factor[name] - baseline.risk_factor[name] for name in baseline.risk_factor
    }
    return deltas


def _evaluate(tree: DecisionTree, test: LabelledPool) -> tuple[Outcome, ...]:
    actual = map(SEVERITY_ORDER.__getitem__, test.labels.tolist())
    return tuple(map(Outcome, actual, predict_label(tree, test.features), test.loc.tolist(), test.module_ids))


def _run_arms(
    summary: dict,
    train: Corpus,
    test: LabelledPool,
    cfg: PipelineConfig,
    project: str,
) -> ExperimentReport:
    # one starting pool and tree per distinct oversampling flag, shared by the arms
    raw = train.labelled
    bst_flag, ast_flag = cfg.bst_oversample, cfg.oversample_first
    pools = {flag: adasyn_balance(raw, cfg.sampler, cfg.seed) if flag else raw
             for flag in {bst_flag, ast_flag}}
    trees = {flag: fit_tree(pool, cfg.tree, train.schema) for flag, pool in pools.items()}
    st = self_train(trees[ast_flag], pools[ast_flag], train.unlabelled, cfg.selftrain, cfg.tree)
    accepted = sum(r.accepted for r in st.trace.iterations)

    bst_outcomes = _evaluate(trees[bst_flag], test)
    ast_outcomes = _evaluate(st.tree, test)
    bst_report = full_report(bst_outcomes, cfg.econ)
    ast_report = full_report(ast_outcomes, cfg.econ)

    test_rows = [
        {
            "module_id": b.module_id,
            "loc": b.loc,
            "actual": b.actual.value,
            "bst": b.predicted.value,
            "ast": a.predicted.value,
        }
        for b, a in zip(bst_outcomes, ast_outcomes)
    ]
    return ExperimentReport(
        project=project,
        corpus_summary=summary,
        training={
            "bst_train_size": len(pools[bst_flag]),
            "ast_train_size": len(pools[ast_flag]) + accepted,
            "accepted_pseudo": accepted,
            "residual_unlabelled": len(train.unlabelled) - accepted,
            "test_modules": len(test),
            "test_total_loc": sum(test.loc.tolist()),
        },
        bst=bst_report,
        ast=ast_report,
        deltas=compare(bst_report, ast_report),
        trace=st.trace,
        test_outcomes=test_rows,
        config=cfg.settings(),
    )


def _runnable_summary(corpus: Corpus) -> dict:
    """class_summary of a corpus that has at least 2 labelled classes."""
    summary = class_summary(corpus)
    if sum(n > 0 for n in summary["class_counts"].values()) < 2:
        raise SevpredictError("experiment needs at least 2 labelled classes")
    return summary


def fold_project(project: str, fold: int) -> str:
    return f"{project}_fold{fold}"


def run_experiment(corpus: Corpus, cfg: PipelineConfig, project: str = "corpus") -> ExperimentReport:
    """Single stratified holdout run of both arms on one corpus."""
    summary = _runnable_summary(corpus)
    train, test = stratified_split(corpus, cfg.test_fraction, cfg.seed)
    if not test:
        raise SevpredictError("test split is empty; raise test_fraction or enlarge the corpus")
    return _run_arms(summary, train, test, cfg, project)


def run_kfold(corpus: Corpus, cfg: PipelineConfig, project: str = "corpus") -> list[ExperimentReport]:
    """One experiment per stratified fold, with per-fold derived seeds."""
    if cfg.folds is None:
        raise SevpredictError("run_kfold needs cfg.folds")
    summary = _runnable_summary(corpus)
    splits = stratified_kfold(corpus, cfg.folds, cfg.seed)
    return [_run_arms(summary, train, test, replace(cfg, seed=cfg.seed + i), fold_project(project, i))
            for i, (train, test) in enumerate(splits)]


def _mean(values: Sequence):
    """Unweighted mean of numbers, or key-wise of equally keyed dicts."""
    if isinstance(values[0], dict):
        return {key: _mean([v[key] for v in values]) for key in values[0]}
    return sum(values) / len(values)


def _mean_metric_report(reports: Sequence[MetricReport]) -> MetricReport:
    _require_same_econ(reports, "average")
    means = {
        f.name: _mean([getattr(r, f.name) for r in reports])
        for f in fields(MetricReport)
        if f.name not in _ECON_FIELDS
    }
    return replace(reports[0], **means)


def average_reports(reports: Sequence[ExperimentReport], project: str = "average") -> ExperimentReport:
    """Unweighted mean of several runs (folds or projects)."""
    if not reports:
        raise SevpredictError("nothing to average")
    bst = _mean_metric_report([r.bst for r in reports])
    ast = _mean_metric_report([r.ast for r in reports])
    return ExperimentReport(
        project=project,
        corpus_summary={"aggregated_from": [r.project for r in reports]},
        training=_mean([r.training for r in reports]),
        bst=bst,
        ast=ast,
        deltas=compare(bst, ast),
        trace=None,
        test_outcomes=[],
        config=reports[0].config,
    )


# ---------------------------------------------------------------------------
# Comparison tables: one row per report, BST and AST side by side.

BUDGET_TABLE_HEADER = [
    "project",
    "total_loc",
    "saved_budget_bst",
    "saved_budget_ast",
    "remaining_edits_bst",
    "remaining_edits_ast",
]


def _side_by_side(reports: Sequence[ExperimentReport], columns: Sequence[str]) -> list[list]:
    """Header and rows holding each column's BST and AST values.

    Headings drop a column's `rf_` prefix or `_hours` suffix; hours print
    with two decimals, everything else with four.
    """
    names = [c.removeprefix("rf_").removesuffix("_hours") for c in columns]
    header = ["project"] + [f"{name}_{arm}" for name in names for arm in ("bst", "ast")]
    formats = [".2f" if c.endswith("_hours") else ".4f" for c in columns]
    return [header] + [
        [r.project] + [format(arm.column(c), f) for c, f in zip(columns, formats) for arm in (r.bst, r.ast)]
        for r in reports
    ]


def _fmt_loc(value) -> str:
    """A single run's LoC exactly; an averaged one as an integer when it is one, else to two decimals."""
    if isinstance(value, int):
        return str(value)
    return str(int(value)) if value.is_integer() else f"{value:.2f}"


def _budget_values(r: ExperimentReport) -> list:
    return [
        r.training["test_total_loc"],
        r.bst.saved_budget,
        r.ast.saved_budget,
        r.bst.remaining_edits,
        r.ast.remaining_edits,
    ]


def write_comparison_tables(reports: Sequence[ExperimentReport], average, out_dir) -> list[str]:
    """Write the three side-by-side CSV tables; returns the file paths.

    `average`, the reports' `average_reports` or None for one report, adds a
    row to the risk and performance tables, and several reports a total row
    to the budget table.
    """
    scored = list(reports) + ([average] if average is not None else [])
    budget_values = [_budget_values(r) for r in reports]
    budget_rows = [BUDGET_TABLE_HEADER]
    budget_rows += [[r.project, *map(_fmt_loc, v)] for r, v in zip(reports, budget_values)]
    if len(reports) > 1:
        budget_rows.append(["total", *(_fmt_loc(sum(col)) for col in zip(*budget_values))])
    paths = []
    for name, rows in (
        ("risk_factors.csv", _side_by_side(scored, RISK_COLUMNS)),
        ("performance.csv", _side_by_side(scored, RATE_COLUMNS)),
        ("budget_edits.csv", budget_rows),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rows)
        paths.append(path)
    return paths
