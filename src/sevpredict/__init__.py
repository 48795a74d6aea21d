"""Metric-based defect severity prediction.

Pipeline: label modules from their per-severity defect counts, balance the
minority classes with adaptive synthetic oversampling, self-train a CART
tree against the unlabelled pool, and evaluate both the baseline and the
self-trained tree with project-economics measures (risk factors, saved
budget, remaining service time).
"""

from .adasyn import SamplerConfig, adasyn_balance
from .cart import (
    DecisionTree,
    Leaf,
    Split,
    TreeConfig,
    best_split,
    dump_tree,
    fit_tree,
    predict_confidence,
    predict_label,
    route_to_leaf,
)
from .corpus import (
    Corpus,
    LabelledInstance,
    UnlabelledInstance,
    class_summary,
    derive_label,
    load_corpus,
    parse_corpus,
    save_corpus,
    stratified_kfold,
    stratified_split,
    synth_corpus,
    write_corpus_csv,
)
from .errors import RowError, SchemaError, SevpredictError
from .metrics import (
    ConfusionMatrix,
    EconConfig,
    MetricReport,
    Outcome,
    accuracy,
    build_confusion,
    full_report,
    parse_predictions,
    risk_factor,
    system_risk_factor,
    write_predictions,
)
from .pipeline import (
    ExperimentReport,
    PipelineConfig,
    average_reports,
    compare,
    report_to_json,
    run_experiment,
    run_kfold,
    write_comparison_tables,
)
from .selftrain import (
    SelfTrainConfig,
    SelfTrainResult,
    SelfTrainTrace,
    pseudo_label_risk,
    self_train,
)
from .severity import DEFAULT_WEIGHTS, DEFECTIVE_CLASSES, SEVERITY_ORDER, SeverityClass

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "ConfusionMatrix",
    "DecisionTree",
    "DEFAULT_WEIGHTS",
    "DEFECTIVE_CLASSES",
    "EconConfig",
    "ExperimentReport",
    "LabelledInstance",
    "Leaf",
    "MetricReport",
    "Outcome",
    "PipelineConfig",
    "RowError",
    "SamplerConfig",
    "SchemaError",
    "SelfTrainConfig",
    "SelfTrainResult",
    "SelfTrainTrace",
    "SeverityClass",
    "SevpredictError",
    "SEVERITY_ORDER",
    "Split",
    "TreeConfig",
    "UnlabelledInstance",
    "accuracy",
    "adasyn_balance",
    "average_reports",
    "best_split",
    "build_confusion",
    "class_summary",
    "compare",
    "derive_label",
    "dump_tree",
    "fit_tree",
    "full_report",
    "load_corpus",
    "parse_corpus",
    "parse_predictions",
    "predict_confidence",
    "predict_label",
    "pseudo_label_risk",
    "report_to_json",
    "risk_factor",
    "route_to_leaf",
    "run_experiment",
    "run_kfold",
    "save_corpus",
    "self_train",
    "stratified_kfold",
    "stratified_split",
    "synth_corpus",
    "system_risk_factor",
    "write_comparison_tables",
    "write_corpus_csv",
    "write_predictions",
]
