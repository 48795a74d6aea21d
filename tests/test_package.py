"""The package's star-import surface.

`sevpredict.__all__` is derived from the names `__init__.py` imports, so a
name added to or dropped from those imports changes the public API; this
pins it.
"""

from __future__ import annotations

import sevpredict

PUBLIC_NAMES = {
    "ConfusionMatrix", "Corpus", "DEFAULT_WEIGHTS", "DEFECTIVE_CLASSES", "DecisionTree", "EconConfig",
    "ExperimentReport", "LabelledInstance", "LabelledPool", "Leaf", "MetricReport", "Outcome", "PipelineConfig",
    "RowError", "SEVERITY_ORDER", "SamplerConfig", "SchemaError", "SelfTrainConfig", "SelfTrainResult",
    "SelfTrainTrace", "SeverityClass", "SevpredictError", "Split", "TreeConfig", "UnlabelledPool", "accuracy",
    "adasyn_balance", "average_reports", "build_confusion", "class_summary", "compare",
    "dump_tree", "fit_tree", "full_report", "load_corpus", "parse_corpus", "parse_predictions",
    "predict_confidence", "predict_label", "pseudo_label_risk", "report_to_json", "risk_factor",
    "run_experiment", "run_kfold", "save_corpus", "self_train", "stratified_kfold",
    "stratified_split", "synth_corpus", "system_risk_factor", "write_comparison_tables", "write_corpus_csv",
}


def test_star_import_exports_the_public_names():
    namespace: dict = {}
    exec("from sevpredict import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert len(sevpredict.__all__) == len(PUBLIC_NAMES)


def test_batched_routing_stays_internal():
    assert "route_rows" not in vars(sevpredict)
    assert "feature_matrix" not in vars(sevpredict)
