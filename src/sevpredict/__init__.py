"""Metric-based defect severity prediction.

Pipeline: label modules from their per-severity defect counts, balance the
minority classes with adaptive synthetic oversampling, self-train a CART
tree against the unlabelled pool, and evaluate both the baseline and the
self-trained tree with project-economics measures (risk factors, saved
budget, remaining service time).
"""

from types import ModuleType as _ModuleType

from .adasyn import SamplerConfig, adasyn_balance
from .cart import (
    DecisionTree,
    Leaf,
    Split,
    TreeConfig,
    dump_tree,
    fit_tree,
    predict_confidence,
    predict_label,
)
from .corpus import (
    Corpus,
    LabelledInstance,
    LabelledPool,
    UnlabelledPool,
    class_summary,
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

# every public name imported above; the submodules, bound here by those imports, are not exports
__all__ = [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]
