from __future__ import annotations

import io
import math
import json

import numpy as np
import pytest

from sevpredict import (
    DEFAULT_WEIGHTS,
    DEFECTIVE_CLASSES,
    EconConfig,
    Outcome,
    OutcomeSet,
    SEVERITY_ORDER,
    SevpredictError,
    accuracy,
    budget_metrics,
    build_confusion,
    f_measures,
    full_report,
    parse_predictions,
    risk_factor,
    service_metrics,
    system_risk_factor,
    write_predictions,
)
from sevpredict.errors import RowError, SchemaError
from sevpredict.metrics import REPORT_CSV_HEADER

from conftest import CL, CR, HS, MA, NT


def outcome(actual, predicted, loc=100, module_id=None):
    return Outcome(actual=actual, predicted=predicted, loc=loc, module_id=module_id)


def load_fixture(path):
    with open(path, newline="") as fh:
        return parse_predictions(fh)


def random_outcome_set(rng, n=None):
    n = n or int(rng.integers(2, 60))
    classes = list(SEVERITY_ORDER)
    rows = []
    for _ in range(n):
        rows.append(outcome(
            classes[int(rng.integers(0, 5))],
            classes[int(rng.integers(0, 5))],
            loc=int(rng.integers(1, 5000)),
        ))
    return OutcomeSet(rows)


# ---------------------------------------------------------------------------
# confusion matrix and headline rates


def test_confusion_matrix_placement():
    cm = build_confusion(OutcomeSet([
        outcome(HS, MA), outcome(HS, MA), outcome(CL, CL), outcome(MA, HS),
    ]))
    assert cm.count(HS, MA) == 2
    assert cm.count(MA, HS) == 1
    assert cm.count(CL, CL) == 1
    assert cm.count(HS, HS) == 0
    assert cm.n_t == 4
    assert cm.actual_total(HS) == 2
    assert cm.predicted_total(MA) == 2


def test_accuracy_is_diagonal_share():
    cm = build_confusion(OutcomeSet([
        outcome(CL, CL), outcome(CL, CL), outcome(MA, MA), outcome(MA, CL),
    ]))
    assert accuracy(cm) == pytest.approx(0.75)


def test_f_measures_perfect_prediction():
    cm = build_confusion(OutcomeSet([outcome(CL, CL), outcome(MA, MA)]))
    fm = f_measures(cm)
    assert fm.per_class[CL].f1 == pytest.approx(1.0)
    assert fm.per_class[MA].f1 == pytest.approx(1.0)
    assert fm.macro == pytest.approx(1.0)
    assert fm.weighted == pytest.approx(1.0)


def test_f_measures_absent_class_excluded_from_macro():
    # HS never appears in actuals; it must not drag the macro mean down
    cm = build_confusion(OutcomeSet([
        outcome(CL, CL), outcome(CL, CL), outcome(MA, MA), outcome(MA, MA),
    ]))
    fm = f_measures(cm)
    assert fm.per_class[HS].f1 == 0.0
    assert fm.macro == pytest.approx(1.0)


def test_f_measure_half_precision_full_recall():
    # every MA found, but as many false alarms: P=0.5, R=1, F1=2/3
    cm = build_confusion(OutcomeSet([
        outcome(MA, MA), outcome(MA, MA), outcome(CL, MA), outcome(CL, MA),
        outcome(CL, CL), outcome(CL, CL),
    ]))
    fm = f_measures(cm)
    assert fm.per_class[MA].precision == pytest.approx(0.5)
    assert fm.per_class[MA].recall == pytest.approx(1.0)
    assert fm.per_class[MA].f1 == pytest.approx(2 / 3)


def test_f_measures_zero_denominators_give_zero():
    cm = build_confusion(OutcomeSet([outcome(CL, MA), outcome(MA, CL)]))
    fm = f_measures(cm)
    assert fm.per_class[CL].f1 == 0.0
    assert fm.per_class[MA].f1 == 0.0
    assert fm.weighted == 0.0


def test_weighted_f_measure_uses_actual_supports():
    cm = build_confusion(OutcomeSet(
        [outcome(CL, CL)] * 3 + [outcome(MA, CL)]
    ))
    fm = f_measures(cm)
    # CL: P=3/4, R=1 -> F1=6/7; MA: F1=0; weighted = (3*6/7 + 1*0)/4
    assert fm.weighted == pytest.approx(3 / 4 * 6 / 7)


# ---------------------------------------------------------------------------
# risk factor


def test_risk_factor_worst_case_miss():
    # an HS module predicted clean costs |0.1 - 0.5| = 0.4
    cm = build_confusion(OutcomeSet([outcome(HS, CL)]))
    rf = risk_factor(cm)
    assert rf[HS] == pytest.approx(0.4)


def test_risk_factor_one_step_under():
    cm = build_confusion(OutcomeSet([outcome(HS, CR)]))
    assert risk_factor(cm)[HS] == pytest.approx(0.1)


def test_risk_factor_ignores_over_severe_predictions():
    cm = build_confusion(OutcomeSet([outcome(MA, HS), outcome(MA, CR), outcome(MA, MA)]))
    assert risk_factor(cm)[MA] == 0.0


def test_risk_factor_averages_over_class_support():
    # two HS modules: one caught exactly, one sent to clean
    cm = build_confusion(OutcomeSet([outcome(HS, HS), outcome(HS, CL)]))
    assert risk_factor(cm)[HS] == pytest.approx(0.2)


def test_risk_factor_two_misses_mixed():
    cm = build_confusion(OutcomeSet([outcome(HS, CR), outcome(HS, CL)]))
    # (0.1 + 0.4) / 2
    assert risk_factor(cm)[HS] == pytest.approx(0.25)


def test_risk_factor_absent_class_is_zero():
    cm = build_confusion(OutcomeSet([outcome(CL, CL)]))
    rf = risk_factor(cm)
    assert all(rf[cls] == 0.0 for cls in DEFECTIVE_CLASSES)


def test_system_risk_factor_sums_components():
    mapping = {HS: 0.3, CR: 0.19, MA: 0.152632, NT: 0.063636}
    assert system_risk_factor(mapping) == pytest.approx(0.706268, abs=1e-9)
    with pytest.raises(SevpredictError):
        system_risk_factor({HS: 0.1})


def test_risk_factor_custom_weights():
    cm = build_confusion(OutcomeSet([outcome(HS, CL)]))
    weights = {HS: 1.0, CR: 2.0, MA: 3.0, NT: 4.0, CL: 10.0}
    assert risk_factor(cm, weights)[HS] == pytest.approx(9.0)


def test_per_class_risk_factor_bounds():
    # the worst possible mistake for each class is a prediction of clean
    rng = np.random.default_rng(14)
    bounds = {HS: 0.4, CR: 0.3, MA: 0.2, NT: 0.1}
    for _ in range(200):
        rf = risk_factor(build_confusion(random_outcome_set(rng)))
        for cls, bound in bounds.items():
            assert 0.0 <= rf[cls] <= bound + 1e-12
        assert system_risk_factor(rf) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# budget and service measures


def test_budget_metrics_on_reference_predictions(reference_bst_path):
    outcomes = load_fixture(reference_bst_path)
    bm = budget_metrics(outcomes)
    assert bm.saved_budget == 73590
    assert bm.ptn == pytest.approx(18 / 72)  # module-count share, not LoC
    assert bm.psb == pytest.approx(0.511795, abs=5e-6)
    assert bm.lsb == pytest.approx(0.160674, abs=5e-6)


def test_service_metrics_on_reference_predictions(reference_bst_path):
    outcomes = load_fixture(reference_bst_path)
    sm = service_metrics(outcomes, EconConfig())
    assert sm.remaining_edits == 143788 - 73590
    assert sm.pre == pytest.approx(0.488205, abs=5e-6)
    assert sm.rst_hours == pytest.approx(701.98, abs=0.01)
    assert sm.gst_hours == pytest.approx(231.03, abs=0.01)


def test_second_arm_reference_predictions(reference_ast_path):
    outcomes = load_fixture(reference_ast_path)
    bm = budget_metrics(outcomes)
    sm = service_metrics(outcomes, EconConfig())
    assert bm.saved_budget == 76165
    assert bm.psb == pytest.approx(0.529703, abs=5e-6)
    assert sm.rst_hours == pytest.approx(676.23, abs=0.01)
    assert sm.gst_hours == pytest.approx(205.28, abs=0.01)


def test_true_negative_definition():
    assert outcome(CL, CL).is_true_negative
    assert not outcome(CL, MA).is_true_negative
    assert not outcome(MA, CL).is_true_negative
    assert not outcome(MA, MA).is_true_negative


def test_budget_metrics_simple_hand_case():
    outcomes = OutcomeSet([
        outcome(CL, CL, loc=600),   # true negative: saved
        outcome(CL, MA, loc=300),   # false positive: lost saving
        outcome(MA, MA, loc=100),   # defective: must be edited anyway
    ])
    bm = budget_metrics(outcomes)
    assert bm.saved_budget == 600
    assert bm.ptn == pytest.approx(1 / 3)
    assert bm.psb == pytest.approx(0.6)
    assert bm.lsb == pytest.approx(0.3)
    sm = service_metrics(outcomes, EconConfig(delta=100.0))
    assert sm.remaining_edits == 400
    assert sm.pre == pytest.approx(0.4)
    assert sm.pntn == pytest.approx(2 / 3)
    assert sm.rst_hours == pytest.approx(4.0)
    assert sm.gst_hours == pytest.approx(3.0)


def test_service_delta_scales_hours():
    outcomes = OutcomeSet([outcome(CL, MA, loc=500), outcome(CL, CL, loc=500)])
    fast = service_metrics(outcomes, EconConfig(delta=500.0))
    slow = service_metrics(outcomes, EconConfig(delta=50.0))
    assert fast.rst_hours == pytest.approx(1.0)
    assert slow.rst_hours == pytest.approx(10.0)
    assert fast.gst_hours == pytest.approx(1.0)  # the false positive is clean LoC


def test_identities_over_random_outcome_sets():
    rng = np.random.default_rng(99)
    for _ in range(300):
        outcomes = random_outcome_set(rng)
        bm = budget_metrics(outcomes)
        sm = service_metrics(outcomes, EconConfig())
        total = outcomes.total_loc
        clean_loc = sum(o.loc for o in outcomes if o.actual is CL)
        defective_loc = total - clean_loc
        assert bm.saved_budget + sm.remaining_edits == total
        assert bm.psb + sm.pre == pytest.approx(1.0, abs=1e-12)
        assert bm.psb + bm.lsb == pytest.approx(clean_loc / total, abs=1e-12)
        assert sm.rst_hours - sm.gst_hours == pytest.approx(defective_loc / 100.0, abs=1e-9)
        assert 0.0 <= bm.psb <= 1.0 and 0.0 <= bm.lsb <= 1.0
        assert 0.0 <= sm.pre <= 1.0 and 0.0 <= sm.pntn <= 1.0
        assert sm.rst_hours >= sm.gst_hours >= 0.0


# ---------------------------------------------------------------------------
# report assembly


def test_full_report_field_names_and_csv_row(reference_bst_path):
    outcomes = load_fixture(reference_bst_path)
    report = full_report(outcomes)
    as_dict = report.to_json_dict()
    expected_keys = {
        "accuracy", "per_class", "f_measure_macro", "f_measure_weighted",
        "risk_factor", "system_rf", "ptn", "psb", "saved_budget", "lsb",
        "pntn", "pre", "remaining_edits", "rst_hours", "gst_hours",
        "delta", "ordinal_weights",
    }
    assert set(as_dict) == expected_keys
    assert json.dumps(as_dict)  # serialisable
    row = report.csv_values()
    assert len(row) == len(REPORT_CSV_HEADER)
    by_name = dict(zip(REPORT_CSV_HEADER, row))
    assert by_name["psb"] == pytest.approx(0.511795, abs=5e-6)
    assert by_name["rst_hours"] == pytest.approx(701.98, abs=0.01)
    assert by_name["system_rf"] == pytest.approx(0.706268, abs=5e-6)


def test_full_report_risk_factor_block(reference_bst_path):
    report = full_report(load_fixture(reference_bst_path))
    assert report.risk_factor["high_severity"] == pytest.approx(0.3, abs=5e-6)
    assert report.risk_factor["critical"] == pytest.approx(0.19, abs=5e-6)
    assert report.risk_factor["major"] == pytest.approx(0.152632, abs=5e-6)
    assert report.risk_factor["non_trivial"] == pytest.approx(0.063636, abs=5e-6)


def test_custom_ordinal_weights_flow_through():
    outcomes = OutcomeSet([outcome(HS, CL, loc=10), outcome(CL, CL, loc=10)])
    config = EconConfig(ordinal_weights=(1.0, 2.0, 3.0, 4.0, 5.0))
    report = full_report(outcomes, config)
    assert report.risk_factor["high_severity"] == pytest.approx(4.0)
    assert report.ordinal_weights == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_econ_config_validation():
    with pytest.raises(SevpredictError):
        EconConfig(delta=0.0)
    with pytest.raises(SevpredictError):
        EconConfig(delta=-5.0)
    with pytest.raises(SevpredictError):
        EconConfig(ordinal_weights=(0.5, 0.4, 0.3, 0.2, 0.1))
    with pytest.raises(SevpredictError):
        EconConfig(ordinal_weights=(0.1, 0.1, 0.3, 0.4, 0.5))
    with pytest.raises(SevpredictError):
        EconConfig(ordinal_weights=(-0.1, 0.2, 0.3, 0.4, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [None, 0, 1, 2, 3, 4])
def test_econ_config_rejects_non_finite_values(bad, position):
    # position None puts the bad value in delta, an index in that weight
    if position is None:
        kwargs = {"delta": bad}
    else:
        weights = list(EconConfig().ordinal_weights)
        weights[position] = bad
        kwargs = {"ordinal_weights": tuple(weights)}
    with pytest.raises(SevpredictError, match="finite"):
        EconConfig(**kwargs)


def test_default_weights_match_config_default():
    assert EconConfig().weight_map() == dict(zip(SEVERITY_ORDER, (0.1, 0.2, 0.3, 0.4, 0.5)))
    assert DEFAULT_WEIGHTS[HS] == 0.1 and DEFAULT_WEIGHTS[CL] == 0.5


# ---------------------------------------------------------------------------
# outcomes plumbing


def test_outcome_requires_positive_loc():
    with pytest.raises(SevpredictError):
        outcome(CL, CL, loc=0)
    with pytest.raises(SevpredictError):
        outcome(CL, CL, loc=-10)


def test_outcome_set_rejects_empty():
    with pytest.raises(SevpredictError):
        OutcomeSet([])


def test_predictions_round_trip(tmp_path, reference_bst_path):
    outcomes = load_fixture(reference_bst_path)
    path = tmp_path / "p.csv"
    with open(path, "w", newline="") as fh:
        write_predictions(outcomes, fh)
    with open(path, newline="") as fh:
        again = parse_predictions(fh)
    assert [(o.module_id, o.loc, o.actual, o.predicted) for o in again] == \
           [(o.module_id, o.loc, o.actual, o.predicted) for o in outcomes]


def test_parse_predictions_schema_errors():
    with pytest.raises(SchemaError):
        parse_predictions(io.StringIO("module_id,loc,actual\nx,1,clean\n"))
    with pytest.raises(RowError, match="severity"):
        parse_predictions(io.StringIO(
            "module_id,loc,actual,predicted\nx,10,clean,blocker\n"))
    with pytest.raises(RowError, match="loc"):
        parse_predictions(io.StringIO(
            "module_id,loc,actual,predicted\nx,0,clean,clean\n"))
