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
    SEVERITY_ORDER,
    SevpredictError,
    accuracy,
    build_confusion,
    full_report,
    parse_predictions,
    risk_factor,
    system_risk_factor,
    write_predictions,
)
from sevpredict.errors import RowError, SchemaError
from sevpredict.metrics import RATE_COLUMNS, REPORT_CSV_HEADER, RISK_COLUMNS

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
    return rows


# ---------------------------------------------------------------------------
# confusion matrix and headline rates


def test_confusion_matrix_placement():
    cm = build_confusion([
        outcome(HS, MA), outcome(HS, MA), outcome(CL, CL), outcome(MA, HS),
    ])
    assert cm.count(HS, MA) == 2
    assert cm.count(MA, HS) == 1
    assert cm.count(CL, CL) == 1
    assert cm.count(HS, HS) == 0
    assert cm.n_t == 4
    assert cm.actual_total(HS) == 2
    assert cm.predicted_total(MA) == 2


def test_confusion_matrix_sums_loc_per_cell():
    cm = build_confusion([
        outcome(HS, MA, loc=10), outcome(HS, MA, loc=32),
        outcome(CL, CL, loc=7), outcome(CL, NT, loc=5),
    ])
    assert cm.loc[0][2] == 42
    assert cm.loc[4][4] == 7 and cm.loc[4][3] == 5
    assert sum(map(sum, cm.loc)) == cm.total_loc == 54
    nonzero = lambda grid: [[v > 0 for v in row] for row in grid]
    assert nonzero(cm.loc) == nonzero(cm.counts)


def test_accuracy_is_diagonal_share():
    cm = build_confusion([
        outcome(CL, CL), outcome(CL, CL), outcome(MA, MA), outcome(MA, CL),
    ])
    assert accuracy(cm) == pytest.approx(0.75)


def test_f_measures_perfect_prediction():
    report = full_report([outcome(CL, CL), outcome(MA, MA)])
    assert report.per_class["clean"]["f1"] == pytest.approx(1.0)
    assert report.per_class["major"]["f1"] == pytest.approx(1.0)
    assert report.f_measure_macro == pytest.approx(1.0)
    assert report.f_measure_weighted == pytest.approx(1.0)


def test_f_measures_absent_class_excluded_from_macro():
    # HS never appears in actuals; it must not drag the macro mean down
    report = full_report([
        outcome(CL, CL), outcome(CL, CL), outcome(MA, MA), outcome(MA, MA),
    ])
    assert report.per_class["high_severity"]["f1"] == 0.0
    assert report.f_measure_macro == pytest.approx(1.0)


def test_f_measure_half_precision_full_recall():
    # every MA found, but as many false alarms: P=0.5, R=1, F1=2/3
    report = full_report([
        outcome(MA, MA), outcome(MA, MA), outcome(CL, MA), outcome(CL, MA),
        outcome(CL, CL), outcome(CL, CL),
    ])
    assert report.per_class["major"] == pytest.approx({"precision": 0.5, "recall": 1.0, "f1": 2 / 3})


def test_f_measures_zero_denominators_give_zero():
    report = full_report([outcome(CL, MA), outcome(MA, CL)])
    assert report.per_class["clean"]["f1"] == 0.0
    assert report.per_class["major"]["f1"] == 0.0
    assert report.f_measure_weighted == 0.0


def test_weighted_f_measure_uses_actual_supports():
    report = full_report([outcome(CL, CL)] * 3 + [outcome(MA, CL)])
    # CL: P=3/4, R=1 -> F1=6/7; MA: F1=0; weighted = (3*6/7 + 1*0)/4
    assert report.f_measure_weighted == pytest.approx(3 / 4 * 6 / 7)


# ---------------------------------------------------------------------------
# risk factor


def test_risk_factor_worst_case_miss():
    # an HS module predicted clean costs |0.1 - 0.5| = 0.4
    cm = build_confusion([outcome(HS, CL)])
    rf = risk_factor(cm)
    assert rf[HS] == pytest.approx(0.4)


def test_risk_factor_one_step_under():
    cm = build_confusion([outcome(HS, CR)])
    assert risk_factor(cm)[HS] == pytest.approx(0.1)


def test_risk_factor_ignores_over_severe_predictions():
    cm = build_confusion([outcome(MA, HS), outcome(MA, CR), outcome(MA, MA)])
    assert risk_factor(cm)[MA] == 0.0


def test_risk_factor_averages_over_class_support():
    # two HS modules: one caught exactly, one sent to clean
    cm = build_confusion([outcome(HS, HS), outcome(HS, CL)])
    assert risk_factor(cm)[HS] == pytest.approx(0.2)


def test_risk_factor_two_misses_mixed():
    cm = build_confusion([outcome(HS, CR), outcome(HS, CL)])
    # (0.1 + 0.4) / 2
    assert risk_factor(cm)[HS] == pytest.approx(0.25)


def test_risk_factor_absent_class_is_zero():
    cm = build_confusion([outcome(CL, CL)])
    rf = risk_factor(cm)
    assert all(rf[cls] == 0.0 for cls in DEFECTIVE_CLASSES)


def test_system_risk_factor_sums_components():
    mapping = {HS: 0.3, CR: 0.19, MA: 0.152632, NT: 0.063636}
    assert system_risk_factor(mapping) == pytest.approx(0.706268, abs=1e-9)
    with pytest.raises(SevpredictError):
        system_risk_factor({HS: 0.1})


def test_risk_factor_custom_weights():
    cm = build_confusion([outcome(HS, CL)])
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
    report = full_report(load_fixture(reference_bst_path))
    assert report.saved_budget == 73590
    assert report.ptn == pytest.approx(18 / 72)  # module-count share, not LoC
    assert report.psb == pytest.approx(0.511795, abs=5e-6)
    assert report.lsb == pytest.approx(0.160674, abs=5e-6)


def test_service_metrics_on_reference_predictions(reference_bst_path):
    report = full_report(load_fixture(reference_bst_path), EconConfig())
    assert report.remaining_edits == 143788 - 73590
    assert report.pre == pytest.approx(0.488205, abs=5e-6)
    assert report.rst_hours == pytest.approx(701.98, abs=0.01)
    assert report.gst_hours == pytest.approx(231.03, abs=0.01)


def test_second_arm_reference_predictions(reference_ast_path):
    report = full_report(load_fixture(reference_ast_path), EconConfig())
    assert report.saved_budget == 76165
    assert report.psb == pytest.approx(0.529703, abs=5e-6)
    assert report.rst_hours == pytest.approx(676.23, abs=0.01)
    assert report.gst_hours == pytest.approx(205.28, abs=0.01)


def test_true_negative_definition():
    # only the (clean, clean) cell counts as a true negative
    for actual, predicted, tn in ((CL, CL, 1), (CL, MA, 0), (MA, CL, 0), (MA, MA, 0)):
        report = full_report([outcome(actual, predicted)])
        assert report.ptn == tn
        assert report.saved_budget == 100 * tn


def test_budget_metrics_simple_hand_case():
    report = full_report([
        outcome(CL, CL, loc=600),   # true negative: saved
        outcome(CL, MA, loc=300),   # false positive: lost saving
        outcome(MA, MA, loc=100),   # defective: must be edited anyway
    ], EconConfig(delta=100.0))
    assert report.saved_budget == 600
    assert report.ptn == pytest.approx(1 / 3)
    assert report.psb == pytest.approx(0.6)
    assert report.lsb == pytest.approx(0.3)
    assert report.remaining_edits == 400
    assert report.pre == pytest.approx(0.4)
    assert report.pntn == pytest.approx(2 / 3)
    assert report.rst_hours == pytest.approx(4.0)
    assert report.gst_hours == pytest.approx(3.0)


def test_service_delta_scales_hours():
    outcomes = [outcome(CL, MA, loc=500), outcome(CL, CL, loc=500)]
    fast = full_report(outcomes, EconConfig(delta=500.0))
    slow = full_report(outcomes, EconConfig(delta=50.0))
    assert fast.rst_hours == pytest.approx(1.0)
    assert slow.rst_hours == pytest.approx(10.0)
    assert fast.gst_hours == pytest.approx(1.0)  # the false positive is clean LoC


def test_identities_over_random_outcome_sets():
    rng = np.random.default_rng(99)
    for _ in range(300):
        outcomes = random_outcome_set(rng)
        r = full_report(outcomes, EconConfig())
        total = sum(o.loc for o in outcomes)
        clean_loc = sum(o.loc for o in outcomes if o.actual is CL)
        defective_loc = total - clean_loc
        assert r.saved_budget + r.remaining_edits == total
        assert r.psb + r.pre == pytest.approx(1.0, abs=1e-12)
        assert r.psb + r.lsb == pytest.approx(clean_loc / total, abs=1e-12)
        assert r.rst_hours - r.gst_hours == pytest.approx(defective_loc / 100.0, abs=1e-9)
        assert 0.0 <= r.psb <= 1.0 and 0.0 <= r.lsb <= 1.0
        assert 0.0 <= r.pre <= 1.0 and 0.0 <= r.pntn <= 1.0
        assert r.rst_hours >= r.gst_hours >= 0.0


def _reference_clean_split(outcomes):
    """Reference: (true negatives, their LoC, LoC of clean modules flagged), outcome by outcome."""
    tn = saved = flagged = 0
    for o in outcomes:
        if o.actual is CL and o.predicted is CL:
            tn += 1
            saved += o.loc
        elif o.actual is CL:
            flagged += o.loc
    return tn, saved, flagged


def test_budget_and_service_match_a_per_outcome_pass():
    rng = np.random.default_rng(7)
    config = EconConfig(delta=37.0)
    names = ("ptn", "saved_budget", "psb", "lsb", "pntn", "remaining_edits", "pre", "rst_hours", "gst_hours")
    for _ in range(300):
        outcomes = random_outcome_set(rng)
        n, total = len(outcomes), sum(o.loc for o in outcomes)
        tn, saved, flagged = _reference_clean_split(outcomes)
        report = full_report(outcomes, config)
        # the same int divisions, so the floats are equal, not just close
        assert tuple(getattr(report, name) for name in names) == (
            tn / n, saved, saved / total, flagged / total,
            (n - tn) / n, total - saved, (total - saved) / total,
            (total - saved) / config.delta, flagged / config.delta,
        )


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
    assert REPORT_CSV_HEADER == RATE_COLUMNS + RISK_COLUMNS
    row = report.csv_values()
    assert row == [report.column(name) for name in REPORT_CSV_HEADER]
    by_name = dict(zip(REPORT_CSV_HEADER, row))
    assert by_name["f_measure"] == report.f_measure_weighted
    assert by_name["rf_major"] == report.risk_factor["major"]
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
    outcomes = [outcome(HS, CL, loc=10), outcome(CL, CL, loc=10)]
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
    with pytest.raises(SevpredictError, match="outcome set is empty"):
        build_confusion([])
    with pytest.raises(SevpredictError, match="outcome set is empty"):
        full_report([])


def test_predictions_round_trip(tmp_path, reference_bst_path):
    outcomes = load_fixture(reference_bst_path)
    path = tmp_path / "p.csv"
    with open(path, "w", newline="") as fh:
        write_predictions(outcomes, fh)
    with open(path, newline="") as fh:
        again = parse_predictions(fh)
    assert [(o.module_id, o.loc, o.actual, o.predicted) for o in again] == \
           [(o.module_id, o.loc, o.actual, o.predicted) for o in outcomes]


def test_write_predictions_numbers_missing_ids_past_those_in_use():
    outcomes = [Outcome(CL, CL, 10), Outcome(MA, CL, 20, "m00001"), Outcome(HS, HS, 30)]
    out = io.StringIO()
    write_predictions(outcomes, out)
    assert [o.module_id for o in parse_predictions(io.StringIO(out.getvalue()))] == ["m00000", "m00001", "m00002"]


def test_parse_predictions_drops_one_leading_byte_order_mark():
    text = "module_id,loc,actual,predicted\nx,10,clean,major\n"
    assert parse_predictions(io.StringIO("\ufeff" + text)) == parse_predictions(io.StringIO(text))
    for bad in ("\ufeff\ufeff" + text, text.replace(",loc", ",\ufeffloc"), "\n" + text):
        with pytest.raises(SchemaError, match="^predictions header must be module_id,loc,actual,predicted$"):
            parse_predictions(io.StringIO(bad))


def test_parse_predictions_schema_errors():
    with pytest.raises(SchemaError):
        parse_predictions(io.StringIO("module_id,loc,actual\nx,1,clean\n"))
    with pytest.raises(RowError, match="severity"):
        parse_predictions(io.StringIO(
            "module_id,loc,actual,predicted\nx,10,clean,blocker\n"))
    with pytest.raises(RowError, match="loc"):
        parse_predictions(io.StringIO(
            "module_id,loc,actual,predicted\nx,0,clean,clean\n"))
    with pytest.raises(RowError, match=r"^row 2: column 'loc' must be <= 2\*\*53"):
        parse_predictions(io.StringIO(
            f"module_id,loc,actual,predicted\nx,{2**53 + 1},clean,clean\n"))
