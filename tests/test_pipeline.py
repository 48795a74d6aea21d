from __future__ import annotations

import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpredict import (
    EconConfig,
    ExperimentReport,
    Outcome,
    PipelineConfig,
    SamplerConfig,
    SelfTrainConfig,
    TreeConfig,
    SevpredictError,
    average_reports,
    compare,
    full_report,
    parse_predictions,
    report_to_json,
    run_experiment,
    run_kfold,
    save_corpus,
    self_train,
    synth_corpus,
    write_comparison_tables,
)
from sevpredict.pipeline import SCALAR_FIELDS

from conftest import CL, CR, MA, NT


def demo_corpus(seed=0, unlabelled=12):
    return synth_corpus(
        {CL: 30, MA: 12, CR: 6, NT: 9}, 3, 3.0, n_unlabelled=unlabelled, seed=seed
    )


# ---------------------------------------------------------------------------
# experiment runs


def test_run_experiment_shape():
    corpus = demo_corpus()
    report = run_experiment(corpus, PipelineConfig(seed=5), project="demo")
    assert report.project == "demo"
    assert report.bst.delta == report.ast.delta
    training = report.training
    assert training["bst_train_size"] > 0
    assert training["ast_train_size"] == training["bst_train_size"] + training["accepted_pseudo"]
    assert training["accepted_pseudo"] + training["residual_unlabelled"] == 12
    assert training["test_modules"] == len(report.test_outcomes)
    assert training["test_total_loc"] == sum(r["loc"] for r in report.test_outcomes)
    for row in report.test_outcomes:
        assert set(row) == {"module_id", "loc", "actual", "bst", "ast"}


def test_run_experiment_is_byte_deterministic():
    corpus = demo_corpus()
    a = run_experiment(corpus, PipelineConfig(seed=7))
    b = run_experiment(corpus, PipelineConfig(seed=7))
    assert report_to_json(a) == report_to_json(b)
    c = run_experiment(corpus, PipelineConfig(seed=8))
    assert report_to_json(c) != report_to_json(a)


def test_report_json_layout():
    report = run_experiment(demo_corpus(), PipelineConfig(seed=1), project="p")
    doc = json.loads(report_to_json(report))
    assert set(doc) == {
        "project", "corpus", "training", "bst", "ast", "deltas",
        "self_training", "test_outcomes", "config",
    }
    assert doc["config"]["seed"] == 1
    assert doc["config"]["gamma"] == 0.99
    assert doc["self_training"]["status"] in ("exhausted_U", "no_progress", "max_iterations")
    assert report_to_json(report).endswith("\n")


def test_arms_share_the_test_set():
    report = run_experiment(demo_corpus(), PipelineConfig(seed=3))
    # both arms scored on the identical module list
    assert report.training["test_modules"] == len(report.test_outcomes)
    deltas_keys = set(report.deltas)
    assert set(SCALAR_FIELDS) <= deltas_keys
    assert "risk_factor" in deltas_keys


def test_no_unlabelled_and_matched_sampling_gives_zero_deltas():
    # with an empty pool and both arms oversampling identically, the AST
    # tree sees exactly the BST training set
    corpus = demo_corpus(unlabelled=0)
    cfg = PipelineConfig(seed=11)
    assert cfg.bst_oversample and cfg.oversample_first
    report = run_experiment(corpus, cfg)
    for field in SCALAR_FIELDS:
        assert report.deltas[field] == pytest.approx(0.0, abs=1e-12)
    for value in report.deltas["risk_factor"].values():
        assert value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bst_oversample", [True, False])
@pytest.mark.parametrize("oversample_first", [True, False])
def test_arms_share_one_pool_and_tree_per_flag(monkeypatch, bst_oversample, oversample_first):
    import sevpredict.pipeline as pipeline

    calls = {"adasyn_balance": 0, "fit_tree": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(getattr(pipeline, name)))
    cfg = PipelineConfig(seed=5, bst_oversample=bst_oversample, oversample_first=oversample_first)
    report = run_experiment(demo_corpus(), cfg)
    assert calls["adasyn_balance"] == int(bst_oversample or oversample_first)
    assert calls["fit_tree"] == (1 if bst_oversample == oversample_first else 2)
    training = report.training
    if bst_oversample == oversample_first:
        assert training["ast_train_size"] == training["bst_train_size"] + training["accepted_pseudo"]


@pytest.mark.parametrize("flags", [(), ("--bst-raw", "--folds", "3", "--table")])
def test_a_run_builds_no_labelled_row_from_file_to_report(monkeypatch, tmp_path, capsys, flags):
    import sevpredict.corpus as corpus_module
    from sevpredict import cli

    path = tmp_path / "c.csv"
    save_corpus(demo_corpus(unlabelled=40), path)
    built = []
    init = corpus_module.LabelledInstance.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(corpus_module.LabelledInstance, "__init__", counting_init)
    assert cli.main(["run", str(path), "--seed", "3", "--out", str(tmp_path / "out"), *flags]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report_c.json").read_text())
    assert report["training"]["accepted_pseudo"] > 0  # the self-training refits ran too
    assert built == []
    assert corpus_module.LabelledInstance((1.0,), 5, CL).loc == 5 and len(built) == 1  # counting works


def test_oversample_first_balances_before_looping(monkeypatch):
    import sevpredict.pipeline as pipeline

    pools = []

    def recording_self_train(tree, labelled, *args, **kwargs):
        pools.append(labelled)
        return self_train(tree, labelled, *args, **kwargs)

    monkeypatch.setattr(pipeline, "self_train", recording_self_train)
    cfg = PipelineConfig(seed=3, bst_oversample=False, oversample_first=True)
    report = run_experiment(demo_corpus(unlabelled=0), cfg)
    (pool,) = pools
    assert pool[report.training["bst_train_size"]:]  # ADASYN's rows, after the raw pool
    assert report.training["ast_train_size"] > report.training["bst_train_size"]


def test_run_experiment_rejects_single_class_corpus():
    corpus = synth_corpus({CL: 20}, 2, 1.0, seed=0)
    with pytest.raises(SevpredictError):
        run_experiment(corpus, PipelineConfig(seed=0))


# ---------------------------------------------------------------------------
# comparisons


def test_compare_on_reference_fixture(reference_bst_path, reference_ast_path):
    with open(reference_bst_path, newline="") as fh:
        bst = full_report(parse_predictions(fh))
    with open(reference_ast_path, newline="") as fh:
        ast = full_report(parse_predictions(fh))
    deltas = compare(bst, ast)
    assert deltas["psb"] == pytest.approx(0.0179, abs=5e-5)
    assert deltas["rst_hours"] == pytest.approx(-25.75, abs=0.01)
    assert deltas["system_rf"] == pytest.approx(0.584833 - 0.706268, abs=5e-6)
    assert deltas["risk_factor"]["high_severity"] == pytest.approx(-0.15, abs=5e-6)


def test_compare_requires_matching_economics():
    outcomes = parse_predictions(iter([
        "module_id,loc,actual,predicted", "a,10,clean,clean", "b,20,major,major",
    ]))
    base = full_report(outcomes, EconConfig(delta=100.0))
    other = full_report(outcomes, EconConfig(delta=50.0))
    with pytest.raises(SevpredictError):
        compare(base, other)


def test_compare_is_antisymmetric(reference_bst_path, reference_ast_path):
    with open(reference_bst_path, newline="") as fh:
        bst = full_report(parse_predictions(fh))
    with open(reference_ast_path, newline="") as fh:
        ast = full_report(parse_predictions(fh))
    forward = compare(bst, ast)
    backward = compare(ast, bst)
    for field in SCALAR_FIELDS:
        assert forward[field] == pytest.approx(-backward[field], abs=1e-12)


# ---------------------------------------------------------------------------
# k-fold and averaging


def test_run_kfold_covers_every_module_once():
    corpus = demo_corpus(seed=2, unlabelled=5)
    cfg = PipelineConfig(seed=4, folds=3)
    reports = run_kfold(corpus, cfg, project="demo")
    assert [r.project for r in reports] == ["demo_fold0", "demo_fold1", "demo_fold2"]
    seen = []
    for r in reports:
        seen.extend(row["module_id"] for row in r.test_outcomes)
    assert len(seen) == len(set(seen)) == len(corpus.labelled)


def test_run_kfold_with_too_many_folds_names_folds():
    # largest class 3: a fourth fold gets no test module
    corpus = synth_corpus({CL: 3, MA: 3, CR: 3}, 2, 3.0, seed=0)
    with pytest.raises(SevpredictError, match=r"^folds=4 leaves fold 3 with an empty test set"):
        run_kfold(corpus, PipelineConfig(seed=0, folds=4))
    assert len(run_kfold(corpus, PipelineConfig(seed=0, folds=3))) == 3


def test_run_kfold_requires_folds_setting():
    with pytest.raises(SevpredictError):
        run_kfold(demo_corpus(), PipelineConfig(seed=0))


def test_average_reports_means_scalars():
    corpus = demo_corpus(seed=3)
    reports = run_kfold(corpus, PipelineConfig(seed=6, folds=3))
    avg = average_reports(reports, project="avg")
    assert avg.project == "avg"
    for field in SCALAR_FIELDS:
        values = [getattr(r.bst, field) for r in reports]
        assert getattr(avg.bst, field) == pytest.approx(sum(values) / len(values))
    rf_vals = [r.ast.risk_factor["major"] for r in reports]
    assert avg.ast.risk_factor["major"] == pytest.approx(sum(rf_vals) / len(rf_vals))
    assert avg.trace is None
    assert avg.test_outcomes == []
    assert avg.corpus_summary == {"aggregated_from": [r.project for r in reports]}


def test_average_reports_rejects_empty():
    with pytest.raises(SevpredictError):
        average_reports([])


def test_average_past_the_float_range_names_delta():
    # each run's 1e308 hours is finite; their sum, and so the mean, is not
    scored = full_report([Outcome(MA, CL, 1)], EconConfig(delta=1e-308))
    report = ExperimentReport("p", {}, {}, scored, scored, {}, None, [], {})
    with pytest.raises(SevpredictError, match="^delta 1e-308 is too small"):
        average_reports([report, report])


# ---------------------------------------------------------------------------
# tables


def test_write_comparison_tables(tmp_path):
    corpus = demo_corpus(seed=5)
    reports = run_kfold(corpus, PipelineConfig(seed=9, folds=2))
    paths = write_comparison_tables(reports, average_reports(reports), tmp_path)
    names = [p.split("/")[-1] for p in map(str, paths)]
    assert names == ["risk_factors.csv", "performance.csv", "budget_edits.csv"]

    with open(paths[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "project"
    assert [r[0] for r in rows[1:]] == ["corpus_fold0", "corpus_fold1", "average"]

    with open(paths[2], newline="") as fh:
        budget = list(csv.reader(fh))
    assert budget[-1][0] == "total"
    # the total row sums the integer LoC columns
    saved_col = budget[0].index("saved_budget_bst")
    total = sum(float(r[saved_col]) for r in budget[1:-1])
    assert float(budget[-1][saved_col]) == pytest.approx(total)


def test_single_report_tables_skip_summary_rows(tmp_path):
    corpus = demo_corpus(seed=6)
    report = run_experiment(corpus, PipelineConfig(seed=2), project="solo")
    paths = write_comparison_tables([report], None, tmp_path)
    for path in paths:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + the one project
        assert rows[1][0] == "solo"


# ---------------------------------------------------------------------------
# configuration plumbing


def test_pipeline_config_validation():
    with pytest.raises(SevpredictError):
        PipelineConfig(seed=0, test_fraction=0.0)
    with pytest.raises(SevpredictError):
        PipelineConfig(seed=0, test_fraction=1.0)
    with pytest.raises(SevpredictError):
        PipelineConfig(seed=0, folds=1)
    with pytest.raises(SevpredictError, match="seed"):
        PipelineConfig(seed=-1)


@st.composite
def valid_configs(draw):
    weights = sorted(draw(st.sets(st.floats(0.01, 100.0), min_size=5, max_size=5)))
    return PipelineConfig(
        seed=draw(st.integers(0, 2**32)),
        test_fraction=draw(st.floats(0.01, 0.99)),
        folds=draw(st.none() | st.integers(2, 20)),
        sampler=SamplerConfig(
            k_neighbors=draw(st.integers(1, 20)),
            beta=draw(st.floats(0.0, 1.0)),
            d_threshold=draw(st.floats(0.0, 1.0, exclude_min=True)),
        ),
        tree=TreeConfig(
            min_samples_split=draw(st.integers(2, 50)),
            max_depth=draw(st.none() | st.integers(0, 30)),
        ),
        selftrain=SelfTrainConfig(
            gamma=draw(st.floats(0.0, 1.0)),
            max_iterations=draw(st.integers(1, 100)),
        ),
        econ=EconConfig(delta=draw(st.floats(0.01, 1e6)), ordinal_weights=tuple(weights)),
        bst_oversample=draw(st.booleans()),
        oversample_first=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_settings_round_trip(cfg):
    assert PipelineConfig.from_settings(cfg.settings()) == cfg
    # through JSON too, as the report's config echo is read back
    echoed = json.loads(json.dumps(cfg.settings()))
    assert PipelineConfig.from_settings(echoed) == cfg


def test_settings_echo_names_every_setting_once():
    assert set(PipelineConfig().settings()) == {
        "seed", "test_fraction", "folds", "k_neighbors", "beta", "d_threshold",
        "min_samples_split", "max_depth", "gamma", "max_iterations",
        "oversample_first", "delta", "ordinal_weights", "bst_oversample",
    }
