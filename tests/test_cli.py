from __future__ import annotations

import csv
import json
import os
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevpredict import SevpredictError, load_corpus, save_corpus, synth_corpus
from sevpredict.cli import _project_names, main

from conftest import DATA_DIR, GOLDEN_CORPORA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_fixture(capsys, mini_fixture_path):
    code, out, err = run(capsys, "validate", str(mini_fixture_path))
    assert code == 0
    assert err == ""
    assert "modules" in out and "18" in out
    assert "high_severity" in out and "unlabelled" in out


def test_validate_reports_bad_rows(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "module_id,loc,n_high_severity,n_critical,n_major,n_non_trivial,n_total_defects,m1\n"
        "a,10,0,0,0,0,0,1.5\n"
        "b,-3,0,0,0,0,0,2.5\n"
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "row 3" in err and "loc" in err
    assert "modules" in out  # summary still printed for the good rows


@pytest.mark.parametrize(
    "command, name, flags",
    [
        ("validate", "mini_fixture.csv", []),
        ("run", "mini_fixture.csv", ["--seed", "1", "--table"]),
        ("metrics", "reference_bst_predictions.csv", []),
    ],
)
def test_a_leading_byte_order_mark_changes_no_output(capsys, tmp_path, command, name, flags):
    # Excel's "CSV UTF-8" starts the file with the UTF-8 encoded U+FEFF
    marked = tmp_path / "marked" / name
    marked.parent.mkdir()
    marked.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / name).read_bytes())
    seen = []
    for path, out_dir in ((DATA_DIR / name, tmp_path / "plain_out"), (marked, tmp_path / "marked_out")):
        out_flags = [] if command == "validate" else ["--out", str(out_dir)]
        code, out, err = run(capsys, command, str(path), *flags, *out_flags)
        files = {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir.exists() else {}
        seen.append((code, out.replace(str(out_dir), "OUT"), err, files))
    assert seen[0] == seen[1]
    assert seen[0][0] == 0 and seen[0][2] == "" and (command == "validate" or seen[0][3])


def test_validate_missing_column_names_it(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("module_id,n_critical\na,0\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "loc" in err


def test_validate_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.csv"))
    assert code == 2
    assert err != ""


# ---------------------------------------------------------------------------
# malformed input of any command: exit 1, one line


CORPUS_HEADER = "module_id,loc,n_high_severity,n_critical,n_major,n_non_trivial,n_total_defects,m1\n"
HUGE_FIELD = "9" * 140_000  # past csv.field_size_limit()


@pytest.mark.parametrize("command", ["validate", "run", "metrics"])
@pytest.mark.parametrize("defect", ["undecodable", "oversized"])
def test_unparseable_csv_exits_1_with_one_line(capsys, tmp_path, command, defect):
    if command == "metrics":
        head, good, bad = "module_id,loc,actual,predicted\n", "a,10,clean,clean\n", "b,10,clean,{}\n"
    else:
        head, good, bad = CORPUS_HEADER, "a,10,0,0,0,0,0,1.5\n", "b,10,0,0,0,0,0,{}\n"
    path = tmp_path / "input.csv"
    bad = bad.format("\xff" if defect == "undecodable" else HUGE_FIELD)
    path.write_bytes((head + good + bad).encode("latin-1"))  # \xff: not UTF-8
    extra = ["--seed", "1"] if command == "run" else []
    if command != "validate":
        extra += ["--out", str(tmp_path / "out")]
    code, _, err = run(capsys, command, str(path), *extra)
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (str(path) if defect == "undecodable" else "row 3: field larger than field limit") in err


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--seed", "abc"),
        ("run", "x.csv", "--gamma", "abc"),
        ("synth", "--seed", "1", "--clean", "5", "--separation", "-inf"),
        ("run",),
    ],
)
def test_malformed_command_line_exits_1_with_one_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert out == "" and err.startswith("error: sevpredict ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def write_wide_fixture(mini_fixture_path, tmp_path):
    """The mini fixture with wmc at -1.7e308 and 1.7e308: its span overflows to inf."""
    lines = mini_fixture_path.read_text().splitlines()
    for row, value in ((1, "-1.7e308"), (2, "1.7e308")):  # column 7 is wmc
        cells = lines[row].split(",")
        cells[7] = value
        lines[row] = ",".join(cells)
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.filterwarnings("error")
def test_feature_wider_than_the_float_range_exits_1_with_one_line(capsys, tmp_path, mini_fixture_path):
    path = write_wide_fixture(mini_fixture_path, tmp_path)
    code, out, err = run(capsys, "run", str(path), "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == "" and err == "error: feature 1 spans more than the float range and cannot be scaled\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extra", [["--beta", "0"], ["--config", "low_threshold.json"]])
def test_feature_wider_than_the_float_range_runs_when_no_class_is_topped_up(
    capsys, tmp_path, mini_fixture_path, extra
):
    # the training classes hold 2 to 4 modules (ratios 0.5 and 0.75): d_threshold 0.4 tops up none
    path = write_wide_fixture(mini_fixture_path, tmp_path)
    (tmp_path / "low_threshold.json").write_text('{"d_threshold": 0.4}')
    extra = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in extra]
    code, out, err = run(capsys, "run", str(path), "--seed", "1", "--out", str(tmp_path / "out"), *extra)
    assert code == 0 and err == ""
    doc = json.loads((tmp_path / "out" / "report_wide.json").read_text())
    assert doc["training"]["bst_train_size"] == 15  # the raw training pool, nothing synthesised
    assert out.startswith("wide: BST acc=")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "usage: sevpredict run" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_loadable_corpus(capsys, tmp_path):
    out_csv = tmp_path / "demo.csv"
    code, out, _ = run(
        capsys, "synth", "--out", str(out_csv), "--seed", "3",
        "--clean", "20", "--major", "8", "--critical", "4", "--unlabelled", "6",
    )
    assert code == 0
    assert "wrote" in out and "20" not in out.split("wrote")[0]
    corpus = load_corpus(out_csv)
    assert len(corpus.labelled) == 32
    assert len(corpus.unlabelled) == 6

    code, _, _ = run(capsys, "validate", str(out_csv))
    assert code == 0


def test_synth_is_seed_stable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "synth", "--out", str(a), "--seed", "5", "--clean", "10", "--major", "4")
    run(capsys, "synth", "--out", str(b), "--seed", "5", "--clean", "10", "--major", "4")
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_empty_spec(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x.csv"), "--seed", "0")
    assert code == 1
    assert err != ""


@pytest.mark.parametrize("separation", ["nan", "inf", "-inf"])
def test_synth_rejects_non_finite_separation(capsys, tmp_path, separation):
    out_csv = tmp_path / "x.csv"
    code, _, err = run(capsys, "synth", "--out", str(out_csv), "--seed", "1",
                       "--clean", "5", "--major", "5", f"--separation={separation}")
    assert code == 1
    assert "separation must be a finite number >= 0" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out_csv.exists()


# ---------------------------------------------------------------------------
# run


def make_corpus_csv(capsys, tmp_path, name="proj", seed=3):
    out_csv = tmp_path / f"{name}.csv"
    run(capsys, "synth", "--out", str(out_csv), "--seed", str(seed),
        "--clean", "40", "--major", "15", "--critical", "8", "--non-trivial", "10",
        "--unlabelled", "12")
    return out_csv


def test_run_writes_report(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "run", str(corpus_csv), "--seed", "7", "--out", str(out_dir))
    assert code == 0
    report_path = out_dir / "report_proj.json"
    assert report_path.exists()
    doc = json.loads(report_path.read_text())
    assert doc["project"] == "proj"
    assert doc["config"]["seed"] == 7
    assert "proj:" in out and "BST" in out and "AST" in out


def test_run_same_seed_is_byte_identical(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    run(capsys, "run", str(corpus_csv), "--seed", "11", "--out", str(d1))
    run(capsys, "run", str(corpus_csv), "--seed", "11", "--out", str(d2))
    assert (d1 / "report_proj.json").read_bytes() == (d2 / "report_proj.json").read_bytes()
    d3 = tmp_path / "r3"
    run(capsys, "run", str(corpus_csv), "--seed", "12", "--out", str(d3))
    assert (d3 / "report_proj.json").read_bytes() != (d1 / "report_proj.json").read_bytes()


def test_run_gamma_zero_absorbs_all_unlabelled(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "run", str(corpus_csv), "--seed", "1",
                     "--gamma", "0", "--out", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "report_proj.json").read_text())
    assert doc["training"]["residual_unlabelled"] == 0
    assert doc["training"]["accepted_pseudo"] == 12
    assert doc["config"]["gamma"] == 0.0


def test_run_bst_raw_disables_baseline_oversampling(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "run", str(corpus_csv), "--seed", "1",
                     "--bst-raw", "--out", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "report_proj.json").read_text())
    assert doc["config"]["bst_oversample"] is False


def test_run_table_emits_three_csvs(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "run", str(corpus_csv), "--seed", "2",
                       "--table", "--out", str(out_dir))
    assert code == 0
    for name in ("risk_factors.csv", "performance.csv", "budget_edits.csv"):
        assert (out_dir / name).exists()
        assert name in out


def test_run_table_prints_loc_sums_past_2_to_the_53_exactly(capsys, tmp_path, mini_fixture_path):
    # every loc is within the 2**53 bound, but their sum is not a float64
    with open(mini_fixture_path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[1] = str(2**53 - 1)
    corpus_csv = tmp_path / "proj.csv"
    with open(corpus_csv, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "run", str(corpus_csv), "--table", "--test-fraction", "0.5",
                     "--seed", "1", "--out", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "report_proj.json").read_text())
    with open(out_dir / "budget_edits.csv", newline="") as fh:
        (table_row,) = list(csv.DictReader(fh))
    assert doc["training"]["test_total_loc"] > 2**53
    assert int(table_row["total_loc"]) == doc["training"]["test_total_loc"]
    assert int(table_row["saved_budget_bst"]) == doc["bst"]["saved_budget"]
    assert int(table_row["remaining_edits_ast"]) == doc["ast"]["remaining_edits"]


def test_run_folds_writes_fold_and_average_reports(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "run", str(corpus_csv), "--seed", "4",
                     "--folds", "3", "--out", str(out_dir))
    assert code == 0
    for i in range(3):
        assert (out_dir / f"report_proj_fold{i}.json").exists()
    assert (out_dir / "report_proj.json").exists()
    doc = json.loads((out_dir / "report_proj.json").read_text())
    assert doc["corpus"] == {"aggregated_from": [f"proj_fold{i}" for i in range(3)]}


def test_run_with_too_many_folds_names_folds(capsys, tmp_path):
    # largest class 3: a fourth fold gets no test module
    corpus_csv = tmp_path / "small.csv"
    run(capsys, "synth", "--out", str(corpus_csv), "--seed", "1",
        "--clean", "3", "--major", "3", "--critical", "3")
    code, _, err = run(capsys, "run", str(corpus_csv), "--seed", "1", "--folds", "4",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "folds" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_run_with_more_folds_than_the_largest_class_fails_at_once(capsys, tmp_path, mini_fixture_path):
    # largest class 5: fold 5 is the first empty one, however many folds are asked for
    code, out, err = run(capsys, "run", str(mini_fixture_path), "--seed", "1", "--folds", "1000000000000",
                         "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err == "error: folds=1000000000000 leaves fold 5 with an empty test set; lower folds\n"


def test_run_multiple_corpora_adds_average(capsys, tmp_path):
    a = make_corpus_csv(capsys, tmp_path, "alpha", seed=3)
    b = make_corpus_csv(capsys, tmp_path, "beta", seed=4)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "run", str(a), str(b), "--seed", "5", "--out", str(out_dir))
    assert code == 0
    # the reports and nothing else: no temp file is left behind
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "report_alpha.json", "report_average.json", "report_beta.json"
    ]
    assert "alpha:" in out and "beta:" in out and "average:" in out


def test_run_table_builds_the_average_once(capsys, tmp_path, monkeypatch):
    import sevpredict.cli as cli_module
    import sevpredict.pipeline as pipeline

    projects = []

    def counting(fn):
        def wrapper(reports, project="average"):
            projects.append(project)
            return fn(reports, project)
        return wrapper

    for module in (cli_module, pipeline):
        monkeypatch.setattr(module, "average_reports", counting(module.average_reports))
    a = make_corpus_csv(capsys, tmp_path, "alpha", seed=3)
    b = make_corpus_csv(capsys, tmp_path, "beta", seed=4)
    code, _, _ = run(capsys, "run", str(a), str(b), "--seed", "5", "--table", "--out", str(tmp_path / "out"))
    assert code == 0
    assert projects.count("average") == 1


def test_run_rejects_report_name_clashes_before_running(capsys, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = make_corpus_csv(capsys, tmp_path / "a", "x", seed=3)
    b = make_corpus_csv(capsys, tmp_path / "b", "x", seed=4)
    out_dir = tmp_path / "out"
    for inputs in ([a, b], [a, a]):
        code, out, err = run(capsys, "run", *map(str, inputs), "--seed", "5", "--out", str(out_dir))
        assert code == 1
        assert f"{inputs[0]} and {inputs[1]} would both write report_x.json" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == "" and not out_dir.exists()


def test_run_writes_nothing_when_a_later_corpus_fails(capsys, tmp_path):
    good = make_corpus_csv(capsys, tmp_path, "good", seed=3)
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes((CORPUS_HEADER + "a,10,0,0,0,0,0,\xff\n").encode("latin-1"))
    small = tmp_path / "small.csv"  # largest class 3: a fourth fold gets no test module
    run(capsys, "synth", "--out", str(small), "--seed", "1", "--clean", "3", "--major", "3")
    for bad, extra in ((undecodable, []), (small, ["--folds", "4"])):
        out_dir = tmp_path / f"out_{bad.stem}"
        code, out, err = run(capsys, "run", str(good), str(bad), "--seed", "5", "--out", str(out_dir), *extra)
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == "" and not out_dir.exists()


def test_run_rejects_a_corpus_named_average_among_several(capsys, tmp_path):
    a = make_corpus_csv(capsys, tmp_path, "alpha", seed=3)
    avg = make_corpus_csv(capsys, tmp_path, "average", seed=4)
    code, _, err = run(capsys, "run", str(a), str(avg), "--seed", "5", "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"the average over all corpora and {avg} would both write report_average.json" in err
    assert err.count("\n") == 1
    # alone it is just a corpus: no average report is written
    code, _, _ = run(capsys, "run", str(avg), "--seed", "5", "--out", str(tmp_path / "out"))
    assert code == 0


def test_run_rejects_a_corpus_named_like_another_corpus_fold(capsys, tmp_path):
    x = make_corpus_csv(capsys, tmp_path, "x", seed=3)
    fold = make_corpus_csv(capsys, tmp_path, "x_fold0", seed=4)
    code, _, err = run(capsys, "run", str(x), str(fold), "--seed", "5", "--folds", "3",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"{x} and {fold} would both write report_x_fold0.json" in err
    code, _, _ = run(capsys, "run", str(x), str(fold), "--seed", "5", "--out", str(tmp_path / "out"))
    assert code == 0


def _reference_project_names(paths: list[str], folds: int | None) -> list[str]:
    """cli._project_names as it listed every fold report of every corpus, kept as its reference."""
    owner = {"report_average.json": "the average over all corpora"} if len(paths) > 1 else {}
    projects = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    for path, project in zip(paths, projects):
        for name in [project] + [f"{project}_fold{i}" for i in range(folds or 0)]:
            report = f"report_{name}.json"
            if report in owner:
                raise SevpredictError(f"{owner[report]} and {path} would both write {report}")
            owner[report] = path
    return projects


def _names_outcome(names, *args):
    try:
        return names(*args)
    except SevpredictError as err:
        return str(err)


# project names that are, or look like, another project's fold reports
CLASH_PATHS = [
    "a/x.csv", "b/x.csv", "x_fold0.csv", "x_fold1.csv", "x_fold2", "x_fold10.csv", "x_fold01.csv",
    "x_fold-1.csv", "x_fold\u0663.csv", "x_fold1_fold0.csv", "x_fold1_fold2.csv", "average.csv",
    "average_fold0.csv", "_fold0.csv", "dir/", "y.csv", "y_fold3.tsv",
]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(CLASH_PATHS), st.integers(0, 14)), min_size=1, max_size=5),
    st.none() | st.integers(0, 12),
)
@example([("x_fold10.csv", 12), ("x_fold2", 12), ("a/x.csv", 12)], 11)  # folds 2 and 10 of x clash: 2 is named
@example([("x_fold10.csv", 12), ("x_fold2", 12), ("a/x.csv", 2)], 11)  # x deals folds 0 and 1 only
def test_project_names_match_the_reference(corpora, folds):
    """corpora: (path, labelled modules) pairs; a corpus lists no fold past its labelled count."""
    paths = [path for path, _ in corpora]
    stand_ins = [SimpleNamespace(labelled=range(n)) for _, n in corpora]
    got = _names_outcome(_project_names, paths, stand_ins, folds)
    want = _names_outcome(_reference_project_names, paths, folds)
    if all(n >= (folds or 0) for _, n in corpora):
        assert got == want
    else:  # a subset of the reference's names, in its order: a clash found is one the reference finds
        assert isinstance(got, list) or isinstance(want, str)


def test_run_lists_no_fold_past_a_corpus_size(capsys, tmp_path):
    # x has 4 labelled modules, so it lists folds 0 to 3 only and cannot clash with x_fold7;
    # its run then rejects the fold count before anything is written
    x = tmp_path / "x.csv"
    run(capsys, "synth", "--out", str(x), "--seed", "1", "--clean", "2", "--major", "2")
    fold = make_corpus_csv(capsys, tmp_path, "x_fold7", seed=4)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "run", str(x), str(fold), "--seed", "5", "--folds", "8", "--out", str(out_dir))
    assert code == 1
    assert err == "error: folds=8 leaves fold 2 with an empty test set; lower folds\n"
    assert out == "" and not out_dir.exists()


def test_run_seed_from_environment(capsys, tmp_path, monkeypatch):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out_dir = tmp_path / "out"
    monkeypatch.setenv("SEVPREDICT_SEED", "21")
    code, _, _ = run(capsys, "run", str(corpus_csv), "--out", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "report_proj.json").read_text())
    assert doc["config"]["seed"] == 21


def test_run_without_any_seed_fails(capsys, tmp_path, monkeypatch):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    monkeypatch.delenv("SEVPREDICT_SEED", raising=False)
    code, _, err = run(capsys, "run", str(corpus_csv), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize("source", ["run flag", "synth flag", "environment", "config file"])
def test_negative_seed_exits_1_naming_seed(capsys, tmp_path, monkeypatch, source):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out = str(tmp_path / "out")
    monkeypatch.delenv("SEVPREDICT_SEED", raising=False)
    if source == "run flag":
        argv = ["run", str(corpus_csv), "--seed", "-1", "--out", out]
    elif source == "synth flag":
        argv = ["synth", "--seed", "-1", "--clean", "5", "--major", "5", "--out", out]
    elif source == "environment":
        monkeypatch.setenv("SEVPREDICT_SEED", "-1")
        argv = ["run", str(corpus_csv), "--out", out]
    else:
        config = tmp_path / "config.json"
        config.write_text('{"seed": -1}')
        argv = ["run", str(corpus_csv), "--config", str(config), "--out", out]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == "" and err == "error: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def test_run_flag_overrides_config_file(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 30, "gamma": 0.5, "delta": 200.0}))
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "run", str(corpus_csv), "--config", str(config),
                     "--gamma", "0.8", "--out", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "report_proj.json").read_text())
    assert doc["config"]["seed"] == 30       # from the file
    assert doc["config"]["gamma"] == 0.8     # flag wins
    assert doc["config"]["delta"] == 200.0


def test_run_rejects_unknown_config_keys(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "gama": 0.5}))
    code, _, err = run(capsys, "run", str(corpus_csv), "--config", str(config),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "gama" in err


def test_run_rejects_malformed_config(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    config = tmp_path / "config.json"
    config.write_text("{not json")
    code, _, err = run(capsys, "run", str(corpus_csv), "--config", str(config),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "config" in err


def test_run_weights_flag_validated(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    code, _, err = run(capsys, "run", str(corpus_csv), "--seed", "1",
                       "--weights", "0.5,0.4,0.3,0.2,0.1",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "increas" in err
    code, _, err = run(capsys, "run", str(corpus_csv), "--seed", "1",
                       "--weights", "0.1,0.2", "--out", str(tmp_path / "out"))
    assert code == 1


@pytest.mark.parametrize("command", ["run", "metrics"])
@pytest.mark.parametrize(
    "content, named",
    [
        ('{"gamma": "abc"}', "gamma"),
        ('{"max_depth": "x"}', "max_depth"),
        ('{"folds": 2.5}', "folds"),
        ('{"delta": 1e999}', "delta"),
        ('{"weights": ["a", 1, 2, 3, 4]}', "weights"),
        ('{"weights": "a,1,2,3,4"}', "weights"),
        ('{"bst_oversample": "false"}', "bst_oversample"),
        ('{"oversample_first": 1}', "oversample_first"),
        ('[1]', "expected a JSON object"),
        ('"str"', "expected a JSON object"),
        ('{"seed": "abc"}', "seed"),
        ('{"seed": -1}', "seed"),
    ],
)
def test_bad_config_value_exits_1_naming_the_key(
    capsys, tmp_path, reference_bst_path, command, content, named
):
    config = tmp_path / "config.json"
    config.write_text(content)
    target = str(make_corpus_csv(capsys, tmp_path) if command == "run" else reference_bst_path)
    # a --seed flag would take the place of the file's seed
    extra = ["--seed", "1"] if command == "run" and named != "seed" else []
    code, _, err = run(capsys, command, target, *extra, "--config", str(config),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert named in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_seed_must_be_an_integer(capsys, tmp_path):
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    config = tmp_path / "config.json"
    config.write_text('{"seed": "7"}')
    code, _, err = run(capsys, "run", str(corpus_csv), "--config", str(config),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert "seed" in err


HUGE_LOC = str(10**400)
WIDE_WEIGHTS = "0.1,0.2,0.3,0.4,1e308"


@pytest.mark.parametrize(
    "command, loc, flags, named",
    [
        ("metrics", HUGE_LOC, [], "row 2: column 'loc'"),
        ("run", HUGE_LOC, [], "row 2: column 'loc'"),
        ("metrics", None, ["--delta", "1e-320"], "delta"),
        ("run", None, ["--delta", "1e-320"], "delta"),
        ("metrics", None, ["--weights", WIDE_WEIGHTS], "ordinal weights"),
        ("run", None, ["--folds", "2", "--weights", WIDE_WEIGHTS], "ordinal weights"),
    ],
    ids=["metrics-loc", "run-loc", "metrics-delta", "run-delta", "metrics-weights", "run-weights"],
)
def test_economics_overflow_exits_1_with_one_line(
    capsys, tmp_path, reference_bst_path, command, loc, flags, named
):
    # JSON has no infinity, and a loc past the float range cannot be scored
    target = tmp_path / "input.csv"
    if command == "run":
        save_corpus(synth_corpus(*GOLDEN_CORPORA["alpha"]), target)
    else:
        target.write_bytes(reference_bst_path.read_bytes())
    if loc is not None:
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[1] = loc
        with open(target, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    extra = ["--seed", "7"] if command == "run" else []
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, str(target), *extra, *flags, "--out", str(out_dir))
    assert code == 1
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == "" and not out_dir.exists()


# ---------------------------------------------------------------------------
# metrics


def test_metrics_on_reference_predictions(capsys, tmp_path, reference_bst_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "metrics", str(reference_bst_path), "--out", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "metrics.json").read_text())
    assert doc["psb"] == pytest.approx(0.511795, abs=5e-6)
    assert doc["rst_hours"] == pytest.approx(701.98, abs=0.01)
    assert doc["system_rf"] == pytest.approx(0.706268, abs=5e-6)
    assert (out_dir / "metrics.csv").exists()
    assert "psb" in out


def test_metrics_unknown_class_fails_with_row_context(capsys, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("module_id,loc,actual,predicted\nx,10,clean,blocker\n")
    code, _, err = run(capsys, "metrics", str(path), "--out", str(tmp_path))
    assert code == 1
    assert "row 2" in err and "blocker" in err


def test_metrics_block_matches_run_report(capsys, tmp_path):
    """Extracting the test outcomes from a run report and rescoring them
    through the metrics command reproduces the report's BST block."""
    corpus_csv = make_corpus_csv(capsys, tmp_path)
    out_dir = tmp_path / "out"
    run(capsys, "run", str(corpus_csv), "--seed", "13", "--out", str(out_dir))
    doc = json.loads((out_dir / "report_proj.json").read_text())

    predictions = tmp_path / "bst_predictions.csv"
    lines = ["module_id,loc,actual,predicted"]
    for row in doc["test_outcomes"]:
        lines.append(f"{row['module_id']},{row['loc']},{row['actual']},{row['bst']}")
    predictions.write_text("\n".join(lines) + "\n")

    metrics_dir = tmp_path / "m"
    code, _, _ = run(capsys, "metrics", str(predictions), "--out", str(metrics_dir))
    assert code == 0
    rescored = json.loads((metrics_dir / "metrics.json").read_text())
    assert rescored == doc["bst"]


def test_metrics_missing_file_is_io_error(capsys, tmp_path):
    code, _, _ = run(capsys, "metrics", str(tmp_path / "absent.csv"), "--out", str(tmp_path))
    assert code == 2


def test_run_fits_trees_deeper_than_the_recursion_limit(capsys, tmp_path):
    # one metric, labels alternating clean/major: the trees are over 2,000 levels deep
    path = tmp_path / "alt.csv"
    rows = [f"m{i},100,0,0,{i % 2},0,{i % 2},{i}\n" for i in range(2400)]
    path.write_text(CORPUS_HEADER.replace(",m1", ",i") + "".join(rows))
    code, out, err = run(capsys, "run", str(path), "--seed", "1", "--test-fraction", "0.01", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.startswith("alt: BST acc=")
    assert json.loads((tmp_path / "report_alt.json").read_text())["training"]["test_modules"] == 24
