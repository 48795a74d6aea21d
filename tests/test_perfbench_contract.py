"""The benchmark's traced call-count checks hold on small CLI runs.

perfbench/ records each layer by wrapping sevpredict's functions from
outside and checks that every traced run makes the calls its flags imply.
A change to a traced function's name or argument names breaks those checks;
this test shows it in seconds rather than at the end of a benchmark run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest

from sevpredict import cli, save_corpus, synth_corpus

from conftest import CL, CR, HS, MA, NT

# perfbench's scripts import each other as top-level modules
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench_run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "tiny.csv"
    counts = {HS: 4, CR: 6, MA: 10, NT: 10, CL: 25}
    save_corpus(synth_corpus(counts, 3, 3.0, n_unlabelled=30, seed=5), path)
    return path


@pytest.mark.parametrize(
    "cli_args",
    [(), ("--folds", "3", "--table"), ("--bst-raw", "--max-depth", "2")],
    ids=["holdout", "folds_table", "bst_raw"],
)
def test_traced_run_passes_the_benchmark_checks(tmp_path, corpus_csv, cli_args):
    workload = Workload(
        name="contract", why="", class_counts=(4, 6, 10, 10, 25), unlabelled=30,
        features=3, separation=3.0, corpora=1, cli_args=cli_args,
    )
    out = tmp_path / "out"
    argv = ["run", str(corpus_csv), "--seed", "7", "--out", str(out), *cli_args]
    tracer = Tracer()
    with tracer.installed():
        bench_run.call_cli(cli, argv, out, tracer)
    bench_run.check_calls(tracer, workload, out)
    # one batch per arm per scored report: per-row scoring would show here
    assert sum(span.route_calls for span in tracer.spans) == 2 * workload.folds
    assert tracer.counts["cart.duplicate_fits"] == 0
    assert tracer.counts["adasyn.duplicate_calls"] == 0
    # exact counts per scored report: one ADASYN call when either arm oversamples, one starting
    # fit per distinct pool, one refit per self-training iteration that accepted modules, and
    # the rows each saw as the report's training and self_training blocks imply them
    want = Counter()
    for path in out.glob("report_*.json"):
        report = json.loads(path.read_text(encoding="utf-8"))
        if report["self_training"] is None:  # an average, not a scored run
            continue
        training, config = report["training"], report["config"]
        starts = {  # oversampled? -> size of that starting pool
            config["bst_oversample"]: training["bst_train_size"],
            config["oversample_first"]: training["ast_train_size"] - training["accepted_pseudo"],
        }
        want["adasyn_balance"] += True in starts
        want["adasyn.input_rows"] += (report["corpus"]["labelled"] - training["test_modules"]) * (True in starts)
        # each refit fits the AST starting pool plus every module accepted so far
        accepted = [rec["accepted"] for rec in report["self_training"]["iterations"] if rec["accepted"]]
        refit_rows = list(accumulate(accepted, initial=starts[config["oversample_first"]]))[1:]
        want["refits"] += len(accepted)
        want["fit_tree"] += len(starts) + len(accepted)
        want["cart.fit_rows"] += sum(starts.values()) + sum(refit_rows)
    assert (tracer.calls["adasyn_balance"], tracer.calls["fit_tree"]) == (want["adasyn_balance"], want["fit_tree"])
    assert (tracer.counts["adasyn.input_rows"], tracer.counts["cart.fit_rows"]) == (
        want["adasyn.input_rows"], want["cart.fit_rows"])
    assert want["fit_tree"] == workload.folds * (2 if "--bst-raw" in cli_args else 1) + want["refits"]
