"""Command line front end: validate, run, metrics, synth.

Exit codes: 0 success, 1 domain error (bad schema, bad flag values, failed
pipeline preconditions), 2 unreadable or unwritable files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .corpus import Corpus, audit_csv, class_summary, load_corpus, read_csv_file, save_corpus, synth_corpus
from .errors import SchemaError, SevpredictError
from .metrics import REPORT_CSV_HEADER, full_report, parse_predictions
from .pipeline import (
    PipelineConfig,
    _is_finite_number,
    average_reports,
    fold_project,
    report_to_json,
    run_experiment,
    run_kfold,
    write_comparison_tables,
)
from .severity import SEVERITY_ORDER

SEED_ENV_VAR = "SEVPREDICT_SEED"

# Flag and config-file keys are the report's config keys, except that the
# ordinal weights are called `weights`, and `seed` has no default.
DEFAULTS = PipelineConfig().settings()
DEFAULTS["weights"] = DEFAULTS.pop("ordinal_weights")
DEFAULTS["seed"] = None


def _parse_weights(value) -> list:
    """The `weights` setting, from a flag or config file: 5 finite numbers, listed or comma-separated."""
    try:
        weights = [float(part) for part in value.split(",")] if isinstance(value, str) else value
    except ValueError:
        weights = None
    if not (isinstance(weights, list) and len(weights) == 5 and all(map(_is_finite_number, weights))):
        raise SevpredictError(f"setting 'weights' must be 5 finite numbers, listed or comma-separated, got {value!r}")
    return weights


def _resolve_settings(args) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    settings = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as err:  # also undecodable bytes
                raise SevpredictError(f"config file {config_path}: {err}") from None
        if not isinstance(file_cfg, dict):
            raise SevpredictError(f"config file {config_path}: expected a JSON object")
        unknown = sorted(set(file_cfg) - set(DEFAULTS))
        if unknown:
            raise SevpredictError(f"config file {config_path}: unknown keys {', '.join(unknown)}")
        settings.update(file_cfg)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "bst_raw", False):
        settings["bst_oversample"] = False
    settings["ordinal_weights"] = _parse_weights(settings.pop("weights"))
    return settings


def _resolve_seed(value):
    if value is not None:  # from the flag or config file; PipelineConfig.from_settings checks its type
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SevpredictError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    raise SevpredictError(f"a seed is required: pass --seed or set {SEED_ENV_VAR}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    try:
        corpus, diagnostics = read_csv_file(args.csv, audit_csv)
    except SchemaError as err:
        print(f"schema error: {err}", file=sys.stderr)
        return 1
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    summary = class_summary(corpus)
    print(f"modules        {summary['modules']}")
    print(f"total_loc      {summary['total_loc']}")
    for cls in SEVERITY_ORDER:
        name = cls.value
        count = summary["class_counts"][name]
        pct = summary["class_percentages"][name]
        print(f"{name:<15}{count}  ({pct}%)")
    print(f"{'unlabelled':<15}{summary['unlabelled']}  ({summary['unlabelled_percentage']}%)")
    return 1 if diagnostics else 0


def _one_line_summary(report) -> str:
    b, a = report.bst, report.ast
    return (
        f"{report.project}: "
        f"BST acc={b.accuracy:.4f} f={b.f_measure_weighted:.4f} psb={b.psb:.4f} rst={b.rst_hours:.2f}h"
        f" | AST acc={a.accuracy:.4f} f={a.f_measure_weighted:.4f} psb={a.psb:.4f} rst={a.rst_hours:.2f}h"
    )


def _project_names(paths: list[str], corpora: list[Corpus], folds: int | None) -> list[str]:
    """Each corpus's project name; fails before any run if two reports would share a file."""
    owner = {"report_average.json": "the average over all corpora"} if len(paths) > 1 else {}
    projects = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    for path, project, corpus in zip(paths, projects, corpora):
        # at most one fold per labelled module: run_kfold rejects more before any report is written
        folds_run = min(folds or 0, len(corpus.labelled))
        for name in [project] + [fold_project(project, i) for i in range(folds_run)]:
            report = f"report_{name}.json"
            if report in owner:
                raise SevpredictError(f"{owner[report]} and {path} would both write {report}")
            owner[report] = path
    return projects


def _write_report(out_dir: str, report) -> None:
    """Write report_<project>.json whole or not at all: a temp file beside it, then a rename."""
    path = os.path.join(out_dir, f"report_{report.project}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cmd_run(args) -> int:
    """All or nothing: every corpus is parsed and run before the first report is written."""
    settings = _resolve_settings(args)
    settings["seed"] = _resolve_seed(settings["seed"])
    base = PipelineConfig.from_settings(settings)
    corpora = [load_corpus(path) for path in args.csv]
    projects = _project_names(args.csv, corpora, base.folds)
    reports, to_write = [], []
    for index, (corpus, project) in enumerate(zip(corpora, projects)):
        cfg = replace(base, seed=base.seed + index)
        if cfg.folds is not None:
            fold_reports = run_kfold(corpus, cfg, project)
            to_write += fold_reports
            report = average_reports(fold_reports, project)
        else:
            report = run_experiment(corpus, cfg, project)
        reports.append(report)
        to_write.append(report)
    summaries, average = list(reports), None
    if len(reports) > 1:
        average = average_reports(reports, "average")
        summaries.append(average)
        to_write.append(average)
    os.makedirs(args.out, exist_ok=True)
    for report in to_write:
        _write_report(args.out, report)
    for report in summaries:
        print(_one_line_summary(report))
    if args.table:
        for path in write_comparison_tables(reports, average, args.out):
            print(f"wrote {path}")
    return 0


def cmd_metrics(args) -> int:
    # the seed plays no part in scoring, but a config file's seed is still checked
    settings = _resolve_settings(args)
    settings["seed"] = 0 if settings["seed"] is None else settings["seed"]
    econ = PipelineConfig.from_settings(settings).econ
    outcomes = read_csv_file(args.predictions, parse_predictions)
    report = full_report(outcomes, econ)
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "metrics.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    csv_path = os.path.join(args.out, "metrics.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(REPORT_CSV_HEADER) + "\n")
        fh.write(",".join(repr(v) for v in report.csv_values()) + "\n")
    print(
        f"n={len(outcomes)} acc={report.accuracy:.4f} f={report.f_measure_weighted:.4f} "
        f"psb={report.psb:.4f} lsb={report.lsb:.4f} pre={report.pre:.4f} "
        f"rst={report.rst_hours:.2f}h gst={report.gst_hours:.2f}h system_rf={report.system_rf:.4f}"
    )
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    return 0


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    sizes = (args.high_severity, args.critical, args.major, args.non_trivial, args.clean)
    counts = dict(zip(SEVERITY_ORDER, sizes))  # most severe first, as the flags are listed
    corpus = synth_corpus(counts, args.features, args.separation, args.unlabelled, seed)
    save_corpus(corpus, args.out)
    print(f"wrote {args.out}: {len(corpus.labelled)} labelled + {len(corpus.unlabelled)} unlabelled modules")
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a domain error: exit 1 with one line, not a usage block."""

    def error(self, message):
        raise SevpredictError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sevpredict",
        description="Defect severity prediction: tree self-training with project-economics reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a module CSV and print its class summary")
    p_validate.add_argument("csv")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="train both arms on one or more corpora and write reports")
    p_run.add_argument("csv", nargs="+")
    p_run.add_argument("--config", help="JSON file with the same keys as the flags")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--gamma", type=float, help="pseudo-label acceptance confidence")
    p_run.add_argument("--delta", type=float, help="LoC serviced per hour")
    p_run.add_argument("--k-neighbors", dest="k_neighbors", type=int)
    p_run.add_argument("--beta", type=float, help="fraction of each class deficit to synthesize")
    p_run.add_argument("--test-fraction", dest="test_fraction", type=float)
    p_run.add_argument("--folds", type=int, help="stratified k-fold instead of a single holdout")
    p_run.add_argument("--weights", help="5 comma-separated ordinal weights")
    p_run.add_argument("--max-iterations", dest="max_iterations", type=int)
    p_run.add_argument("--max-depth", dest="max_depth", type=int)
    p_run.add_argument("--bst-raw", dest="bst_raw", action="store_true",
                       help="skip oversampling in the baseline arm")
    p_run.add_argument("--table", action="store_true", help="also write side-by-side CSV tables")
    p_run.add_argument("--out", default=".")
    p_run.set_defaults(func=cmd_run)

    p_metrics = sub.add_parser("metrics", help="score a predictions file (module_id,loc,actual,predicted)")
    p_metrics.add_argument("predictions")
    p_metrics.add_argument("--config", help="JSON file with the same keys as the flags")
    p_metrics.add_argument("--delta", type=float)
    p_metrics.add_argument("--weights")
    p_metrics.add_argument("--out", default=".")
    p_metrics.set_defaults(func=cmd_metrics)

    p_synth = sub.add_parser("synth", help="generate a Gaussian-cluster corpus CSV")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--high-severity", dest="high_severity", type=int, default=0)
    p_synth.add_argument("--critical", type=int, default=0)
    p_synth.add_argument("--major", type=int, default=0)
    p_synth.add_argument("--non-trivial", dest="non_trivial", type=int, default=0)
    p_synth.add_argument("--clean", type=int, default=0)
    p_synth.add_argument("--unlabelled", type=int, default=0)
    p_synth.add_argument("--features", type=int, default=3)
    p_synth.add_argument("--separation", type=float, default=3.0)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SevpredictError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
