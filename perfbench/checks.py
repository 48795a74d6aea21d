"""Correctness checks on the reports one `sevpredict run` call writes.

The expected labels come from the corpus CSV through this file's own
reading of the input format, and every count-based measure is recomputed
from the report's per-module test outcomes, so the checks do not trust the
code they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

CLASSES = ("high_severity", "critical", "major", "non_trivial", "clean")


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_truth(csv_path: Path) -> dict[str, tuple[str, int]]:
    """module_id -> (label, loc) for each labelled row of a corpus CSV.

    A row with no defects is clean; one with per-severity counts takes the
    most severe nonzero category; one with only a total stays unlabelled.
    """
    truth = {}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            counts = [int(v) for v in row[2:6]]
            if int(row[6]) == 0:
                label = "clean"
            elif any(counts):
                label = CLASSES[next(i for i, n in enumerate(counts) if n)]
            else:
                continue
            truth[row[0]] = (label, int(row[1]))
    return truth


def report_digest(out_dir: Path) -> str:
    """sha1 over the names and bytes of every file the run wrote."""
    h = hashlib.sha1()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _check_identities(name: str, report: dict) -> None:
    total = report["training"]["test_total_loc"]
    for arm in ("bst", "ast"):
        m = report[arm]
        _require(
            math.isclose(m["saved_budget"] + m["remaining_edits"], total, rel_tol=1e-12),
            f"{name} {arm}: saved_budget + remaining_edits != test_total_loc",
        )
        _require(abs(m["psb"] + m["pre"] - 1.0) <= 1e-12, f"{name} {arm}: psb + pre != 1")
        _require(abs(m["ptn"] + m["pntn"] - 1.0) <= 1e-12, f"{name} {arm}: ptn + pntn != 1")


def _check_outcomes(name: str, report: dict, truth: dict[str, tuple[str, int]]) -> set[str]:
    rows = report["test_outcomes"]
    for row in rows:
        _require(
            truth.get(row["module_id"]) == (row["actual"], row["loc"]),
            f"{name}: test module {row['module_id']!r} does not match the corpus",
        )
    total = sum(row["loc"] for row in rows)
    _require(report["training"]["test_total_loc"] == total, f"{name}: test_total_loc is wrong")
    _require(report["training"]["test_modules"] == len(rows), f"{name}: test_modules is wrong")
    for arm in ("bst", "ast"):
        m = report[arm]
        hits = sum(row["actual"] == row[arm] for row in rows)
        saved = sum(row["loc"] for row in rows if row["actual"] == row[arm] == "clean")
        _require(math.isclose(m["accuracy"], hits / len(rows), rel_tol=1e-12), f"{name} {arm}: accuracy is wrong")
        _require(m["saved_budget"] == saved, f"{name} {arm}: saved_budget is wrong")
        _require(m["remaining_edits"] == total - saved, f"{name} {arm}: remaining_edits is wrong")
    ids = {row["module_id"] for row in rows}
    _require(len(ids) == len(rows), f"{name}: a test module appears twice")
    return ids


def check_run(out_dir: Path, truth: dict[str, tuple[str, int]], folds: int) -> str:
    """Check one run's reports against its corpus; returns the report digest."""
    reports = {p.name: json.loads(p.read_text()) for p in sorted(out_dir.glob("report_*.json"))}
    _require(bool(reports), f"no report written to {out_dir}")
    tested = []
    for name, report in reports.items():
        _check_identities(name, report)
        if report["test_outcomes"]:
            tested.append(_check_outcomes(name, report, truth))
    _require(len(tested) == folds, f"expected {folds} scored reports, found {len(tested)}")
    if folds > 1:
        _require(len(reports) == folds + 1, "k-fold run must also write the fold average")
        _require(sum(map(len, tested)) == len(truth), "fold test sets overlap")
        _require(set().union(*tested) == set(truth), "fold test sets do not cover the labelled modules")
    return report_digest(out_dir)
