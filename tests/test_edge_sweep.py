"""Pinned edge-case sweep: small `sevpredict run` cases whose outputs tie.

The golden corpora are continuous Gaussian draws, so they never tie two
feature values and never exercise the tie rules: lowest feature, lowest
threshold, lower-index neighbour, more severe majority. Each case here
writes one or two small seeded corpora (integer grids, duplicate rows with
conflicting labels, constant features, adjacent doubles, one-member and
missing classes) and runs the CLI on them with edge-case flags. The sha1 of
every file it writes, or its exit code and error line, is pinned in
edge_sweep.json.

To see a case's files, for a diff against another checkout:

    PYTHONPATH=src python tests/test_edge_sweep.py CASE OUT_DIR

writes the case's corpora to OUT_DIR and runs it into OUT_DIR/out. A change
that alters the output on purpose re-pins every case with

    PYTHONPATH=src python tests/test_edge_sweep.py --pin

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import numpy as np
import pytest

from sevpredict import cli

PINNED = pathlib.Path(__file__).with_name("edge_sweep.json")
HEADER = "module_id,loc,n_high_severity,n_critical,n_major,n_non_trivial,n_total_defects"
# one defect in the class's own column; clean has none, unlabelled only a total
COUNTS = {
    "hs": "1,0,0,0,1",
    "cr": "0,1,0,0,1",
    "ma": "0,0,1,0,1",
    "nt": "0,0,0,1,1",
    "cl": "0,0,0,0,0",
    "u": "0,0,0,0,1",
}
GRID = dict(hs=4, cr=6, ma=10, nt=10, cl=20, u=20)


def corpus_csv(kind: str, seed: int, p: int = 3, **sizes) -> str:
    """A corpus of `sizes` modules per class (keys of COUNTS) with features of one kind.

    grid: integers 0-3; binary: 0/1; wide: integers around 1e6; dups: rows
    drawn from 4 distinct grid rows, so rows repeat under different labels;
    const: a grid whose first feature is always 5; adjacent: 1.0 or the next
    double up in the first feature; gauss: continuous draws.
    """
    rng = np.random.default_rng(seed)
    labels = [name for name in COUNTS for _ in range(sizes.get(name, 0))]
    n = len(labels)
    if kind == "gauss":
        X = rng.normal(size=(n, p))
    elif kind == "binary":
        X = rng.integers(0, 2, size=(n, p)).astype(float)
    elif kind == "wide":
        X = 1e6 + rng.integers(-3, 4, size=(n, p))
    elif kind == "dups":
        X = rng.integers(0, 4, size=(4, p)).astype(float)[rng.integers(0, 4, size=n)]
    else:
        X = rng.integers(0, 4, size=(n, p)).astype(float)
    if kind == "const":
        X[:, 0] = 5.0
    if kind == "adjacent":
        X[:, 0] = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    locs = rng.integers(10, 500, size=n)
    rows = [HEADER + "".join(f",m{j + 1}" for j in range(p))]
    for i, (label, loc, x) in enumerate(zip(labels, locs, X)):
        rows.append(f"{label}{i:03d},{loc},{COUNTS[label]}," + ",".join(repr(float(v)) for v in x))
    return "\n".join(rows) + "\n"


def grid(seed: int, **changes) -> tuple:
    return ("grid", seed, 3, {**GRID, **changes})


# case -> (corpora as (kind, corpus seed, features, class sizes), run flags)
CASES = {
    "grid_default": ([grid(1)], ()),
    "grid_depth0": ([grid(2)], ("--max-depth", "0")),
    "grid_depth1": ([grid(3)], ("--max-depth", "1")),
    "grid_depth2": ([grid(4)], ("--max-depth", "2")),
    "grid_ten_features": ([("grid", 5, 10, GRID)], ()),
    "grid_one_feature": ([("grid", 6, 1, GRID)], ()),
    "binary": ([("binary", 7, 4, GRID)], ()),
    "wide_integers": ([("wide", 8, 3, GRID)], ()),
    "dups_conflicting": ([("dups", 9, 3, GRID)], ()),
    "dups_depth1": ([("dups", 10, 2, GRID)], ("--max-depth", "1")),
    "const_feature": ([("const", 11, 3, GRID)], ()),
    "adjacent_doubles": ([("adjacent", 12, 2, GRID)], ()),
    "one_member_class": ([grid(13, hs=1)], ()),
    "zero_member_class": ([grid(14, cr=0)], ()),
    "two_classes": ([grid(15, hs=0, cr=0, ma=0)], ()),
    "k_above_class_size": ([grid(16)], ("--k-neighbors", "12")),
    "k_one": ([grid(17)], ("--k-neighbors", "1")),
    "gamma_zero": ([grid(18)], ("--gamma", "0")),
    "gamma_one": ([grid(19)], ("--gamma", "1")),
    "gamma_half_depth2": ([grid(20)], ("--gamma", "0.5", "--max-depth", "2")),
    "max_iterations_one": ([grid(21)], ("--max-iterations", "1", "--max-depth", "2")),
    "bst_raw": ([grid(22)], ("--bst-raw",)),
    "bst_raw_half": ([grid(125)], ("--bst-raw", "--test-fraction", "0.5")),
    "oversample_first_false": ([grid(23)], ("--config", {"oversample_first": False})),
    "both_raw": ([grid(24)], ("--bst-raw", "--config", {"oversample_first": False})),
    "beta_zero": ([grid(25)], ("--beta", "0")),
    "beta_half": ([grid(26)], ("--beta", "0.5")),
    "d_threshold_half": ([grid(27)], ("--config", {"d_threshold": 0.5})),
    "min_samples_split_six": ([grid(28)], ("--config", {"min_samples_split": 6})),
    "test_fraction_half": ([grid(29)], ("--test-fraction", "0.5")),
    "test_fraction_third": ([grid(30, hs=3, cr=3, ma=6, nt=9, cl=12)], ("--test-fraction", "0.3333333333333333")),
    "no_unlabelled": ([grid(31, u=0)], ()),
    "economics": ([grid(32)], ("--delta", "37", "--weights", "0.1,0.25,0.3,0.45,0.5")),
    "folds2": ([grid(33)], ("--folds", "2")),
    "folds3": ([grid(100)], ("--folds", "3")),
    "folds4": ([grid(35)], ("--folds", "4")),
    "folds5": ([grid(36)], ("--folds", "5")),
    "folds2_table": ([grid(37)], ("--folds", "2", "--table")),
    "folds3_table": ([("dups", 38, 3, GRID)], ("--folds", "3", "--table")),
    "folds4_table": ([grid(39, hs=1)], ("--folds", "4", "--table", "--max-depth", "2")),
    "folds5_table": ([grid(40)], ("--folds", "5", "--table", "--gamma", "0.9")),
    "two_corpora_table": ([grid(41), ("dups", 42, 3, GRID)], ("--table",)),
    "two_corpora_folds3_table": ([grid(43), ("binary", 44, 3, GRID)], ("--folds", "3", "--table")),
    "gauss_reference": ([("gauss", 45, 3, GRID)], ()),
    "one_class_fails": ([grid(46, hs=0, cr=0, ma=0, nt=0)], ()),
    "empty_test_split_fails": ([grid(47, hs=1, cr=1, ma=1, nt=1, cl=4)], ("--test-fraction", "0.2")),
    "empty_fold_fails": ([grid(48, hs=1, cr=1, ma=1, nt=1, cl=3)], ("--folds", "5")),
    # equal-quality thresholds on one feature, where taking the later one changes a test prediction
    "tie_threshold_four_features": ([("grid", 218, 4, GRID)], ()),
    "tie_threshold_bst_raw": ([("grid", 213, 4, GRID)], ("--bst-raw",)),
    "tie_threshold_raw_pools": ([("grid", 223, 3, GRID)], ("--bst-raw", "--config", {"oversample_first": False})),
    "tie_threshold_depth3": ([("grid", 209, 2, GRID)], ("--max-depth", "3")),
    "tie_threshold_folds2": ([("grid", 230, 2, GRID)], ("--folds", "2")),
}


def run_case(case: str, work: pathlib.Path) -> tuple[list[str], dict]:
    """Write the case's corpora under work, run it into work/out: (argv, outcome)."""
    corpora, flags = CASES[case]
    argv = ["run"]
    for index, (kind, seed, p, sizes) in enumerate(corpora):
        path = work / f"{case}{index or ''}.csv"
        path.write_text(corpus_csv(kind, seed, p, **sizes))
        argv.append(str(path))
    for flag in flags:
        if isinstance(flag, dict):
            config = work / f"{case}.json"
            config.write_text(json.dumps(flag))
            flag = str(config)
        argv.append(flag)
    out = work / "out"
    argv += ["--seed", "3", "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return argv, {"exit": code, "stderr": err.getvalue()}
    files = {p.name: hashlib.sha1(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return argv, {"exit": 0, "files": files}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_writes_the_pinned_bytes(tmp_path, pinned, case):
    _, outcome = run_case(case, tmp_path)
    want = pinned[case]
    rebuild = f"PYTHONPATH=src python tests/test_edge_sweep.py {case} OUT_DIR"
    assert outcome.get("exit") == want["exit"], f"{case}: exit {outcome} != {want}; rebuild with {rebuild}"
    if want["exit"] != 0:
        assert outcome["stderr"] == want["stderr"], f"{case}: stderr differs; rebuild with {rebuild}"
        return
    for name in sorted(set(want["files"]) | set(outcome["files"])):
        got, expected = outcome["files"].get(name), want["files"].get(name)
        assert got == expected, f"{case}: {name} is {got}, pinned {expected}; rebuild with {rebuild}"


def main(args: list[str]) -> None:
    if args == ["--pin"]:
        import tempfile

        pins = {}
        for case in sorted(CASES):
            with tempfile.TemporaryDirectory() as work:
                pins[case] = run_case(case, pathlib.Path(work))[1]
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(pins)} cases in {PINNED}")
        return
    case, work = args
    pathlib.Path(work).mkdir(parents=True, exist_ok=True)
    argv, outcome = run_case(case, pathlib.Path(work))
    print("sevpredict " + " ".join(argv))
    print(json.dumps(outcome, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
