"""Golden report hashes: a faster implementation must write the same bytes.

Each case runs `sevpredict run` in process on a small synthetic corpus, or
`sevpredict metrics` on a checked-in predictions file, and pins the sha1 of
every file it writes. Acceptance criterion 7 checks that a
rerun is byte-identical; this test checks that the bytes stay the same
across changes to the code. A change that alters the output on purpose
updates the pinned values and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from sevpredict import cli, save_corpus, synth_corpus

from conftest import CL, CR, DATA_DIR, HS, MA, NT

CASES = {
    "default": (
        "alpha", {HS: 6, CR: 10, MA: 20, NT: 20, CL: 60}, 4, 1.5, 40, 3,
        (),
        {
            "report_alpha.json": "92415f38bba814f9584f33e43a03bba45e080168",
        },
    ),
    "folds_table": (
        "beta", {HS: 5, CR: 8, MA: 15, NT: 15, CL: 40}, 3, 1.0, 60, 8,
        ("--folds", "3", "--max-depth", "2", "--gamma", "0.9", "--table"),
        {
            "budget_edits.csv": "d018bc2aa23fc83125dd25b036e9e3c3d8c13379",
            "performance.csv": "b15069b58139ea67b7cf9808545fd08f39696c1f",
            "report_beta.json": "f64ced2138606aabffd8308df81a620780e2a4cd",
            "report_beta_fold0.json": "fe6b66333249218ca064f83bb9b7acab99f9d175",
            "report_beta_fold1.json": "225aebbdd7d312a8a749a0cea4c9aee51697e3ef",
            "report_beta_fold2.json": "7399b1d66500a6779e7bc87ebb164403297d83e3",
            "risk_factors.csv": "2f27fa15a553e64de27feecc5e79b2f79e68f806",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_writes_the_pinned_bytes(tmp_path, capsys, case):
    project, counts, features, separation, unlabelled, corpus_seed, flags, pinned = CASES[case]
    corpus_csv = tmp_path / f"{project}.csv"
    save_corpus(synth_corpus(counts, features, separation, unlabelled, corpus_seed), corpus_csv)
    out = tmp_path / "out"
    assert cli.main(["run", str(corpus_csv), "--seed", "7", "--out", str(out), *flags]) == 0
    capsys.readouterr()
    written = {
        path.name: hashlib.sha1(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
    }
    assert written == pinned


METRICS_CASES = {
    "bst": {
        "metrics.csv": "2be01f4e0fd97cac0d84a780a95e441a634bac5f",
        "metrics.json": "0effdcd665c7a18ec1171d0a01d72455455d687f",
    },
    "ast": {
        "metrics.csv": "3638df27e42b93dfe92fb332ceb12090741c4600",
        "metrics.json": "a4861a94be51e3bf2752d15238ace512bbf2b0e8",
    },
}


@pytest.mark.parametrize("arm", sorted(METRICS_CASES))
def test_metrics_writes_the_pinned_bytes(tmp_path, capsys, arm):
    predictions = DATA_DIR / f"reference_{arm}_predictions.csv"
    out = tmp_path / "out"
    flags = ("--delta", "37", "--weights", "0.1,0.25,0.3,0.45,0.5")
    assert cli.main(["metrics", str(predictions), "--out", str(out), *flags]) == 0
    capsys.readouterr()
    written = {
        path.name: hashlib.sha1(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
    }
    assert written == METRICS_CASES[arm]
