"""Golden report hashes: a faster implementation must write the same bytes.

Each case runs `sevpredict run` in process on one or two small synthetic
corpora, or `sevpredict metrics` on a checked-in predictions file, and pins
the sha1 of every file it writes. The corpora themselves are pinned too,
since every golden case and benchmark workload builds its input with
`synth_corpus`. Acceptance criterion 7 checks that a rerun is
byte-identical; this test checks that the bytes stay the same across
changes to the code. A change that alters the output on purpose
updates the pinned values and says why in CHANGES.md. One more test checks
that every way of building a run's config gives that run's bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from sevpredict import PipelineConfig, cli, load_corpus, report_to_json, run_experiment, save_corpus, synth_corpus

from conftest import CL, DATA_DIR, GOLDEN_CORPORA, HS, MA

CASES = {
    "default": (
        ("alpha",),
        (),
        {
            "report_alpha.json": "8d46eb72a518622149903cdee9b18c428e15a53c",
        },
    ),
    "folds_table": (
        ("beta",),
        ("--folds", "3", "--max-depth", "2", "--gamma", "0.9", "--table"),
        {
            "budget_edits.csv": "d018bc2aa23fc83125dd25b036e9e3c3d8c13379",
            "performance.csv": "b15069b58139ea67b7cf9808545fd08f39696c1f",
            "report_beta.json": "4ce06fba385ca87532502e8b0b6138bbe91484ef",
            "report_beta_fold0.json": "4412b99279e58df8d3f36c82e6f2cb65eb1220e5",
            "report_beta_fold1.json": "ff241c789937ef82df77d5c1776be32913957e5c",
            "report_beta_fold2.json": "7a4bae62ab37fd7aafbefd04091d7bfd5f587fd0",
            "risk_factors.csv": "2f27fa15a553e64de27feecc5e79b2f79e68f806",
        },
    ),
    "two_corpora_table": (
        ("alpha", "beta"),
        ("--folds", "2", "--table"),
        {
            "budget_edits.csv": "aa0071dc9b557bb4b7db8250da195c286f1f9632",
            "performance.csv": "d320c3bf7fc43ae35c6fe8dc5b899de066698dd4",
            "report_alpha.json": "5f018ef4bc1f6ab37f5779bf5a3193906c5aed54",
            "report_alpha_fold0.json": "1bdb952a4a6aeee6c36bab9adf902c44c46c8103",
            "report_alpha_fold1.json": "16011d4c40d8f258712e8c8361880b2ced38df7d",
            "report_average.json": "31132802e42f0ffd123d68395b1265441f2960e2",
            "report_beta.json": "aba373ed33ecec31c9f49312107313c87b923653",
            "report_beta_fold0.json": "f489f46a8ac393dbf4d58d5e32536cad8005bf4e",
            "report_beta_fold1.json": "bb466810b14150fa0b2ae59996e03d2baa363e57",
            "risk_factors.csv": "56a0876ba2c70c8f1a5fd88878fbdf063772fa23",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_writes_the_pinned_bytes(tmp_path, capsys, case):
    projects, flags, pinned = CASES[case]
    paths = []
    for project in projects:
        paths.append(str(tmp_path / f"{project}.csv"))
        save_corpus(synth_corpus(*GOLDEN_CORPORA[project]), paths[-1])
    out = tmp_path / "out"
    assert cli.main(["run", *paths, "--seed", "7", "--out", str(out), *flags]) == 0
    capsys.readouterr()
    written = {
        path.name: hashlib.sha1(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
    }
    assert written == pinned


SYNTH_CASES = {
    "alpha": (GOLDEN_CORPORA["alpha"], "88de26e4b0d7b20e2fbfa39861b63a3c77e7e688"),
    "beta": (GOLDEN_CORPORA["beta"], "6b28e5f82cf1c9a2f8c82e245a8ca784d6c058bd"),
    # two classes absent, so unlabelled modules draw from three clusters
    "absent_classes": (({CL: 30, MA: 12, HS: 4}, 5, 2.0, 25, 11), "f8498d1e50ee3478382fb60ce9bf414ad6da2956"),
}


@pytest.mark.parametrize("case", sorted(SYNTH_CASES))
def test_synth_writes_the_pinned_corpus_bytes(tmp_path, case):
    args, pinned = SYNTH_CASES[case]
    path = tmp_path / "corpus.csv"
    save_corpus(synth_corpus(*args), path)
    assert hashlib.sha1(path.read_bytes()).hexdigest() == pinned


def test_one_seed_gives_one_report(tmp_path, capsys):
    # however a seed-5 config is built, including from a report's config
    # echo, the default case's corpus gets the report `run --seed 5` writes
    corpus_csv = tmp_path / "alpha.csv"
    save_corpus(synth_corpus(*GOLDEN_CORPORA["alpha"]), corpus_csv)
    out = tmp_path / "out"
    assert cli.main(["run", str(corpus_csv), "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "report_alpha.json").read_text()
    corpus = load_corpus(corpus_csv)
    for cfg in (
        PipelineConfig(seed=5),
        replace(PipelineConfig(seed=4), seed=5),
        PipelineConfig.from_settings(json.loads(text)["config"]),
    ):
        assert report_to_json(run_experiment(corpus, cfg, "alpha")) == text


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
