from __future__ import annotations

import pathlib

import pytest

from sevpredict import LabelledInstance, SeverityClass, UnlabelledInstance

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

HS = SeverityClass.HIGH_SEVERITY
CR = SeverityClass.CRITICAL
MA = SeverityClass.MAJOR
NT = SeverityClass.NON_TRIVIAL
CL = SeverityClass.CLEAN

# The golden corpora: project -> synth_corpus arguments (class counts,
# features, separation, unlabelled modules, corpus seed)
GOLDEN_CORPORA = {
    "alpha": ({HS: 6, CR: 10, MA: 20, NT: 20, CL: 60}, 4, 1.5, 40, 3),
    "beta": ({HS: 5, CR: 8, MA: 15, NT: 15, CL: 40}, 3, 1.0, 60, 8),
}


def make_labelled(features, label, *, loc=100, module_id=None):
    return LabelledInstance(tuple(float(v) for v in features), loc, label, module_id)


def make_unlabelled(features, *, loc=100, module_id=None):
    return UnlabelledInstance(tuple(float(v) for v in features), loc, module_id)


@pytest.fixture
def mini_fixture_path():
    return DATA_DIR / "mini_fixture.csv"


@pytest.fixture
def reference_bst_path():
    return DATA_DIR / "reference_bst_predictions.csv"


@pytest.fixture
def reference_ast_path():
    return DATA_DIR / "reference_ast_predictions.csv"
