from __future__ import annotations

import pathlib

import pytest

from sevpredict import SEVERITY_ORDER, LabelledInstance, SeverityClass, Split, UnlabelledInstance
from sevpredict.severity import CLASS_INDEX

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


def leaf_of(tree, features):
    """Reference walk, one row: the leaf it lands in, going left where value <= threshold."""
    node = tree.root
    while isinstance(node, Split):
        node = node.left if features[node.feature_index] <= node.threshold else node.right
    return node


def leaf_confidence(tree, features):
    """Reference: the majority class of the row's leaf and that class's raw training frequency."""
    leaf = leaf_of(tree, features)
    return leaf.majority, leaf.counts[CLASS_INDEX[leaf.majority]] / leaf.nl


def grown_pool(labelled, unlabelled, result):
    """The pool a self_train result ended on, as rows: `labelled`, then each accepted
    module of `unlabelled` with its pseudo-label, in trace order."""
    accepted = [unlabelled[i] for rec in result.trace.iterations for i in rec.accepted_indices]
    return tuple(labelled) + tuple(
        LabelledInstance(u.features, u.loc, SEVERITY_ORDER[k], u.module_id)
        for u, k in zip(accepted, result.accepted_labels, strict=True)
    )


@pytest.fixture
def mini_fixture_path():
    return DATA_DIR / "mini_fixture.csv"


@pytest.fixture
def reference_bst_path():
    return DATA_DIR / "reference_bst_predictions.csv"


@pytest.fixture
def reference_ast_path():
    return DATA_DIR / "reference_ast_predictions.csv"
