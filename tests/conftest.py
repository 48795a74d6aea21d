from __future__ import annotations

import pathlib
from typing import NamedTuple

import numpy as np
import pytest

from sevpredict import SEVERITY_ORDER, LabelledInstance, SeverityClass, Split, UnlabelledPool
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


def make_pool(rows, *, width=None, locs=None, module_ids=None):
    """An UnlabelledPool of the feature rows; LoC 100 and no module ID unless given."""
    features = np.array(rows, dtype=float).reshape(len(rows), -1 if width is None else width)
    locs = [100] * len(rows) if locs is None else locs
    module_ids = (None,) * len(rows) if module_ids is None else tuple(module_ids)
    return UnlabelledPool(features, np.array(locs, dtype=np.int64), module_ids)


class UnlabelledRow(NamedTuple):
    features: tuple[float, ...]
    loc: int
    module_id: str | None


def unlabelled_rows(pool):
    """The pool as one row per module, as the row-based references take it."""
    return tuple(map(UnlabelledRow, map(tuple, pool.features.tolist()), pool.loc.tolist(), pool.module_ids))


def pool_of(rows, width):
    """The UnlabelledPool of rows of the given width: unlabelled_rows undone."""
    return make_pool([row.features for row in rows], width=width, locs=[row.loc for row in rows],
                     module_ids=[row.module_id for row in rows])


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


def grown_pool(labelled, pool, result):
    """The pool a self_train result ended on, as rows: `labelled`, then each accepted
    module of the unlabelled pool with its pseudo-label, in trace order."""
    rows = unlabelled_rows(pool)
    accepted = [rows[i] for rec in result.trace.iterations for i in rec.accepted_indices]
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
