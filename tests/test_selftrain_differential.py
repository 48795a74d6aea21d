"""self_train against a frozen copy of its row-based form.

_reference_self_train is self_train as it ran when the training pool was a
list of instances: each accepted module became a pseudo-labelled
LabelledInstance appended to that list, and each refit passed the whole
list to fit_tree. The array-pool loop must grow the same trees, write the
same trace and accept the same modules with the same pseudo-labels.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevpredict import SEVERITY_ORDER, LabelledInstance, LabelledPool, SelfTrainConfig, TreeConfig, fit_tree, self_train
from sevpredict.cart import N_CLASSES, feature_matrix, route_rows
from sevpredict.selftrain import (
    STATUS_EXHAUSTED_U,
    STATUS_MAX_ITERATIONS,
    STATUS_NO_PROGRESS,
    IterationRecord,
    SelfTrainTrace,
    pseudo_label_risk,
)
from sevpredict.severity import CLASS_NAMES

from conftest import grown_pool, make_labelled, make_pool, unlabelled_rows


def _reference_self_train(tree, labelled, unlabelled, config, tree_config):
    """(tree, labelled, residual_unlabelled, trace) from a pool of instances refitted by fit_tree."""
    pool = list(labelled)
    unlabelled = tuple(unlabelled)
    X = feature_matrix([inst.features for inst in unlabelled], len(tree.schema))
    remaining = np.arange(len(unlabelled))

    records = []
    status = STATUS_EXHAUSTED_U
    iteration = 0
    while len(remaining):
        iteration += 1
        if iteration > config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        supervised = pseudo_label_risk(tree)
        label, confidence = route_rows(tree, X[remaining])
        hit = confidence >= config.gamma
        accepted, accepted_label = remaining[hit].tolist(), label[hit]
        per_class = np.bincount(accepted_label, minlength=N_CLASSES).tolist()
        records.append(
            IterationRecord(
                iteration=iteration,
                unlabelled_before=len(remaining),
                accepted=len(accepted),
                accepted_per_class=dict(zip(CLASS_NAMES, per_class)),
                accepted_indices=tuple(accepted),
                supervised_risk=supervised,
            )
        )
        if not accepted:
            status = STATUS_NO_PROGRESS
            break
        for i, k in zip(accepted, accepted_label.tolist()):
            u = unlabelled[i]
            pool.append(LabelledInstance(u.features, u.loc, SEVERITY_ORDER[k], u.module_id))
        remaining = remaining[~hit]
        tree = fit_tree(LabelledPool.from_rows(pool), tree_config, tree.schema)

    residual = tuple(unlabelled[i] for i in remaining.tolist())
    return tree, tuple(pool), residual, SelfTrainTrace(tuple(records), status)


def _case(n, m, p, levels, n_classes, data_seed, gamma, max_iterations, min_samples_split, max_depth):
    """A starting pool, an unlabelled pool and the configs; every feature is an integer from 0 to levels."""
    rng = np.random.default_rng(data_seed)
    labels = rng.integers(0, n_classes, size=n)
    locs = rng.integers(1, 400, size=n + m).tolist()
    labelled = LabelledPool.from_rows(
        make_labelled(row, SEVERITY_ORDER[k], loc=loc, module_id=f"m{j}")
        for j, (row, k, loc) in enumerate(zip(rng.integers(0, levels + 1, size=(n, p)), labels, locs))
    )
    unlabelled = make_pool(rng.integers(0, levels + 1, size=(m, p)), width=p, locs=locs[n:],
                           module_ids=[f"u{j}" for j in range(m)])
    config = SelfTrainConfig(gamma=gamma, max_iterations=max_iterations)
    tree_config = TreeConfig(min_samples_split=min_samples_split, max_depth=max_depth)
    return labelled, unlabelled, config, tree_config


@st.composite
def cases(draw):
    return _case(
        draw(st.integers(1, 14)), draw(st.integers(0, 40)), draw(st.integers(1, 3)), draw(st.integers(1, 4)),
        draw(st.integers(1, 5)), draw(st.integers(0, 2**32 - 1)),
        gamma=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        max_iterations=draw(st.integers(1, 4)),
        min_samples_split=draw(st.integers(2, 4)),
        max_depth=draw(st.sampled_from([None, 1, 2])),
    )


@settings(max_examples=200, deadline=None)
@given(cases())
# drawn pools seldom refit more than once, so two pools that append to the grown pool
# again and again: three refits then no progress, and four refits up to max_iterations
@example(_case(8, 11, 3, 3, 3, 504, gamma=1.0, max_iterations=4, min_samples_split=4, max_depth=2))
@example(_case(13, 16, 3, 4, 3, 288, gamma=0.9, max_iterations=4, min_samples_split=3, max_depth=None))
def test_self_train_matches_the_row_based_reference(case):
    labelled, unlabelled, config, tree_config = case
    tree = fit_tree(labelled, tree_config)
    result = self_train(tree, labelled, unlabelled, config, tree_config)
    rows = unlabelled_rows(unlabelled)
    ref_tree, ref_labelled, ref_residual, ref_trace = _reference_self_train(
        tree, labelled, rows, config, tree_config
    )
    assert result.tree == ref_tree
    assert result.trace == ref_trace
    assert result.trace.status == ref_trace.status
    assert grown_pool(labelled, unlabelled, result) == ref_labelled
    taken = {i for rec in result.trace.iterations for i in rec.accepted_indices}
    assert tuple(u for i, u in enumerate(rows) if i not in taken) == ref_residual
