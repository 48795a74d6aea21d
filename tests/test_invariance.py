"""Invariance oracles: relations between two runs, with no reference copy of the code.

The order of a pool carries no information the tree may use. Permuting the
training rows must give an equal tree; permuting the unlabelled pool must
give the same self-training run, with each iteration's accepted positions
moved by the permutation. Nor does the unit of a feature: scaling every
feature by a power of two is exact in floating point, so it must move each
threshold by exactly that factor and leave every report byte alone. Pools
are small integer grids, so feature values tie often and every tie rule is
exercised.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpredict import (
    SEVERITY_ORDER,
    Corpus,
    DecisionTree,
    LabelledPool,
    SelfTrainConfig,
    Split,
    TreeConfig,
    fit_tree,
    run_experiment,
    self_train,
)

from conftest import make_labelled, make_pool
from test_run_differential import _outcome, runs

# powers of two, far from overflow and from subnormals for features of at most a few units
FACTORS = [2.0, 0.5, 2.0**30, 2.0**-30]


def _grid(rng, rows, p, levels):
    return rng.integers(0, levels + 1, size=(rows, p))


@st.composite
def pools(draw):
    """(labelled, unlabelled, rng): features are integers from 0 to levels, labels from up to 5 classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, p = draw(st.integers(1, 30)), draw(st.integers(0, 40)), draw(st.integers(1, 3))
    levels, n_classes = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    labels = rng.integers(0, n_classes, size=n)
    labelled = LabelledPool.from_rows(make_labelled(row, SEVERITY_ORDER[k], module_id=f"m{j}")
                                      for j, (row, k) in enumerate(zip(_grid(rng, n, p, levels), labels)))
    unlabelled = make_pool(_grid(rng, m, p, levels), width=p, module_ids=[f"u{j}" for j in range(m)])
    return labelled, unlabelled, rng


@settings(max_examples=300, deadline=None)
@given(pools(), st.sampled_from([None, 1, 3]))
def test_fit_tree_does_not_depend_on_the_order_of_its_rows(pool, max_depth):
    labelled, _, rng = pool
    config = TreeConfig(max_depth=max_depth)
    shuffled = labelled[rng.permutation(len(labelled))]
    assert fit_tree(shuffled, config) == fit_tree(labelled, config)


@settings(max_examples=300, deadline=None)
@given(
    pools(),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    st.integers(1, 4),
    st.sampled_from([None, 1, 3]),
)
def test_self_train_does_not_depend_on_the_order_of_the_unlabelled_pool(pool, gamma, max_iterations, max_depth):
    labelled, unlabelled, rng = pool
    config = SelfTrainConfig(gamma=gamma, max_iterations=max_iterations)
    tree_config = TreeConfig(max_depth=max_depth)
    tree = fit_tree(labelled, tree_config)
    perm = rng.permutation(len(unlabelled)).tolist()  # position j of the shuffled pool is perm[j] here
    base = self_train(tree, labelled, unlabelled, config, tree_config)
    shuffled = replace(unlabelled, features=unlabelled.features[perm], loc=unlabelled.loc[perm],
                       module_ids=tuple(unlabelled.module_ids[j] for j in perm))
    moved = self_train(tree, labelled, shuffled, config, tree_config)

    assert moved.tree == base.tree
    assert moved.trace.status == base.trace.status
    assert len(moved.trace.iterations) == len(base.trace.iterations)
    for got, want in zip(moved.trace.iterations, base.trace.iterations):
        assert got.iteration == want.iteration
        assert got.unlabelled_before == want.unlabelled_before
        assert got.accepted == want.accepted
        assert got.accepted_per_class == want.accepted_per_class
        assert got.supervised_risk == want.supervised_risk
        assert sorted(perm[j] for j in got.accepted_indices) == list(want.accepted_indices)


def _scaled(pool, factor):
    return replace(pool, features=pool.features * factor)


def _scaled_node(node, factor):
    if not isinstance(node, Split):
        return node
    left, right = _scaled_node(node.left, factor), _scaled_node(node.right, factor)
    return Split(node.feature_index, node.threshold * factor, left, right)


@settings(max_examples=300, deadline=None)
@given(pools(), st.sampled_from(FACTORS), st.sampled_from([None, 1, 3]))
def test_fit_tree_scales_its_thresholds_with_the_features(pool, factor, max_depth):
    labelled, _, _ = pool
    config = TreeConfig(max_depth=max_depth)
    tree = fit_tree(labelled, config)
    expected = DecisionTree(_scaled_node(tree.root, factor), tree.schema)
    assert fit_tree(_scaled(labelled, factor), config) == expected


@settings(max_examples=100, deadline=None)
@given(runs(), st.sampled_from(FACTORS))
def test_a_run_does_not_depend_on_the_unit_of_its_features(case, factor):
    corpus, cfg = case
    scaled = Corpus(corpus.schema, _scaled(corpus.labelled, factor),
                    replace(corpus.unlabelled, features=corpus.unlabelled.features * factor))
    assert _outcome(run_experiment, scaled, cfg) == _outcome(run_experiment, corpus, cfg)
