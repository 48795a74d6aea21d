from __future__ import annotations

import numpy as np
import pytest

from sevpredict import (
    LabelledPool,
    SamplerConfig,
    SelfTrainConfig,
    SevpredictError,
    TreeConfig,
    UnlabelledPool,
    adasyn_balance,
    fit_tree,
    predict_confidence,
    predict_label,
    pseudo_label_risk,
    self_train,
)
from sevpredict.selftrain import (
    STATUS_EXHAUSTED_U,
    STATUS_MAX_ITERATIONS,
    STATUS_NO_PROGRESS,
)
from sevpredict.severity import CLASS_INDEX

from conftest import (CL, CR, HS, MA, NT, grown_pool, leaf_confidence, leaf_of, make_labelled, make_pool,
                      unlabelled_rows)


def separable_sets():
    labelled = LabelledPool.from_rows([
        make_labelled([0.0, 0.0], CL), make_labelled([0.2, 0.1], CL),
        make_labelled([5.0, 5.0], MA), make_labelled([5.2, 5.1], MA),
    ])
    unlabelled = make_pool([[0.1, 0.05], [5.1, 5.05]], module_ids=["u0", "u1"])
    return labelled, unlabelled


def conflicted_sets():
    # two coincident points with different labels cap confidence at 0.5
    labelled = LabelledPool.from_rows([
        make_labelled([0.0], CL), make_labelled([0.0], MA),
        make_labelled([9.0], HS), make_labelled([9.5], HS),
    ])
    unlabelled = make_pool([[0.0], [0.01]])
    return labelled, unlabelled


# ---------------------------------------------------------------------------
# risk estimates


def _reference_risk(tree, labelled):
    """Reference: route every pool row and count the misclassified ones."""
    wrong = sum(leaf_of(tree, inst.features).majority is not inst.label for inst in labelled)
    return wrong / len(labelled)


def test_supervised_risk_zero_for_perfectly_fit_tree():
    labelled, _ = separable_sets()
    tree = fit_tree(labelled)
    assert pseudo_label_risk(tree) == 0.0


def test_supervised_risk_counts_stump_errors():
    # depth-1 stump on 1-D data: split at 3.5, right leaf holds 4 B + 2 A
    labelled = [make_labelled([float(i)], CL) for i in range(4)]
    labelled += [make_labelled([float(i)], MA) for i in range(4, 8)]
    labelled += [make_labelled([float(i)], CL) for i in range(8, 10)]
    tree = fit_tree(LabelledPool.from_rows(labelled), TreeConfig(max_depth=1))
    assert pseudo_label_risk(tree) == pytest.approx(0.2)


@pytest.mark.parametrize("max_depth", [0, 1, 2, None])
def test_leaf_count_risk_matches_routing_the_pool(max_depth):
    # small integer grids put conflicting labels on identical rows
    rng = np.random.default_rng(41 if max_depth is None else max_depth)
    classes = [HS, CR, MA, NT, CL]
    for trial in range(60):
        n, p = int(rng.integers(1, 50)), int(rng.integers(1, 4))
        levels = int(rng.integers(1, 5))
        grid = rng.integers(0, levels, size=(n, p)) if trial % 4 else rng.normal(size=(n, p))
        labels = rng.integers(0, int(rng.integers(1, 6)), size=n)
        pool = LabelledPool.from_rows(make_labelled(row, classes[k]) for row, k in zip(grid, labels))
        cfg = TreeConfig(min_samples_split=int(rng.integers(2, 7)), max_depth=max_depth)
        tree = fit_tree(pool, cfg)
        # the same ints divided, so the floats are equal, not just close
        assert pseudo_label_risk(tree) == _reference_risk(tree, pool)


# ---------------------------------------------------------------------------
# loop termination


def test_gamma_zero_accepts_everything_in_one_pass():
    labelled, unlabelled = separable_sets()
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=0.0))
    assert result.trace.status == STATUS_EXHAUSTED_U
    assert len(result.trace.iterations) == 1
    rec = result.trace.iterations[0]
    assert rec.unlabelled_before == 2
    assert rec.accepted == 2
    assert rec.accepted_indices == (0, 1)
    assert result.accepted_labels == (CLASS_INDEX[CL], CLASS_INDEX[MA])


def test_gamma_one_with_conflicts_makes_no_progress():
    labelled, unlabelled = conflicted_sets()
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=1.0))
    assert result.trace.status == STATUS_NO_PROGRESS
    assert result.accepted_labels == ()
    assert len(result.trace.iterations) == 1
    rec = result.trace.iterations[0]
    assert rec.accepted == 0 and rec.unlabelled_before == 2
    assert rec.accepted_per_class == {c.value: 0 for c in (HS, CR, MA, NT, CL)}


def test_no_progress_keeps_the_only_tree(monkeypatch):
    # an iteration that accepts nothing leaves the pool as it was, so the
    # tree handed in is already the final tree
    import sevpredict.selftrain as selftrain

    fitted = []

    def counting_fit(*args, **kwargs):
        fitted.append(fit_tree(*args, **kwargs))
        return fitted[-1]

    labelled, unlabelled = conflicted_sets()
    tree = fit_tree(labelled)
    monkeypatch.setattr(selftrain, "fit_tree", counting_fit)
    result = self_train(tree, labelled, unlabelled, SelfTrainConfig(gamma=1.0))
    assert result.trace.status == STATUS_NO_PROGRESS
    assert fitted == []
    assert result.tree is tree


def test_self_train_does_not_extend_the_callers_pool():
    # the baseline arm holds the same list; extending it would change its size
    labelled, unlabelled = separable_sets()
    before = list(labelled)
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=0.0))
    assert len(result.accepted_labels) == len(unlabelled)
    assert list(labelled) == before


def test_empty_pool_exhausts_immediately():
    labelled, _ = separable_sets()
    result = self_train(fit_tree(labelled), labelled, make_pool([], width=2), SelfTrainConfig())
    assert result.trace.status == STATUS_EXHAUSTED_U
    assert result.trace.iterations == ()
    assert result.accepted_labels == ()


def test_max_iterations_stops_mixed_pool():
    # one separable point is absorbed in round one; the conflicted point
    # stays below gamma forever, so round two would make no progress, but
    # the iteration budget is exhausted first
    labelled = LabelledPool.from_rows([
        make_labelled([0.0], CL), make_labelled([0.0], MA),
        make_labelled([9.0], HS), make_labelled([9.5], HS),
    ])
    unlabelled = make_pool([[9.2], [0.0]])
    config = SelfTrainConfig(gamma=0.9, max_iterations=1)
    result = self_train(fit_tree(labelled), labelled, unlabelled, config)
    assert result.trace.status == STATUS_MAX_ITERATIONS
    assert len(result.trace.iterations) == 1
    assert result.trace.iterations[0].accepted == 1
    assert result.trace.iterations[0].accepted_indices == (0,)
    assert result.accepted_labels == (CLASS_INDEX[HS],)


def test_pool_shrinks_monotonically():
    rng = np.random.default_rng(44)
    labelled = []
    for centre, cls in ((0.0, CL), (4.0, MA), (8.0, CR)):
        for _ in range(6):
            labelled.append(make_labelled(
                [float(rng.normal(centre, 0.5)), float(rng.normal(0, 0.5))], cls))
    unlabelled = make_pool([[float(rng.uniform(-2, 10)), float(rng.normal(0, 0.5))] for _ in range(30)])
    labelled = LabelledPool.from_rows(labelled)
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=0.8))
    sizes = [rec.unlabelled_before for rec in result.trace.iterations]
    assert sizes == sorted(sizes, reverse=True)
    accepted_total = sum(rec.accepted for rec in result.trace.iterations)
    taken = {i for rec in result.trace.iterations for i in rec.accepted_indices}
    assert len(taken) == accepted_total == len(result.accepted_labels)


# ---------------------------------------------------------------------------
# pseudo-label bookkeeping


def test_pseudo_labels_match_the_accepting_iteration_tree():
    rng = np.random.default_rng(7)
    labelled = []
    for cls, centre in ((CL, 0.0), (MA, 4.0), (HS, 8.0)):
        for _ in range(5):
            labelled.append(make_labelled([float(centre + rng.normal(0, 0.4))], cls))
    unlabelled = make_pool([[float(rng.uniform(-1, 9))] for _ in range(20)], module_ids=[f"u{i}" for i in range(20)])
    config = SelfTrainConfig(gamma=0.7)
    labelled = LabelledPool.from_rows(labelled)
    result = self_train(fit_tree(labelled), labelled, unlabelled, config)

    # replay: rebuild each round's tree from the evolving pool and check the
    # accepted indices really cleared the bar with the recorded labels
    pool = list(labelled)
    rows = unlabelled_rows(unlabelled)
    remaining = list(rows)
    accepted_seen = []
    for rec in result.trace.iterations:
        assert rec.unlabelled_before == len(remaining)
        tree = fit_tree(LabelledPool.from_rows(pool))
        newly = []
        for idx in rec.accepted_indices:
            inst = rows[idx]
            label, conf = leaf_confidence(tree, inst.features)
            assert conf >= config.gamma
            newly.append(make_labelled(list(inst.features), label,
                                       loc=inst.loc, module_id=inst.module_id))
        accepted_seen.extend(rec.accepted_indices)
        pool.extend(newly)
        remaining = [inst for i, inst in enumerate(rows)
                     if i not in set(accepted_seen)]
    assert len(accepted_seen) == len(set(accepted_seen))

    pseudo = grown_pool(labelled, unlabelled, result)[len(labelled):]
    replayed = pool[len(labelled):]
    assert [(p.features, p.label) for p in pseudo] == [(p.features, p.label) for p in replayed]


def test_accepted_per_class_tallies_accepted():
    labelled, unlabelled = separable_sets()
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=0.5))
    for rec in result.trace.iterations:
        assert sum(rec.accepted_per_class.values()) == rec.accepted
        assert set(rec.accepted_per_class) == {c.value for c in (HS, CR, MA, NT, CL)}


def test_final_tree_is_fit_on_final_pool():
    labelled, unlabelled = separable_sets()
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=0.0))
    assert result.tree == fit_tree(LabelledPool.from_rows(grown_pool(labelled, unlabelled, result)))


def test_self_train_is_deterministic():
    rng = np.random.default_rng(9)
    labelled = []
    for centre, cls in ((0.0, CL), (3.0, NT)):
        for _ in range(8):
            labelled.append(make_labelled([float(rng.normal(centre, 0.6))], cls))
    unlabelled = make_pool([[float(rng.uniform(-1, 4))] for _ in range(12)])
    config = SelfTrainConfig(gamma=0.75)
    pool = adasyn_balance(LabelledPool.from_rows(labelled), SamplerConfig(), 2)
    a = self_train(fit_tree(pool), pool, unlabelled, config)
    b = self_train(fit_tree(pool), pool, unlabelled, config)
    assert a.tree == b.tree
    assert a.accepted_labels == b.accepted_labels
    assert a.trace.to_dict() == b.trace.to_dict()


@pytest.mark.parametrize("widths", [(3,), (3, 3), (1, 1, 1), (1,), ()])
def test_an_unlabelled_row_of_the_wrong_width_fails_as_routing_it_would(widths):
    # the pool is a matrix, so its rows share one width; it fails even with no rows at all
    labelled, _ = separable_sets()
    tree = fit_tree(labelled)
    width = widths[0] if widths else 1
    unlabelled = np.ones((len(widths), width))
    with pytest.raises(SevpredictError, match=f"^feature vector has {width} values, expected 2$") as training:
        self_train(tree, labelled, make_pool(unlabelled, width=width), SelfTrainConfig())
    for predict in (predict_label, predict_confidence) if widths else ():
        with pytest.raises(SevpredictError) as predicting:
            predict(tree, unlabelled.tolist())
        assert str(training.value) == str(predicting.value)


def test_a_labelled_pool_of_another_width_than_the_tree_fails():
    # the tree was grown on two features; the pool handed with it has three, which fails before any routing
    labelled, unlabelled = separable_sets()
    wide = LabelledPool.from_rows(make_labelled([*inst.features, 0.0], inst.label) for inst in labelled)
    with pytest.raises(SevpredictError, match="^feature vector has 3 values, expected 2$"):
        self_train(fit_tree(labelled), wide, unlabelled, SelfTrainConfig(gamma=0.9))


@pytest.mark.parametrize("unlabelled", [np.ones(2), np.ones((1, 1, 2)), 1.0])
def test_unlabelled_features_that_are_not_a_matrix_fail_naming_the_shape(unlabelled):
    # self_train takes an UnlabelledPool, which checks its features' shape when it is built
    with pytest.raises(SevpredictError, match=r"^features must be a 2-D float64 array$"):
        UnlabelledPool(unlabelled, np.full(1, 100), (None,))


def test_a_refit_past_the_row_limit_fails_as_fit_tree_does(monkeypatch):
    import sevpredict.cart as cart

    labelled, unlabelled = separable_sets()
    tree = fit_tree(labelled)
    monkeypatch.setattr(cart, "MAX_TRAIN_ROWS", 5)
    with pytest.raises(SevpredictError) as direct:
        fit_tree(LabelledPool.from_rows([*labelled, *(make_labelled(row, CL) for row in unlabelled.features)]))
    with pytest.raises(SevpredictError) as refit:
        self_train(tree, labelled, unlabelled, SelfTrainConfig(gamma=0.0))
    assert str(refit.value) == str(direct.value) == (
        "training set has 6 rows; exact split search supports at most 5"
    )


def test_config_validation():
    with pytest.raises(SevpredictError):
        SelfTrainConfig(gamma=-0.1)
    with pytest.raises(SevpredictError):
        SelfTrainConfig(gamma=1.1)
    with pytest.raises(SevpredictError):
        SelfTrainConfig(max_iterations=0)


def test_trace_dict_lists_each_iteration():
    labelled, unlabelled = separable_sets()
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=0.0))
    as_dict = result.trace.to_dict()
    first = as_dict["iterations"][0]
    assert first["iteration"] == 1
    assert first["accepted"] == 2
    assert "supervised_risk" in first and "unsupervised_risk" not in first
    assert as_dict["status"] == STATUS_EXHAUSTED_U
    assert len(as_dict["iterations"]) == 1
