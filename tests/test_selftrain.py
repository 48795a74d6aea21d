from __future__ import annotations

import numpy as np
import pytest

from sevpredict import (
    SamplerConfig,
    SelfTrainConfig,
    SevpredictError,
    TreeConfig,
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

from conftest import CL, CR, HS, MA, NT, make_labelled, make_unlabelled


def separable_sets():
    labelled = [
        make_labelled([0.0, 0.0], CL), make_labelled([0.2, 0.1], CL),
        make_labelled([5.0, 5.0], MA), make_labelled([5.2, 5.1], MA),
    ]
    unlabelled = [
        make_unlabelled([0.1, 0.05], module_id="u0"),
        make_unlabelled([5.1, 5.05], module_id="u1"),
    ]
    return labelled, unlabelled


def conflicted_sets():
    # two coincident points with different labels cap confidence at 0.5
    labelled = [
        make_labelled([0.0], CL), make_labelled([0.0], MA),
        make_labelled([9.0], HS), make_labelled([9.5], HS),
    ]
    unlabelled = [make_unlabelled([0.0]), make_unlabelled([0.01])]
    return labelled, unlabelled


# ---------------------------------------------------------------------------
# risk estimates


def _reference_risk(tree, labelled):
    """Reference: route every pool row and count the misclassified ones."""
    wrong = sum(predict_label(tree, inst.features) is not inst.label for inst in labelled)
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
    tree = fit_tree(labelled, TreeConfig(max_depth=1))
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
        pool = [make_labelled(row, classes[k]) for row, k in zip(grid, labels)]
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
    assert result.residual_unlabelled == ()
    assert len(result.labelled) == 6


def test_gamma_one_with_conflicts_makes_no_progress():
    labelled, unlabelled = conflicted_sets()
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=1.0))
    assert result.trace.status == STATUS_NO_PROGRESS
    assert len(result.residual_unlabelled) == 2
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
    assert len(result.labelled) == len(before) + len(unlabelled)
    assert labelled == before


def test_empty_pool_exhausts_immediately():
    labelled, _ = separable_sets()
    result = self_train(fit_tree(labelled), labelled, [], SelfTrainConfig())
    assert result.trace.status == STATUS_EXHAUSTED_U
    assert result.trace.iterations == ()
    assert result.labelled == tuple(labelled)


def test_max_iterations_stops_mixed_pool():
    # one separable point is absorbed in round one; the conflicted point
    # stays below gamma forever, so round two would make no progress, but
    # the iteration budget is exhausted first
    labelled = [
        make_labelled([0.0], CL), make_labelled([0.0], MA),
        make_labelled([9.0], HS), make_labelled([9.5], HS),
    ]
    unlabelled = [make_unlabelled([9.2]), make_unlabelled([0.0])]
    config = SelfTrainConfig(gamma=0.9, max_iterations=1)
    result = self_train(fit_tree(labelled), labelled, unlabelled, config)
    assert result.trace.status == STATUS_MAX_ITERATIONS
    assert len(result.trace.iterations) == 1
    assert result.trace.iterations[0].accepted == 1
    assert len(result.residual_unlabelled) == 1


def test_pool_shrinks_monotonically():
    rng = np.random.default_rng(44)
    labelled = []
    for centre, cls in ((0.0, CL), (4.0, MA), (8.0, CR)):
        for _ in range(6):
            labelled.append(make_labelled(
                [float(rng.normal(centre, 0.5)), float(rng.normal(0, 0.5))], cls))
    unlabelled = [make_unlabelled([float(rng.uniform(-2, 10)), float(rng.normal(0, 0.5))])
                  for _ in range(30)]
    result = self_train(fit_tree(labelled), labelled, unlabelled, SelfTrainConfig(gamma=0.8))
    sizes = [rec.unlabelled_before for rec in result.trace.iterations]
    assert sizes == sorted(sizes, reverse=True)
    accepted_total = sum(rec.accepted for rec in result.trace.iterations)
    assert accepted_total == 30 - len(result.residual_unlabelled)
    pseudo = [i for i in result.labelled if i.provenance == "pseudo"]
    assert len(pseudo) == accepted_total


# ---------------------------------------------------------------------------
# pseudo-label bookkeeping


def test_pseudo_labels_match_the_accepting_iteration_tree():
    rng = np.random.default_rng(7)
    labelled = []
    for cls, centre in ((CL, 0.0), (MA, 4.0), (HS, 8.0)):
        for _ in range(5):
            labelled.append(make_labelled([float(centre + rng.normal(0, 0.4))], cls))
    unlabelled = [make_unlabelled([float(rng.uniform(-1, 9))], module_id=f"u{i}")
                  for i in range(20)]
    config = SelfTrainConfig(gamma=0.7)
    result = self_train(fit_tree(labelled), labelled, unlabelled, config)

    # replay: rebuild each round's tree from the evolving pool and check the
    # accepted indices really cleared the bar with the recorded labels
    pool = list(labelled)
    remaining = list(unlabelled)
    accepted_seen = []
    for rec in result.trace.iterations:
        assert rec.unlabelled_before == len(remaining)
        tree = fit_tree(pool)
        newly = []
        for idx in rec.accepted_indices:
            inst = unlabelled[idx]
            label, conf = predict_confidence(tree, inst.features)
            assert conf >= config.gamma
            newly.append(make_labelled(list(inst.features), label,
                                       loc=inst.loc, provenance="pseudo",
                                       module_id=inst.module_id))
        accepted_seen.extend(rec.accepted_indices)
        pool.extend(newly)
        remaining = [inst for i, inst in enumerate(unlabelled)
                     if i not in set(accepted_seen)]
    assert len(accepted_seen) == len(set(accepted_seen))

    pseudo = [i for i in result.labelled if i.provenance == "pseudo"]
    replayed = [i for i in pool if i.provenance == "pseudo"]
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
    assert result.tree == fit_tree(result.labelled)


def test_self_train_is_deterministic():
    rng = np.random.default_rng(9)
    labelled = []
    for centre, cls in ((0.0, CL), (3.0, NT)):
        for _ in range(8):
            labelled.append(make_labelled([float(rng.normal(centre, 0.6))], cls))
    unlabelled = [make_unlabelled([float(rng.uniform(-1, 4))]) for _ in range(12)]
    config = SelfTrainConfig(gamma=0.75)
    pool = adasyn_balance(labelled, SamplerConfig(seed=2))
    a = self_train(fit_tree(pool), pool, unlabelled, config)
    b = self_train(fit_tree(pool), pool, unlabelled, config)
    assert a.labelled == b.labelled
    assert a.trace.to_dict() == b.trace.to_dict()


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
