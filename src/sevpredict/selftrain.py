"""Semi-supervised self-training around the decision tree.

The loop starts from a labelled pool and the tree already fitted on it,
then alternates: score every unlabelled instance by its leaf frequency,
absorb the whole batch whose confidence clears the acceptance threshold as
pseudo-labelled training data, and refit. Iteration ends when the
unlabelled pool is exhausted, an iteration accepts nothing, or the
iteration budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .cart import N_CLASSES, DecisionTree, TreeConfig, fit_tree, iter_leaves, route_rows
from .corpus import LabelledPool, UnlabelledPool
from .errors import SevpredictError
from .severity import CLASS_NAMES

STATUS_EXHAUSTED_U = "exhausted_U"
STATUS_NO_PROGRESS = "no_progress"
STATUS_MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SelfTrainConfig:
    gamma: float = 0.99  # leaf-frequency confidence needed to accept a pseudo-label
    max_iterations: int = 50

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise SevpredictError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.max_iterations < 1:
            raise SevpredictError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    unlabelled_before: int
    accepted: int
    accepted_per_class: dict[str, int]
    accepted_indices: tuple[int, ...]  # positions in the original unlabelled list
    supervised_risk: float


@dataclass(frozen=True)
class SelfTrainTrace:
    iterations: tuple[IterationRecord, ...]
    status: str  # exhausted_U | no_progress | max_iterations

    def to_dict(self) -> dict:
        # a shallow walk: asdict would copy accepted_indices element by element
        return {
            "status": self.status,
            "iterations": [{f.name: getattr(r, f.name) for f in fields(r)} for r in self.iterations],
        }


@dataclass(frozen=True)
class SelfTrainResult:
    tree: DecisionTree  # fit on the final augmented pool
    accepted_labels: tuple[int, ...]  # class indices, aligned with the iterations' accepted_indices
    trace: SelfTrainTrace


def pseudo_label_risk(tree: DecisionTree) -> float:
    """0-1 risk of a tree: its misclassification rate on the pool it was grown on.

    Every training row sits in the leaf it routes to, so the leaf counts
    already hold the answer: a leaf misclassifies all but its majority.
    """
    wrong = total = 0
    for leaf in iter_leaves(tree):
        wrong += leaf.nl - max(leaf.counts)
        total += leaf.nl
    return wrong / total


def self_train(tree: DecisionTree, labelled: LabelledPool, unlabelled: UnlabelledPool,
               config: SelfTrainConfig = SelfTrainConfig(), tree_config: TreeConfig = TreeConfig()) -> SelfTrainResult:
    """Grow the labelled pool by batch-accepting confident pseudo-labels.

    `tree` is the tree fitted on `labelled` under `tree_config`; the loop
    continues from it and refits with fit_tree only after an iteration that
    extends the pool. Neither pool handed in is changed: each accepted batch
    makes a larger LabelledPool, its modules' LoC and IDs included.
    """
    if not labelled:
        raise SevpredictError("self-training needs a non-empty labelled pool")
    X, width = unlabelled.features, len(tree.schema)
    for found in (X.shape[1], labelled.features.shape[1]):
        if found != width:  # as routing a row of the wrong width says
            raise SevpredictError(f"feature vector has {found} values, expected {width}")
    pool, remaining = labelled, np.arange(len(X))  # remaining: original positions, ascending

    records: list[IterationRecord] = []
    status = STATUS_EXHAUSTED_U  # holds if the pool drains (or started empty)
    while len(remaining):
        if len(records) == config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        supervised = pseudo_label_risk(tree)
        label, confidence = route_rows(tree, X[remaining])
        hit = confidence >= config.gamma
        accepted, accepted_label = remaining[hit], label[hit]
        per_class = dict(zip(CLASS_NAMES, np.bincount(accepted_label, minlength=N_CLASSES).tolist()))
        records.append(IterationRecord(
            iteration=len(records) + 1, unlabelled_before=len(remaining), accepted=len(accepted),
            accepted_per_class=per_class, accepted_indices=tuple(accepted.tolist()), supervised_risk=supervised))
        if not len(accepted):
            status = STATUS_NO_PROGRESS
            break
        remaining = remaining[~hit]
        pool = LabelledPool(np.concatenate((pool.features, X[accepted])),
                            np.concatenate((pool.labels, accepted_label)),
                            np.concatenate((pool.loc, unlabelled.loc[accepted])),
                            pool.module_ids + tuple(map(unlabelled.module_ids.__getitem__, accepted.tolist())))
        tree = fit_tree(pool, tree_config, tree.schema)

    return SelfTrainResult(tree, tuple(pool.labels[len(labelled):].tolist()), SelfTrainTrace(tuple(records), status))
