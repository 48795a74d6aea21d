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
from typing import Sequence

from .cart import DecisionTree, TreeConfig, fit_tree, iter_leaves, predict_confidence
from .corpus import PROVENANCE_PSEUDO, LabelledInstance, UnlabelledInstance
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
    labelled: tuple[LabelledInstance, ...]
    residual_unlabelled: tuple[UnlabelledInstance, ...]
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


def self_train(
    tree: DecisionTree,
    labelled: Sequence[LabelledInstance],
    unlabelled: Sequence[UnlabelledInstance],
    config: SelfTrainConfig = SelfTrainConfig(),
    tree_config: TreeConfig = TreeConfig(),
) -> SelfTrainResult:
    """Grow the labelled pool by batch-accepting confident pseudo-labels.

    `tree` is the tree fitted on `labelled` under `tree_config`; the loop
    continues from it and refits only after an iteration that extends the
    pool. `labelled` itself is never extended.
    """
    if not labelled:
        raise SevpredictError("self-training needs a non-empty labelled pool")
    pool = list(labelled)
    remaining: list[tuple[int, UnlabelledInstance]] = list(enumerate(unlabelled))

    records: list[IterationRecord] = []
    status = STATUS_EXHAUSTED_U  # holds if the pool drains (or started empty)
    iteration = 0
    while remaining:
        iteration += 1
        if iteration > config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        supervised = pseudo_label_risk(tree)
        accepted: list[tuple[int, LabelledInstance]] = []
        kept: list[tuple[int, UnlabelledInstance]] = []
        for original_index, inst in remaining:
            label, confidence = predict_confidence(tree, inst.features)
            if confidence >= config.gamma:
                pseudo = LabelledInstance(inst.features, inst.loc, label, PROVENANCE_PSEUDO, inst.module_id)
                accepted.append((original_index, pseudo))
            else:
                kept.append((original_index, inst))
        per_class = {name: 0 for name in CLASS_NAMES}
        for _, inst in accepted:
            per_class[inst.label.value] += 1
        records.append(
            IterationRecord(
                iteration=iteration,
                unlabelled_before=len(remaining),
                accepted=len(accepted),
                accepted_per_class=per_class,
                accepted_indices=tuple(i for i, _ in accepted),
                supervised_risk=supervised,
            )
        )
        if not accepted:
            status = STATUS_NO_PROGRESS
            break
        pool.extend(inst for _, inst in accepted)
        remaining = kept
        tree = fit_tree(pool, tree_config, tree.schema)

    return SelfTrainResult(
        tree=tree,
        labelled=tuple(pool),
        residual_unlabelled=tuple(inst for _, inst in remaining),
        trace=SelfTrainTrace(tuple(records), status),
    )
