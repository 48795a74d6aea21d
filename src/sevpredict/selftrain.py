"""Semi-supervised self-training around the decision tree.

The labelled pool is optionally balanced once up front, then the loop
alternates: fit a tree, score every unlabelled instance by its leaf
frequency, and absorb the whole batch whose confidence clears the
acceptance threshold as pseudo-labelled training data. Iteration ends when
the unlabelled pool is exhausted, an iteration accepts nothing, or the
iteration budget runs out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

from .adasyn import SamplerConfig, adasyn_balance
from .cart import DecisionTree, TreeConfig, fit_tree, predict_confidence, predict_label
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
    oversample_first: bool = True

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
    unsupervised_risk: float


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

    def to_jsonl(self) -> str:
        """One JSON object per iteration, newline separated."""
        rows = self.to_dict()["iterations"]
        return "\n".join(json.dumps(row, sort_keys=True) for row in rows)


@dataclass(frozen=True)
class SelfTrainResult:
    tree: DecisionTree  # fit on the final augmented pool
    labelled: tuple[LabelledInstance, ...]
    residual_unlabelled: tuple[UnlabelledInstance, ...]
    trace: SelfTrainTrace


def pseudo_label_risk(
    tree: DecisionTree,
    labelled: Sequence[LabelledInstance],
    unlabelled: Sequence[UnlabelledInstance],
    gamma: float,
) -> tuple[float, float]:
    """0-1 risk terms of a tree over the two pools.

    The supervised term is the misclassification rate on the labelled pool.
    The unsupervised term averages, over the unlabelled pool, the loss of
    the tree's prediction against the pseudo-label it would assign when the
    confidence clears gamma; since the pseudo-label is that same prediction
    the term is identically zero, and an empty pool contributes zero.
    """
    if not labelled:
        raise SevpredictError("risk needs a non-empty labelled pool")
    wrong = sum(predict_label(tree, inst.features) is not inst.label for inst in labelled)
    supervised = wrong / len(labelled)
    if not unlabelled:
        return supervised, 0.0
    unsup = 0.0
    for inst in unlabelled:
        pseudo, confidence = predict_confidence(tree, inst.features)
        if confidence >= gamma:
            unsup += float(pseudo is not predict_label(tree, inst.features))
    return supervised, unsup / len(unlabelled)


def self_train(
    labelled: Sequence[LabelledInstance],
    unlabelled: Sequence[UnlabelledInstance],
    config: SelfTrainConfig = SelfTrainConfig(),
    tree_config: TreeConfig = TreeConfig(),
    sampler_config: SamplerConfig = SamplerConfig(),
    schema: Sequence[str] | None = None,
) -> SelfTrainResult:
    """Grow the labelled pool by batch-accepting confident pseudo-labels."""
    if not labelled:
        raise SevpredictError("self-training needs a non-empty labelled pool")
    pool: list[LabelledInstance] = (
        adasyn_balance(labelled, sampler_config) if config.oversample_first else list(labelled)
    )
    remaining: list[tuple[int, UnlabelledInstance]] = list(enumerate(unlabelled))

    records: list[IterationRecord] = []
    status = STATUS_EXHAUSTED_U  # holds if the pool drains (or started empty)
    iteration = 0
    tree = fit_tree(pool, tree_config, schema)
    while remaining:
        iteration += 1
        if iteration > config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        supervised, unsupervised = pseudo_label_risk(
            tree, pool, [inst for _, inst in remaining], config.gamma
        )
        accepted: list[tuple[int, LabelledInstance]] = []
        kept: list[tuple[int, UnlabelledInstance]] = []
        for original_index, inst in remaining:
            label, confidence = predict_confidence(tree, inst.features)
            if confidence >= config.gamma:
                accepted.append(
                    (
                        original_index,
                        LabelledInstance(inst.features, inst.loc, label, PROVENANCE_PSEUDO, inst.module_id),
                    )
                )
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
                unsupervised_risk=unsupervised,
            )
        )
        if not accepted:
            status = STATUS_NO_PROGRESS
            break
        pool.extend(inst for _, inst in accepted)
        remaining = kept
        tree = fit_tree(pool, tree_config, schema)

    return SelfTrainResult(
        tree=tree,
        labelled=tuple(pool),
        residual_unlabelled=tuple(inst for _, inst in remaining),
        trace=SelfTrainTrace(tuple(records), status),
    )
