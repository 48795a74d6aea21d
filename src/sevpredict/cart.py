"""Binary classification tree (CART) with Gini impurity.

Split selection is exact: candidates are compared through the integer
quantity sum_child(n_other * sum_j c_j^2) so that "lower impurity, then
lower feature index, then lower threshold" never hinges on float rounding.
For a candidate split of n instances into (L, R), minimizing the weighted
child Gini is equivalent to maximizing

    Q = sum_j cL_j^2 / nL + sum_j cR_j^2 / nR

which is the ratio (sum_j cL_j^2 * nR + sum_j cR_j^2 * nL) / (nL * nR) of
two integers; candidates are ranked by cross-multiplication. The split scan
holds numerators, at most n^3 / 4, in int64, so a training set may have at
most MAX_TRAIN_ROWS rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import LabelledInstance
from .errors import SevpredictError
from .severity import CLASS_INDEX, SEVERITY_ORDER, SeverityClass

N_CLASSES = len(SEVERITY_ORDER)
MAX_TRAIN_ROWS = 3_300_000  # MAX_TRAIN_ROWS^3 / 4 < 2^63


def _check_rows(n: int) -> None:
    if n > MAX_TRAIN_ROWS:
        raise SevpredictError(
            f"training set has {n} rows; exact split search supports at most {MAX_TRAIN_ROWS}"
        )


@dataclass(frozen=True)
class TreeConfig:
    min_samples_split: int = 2
    max_depth: int | None = None  # None grows until pure or unsplittable

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise SevpredictError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.max_depth is not None and self.max_depth < 0:
            raise SevpredictError(f"max_depth must be >= 0, got {self.max_depth}")


@dataclass(frozen=True)
class Leaf:
    counts: tuple[int, ...]  # training class counts, severity order
    nl: int
    majority: SeverityClass  # ties resolve toward the more severe class


@dataclass(frozen=True)
class Split:
    feature_index: int
    threshold: float  # value <= threshold routes left
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Leaf | Split


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    schema: tuple[str, ...]


def _make_leaf(counts: np.ndarray) -> Leaf:
    majority = SEVERITY_ORDER[int(np.argmax(counts))]  # argmax takes the first = most severe
    return Leaf(tuple(int(c) for c in counts), int(counts.sum()), majority)


def _scan_feature(values: np.ndarray, labels: np.ndarray):
    """Best midpoint threshold on one feature: (threshold, q_num, q_den).

    Scores all boundaries between consecutive distinct sorted values from
    per-class prefix counts. Float only screens out clearly worse candidates;
    among the rest the first strictly-better one wins by exact integer
    comparison, so equal-quality thresholds resolve to the lowest one.
    Returns None for a constant feature.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sl = labels[order]
    cut = np.flatnonzero(sv[:-1] != sv[1:])  # boundary pos splits [0, pos] | [pos + 1, n)
    if len(cut) == 0:
        return None
    n_left = cut + 1
    n_right = n - n_left
    s_left = np.zeros(len(cut), dtype=np.int64)
    s_right = np.zeros(len(cut), dtype=np.int64)
    totals = np.bincount(sl, minlength=N_CLASSES)
    for c in np.flatnonzero(totals):
        left = np.cumsum(sl[:-1] == c, dtype=np.int64)[cut]
        right = totals[c] - left
        s_left += left * left
        s_right += right * right
    num = s_left * n_right + s_right * n_left  # <= n^3 / 4, exact below MAX_TRAIN_ROWS
    den = n_left * n_right
    q = num / den
    best = None
    # q carries ~1e-15 relative rounding error, so the exact best always passes
    for i in np.flatnonzero(q >= q.max() * (1 - 1e-9)):
        cand_num, cand_den = int(num[i]), int(den[i])
        if best is None or cand_num * best[1] > best[0] * cand_den:
            best = (cand_num, cand_den, int(cut[i]))
    best_num, best_den, pos = best
    return float((sv[pos] + sv[pos + 1]) / 2.0), best_num, best_den


def best_split(instances: Sequence[LabelledInstance], feature_index: int):
    """Impurity-minimizing threshold on one feature, with its Gini decrease.

    Returns (threshold, impurity_decrease) or None when the feature is
    constant over the instances. A zero decrease is still reported; the
    caller decides whether it is worth splitting on.
    """
    if len(instances) < 2:
        raise SevpredictError("best_split needs at least 2 instances")
    _check_rows(len(instances))
    values = np.asarray([inst.features[feature_index] for inst in instances], dtype=float)
    labels = np.asarray([CLASS_INDEX[inst.label] for inst in instances])
    scan = _scan_feature(values, labels)
    if scan is None:
        return None
    threshold, num, den = scan
    n = len(instances)
    sumsq = sum(int(c) ** 2 for c in np.bincount(labels, minlength=N_CLASSES))
    decrease = num / (den * n) - sumsq / (n * n)
    return threshold, decrease


def _grow(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int, config: TreeConfig) -> TreeNode:
    counts = np.bincount(y[idx], minlength=N_CLASSES)
    n = len(idx)
    if (
        int((counts > 0).sum()) == 1
        or n < config.min_samples_split
        or (config.max_depth is not None and depth >= config.max_depth)
    ):
        return _make_leaf(counts)

    best = None  # (num, den, feature, threshold)
    for feature in range(X.shape[1]):
        scan = _scan_feature(X[idx, feature], y[idx])
        if scan is None:
            continue
        threshold, num, den = scan
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, feature, threshold)
    if best is None:
        return _make_leaf(counts)  # all features constant here
    num, den, feature, threshold = best
    sumsq = sum(int(c) ** 2 for c in counts)
    if num * n <= sumsq * den:
        return _make_leaf(counts)  # best candidate does not reduce impurity

    mask = X[idx, feature] <= threshold
    left = _grow(X, y, idx[mask], depth + 1, config)
    right = _grow(X, y, idx[~mask], depth + 1, config)
    return Split(feature, threshold, left, right)


def fit_tree(
    train: Sequence[LabelledInstance],
    config: TreeConfig = TreeConfig(),
    schema: Sequence[str] | None = None,
) -> DecisionTree:
    """Grow a tree on the training instances.

    Recursion stops at pure nodes, nodes below min_samples_split, nodes
    where no candidate split strictly reduces Gini impurity, and at
    max_depth when one is set.
    """
    instances = list(train)
    if not instances:
        raise SevpredictError("cannot fit a tree on an empty training set")
    _check_rows(len(instances))
    X = np.asarray([inst.features for inst in instances], dtype=float)
    if not np.all(np.isfinite(X)):
        raise SevpredictError("features must be finite")
    y = np.asarray([CLASS_INDEX[inst.label] for inst in instances])
    p = X.shape[1]
    if schema is None:
        schema = tuple(f"f{j}" for j in range(p))
    elif len(schema) != p:
        raise SevpredictError(f"schema names {len(schema)} features but instances have {p}")
    root = _grow(X, y, np.arange(len(instances)), 0, config)
    return DecisionTree(root, tuple(schema))


def route_to_leaf(tree: DecisionTree, features: Sequence[float]) -> Leaf:
    if len(features) != len(tree.schema):
        raise SevpredictError(
            f"feature vector has {len(features)} values but the tree expects {len(tree.schema)}"
        )
    node = tree.root
    while isinstance(node, Split):
        node = node.left if features[node.feature_index] <= node.threshold else node.right
    return node


def predict_label(tree: DecisionTree, features: Sequence[float]) -> SeverityClass:
    return route_to_leaf(tree, features).majority


def predict_confidence(tree: DecisionTree, features: Sequence[float]) -> tuple[SeverityClass, float]:
    """Majority class of the landing leaf and its raw training frequency."""
    leaf = route_to_leaf(tree, features)
    return leaf.majority, leaf.counts[CLASS_INDEX[leaf.majority]] / leaf.nl


def iter_leaves(tree: DecisionTree):
    stack: list[TreeNode] = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack.append(node.right)
            stack.append(node.left)


def dump_tree(tree: DecisionTree) -> str:
    """Indented text rendering, for eyeballing small trees."""
    lines: list[str] = []

    def walk(node: TreeNode, indent: int) -> None:
        pad = "  " * indent
        if isinstance(node, Leaf):
            freq = ", ".join(
                f"{cls.value}={c}" for cls, c in zip(SEVERITY_ORDER, node.counts) if c
            )
            lines.append(f"{pad}leaf [{freq}] -> {node.majority.value}")
            return
        lines.append(f"{pad}{tree.schema[node.feature_index]} <= {node.threshold!r}")
        walk(node.left, indent + 1)
        lines.append(f"{pad}else")
        walk(node.right, indent + 1)

    walk(tree.root, 0)
    return "\n".join(lines)
