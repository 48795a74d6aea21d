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

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import LabelledPool, feature_matrix
from .errors import SevpredictError
from .severity import CLASS_INDEX, SEVERITY_ORDER, SeverityClass

N_CLASSES = len(SEVERITY_ORDER)
MAX_TRAIN_ROWS = 3_300_000  # MAX_TRAIN_ROWS^3 / 4 < 2^63
SCAN_CELLS = 4096  # values per scanned block; nodes this large scan one feature at a time


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


@dataclass(frozen=True, eq=False, repr=False)
class Split:
    feature_index: int
    threshold: float  # value <= threshold routes left
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Leaf | Split


def _preorder(root: TreeNode):
    """Every node, each before its left subtree and that before its right, from a stack."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Split):
            stack += [node.right, node.left]


@dataclass(frozen=True, eq=False, repr=False)
class DecisionTree:
    """A fitted tree; ==, hash and repr walk it once in preorder, so they work at any depth."""

    root: TreeNode
    schema: tuple[str, ...]

    def _key(self) -> tuple:
        """The schema, and (feature_index, threshold) per split and counts per leaf, in preorder."""
        nodes = tuple(
            n.counts if isinstance(n, Leaf) else (n.feature_index, n.threshold) for n in _preorder(self.root)
        )
        return self.schema, nodes

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, DecisionTree) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"DecisionTree(schema={self.schema!r}, nodes={len(self._key()[1])})"


def _make_leaf(counts: np.ndarray) -> Leaf:
    majority = SEVERITY_ORDER[int(np.argmax(counts))]  # argmax takes the first = most severe
    return Leaf(tuple(int(c) for c in counts), int(counts.sum()), majority)


def _scan_features(values: np.ndarray, labels: np.ndarray):
    """Best midpoint split in a (b, n) block of feature rows: (num, den, row, threshold).

    Scores every boundary between consecutive distinct sorted values from
    per-class prefix counts. Each such count covers the rows valued at most
    the lower of the two, whatever order the sort left equal values in, so
    the sort need not be stable; and a run mixing -0.0 and +0.0 cannot move
    the threshold, since either zero plus the nonzero value beside the run
    gives the same sum. Float only screens out clearly worse candidates;
    among the rest, walked row-major, the first strictly-better one wins by
    exact integer comparison, so equal-quality splits resolve to the lowest
    row, then the lowest threshold. The threshold is the midpoint of the two
    values either side, or the lower one where the midpoint rounds up to the
    upper value (adjacent doubles) or overflows. None when every row is constant.
    """
    b, n = values.shape
    order = np.argsort(values, axis=1)
    sv = np.take_along_axis(values, order, axis=1)
    sl = labels[order][:, :-1]
    del order
    cut = sv[:, :-1] != sv[:, 1:]  # boundary pos splits [0, pos] | [pos + 1, n)
    if not cut.any():
        return None
    n_left = np.arange(1, n, dtype=np.int64)
    n_right = n - n_left
    # per-class prefix counts and their sums of squares, in place in four (b, n - 1) arrays
    left, right = np.empty((b, n - 1), np.int64), np.empty((b, n - 1), np.int64)
    s_left, s_right = np.zeros((b, n - 1), np.int64), np.zeros((b, n - 1), np.int64)
    totals = np.bincount(labels, minlength=N_CLASSES)
    for c in np.flatnonzero(totals):
        np.cumsum(sl == c, axis=1, dtype=np.int64, out=left)
        np.subtract(totals[c], left, out=right)
        s_left += np.square(left, out=left)
        s_right += np.square(right, out=right)
    s_left *= n_right
    s_right *= n_left
    num = np.add(s_left, s_right, out=s_left)  # <= n^3 / 4, exact below MAX_TRAIN_ROWS
    den = n_left * n_right
    q = num / den
    q[~cut] = -np.inf
    best = None
    # q carries ~1e-15 relative rounding error, so the exact best always passes
    for row, pos in zip(*np.nonzero(q >= q.max() * (1 - 1e-9))):
        cand_num, cand_den = int(num[row, pos]), int(den[pos])
        if best is None or cand_num * best[1] > best[0] * cand_den:
            best = (cand_num, cand_den, int(row), int(pos))
    best_num, best_den, row, pos = best
    low, high = float(sv[row, pos]), float(sv[row, pos + 1])
    mid = (low + high) / 2.0
    return best_num, best_den, row, mid if low <= mid < high else low


def _grow(XT: np.ndarray, y: np.ndarray, config: TreeConfig) -> TreeNode:
    """Grow depth first, left subtree before right, from a work list, so any depth fits.

    A split waits on the list under its two subtrees, with None for children,
    until both are finished on top of `done`.
    """
    done: list[TreeNode] = []
    todo: list = [(np.arange(len(y)), 0)]  # (rows, depth) to grow, or a split to join
    while todo:
        item = todo.pop()
        if isinstance(item, Split):
            right, left = done.pop(), done.pop()
            done.append(replace(item, left=left, right=right))
            continue
        idx, depth = item
        labels = y[idx]
        counts = np.bincount(labels, minlength=N_CLASSES)
        n = len(idx)
        if (
            int((counts > 0).sum()) == 1
            or n < config.min_samples_split
            or (config.max_depth is not None and depth >= config.max_depth)
        ):
            done.append(_make_leaf(counts))
            continue

        best = None  # (num, den, feature, threshold)
        width = max(1, SCAN_CELLS // n)
        for start in range(0, XT.shape[0], width):
            scan = _scan_features(XT[start : start + width, idx], labels)
            if scan is None:
                continue
            num, den, row, threshold = scan
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, start + row, threshold)
        sumsq = sum(int(c) ** 2 for c in counts)
        if best is None or best[0] * n <= sumsq * best[1]:
            done.append(_make_leaf(counts))  # all features constant, or no candidate reduces impurity
            continue
        _, _, feature, threshold = best
        mask = XT[feature, idx] <= threshold
        todo += [Split(feature, threshold, None, None), (idx[~mask], depth + 1), (idx[mask], depth + 1)]
    return done[0]


def fit_tree(train: LabelledPool, config: TreeConfig = TreeConfig(),
             schema: Sequence[str] | None = None) -> DecisionTree:
    """Grow a tree on the labelled pool; self-training refits through here too.

    Recursion stops at pure nodes, nodes below min_samples_split, nodes
    where no candidate split strictly reduces Gini impurity, and at
    max_depth when one is set.
    """
    n, p = train.features.shape
    if not n:
        raise SevpredictError("cannot fit a tree on an empty training set")
    if n > MAX_TRAIN_ROWS:
        raise SevpredictError(f"training set has {n} rows; exact split search supports at most {MAX_TRAIN_ROWS}")
    if schema is None:
        schema = tuple(f"f{j}" for j in range(p))
    elif len(schema) != p:
        raise SevpredictError(f"schema names {len(schema)} features but instances have {p}")
    return DecisionTree(_grow(train.features.T.copy(), train.labels, config), tuple(schema))


def route_rows(tree: DecisionTree, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's landing leaf as (majority-class index, confidence), for an X of the tree's width.

    Row indices are partitioned down the tree, one comparison per split node.
    """
    label = np.empty(len(X), dtype=np.int64)
    confidence = np.empty(len(X))
    stack = [(tree.root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            k = CLASS_INDEX[node.majority]
            label[idx] = k
            confidence[idx] = node.counts[k] / node.nl
        elif len(idx):
            left = X[idx, node.feature_index] <= node.threshold
            stack += [(node.right, idx[~left]), (node.left, idx[left])]
    return label, confidence


def predict_label(
    tree: DecisionTree, rows: Sequence[Sequence[float]] | np.ndarray
) -> tuple[SeverityClass, ...]:
    """The majority class of each row's landing leaf; an (n, p) feature matrix is read as it is."""
    label, _ = route_rows(tree, feature_matrix(rows, len(tree.schema)))
    return tuple(SEVERITY_ORDER[k] for k in label.tolist())


def predict_confidence(
    tree: DecisionTree, rows: Sequence[Sequence[float]] | np.ndarray
) -> tuple[tuple[SeverityClass, float], ...]:
    """Per row: the majority class of its landing leaf and that class's raw training frequency."""
    label, confidence = route_rows(tree, feature_matrix(rows, len(tree.schema)))
    return tuple((SEVERITY_ORDER[k], c) for k, c in zip(label.tolist(), confidence.tolist()))


def iter_leaves(tree: DecisionTree):
    return (node for node in _preorder(tree.root) if isinstance(node, Leaf))


def dump_tree(tree: DecisionTree) -> str:
    """Indented text rendering, for eyeballing small trees."""
    lines: list[str] = []
    stack: list = [(tree.root, 0)]  # (node or "else", indent)
    while stack:
        node, indent = stack.pop()
        pad = "  " * indent
        if isinstance(node, Leaf):
            freq = ", ".join(f"{cls.value}={c}" for cls, c in zip(SEVERITY_ORDER, node.counts) if c)
            lines.append(f"{pad}leaf [{freq}] -> {node.majority.value}")
        elif isinstance(node, Split):
            lines.append(f"{pad}{tree.schema[node.feature_index]} <= {node.threshold!r}")
            stack += [(node.right, indent + 1), ("else", indent), (node.left, indent + 1)]
        else:
            lines.append(f"{pad}{node}")
    return "\n".join(lines)
