from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevpredict import (
    LabelledPool,
    Leaf,
    SEVERITY_ORDER,
    SevpredictError,
    Split,
    TreeConfig,
    dump_tree,
    fit_tree,
    predict_confidence,
    predict_label,
    synth_corpus,
)
from sevpredict import cart
from sevpredict.cart import N_CLASSES, iter_leaves
from sevpredict.severity import CLASS_INDEX

from conftest import CL, HS, MA, NT, leaf_confidence, leaf_of, make_labelled


def points(values, labels):
    return LabelledPool.from_rows(make_labelled([float(v)], lab) for v, lab in zip(values, labels))


# ---------------------------------------------------------------------------
# split selection


def best_split(values, labels):
    """(threshold, Q) of cart._scan_features on one feature column, None when it is constant.

    Q = sum_j cL_j^2 / nL + sum_j cR_j^2 / nR, the split's quality, as an exact Fraction.
    """
    y = np.asarray([CLASS_INDEX[label] for label in labels])
    scan = cart._scan_features(np.asarray(values, dtype=float)[None, :], y)
    if scan is None:
        return None
    num, den, _, threshold = scan
    return threshold, Fraction(num, den)


def gini_decrease(quality, labels):
    """Parent Gini minus the children's weighted Gini, for a split of quality Q."""
    n = len(labels)
    return quality / n - gini_sum_sq(labels) / n**2


def test_best_split_constant_feature_yields_nothing():
    assert best_split([3, 3, 3, 3], [CL, MA, CL, MA]) is None


@pytest.mark.parametrize("low, high", [
    (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # adjacent doubles: the midpoint rounds to high
    (1.7e308, 1.79e308),  # the sum overflows to inf
    (-1.79e308, -1.7e308),  # and to -inf
])
def test_split_threshold_separates_adjacent_and_huge_values(low, high):
    tree = fit_tree(points([low, high], [CL, MA]))
    assert isinstance(tree.root, Split)
    assert low <= tree.root.threshold < high
    assert isinstance(tree.root.left, Leaf) and tree.root.left.majority is CL
    assert isinstance(tree.root.right, Leaf) and tree.root.right.majority is MA


def test_best_split_two_point_separation():
    threshold, quality = best_split([1, 2], [CL, MA])
    assert threshold == 1.5
    assert gini_decrease(quality, [CL, MA]) == Fraction(1, 2)


def test_best_split_clear_gap():
    threshold, _ = best_split([0, 1, 10, 11], [CL, CL, MA, MA])
    assert threshold == 5.5


def test_best_split_tie_takes_lower_threshold():
    # {0,1,2,3} with A,B,B,A: thresholds 0.5 and 2.5 give identical quality
    threshold, _ = best_split([0, 1, 2, 3], [CL, MA, MA, CL])
    assert threshold == 0.5


def test_best_split_reports_zero_decrease():
    # one class on both sides: the best split still has zero gain
    result = best_split([0, 1], [CL, CL])
    assert result is not None
    _, quality = result
    assert gini_decrease(quality, [CL, CL]) == 0


def gini_sum_sq(labels):
    counts = Counter(labels)
    return sum(Fraction(c) ** 2 for c in counts.values())


def brute_force_split(instances, feature_index):
    """All-midpoints search with exact rational arithmetic."""
    pairs = sorted(
        ((inst.features[feature_index], inst.label) for inst in instances),
        key=lambda p: p[0],
    )
    values = [p[0] for p in pairs]
    best = None
    for i in range(len(values) - 1):
        if values[i] == values[i + 1]:
            continue
        thr = (values[i] + values[i + 1]) / 2.0
        left = [lab for v, lab in pairs if v <= thr]
        right = [lab for v, lab in pairs if v > thr]
        nl, nr = Fraction(len(left)), Fraction(len(right))
        q = gini_sum_sq(left) / nl + gini_sum_sq(right) / nr
        if best is None or q > best[1]:
            best = (thr, q)
    return best


def test_root_split_matches_fraction_brute_force():
    rng = np.random.default_rng(21)
    classes = [CL, MA, HS]
    for trial in range(200):
        n = int(rng.integers(2, 65))
        p = int(rng.integers(1, 5))
        n_classes = int(rng.integers(2, 4))
        # coarse grid keeps plenty of duplicate values and exact ties
        X = rng.integers(0, 6, size=(n, p)).astype(float)
        labs = [classes[int(c)] for c in rng.integers(0, n_classes, size=n)]
        instances = [make_labelled(list(row), lab) for row, lab in zip(X, labs)]
        for j in range(p):
            assert best_split(X[:, j], labs) == brute_force_split(instances, j), f"trial {trial} feature {j}"


def _reference_scan(values: np.ndarray, labels: np.ndarray):
    """The per-threshold loop that cart._scan_feature replaced, kept as its reference."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sl = labels[order]
    left = [0] * N_CLASSES
    right = [0] * N_CLASSES
    for c in sl:
        right[int(c)] += 1
    best_num = best_den = 0
    best_thr = None
    for pos in range(n - 1):
        c = int(sl[pos])
        left[c] += 1
        right[c] -= 1
        if sv[pos] == sv[pos + 1]:
            continue
        n_left = pos + 1
        n_right = n - n_left
        s_left = sum(v * v for v in left)
        s_right = sum(v * v for v in right)
        num = s_left * n_right + s_right * n_left
        den = n_left * n_right
        if best_thr is None or num * best_den > best_num * den:
            best_num, best_den = num, den
            best_thr = float((sv[pos] + sv[pos + 1]) / 2.0)
    if best_thr is None:
        return None
    return best_thr, best_num, best_den


def _reference_block_scan(block: np.ndarray, labels: np.ndarray):
    """_reference_scan on each row in turn; a later row wins only if strictly better."""
    best = None
    for row, values in enumerate(block):
        scan = _reference_scan(values, labels)
        if scan is None:
            continue
        threshold, num, den = scan
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, row, threshold)
    return best


def _column(draw, rng, n):
    """One feature column; coarse grids give many ties."""
    kind = draw(st.sampled_from(["grid", "scaled", "continuous"]))
    if kind == "continuous":
        return rng.normal(size=n) * 1e3
    values = rng.integers(0, draw(st.integers(1, 12)), size=n).astype(float)  # 1: constant
    if kind == "scaled":
        values = values * draw(st.sampled_from([0.1, 1e-3, 3.7, 1e6])) - 0.3
    return values


def _labels(draw, rng, n):
    classes = draw(st.permutations(range(N_CLASSES)))[: draw(st.integers(1, N_CLASSES))]
    return np.asarray(classes, dtype=np.int64)[rng.integers(0, len(classes), size=n)]


@st.composite
def scan_inputs(draw):
    """One feature column and its class indices."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _column(draw, rng, n), _labels(draw, rng, n)


@st.composite
def block_inputs(draw):
    """A (b, n) block of feature rows; rows may repeat or mirror earlier ones."""
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        source = draw(st.sampled_from(["new", "copy", "mirror"])) if rows else "new"
        if source == "new":
            rows.append(_column(draw, rng, n))
        else:
            earlier = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(earlier.copy() if source == "copy" else -earlier)
    return np.vstack(rows), _labels(draw, rng, n)


@settings(max_examples=400, deadline=None)
@given(scan_inputs())
@example((np.full(5, 2.5), np.asarray([0, 1, 2, 1, 0])))  # constant: None
@example((np.arange(6.0), np.asarray([0, 1, 1, 1, 1, 0])))  # 0.5 and 4.5 tie exactly
def test_scan_feature_matches_the_reference_loop(case):
    values, labels = case
    block = values[None, :]
    assert cart._scan_features(block, labels) == _reference_block_scan(block, labels)


TIE_LABELS = np.asarray([0, 0, 1, 1, 1, 1])


@settings(max_examples=400, deadline=None)
@given(block_inputs())
@example((np.vstack([np.arange(6.0), np.arange(6.0)]), TIE_LABELS))  # identical rows: row 0
@example((np.vstack([np.arange(6.0), -np.arange(6.0)]), TIE_LABELS))  # mirror: row 0, not -3.5
@example((np.full((3, 5), 2.5), np.asarray([0, 1, 2, 1, 0])))  # all constant: None
@example((np.vstack([np.full(6, 1.0), np.arange(6.0)]), TIE_LABELS))  # constant first row
def test_scan_features_matches_the_reference_on_blocks(case):
    block, labels = case
    assert cart._scan_features(block, labels) == _reference_block_scan(block, labels)


def test_scan_feature_matches_the_reference_on_a_long_column():
    # class counts above 46341 square past int32; the scan must stay exact
    rng = np.random.default_rng(8)
    n = 60_000
    values = rng.integers(0, 400, size=n).astype(float)
    noise = rng.integers(0, 5, size=n)
    labels = np.where(rng.random(n) < 0.95, np.where(values < 360, 4, 0), noise).astype(np.int64)
    block = values[None, :]
    assert cart._scan_features(block, labels) == _reference_block_scan(block, labels)


def test_unbounded_trees_match_the_reference_scan(monkeypatch):
    cases = []
    for seed in range(10):
        counts = {cls: 10 + 15 * ((seed + k) % 4) for k, cls in enumerate(SEVERITY_ORDER)}
        corpus = synth_corpus(counts, 2 + seed % 4, 0.5 + 0.3 * seed, seed=seed)
        instances = corpus.labelled
        if seed % 2:  # one decimal place: many tied values per feature
            instances = LabelledPool.from_rows(make_labelled(np.round(i.features, 1), i.label) for i in instances)
        cases.append((instances, corpus.schema))
    # the oracle scans every node's features in one call to the per-feature reference
    monkeypatch.setattr(cart, "SCAN_CELLS", 10**9)
    monkeypatch.setattr(cart, "_scan_features", _reference_block_scan)
    oracle = [fit_tree(instances, schema=schema) for instances, schema in cases]
    monkeypatch.undo()
    for cells in (1, 16, 10**9):  # one feature per block, mixed widths, one block per node
        monkeypatch.setattr(cart, "SCAN_CELLS", cells)
        for (instances, schema), tree in zip(cases, oracle):
            assert fit_tree(instances, schema=schema) == tree, f"SCAN_CELLS={cells}"


def test_scan_blocks_stay_within_scan_cells(monkeypatch):
    # a block holds at most SCAN_CELLS values, or one feature of a larger node
    corpus = synth_corpus({cls: 600 for cls in SEVERITY_ORDER}, 8, 0.5, seed=4)
    shapes = []
    scan = cart._scan_features

    def recording_scan(values, labels):
        shapes.append(values.shape)
        return scan(values, labels)

    monkeypatch.setattr(cart, "_scan_features", recording_scan)
    fit_tree(corpus.labelled)
    assert max(n for _, n in shapes) == 3000
    assert any(b == 8 for b, _ in shapes)  # small nodes scan all features at once
    for b, n in shapes:
        assert b * n <= max(n, cart.SCAN_CELLS), (b, n)


def test_training_set_above_the_row_limit_is_rejected(monkeypatch):
    monkeypatch.setattr(cart, "MAX_TRAIN_ROWS", 3)
    fit_tree(points([0, 1, 2], [CL, MA, CL]))
    with pytest.raises(SevpredictError, match="training set has 4 rows; .* at most 3$"):
        fit_tree(points([0, 1, 2, 3], [CL, MA, CL, MA]))


# ---------------------------------------------------------------------------
# tree growth


def test_pure_node_becomes_leaf():
    tree = fit_tree(points([0, 1, 2], [MA, MA, MA]))
    assert isinstance(tree.root, Leaf)
    assert tree.root.majority is MA
    assert tree.root.nl == 3


def test_conflicting_duplicates_become_impure_leaf():
    # identical features, different labels: no split has positive gain
    tree = fit_tree(LabelledPool.from_rows([make_labelled([1.0], CL), make_labelled([1.0], MA)]))
    assert isinstance(tree.root, Leaf)
    assert tree.root.nl == 2


def test_max_depth_zero_forces_single_leaf():
    tree = fit_tree(points([0, 1, 2, 3], [CL, CL, MA, MA]), TreeConfig(max_depth=0))
    assert isinstance(tree.root, Leaf)
    assert tree.root.majority is MA  # 2-2 tie resolves toward severity


def test_max_depth_one_gives_a_stump():
    tree = fit_tree(points(range(10), [CL] * 5 + [MA] * 5), TreeConfig(max_depth=1))
    assert isinstance(tree.root, Split)
    assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Leaf)
    assert tree.root.threshold == 4.5


def test_min_samples_split_stops_growth():
    instances = points([0, 1, 2, 3], [CL, MA, CL, MA])
    tree = fit_tree(instances, TreeConfig(min_samples_split=5))
    assert isinstance(tree.root, Leaf)


def test_leaf_tie_breaks_toward_most_severe():
    tree = fit_tree(LabelledPool.from_rows([make_labelled([0.0], HS), make_labelled([0.0], CL)]))
    assert isinstance(tree.root, Leaf)
    assert tree.root.majority is HS


def test_counts_ordered_by_severity():
    tree = fit_tree(LabelledPool.from_rows([make_labelled([0.0], CL)] * 2 + [make_labelled([0.0], HS)]))
    idx_hs = SEVERITY_ORDER.index(HS)
    idx_cl = SEVERITY_ORDER.index(CL)
    assert tree.root.counts[idx_hs] == 1
    assert tree.root.counts[idx_cl] == 2


def test_training_accuracy_perfect_without_conflicting_duplicates():
    rng = np.random.default_rng(33)
    classes = list(SEVERITY_ORDER)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        X = rng.random(size=(n, 3))  # continuous draws: no duplicate rows
        labs = [classes[int(c)] for c in rng.integers(0, 5, size=n)]
        instances = LabelledPool.from_rows(make_labelled(list(row), lab) for row, lab in zip(X, labs))
        tree = fit_tree(instances)
        assert predict_label(tree, [inst.features for inst in instances]) == tuple(labs)


def test_leaf_counts_match_routed_instances():
    rng = np.random.default_rng(17)
    X = rng.integers(0, 4, size=(40, 2)).astype(float)
    classes = [CL, MA, NT]
    labs = [classes[int(c)] for c in rng.integers(0, 3, size=40)]
    instances = LabelledPool.from_rows(make_labelled(list(row), lab) for row, lab in zip(X, labs))
    tree = fit_tree(instances)
    routed = Counter()
    for inst in instances:
        leaf = leaf_of(tree, inst.features)
        routed[id(leaf)] += 1
    for leaf in iter_leaves(tree):
        assert sum(leaf.counts) == leaf.nl
        assert routed[id(leaf)] == leaf.nl
    assert sum(leaf.nl for leaf in iter_leaves(tree)) == 40


class _NumpyWithArgsort:
    """numpy, except for argsort: swapped into cart to rerun _scan_features under another tie order."""

    def __init__(self, argsort):
        self.argsort = argsort

    def __getattr__(self, name):
        return getattr(np, name)


def _stable_argsort(values, axis, **_):
    return np.argsort(values, axis=axis, kind="stable")


def _later_first_argsort(values, axis, **_):
    """Ascending values; equal values, -0.0 and +0.0 among them, latest row position first."""
    idx = np.arange(values.shape[1])
    return np.stack([np.lexsort((-idx, row)) for row in values])


@st.composite
def tied_blocks(draw):
    """A (b, n) block on a small integer grid, zeros signed at random, and 1 to 5 classes."""
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-3, 0))
    block = rng.integers(low, draw(st.integers(low + 1, 4)), size=(draw(st.integers(1, 6)), n)).astype(float)
    block[(block == 0) & (rng.random(block.shape) < 0.5)] = -0.0
    return block, _labels(draw, rng, n)


def _signed(scan):
    return scan if scan is None else (*scan, math.copysign(1.0, scan[3]))


@settings(max_examples=300, deadline=None)
@given(tied_blocks())
@example((np.asarray([[0.0, -0.0, 1.0, -0.0, 0.0, 1.0]]), np.asarray([0, 1, 0, 1, 1, 0])))
@example((np.asarray([[0.0, -0.0, -0.0, 0.0]]), np.asarray([0, 1, 1, 0])))  # constant: None
@example((np.asarray([[-1.0, 1.0, 1.0, -0.0, -1.0]]), np.asarray([0, 1, 1, 0, 0])))  # threshold (-0.0 + 1) / 2
@example((np.asarray([[-1.0, 1.0, 1.0, -1.0]]), np.asarray([0, 1, 1, 0])))  # threshold (-1 + 1) / 2 = +0.0
def test_scan_features_does_not_depend_on_the_order_within_ties(case):
    # the scan's own sort orders equal values as it likes; a stable sort, and
    # one that puts later rows first, must give the same split bit for bit
    block, labels = case
    got = _signed(cart._scan_features(block, labels))
    for argsort in (_stable_argsort, _later_first_argsort):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cart, "np", _NumpyWithArgsort(argsort))
            assert _signed(cart._scan_features(block, labels)) == got, argsort.__name__


# ---------------------------------------------------------------------------
# prediction


def test_predict_confidence_from_impure_leaf():
    instances = [make_labelled([0.0], MA)] * 3 + [make_labelled([0.0], CL)]
    instances += [make_labelled([10.0], CL)] * 4
    tree = fit_tree(LabelledPool.from_rows(instances))
    (label, confidence), (label_10, confidence_10) = predict_confidence(tree, [(0.0,), (10.0,)])
    assert label is MA
    assert confidence == pytest.approx(0.75)
    assert label_10 is CL
    assert confidence_10 == pytest.approx(1.0)


def test_route_checks_feature_arity():
    tree = fit_tree(points([0, 1], [CL, MA]))
    for predict in (predict_label, predict_confidence):
        with pytest.raises(SevpredictError, match="^feature vector has 2 values, expected 1$"):
            predict(tree, [(0.0,), (0.0, 1.0)])


@st.composite
def grid_trees(draw):
    """A tree fitted on a small integer grid, and rows on the grid and halfway between: many sit on a threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p, levels = draw(st.integers(1, 60)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    labels = _labels(draw, rng, n)
    pool = LabelledPool.from_rows(make_labelled(row, SEVERITY_ORDER[k])
                                  for row, k in zip(rng.integers(0, levels, size=(n, p)), labels))
    config = TreeConfig(min_samples_split=draw(st.integers(2, 5)), max_depth=draw(st.sampled_from([None, 1, 3])))
    rows = rng.integers(-2, 2 * levels + 1, size=(draw(st.integers(0, 40)), p)) / 2
    return fit_tree(pool, config), rows


@settings(max_examples=200, deadline=None)
@given(grid_trees())
def test_route_rows_matches_predict_confidence_row_by_row(case):
    tree, rows = case
    label, confidence = cart.route_rows(tree, rows)
    assert label.shape == confidence.shape == (len(rows),)
    want = [leaf_confidence(tree, tuple(row)) for row in rows]
    assert [(SEVERITY_ORDER[k], conf) for k, conf in zip(label.tolist(), confidence.tolist())] == want
    assert predict_confidence(tree, [tuple(row) for row in rows]) == tuple(want)
    assert predict_label(tree, rows.tolist()) == tuple(k for k, _ in want)


def test_route_rows_on_no_rows_and_on_the_wrong_width():
    tree = fit_tree(points([0, 1, 2], [CL, MA, MA]))
    label, confidence = cart.route_rows(tree, np.empty((0, 1)))
    assert label.shape == confidence.shape == (0,)
    assert predict_label(tree, []) == predict_confidence(tree, []) == ()
    with pytest.raises(SevpredictError) as labelling:
        predict_label(tree, [(0.0, 1.0)] * 3)
    with pytest.raises(SevpredictError) as scoring:
        predict_confidence(tree, [(0.0, 1.0)] * 3)
    with pytest.raises(SevpredictError) as converting:
        cart.feature_matrix([(0.0, 1.0)] * 3, len(tree.schema))
    assert str(labelling.value) == str(scoring.value) == str(converting.value)


@pytest.mark.parametrize("flat", [(0.0, 1.0), np.array([0.0, 1.0])], ids=["tuple", "ndarray"])
def test_a_flat_row_fails_naming_the_expected_shape(flat):
    # one row passed where a sequence of rows belongs
    tree = fit_tree(LabelledPool.from_rows([make_labelled([0.0, 1.0], CL), make_labelled([1.0, 0.0], MA)]))
    for predict in (predict_label, predict_confidence):
        with pytest.raises(SevpredictError, match="^expected a sequence of rows, each of 2 values$"):
            predict(tree, flat)


@pytest.mark.parametrize("widths", [(1, 2), (2, 1), (2, 2, 3), (3, 1, 3), (2, 2, 1)],
                         ids=lambda widths: "-".join(map(str, widths)))
def test_ragged_rows_fail_where_their_pool_is_built(widths):
    # fit_tree and adasyn_balance take the pool that LabelledPool.from_rows makes, so a ragged row fails there
    rows = [make_labelled([0.5] * w, [CL, MA][i % 2]) for i, w in enumerate(widths)]
    found = next(w for w in widths if w != widths[0])
    with pytest.raises(SevpredictError, match=f"^feature vector has {found} values, expected {widths[0]}$"):
        LabelledPool.from_rows(rows)


def test_fit_rejects_bad_input():
    with pytest.raises(SevpredictError):
        fit_tree(LabelledPool.from_rows([]))
    with pytest.raises(SevpredictError):
        fit_tree(LabelledPool.from_rows([make_labelled([float("nan")], CL), make_labelled([0.0], MA)]))
    with pytest.raises(SevpredictError):
        fit_tree(points([0, 1], [CL, MA]), schema=("a", "b"))


def test_tree_config_validation():
    with pytest.raises(SevpredictError):
        TreeConfig(min_samples_split=1)
    with pytest.raises(SevpredictError):
        TreeConfig(max_depth=-1)


def test_fit_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.random(size=(30, 2))
    labs = [list(SEVERITY_ORDER)[int(c)] for c in rng.integers(0, 5, size=30)]
    instances = LabelledPool.from_rows(make_labelled(list(row), lab) for row, lab in zip(X, labs))
    assert fit_tree(instances) == fit_tree(instances)


def test_dump_tree_readable():
    tree = fit_tree(points([0, 1, 2, 3], [CL, CL, MA, MA]), schema=("loc_ratio",))
    text = dump_tree(tree)
    assert "loc_ratio <= 1.5" in text
    assert "else" in text
    assert "-> major" in text and "-> clean" in text


def test_dump_tree_single_leaf():
    tree = fit_tree(points([0, 1], [NT, NT]))
    assert dump_tree(tree).startswith("leaf")


def test_dump_tree_renders_both_subtrees_in_order():
    labels = [CL, MA, MA, MA, CL, CL, HS, HS, HS, CL, CL, CL]
    tree = fit_tree(points(range(len(labels)), labels), schema=("wmc",))
    assert dump_tree(tree) == "\n".join([
        "wmc <= 3.5",
        "  wmc <= 0.5",
        "    leaf [clean=1] -> clean",
        "  else",
        "    leaf [major=3] -> major",
        "else",
        "  wmc <= 8.5",
        "    wmc <= 5.5",
        "      leaf [clean=2] -> clean",
        "    else",
        "      leaf [high_severity=3] -> high_severity",
        "  else",
        "    leaf [clean=3] -> clean",
    ])


def test_fit_tree_grows_deeper_than_the_recursion_limit():
    # strictly alternating labels on a line: each split peels off one row.
    # The depth is measured by walking the nodes from a stack.
    labels = [MA if i % 2 else CL for i in range(1500)]
    tree = fit_tree(points(range(1500), labels))
    depth, stack = 0, [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        if isinstance(node, Split):
            stack += [(node.left, level + 1), (node.right, level + 1)]
    assert depth == 1499 > sys.getrecursionlimit()
    assert [leaf.majority for leaf in iter_leaves(tree)] == labels
    assert dump_tree(tree).count("leaf") == 1500


def test_deep_trees_compare_hash_and_print():
    labels = [MA if i % 2 else CL for i in range(1500)]
    values = list(range(1500))
    tree, again = fit_tree(points(values, labels)), fit_tree(points(values, labels))
    assert tree == again and hash(tree) == hash(again)
    assert repr(tree) == "DecisionTree(schema=('f0',), nodes=2999)"
    # moving the last value moves one threshold, deep in the tree, and nothing else
    moved = fit_tree(points(values[:-1] + [1499.5], labels))
    assert moved.root.threshold == tree.root.threshold
    assert moved != tree
    assert [leaf.counts for leaf in iter_leaves(moved)] == [leaf.counts for leaf in iter_leaves(tree)]
    assert tree != replace(tree, schema=("g0",)) and tree != tree.root
