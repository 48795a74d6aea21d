"""The whole run against a frozen, row-based reference of its flow.

_reference_run is run_experiment as it ran row by row: a per-class split,
ADASYN with one neighbour search per list, a tree grown node by node with a
per-threshold scan, self-training that routes every row, and economics
counted outcome by outcome. Where the program calls a fast kernel, it calls
the oracle that kernel's own tests keep. Both paths must write the same
report bytes, or fail with the same message.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevpredict import (
    SEVERITY_ORDER,
    Corpus,
    ExperimentReport,
    LabelledInstance,
    Outcome,
    PipelineConfig,
    SevpredictError,
    TreeConfig,
    compare,
    full_report,
    report_to_json,
    run_experiment,
)
from sevpredict.cart import DecisionTree, Leaf, Split
from sevpredict.corpus import PROVENANCE_PSEUDO, class_summary
from sevpredict.selftrain import (
    STATUS_EXHAUSTED_U,
    STATUS_MAX_ITERATIONS,
    STATUS_NO_PROGRESS,
    IterationRecord,
    SelfTrainTrace,
)
from sevpredict.severity import CLASS_INDEX, CLASS_NAMES

from conftest import make_labelled, make_unlabelled
from test_adasyn import _reference_balance
from test_cart import _reference_block_scan
from test_corpus import _reference_split
from test_metrics import _reference_clean_split
from test_selftrain import _reference_risk


def _reference_fit(pool, config: TreeConfig, schema) -> DecisionTree:
    """The tree grown by recursion, each node scanning all its features as one block."""
    X = np.asarray([inst.features for inst in pool], dtype=float)
    y = np.asarray([CLASS_INDEX[inst.label] for inst in pool])

    def grow(rows: np.ndarray, depth: int):
        labels = y[rows]
        counts = [int(np.sum(labels == c)) for c in range(len(SEVERITY_ORDER))]
        leaf = Leaf(tuple(counts), len(rows), SEVERITY_ORDER[counts.index(max(counts))])
        if (
            sum(c > 0 for c in counts) == 1
            or len(rows) < config.min_samples_split
            or (config.max_depth is not None and depth >= config.max_depth)
        ):
            return leaf
        best = _reference_block_scan(X[rows].T, labels)
        # split only where the children's num / den beats the node's own sum c^2 / n
        if best is None or best[0] * len(rows) <= sum(c * c for c in counts) * best[1]:
            return leaf
        _, _, feature, threshold = best
        left = X[rows, feature] <= threshold
        return Split(feature, threshold, grow(rows[left], depth + 1), grow(rows[~left], depth + 1))

    return DecisionTree(grow(np.arange(len(pool)), 0), tuple(schema))


def _leaf(tree: DecisionTree, features) -> Leaf:
    node = tree.root
    while isinstance(node, Split):
        node = node.left if features[node.feature_index] <= node.threshold else node.right
    return node


def _reference_self_train(pool, unlabelled, cfg: PipelineConfig, schema):
    """(final tree, final pool, residual unlabelled, trace); each accepted batch refits the whole pool."""
    pool = list(pool)
    tree = _reference_fit(pool, cfg.tree, schema)
    remaining = list(enumerate(unlabelled))
    records, status, iteration = [], STATUS_EXHAUSTED_U, 0
    while remaining:
        iteration += 1
        if iteration > cfg.selftrain.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        risk = _reference_risk(tree, pool)
        accepted, kept = [], []
        for i, inst in remaining:
            leaf = _leaf(tree, inst.features)
            if max(leaf.counts) / leaf.nl >= cfg.selftrain.gamma:
                accepted.append((i, LabelledInstance(inst.features, inst.loc, leaf.majority, PROVENANCE_PSEUDO,
                                                     inst.module_id)))
            else:
                kept.append((i, inst))
        per_class = {name: sum(p.label.value == name for _, p in accepted) for name in CLASS_NAMES}
        records.append(IterationRecord(iteration, len(remaining), len(accepted), per_class,
                                       tuple(i for i, _ in accepted), risk))
        if not accepted:
            status = STATUS_NO_PROGRESS
            break
        pool += [p for _, p in accepted]
        remaining = kept
        tree = _reference_fit(pool, cfg.tree, schema)
    return tree, pool, [inst for _, inst in remaining], SelfTrainTrace(tuple(records), status)


def _reference_scores(tree: DecisionTree, test, econ):
    """(outcomes, MetricReport) with the economics counted outcome by outcome."""
    outcomes = [
        Outcome(inst.label, _leaf(tree, inst.features).majority, inst.loc, inst.module_id) for inst in test
    ]
    tn, saved, flagged = _reference_clean_split(outcomes)
    n, total = len(outcomes), sum(o.loc for o in outcomes)
    report = replace(
        full_report(outcomes, econ),
        ptn=tn / n, saved_budget=saved, psb=saved / total, lsb=flagged / total, pntn=(n - tn) / n,
        remaining_edits=total - saved, pre=(total - saved) / total,
        rst_hours=(total - saved) / econ.delta, gst_hours=flagged / econ.delta,
    )
    return outcomes, report


def _reference_run(corpus: Corpus, cfg: PipelineConfig, project: str) -> ExperimentReport:
    summary = class_summary(corpus)
    if sum(n > 0 for n in summary["class_counts"].values()) < 2:
        raise SevpredictError("experiment needs at least 2 labelled classes")
    train, test = _reference_split(corpus, cfg.test_fraction, cfg.seed)
    if not test:
        raise SevpredictError("test split is empty; raise test_fraction or enlarge the corpus")
    raw = list(train.labelled)
    bst_pool = _reference_balance(raw, cfg.sampler, cfg.seed) if cfg.bst_oversample else raw
    ast_start = _reference_balance(raw, cfg.sampler, cfg.seed) if cfg.oversample_first else raw
    bst_outcomes, bst = _reference_scores(_reference_fit(bst_pool, cfg.tree, corpus.schema), test, cfg.econ)
    tree, pool, residual, trace = _reference_self_train(ast_start, corpus.unlabelled, cfg, corpus.schema)
    ast_outcomes, ast = _reference_scores(tree, test, cfg.econ)
    return ExperimentReport(
        project=project,
        corpus_summary=summary,
        training={
            "bst_train_size": len(bst_pool),
            "ast_train_size": len(pool),
            "accepted_pseudo": sum(r.accepted for r in trace.iterations),
            "residual_unlabelled": len(residual),
            "test_modules": len(test),
            "test_total_loc": sum(i.loc for i in test),
        },
        bst=bst,
        ast=ast,
        deltas=compare(bst, ast),
        trace=trace,
        test_outcomes=[
            {"module_id": b.module_id, "loc": b.loc, "actual": b.actual.value, "bst": b.predicted.value,
             "ast": a.predicted.value}
            for b, a in zip(bst_outcomes, ast_outcomes)
        ],
        config=cfg.settings(),
    )


def _case(sizes, p, levels, n_unlabelled, data_seed, **settings) -> tuple[Corpus, PipelineConfig]:
    """A corpus and its config from flat settings.

    Classes have the given sizes, most severe first, in shuffled rows; every
    feature is an integer from 0 to levels, so thresholds and neighbours tie.
    """
    rng = np.random.default_rng(data_seed)
    n = sum(sizes)
    X = rng.integers(0, levels + 1, size=(n, p))
    labels = np.repeat(np.arange(len(sizes)), sizes)[rng.permutation(n)]
    locs = rng.integers(1, 400, size=n + n_unlabelled).tolist()
    labelled = [make_labelled(X[j], SEVERITY_ORDER[labels[j]], loc=locs[j], module_id=f"m{j}") for j in range(n)]
    U = rng.integers(0, levels + 1, size=(n_unlabelled, p))
    unlabelled = [make_unlabelled(U[j], loc=locs[n + j], module_id=f"u{j}") for j in range(n_unlabelled)]
    corpus = Corpus(tuple(f"f{j}" for j in range(p)), tuple(labelled), tuple(unlabelled))
    return corpus, PipelineConfig.from_settings(settings)


@st.composite
def runs(draw):
    n_classes = draw(st.sampled_from([2, 3, 4, 5, 1]))  # shrinks toward two classes
    sizes = [draw(st.integers(1, 12)) for _ in range(n_classes)]
    sizes += [0] * (5 - n_classes)
    sizes = [sizes[i] for i in draw(st.permutations(range(5)))]  # which classes are present
    return _case(
        sizes, draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 12)),
        draw(st.integers(0, 2**32 - 1)),
        seed=draw(st.integers(0, 2**16)),
        test_fraction=draw(st.sampled_from([0.2, 0.34, 0.5])),
        k_neighbors=draw(st.integers(1, 6)),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
        d_threshold=draw(st.sampled_from([0.3, 1.0])),
        max_depth=draw(st.sampled_from([None, 1, 3])),
        min_samples_split=draw(st.integers(2, 4)),
        gamma=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        max_iterations=draw(st.integers(1, 4)),
        bst_oversample=draw(st.booleans()),
        oversample_first=draw(st.booleans()),
    )


def _outcome(run, corpus, cfg):
    try:
        return report_to_json(run(corpus, cfg, "differential"))
    except SevpredictError as err:
        return str(err)


@settings(max_examples=120, deadline=None)
@given(runs())
# the training pool keeps 10 clean and 3 major modules: 3 / 10 is not below d_threshold 0.3,
# though 3 < 10 * 0.3 is, so the major class gets no synthetic rows
@example(_case([0, 0, 3, 0, 12], 2, 3, 6, 5, seed=1, test_fraction=0.2, beta=1.0, d_threshold=0.3))
def test_run_matches_the_row_based_reference(case):
    corpus, cfg = case
    assert _outcome(run_experiment, corpus, cfg) == _outcome(_reference_run, corpus, cfg)
