"""Acceptance gate: one test per shipped guarantee, each printing a
criterion line (run with -s to see them) and enforcing a runtime budget."""

from __future__ import annotations

import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sevpredict import (
    EconConfig,
    Leaf,
    Outcome,
    SamplerConfig,
    SelfTrainConfig,
    SEVERITY_ORDER,
    Split,
    adasyn_balance,
    fit_tree,
    full_report,
    predict_confidence,
    predict_label,
    risk_factor,
    route_to_leaf,
    self_train,
    system_risk_factor,
)
from sevpredict.cart import iter_leaves
from sevpredict.cli import main
from sevpredict.metrics import build_confusion
from sevpredict.selftrain import STATUS_EXHAUSTED_U, STATUS_NO_PROGRESS

from conftest import CL, CR, HS, MA, NT, make_labelled, make_unlabelled

README = Path(__file__).resolve().parent.parent / "README.md"
TESTS_DIR = Path(__file__).resolve().parent


def announce(n, text):
    print(f"criterion {n} [PASS]: {text}")


def random_outcomes(rng, n=None):
    classes = list(SEVERITY_ORDER)
    n = n or int(rng.integers(2, 50))
    return [
        Outcome(classes[int(rng.integers(0, 5))], classes[int(rng.integers(0, 5))],
                int(rng.integers(1, 4000)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------


def test_criterion_1_budget_and_service_arithmetic():
    start = time.perf_counter()
    # 143788 LoC total: 73590 in true negatives, 23103 in clean modules
    # falsely flagged, the remaining 47095 in defective modules
    outcomes = [
        Outcome(CL, CL, 73590),
        Outcome(CL, MA, 23103),
        Outcome(MA, MA, 143788 - 73590 - 23103),
    ]
    report = full_report(outcomes, EconConfig(delta=100.0))
    assert report.psb == pytest.approx(0.5118, abs=5e-5)
    assert report.lsb == pytest.approx(0.1607, abs=5e-5)
    assert report.pre == pytest.approx(0.4882, abs=5e-5)
    assert report.rst_hours == pytest.approx(701.98, abs=0.01)
    assert report.gst_hours == pytest.approx(231.03, abs=0.01)
    assert time.perf_counter() - start < 1.0
    announce(1, "PSB/LSB/PRE 0.5118/0.1607/0.4882, RST 701.98h, GST 231.03h on the 143788-LoC reference set")


def test_criterion_2_system_risk_factor_composition_and_bounds():
    start = time.perf_counter()
    composed = system_risk_factor({HS: 0.3, CR: 0.19, MA: 0.1526, NT: 0.0636})
    assert composed == pytest.approx(0.7062, abs=1e-9)

    bounds = {HS: 0.4, CR: 0.3, MA: 0.2, NT: 0.1}
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rf = risk_factor(build_confusion(random_outcomes(rng)))
        for cls, bound in bounds.items():
            assert 0.0 <= rf[cls] <= bound + 1e-12
    assert time.perf_counter() - start < 1.0
    announce(2, "system RF composes to 0.7062 and per-class bounds 0.4/0.3/0.2/0.1 hold over 1000 random matrices")


def test_criterion_3_economics_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    config = EconConfig(delta=100.0)
    for _ in range(1000):
        outcomes = random_outcomes(rng)
        r = full_report(outcomes, config)
        total = sum(o.loc for o in outcomes)
        clean_loc = sum(o.loc for o in outcomes if o.actual is CL)
        assert r.psb + r.pre == pytest.approx(1.0, abs=1e-12)
        assert r.psb + r.lsb == pytest.approx(clean_loc / total, abs=1e-12)
        assert r.rst_hours - r.gst_hours == pytest.approx(
            (total - clean_loc) / config.delta, abs=1e-9)
        assert r.saved_budget + r.remaining_edits == total  # exact in ints
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(3, "psb+pre=1, psb+lsb=clean share, rst-gst=defective/delta over 1000 random outcome sets")


def _gini_sum_sq(labels):
    return sum(Fraction(c) ** 2 for c in Counter(labels).values())


def _brute_force_best(instances):
    """Exact-rational scan over every feature and midpoint; first strictly
    better candidate wins, matching the shipped tie rule."""
    n = len(instances)
    best = None  # (feature, threshold, Q)
    for j in range(len(instances[0].features)):
        pairs = sorted(((inst.features[j], inst.label) for inst in instances),
                       key=lambda p: p[0])
        values = [p[0] for p in pairs]
        for i in range(n - 1):
            if values[i] == values[i + 1]:
                continue
            thr = (values[i] + values[i + 1]) / 2.0
            left = [lab for v, lab in pairs if v <= thr]
            right = [lab for v, lab in pairs if v > thr]
            q = _gini_sum_sq(left) / len(left) + _gini_sum_sq(right) / len(right)
            if best is None or q > best[2]:
                best = (j, thr, q)
    if best is None:
        return None
    labels = [inst.label for inst in instances]
    if best[2] <= _gini_sum_sq(labels) / n:  # no strictly positive decrease
        return None
    return best[0], best[1]


def test_criterion_4_tree_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    classes = [CL, MA, HS]
    for trial in range(200):
        n = int(rng.integers(2, 65))
        p = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        X = rng.integers(0, 6, size=(n, p)).astype(float)
        labs = [classes[int(c)] for c in rng.integers(0, k, size=n)]
        instances = [make_labelled(list(row), lab) for row, lab in zip(X, labs)]

        tree = fit_tree(instances)
        want = None if len(set(labs)) == 1 else _brute_force_best(instances)
        if want is None:
            assert isinstance(tree.root, Leaf), f"trial {trial}"
        else:
            assert isinstance(tree.root, Split), f"trial {trial}"
            assert (tree.root.feature_index, tree.root.threshold) == want, f"trial {trial}"

        # leaf counts must recount exactly under routing
        routed = Counter()
        for inst in instances:
            routed[id(route_to_leaf(tree, inst.features))] += 1
        for leaf in iter_leaves(tree):
            assert sum(leaf.counts) == leaf.nl == routed[id(leaf)]

    # continuous features: collision-free, so the grown tree must be exact
    for trial in range(20):
        n = int(rng.integers(4, 50))
        X = rng.random(size=(n, 3))
        labs = [list(SEVERITY_ORDER)[int(c)] for c in rng.integers(0, 5, size=n)]
        instances = [make_labelled(list(row), lab) for row, lab in zip(X, labs)]
        tree = fit_tree(instances)
        assert all(predict_label(tree, i.features) is i.label for i in instances)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(4, "root splits equal the exact-rational brute force on 200 sets; full trees are exact on collision-free data")


def test_criterion_5_oversampler_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for trial in range(30):
        instances = []
        centres = [(0.0, 0.0), (4.0, 1.0), (-3.0, 5.0), (8.0, -2.0)]
        present = [CL, MA, CR, NT][: int(rng.integers(2, 5))]
        for cls, centre in zip(present, centres):
            size = int(rng.integers(2, 25))
            for _ in range(size):
                feats = [float(c + 0.8 * rng.standard_normal()) for c in centre]
                instances.append(make_labelled(feats, cls))
        config = SamplerConfig(k_neighbors=5, beta=1.0, d_threshold=1.0, seed=trial)

        balanced = adasyn_balance(instances, config)
        assert balanced[: len(instances)] == instances  # originals verbatim

        seed_counts = Counter(i.label for i in instances)
        final_counts = Counter(i.label for i in balanced)
        majority = max(seed_counts.values())
        for cls, m in seed_counts.items():
            assert abs(final_counts[cls] - majority) <= m, f"trial {trial} {cls}"

        boxes = {}
        for cls in seed_counts:
            member_feats = np.array([i.features for i in instances if i.label is cls])
            boxes[cls] = (member_feats.min(axis=0), member_feats.max(axis=0))
        for inst in balanced[len(instances):]:
            assert inst.provenance == "synthetic"
            lo, hi = boxes[inst.label]
            feats = np.array(inst.features)
            assert np.all(feats >= lo - 1e-12) and np.all(feats <= hi + 1e-12)

        assert adasyn_balance(instances, config) == balanced  # replays byte-equal
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(5, "balanced counts land within seed-count of majority, synthetics stay in class boxes, replays are identical")


def test_criterion_6_self_training_behaviour():
    start = time.perf_counter()

    separable = [
        make_labelled([0.0, 0.0], CL), make_labelled([0.2, 0.1], CL),
        make_labelled([5.0, 5.0], MA), make_labelled([5.2, 5.1], MA),
    ]
    pool = [make_unlabelled([0.1, 0.05]), make_unlabelled([5.1, 5.05])]
    greedy = self_train(fit_tree(separable), separable, pool, SelfTrainConfig(gamma=0.0))
    assert greedy.trace.status == STATUS_EXHAUSTED_U
    assert len(greedy.trace.iterations) == 1
    assert greedy.trace.iterations[0].accepted == len(pool)

    conflicted = [
        make_labelled([0.0], CL), make_labelled([0.0], MA),
        make_labelled([9.0], HS), make_labelled([9.5], HS),
    ]
    stuck = self_train(fit_tree(conflicted), conflicted,
                       [make_unlabelled([0.0]), make_unlabelled([0.01])], SelfTrainConfig(gamma=1.0))
    assert stuck.trace.status == STATUS_NO_PROGRESS
    assert len(stuck.residual_unlabelled) == 2

    # a mixed run: pool sizes never grow, and every accepted pseudo-label is
    # exactly what that round's tree predicted with clearing confidence
    rng = np.random.default_rng(606)
    labelled = []
    for cls, centre in ((CL, 0.0), (MA, 4.0), (HS, 8.0)):
        for _ in range(6):
            labelled.append(make_labelled([float(centre + rng.normal(0, 0.5))], cls))
    unlabelled = [make_unlabelled([float(rng.uniform(-1, 9))]) for _ in range(25)]
    config = SelfTrainConfig(gamma=0.7)
    result = self_train(fit_tree(labelled), labelled, unlabelled, config)

    sizes = [rec.unlabelled_before for rec in result.trace.iterations]
    assert sizes == sorted(sizes, reverse=True)

    replay_pool = list(labelled)
    for rec in result.trace.iterations:
        tree = fit_tree(replay_pool)
        for idx in rec.accepted_indices:
            inst = unlabelled[idx]
            label, conf = predict_confidence(tree, inst.features)
            assert conf >= config.gamma
            replay_pool.append(make_labelled(list(inst.features), label,
                                             loc=inst.loc, provenance="pseudo"))
    accepted = [i for i in result.labelled if i.provenance == "pseudo"]
    replayed = [i for i in replay_pool if i.provenance == "pseudo"]
    assert [(a.features, a.label) for a in accepted] == \
           [(r.features, r.label) for r in replayed]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(6, "gamma=0 exhausts U in one pass, gamma=1 stalls on conflicts, |U| is monotone, pseudo-labels replay exactly")


def test_criterion_7_end_to_end_determinism(tmp_path, capsys):
    start = time.perf_counter()
    corpus_csv = tmp_path / "demo.csv"
    code = main(["synth", "--out", str(corpus_csv), "--seed", "99",
                 "--clean", "35", "--major", "12", "--critical", "7",
                 "--non-trivial", "9", "--unlabelled", "10"])
    assert code == 0
    first, second = tmp_path / "first", tmp_path / "second"
    for out_dir in (first, second):
        code = main(["run", str(corpus_csv), "--seed", "17", "--out", str(out_dir)])
        assert code == 0
    capsys.readouterr()
    a = (first / "report_demo.json").read_bytes()
    b = (second / "report_demo.json").read_bytes()
    assert a == b and len(a) > 0
    json.loads(a)  # well-formed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(7, "synth + two identical runs produce byte-identical report JSON")


def test_criterion_8_headline_scores_are_not_pinned():
    start = time.perf_counter()
    readme = README.read_text()
    assert "not reproduction targets" in readme

    # the suite pins arithmetic, never a score a trained model happened to
    # reach: no test may assert on a trained-accuracy constant
    trained_score = "0." + "8187"  # built at runtime so this file passes its own scan
    for path in sorted(TESTS_DIR.glob("test_*.py")):
        source = path.read_text()
        assert trained_score not in source, path.name
    assert time.perf_counter() - start < 1.0
    announce(8, "README states headline scores are not reproduction targets; no test pins a trained score")
