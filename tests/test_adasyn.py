from __future__ import annotations

import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpredict import (
    SEVERITY_ORDER,
    LabelledInstance,
    LabelledPool,
    SamplerConfig,
    SevpredictError,
    adasyn_balance,
    synth_corpus,
)
from sevpredict import adasyn
from sevpredict.adasyn import _distances, _minmax_params, _neighbours
from sevpredict.cart import SCAN_CELLS

from conftest import CL, CR, HS, MA, NT, make_labelled


def balance(rows, config, seed):
    """adasyn_balance on the rows as a pool."""
    return adasyn_balance(LabelledPool.from_rows(rows), config, seed)


def cluster(center, n, cls, rng, spread=0.5, tag=""):
    out = []
    for i in range(n):
        feats = [float(c + spread * rng.standard_normal()) for c in center]
        out.append(make_labelled(feats, cls, module_id=f"{tag}{i}" if tag else None))
    return out


# ---------------------------------------------------------------------------
# reference: the two-search implementation adasyn_balance replaced


def _neighbors_of(scaled: np.ndarray, i: int, candidates: Sequence[int], k: int) -> list[int]:
    """k nearest candidate rows to row i, self excluded, stable on ties."""
    cand = np.asarray([j for j in candidates if j != i])
    dists = np.sqrt(((scaled[cand] - scaled[i]) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")
    return [int(cand[j]) for j in order[:k]]


def _reference_balance(
    labelled: Sequence[LabelledInstance], config: SamplerConfig, seed: int
) -> list[LabelledInstance]:
    """adasyn_balance as it was with one neighbour search per list, kept as its reference."""
    instances = list(labelled)
    if not instances:
        raise SevpredictError("cannot balance an empty labelled set")
    X = np.asarray([inst.features for inst in instances], dtype=float)
    if not np.all(np.isfinite(X)):
        raise SevpredictError("features must be finite")
    labels = [inst.label for inst in instances]
    sizes = {cls: labels.count(cls) for cls in SEVERITY_ORDER}
    if sum(1 for n in sizes.values() if n > 0) < 2:
        raise SevpredictError("balancing requires at least 2 classes present")

    n_majority = max(sizes.values())
    mins, scales = _minmax_params(X)
    scaled = (X - mins) * scales
    everyone = list(range(len(instances)))
    rng = np.random.default_rng(seed)

    synthetics: list[LabelledInstance] = []
    for cls in SEVERITY_ORDER:
        m = sizes[cls]
        if m == 0 or m == n_majority:
            continue
        if m / n_majority >= config.d_threshold:
            continue
        target = (n_majority - m) * config.beta
        if target <= 0:
            continue
        seeds = [i for i, lbl in enumerate(labels) if lbl is cls]

        # learning difficulty: out-of-class share of each seed's neighborhood
        difficulty = []
        for i in seeds:
            neigh = _neighbors_of(scaled, i, everyone, config.k_neighbors)
            difficulty.append(sum(labels[j] is not cls for j in neigh) / len(neigh))
        total = sum(difficulty)
        if total > 0:
            shares = [d / total for d in difficulty]
        else:
            shares = [1.0 / m] * m  # interior class: spread evenly

        for i, share in zip(seeds, shares):
            g = int(round(share * target))
            if g == 0:
                continue
            seed_inst = instances[i]
            if m == 1:
                # no same-class neighbor to interpolate toward; replicate
                synthetics.extend(
                    replace(seed_inst, module_id=None)
                    for _ in range(g)
                )
                continue
            partners = _neighbors_of(scaled, i, seeds, config.k_neighbors)
            for _ in range(g):
                z = partners[int(rng.integers(len(partners)))]
                lam = float(rng.random())
                feats = tuple(float(a + lam * (b - a)) for a, b in zip(X[i], X[z]))
                synthetics.append(
                    LabelledInstance(feats, seed_inst.loc, cls, None)
                )
    return instances + synthetics


def _outcome(balance, instances, config, seed):
    """The balanced pool, or the message of the SevpredictError raised instead."""
    try:
        return list(balance(instances, config, seed))
    except SevpredictError as err:
        return str(err)


@st.composite
def balance_inputs(draw):
    """A labelled pool, a sampler config and a seed; small integer grids tie many distances."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = draw(st.permutations(SEVERITY_ORDER))[: draw(st.integers(1, 5))]
    # a singleton class is replicated, not interpolated
    sizes = [draw(st.one_of(st.just(1), st.integers(1, 40))) for _ in classes]
    n, p = sum(sizes), draw(st.integers(1, 24))
    if draw(st.booleans()):
        X = rng.integers(0, draw(st.integers(1, 4)), size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p)) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    labels = np.repeat(np.arange(len(classes)), sizes)[rng.permutation(n)]
    instances = [
        make_labelled(X[j], classes[labels[j]], loc=int(rng.integers(1, 500)), module_id=f"m{j}")
        for j in range(n)
    ]
    config = SamplerConfig(
        k_neighbors=draw(st.one_of(st.integers(1, 8), st.integers(max(n - 1, 1), n + 3))),  # past the pool
        beta=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
        d_threshold=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
    )
    return instances, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(balance_inputs())
def test_balance_matches_the_two_search_reference(case):
    assert _outcome(balance, *case) == _outcome(_reference_balance, *case)


def test_balance_matches_the_reference_on_a_synth_corpus():
    counts = dict(zip(SEVERITY_ORDER, (100, 200, 400, 400, 1000)))
    instances = list(synth_corpus(counts, 20, 1.0, seed=1).labelled)
    balanced = balance(instances, SamplerConfig(), 7)
    assert len(balanced) > len(instances)
    assert list(balanced) == _reference_balance(instances, SamplerConfig(), 7)


def test_balance_matches_the_reference_on_an_imbalanced_pool():
    # the adasyn_imbalanced benchmark's shape at a tenth of its size
    counts = dict(zip(SEVERITY_ORDER, (40, 80, 120, 160, 400)))
    instances = list(synth_corpus(counts, 4, 1.0, seed=2).labelled)
    assert list(balance(instances, SamplerConfig(), 7)) == _reference_balance(instances, SamplerConfig(), 7)


def test_balance_matches_the_reference_past_128_features():
    # rows this long keep numpy's own reduction
    counts = dict(zip(SEVERITY_ORDER, (4, 8, 12, 16, 40)))
    instances = list(synth_corpus(counts, 130, 1.0, seed=3).labelled)
    assert list(balance(instances, SamplerConfig(), 7)) == _reference_balance(instances, SamplerConfig(), 7)


def test_balance_matches_the_reference_without_features():
    # every distance is 0, so the stable order alone picks the neighbours
    instances = [make_labelled([], CL, module_id=f"c{j}") for j in range(9)]
    instances += [make_labelled([], MA, module_id=f"m{j}") for j in range(3)]
    balanced = balance(instances, SamplerConfig(k_neighbors=2), 5)
    assert len(balanced) == 18
    assert list(balanced) == _reference_balance(instances, SamplerConfig(k_neighbors=2), 5)


def test_balance_matches_the_reference_over_several_seed_blocks():
    # 600 rows take SCAN_CELLS // 600 = 6 seeds a block, so each minority class spans 7 to 20 blocks
    counts = dict(zip(SEVERITY_ORDER, (40, 80, 120, 120, 240)))
    instances = list(synth_corpus(counts, 12, 1.0, seed=4).labelled)
    assert len(instances) == 600
    assert list(balance(instances, SamplerConfig(), 7)) == _reference_balance(instances, SamplerConfig(), 7)


@st.composite
def distance_pools(draw, p):
    """A pool of p columns (spread over many magnitudes, on a small integer grid, or of repeated rows) and some of its rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # from a handful of rows to past SCAN_CELLS
    n = draw(st.one_of(st.integers(1, 64), st.integers(65, 400), st.integers(SCAN_CELLS // 2 + 1, SCAN_CELLS + 200)))
    kind = draw(st.sampled_from(["floats", "grid", "repeats"]))
    if kind == "floats":
        X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-4, 5, size=p)
    elif kind == "grid":
        X = rng.integers(0, draw(st.integers(1, 4)), size=(n, p)).astype(float)
    else:
        base = rng.random((draw(st.integers(1, 5)), p))
        X = base[rng.integers(len(base), size=n)]
    rows = rng.choice(n, size=draw(st.integers(1, min(n, 30))), replace=False)
    return X, rows


@pytest.mark.parametrize("p", [*range(1, 41), 127, 128, 130])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_refined_distances_match_numpys_row_sum_bit_for_bit(p, data):
    # the refine sums gathered rows with numpy's own reduction, so each pair's
    # distance is the plain formula's, whatever order numpy adds a row in
    X, rows = data.draw(distance_pools(p))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cols = [np.sort(rng.choice(len(X), size=min(len(X), 64), replace=False)) for _ in rows]
    seeds = np.repeat(rows, [len(c) for c in cols])
    got = np.split(_distances(X, seeds, np.concatenate(cols)), np.cumsum([len(c) for c in cols])[:-1])
    for i, c, dist in zip(rows, cols, got):
        want = np.sqrt(((X - X[i]) ** 2).sum(axis=1))[c]
        assert np.array_equal(dist.view(np.int64), want.view(np.int64)), f"row {i}"
        one = _distances(X, np.array([i]), c[:1])  # a single pair too
        assert np.array_equal(one.view(np.int64), want[:1].view(np.int64)), f"row {i}"


def lift(X):
    """[X.T; ||row||^2], the screen's right-hand factor, as adasyn_balance builds it."""
    return np.vstack((X.T, (X * X).sum(axis=1)))


@pytest.mark.parametrize("p", [*range(1, 41), 64, 100, 127])
def test_neighbours_stay_within_their_memory_budget(p):
    # numpy reports its buffers to tracemalloc. A small class in a big pool, or
    # one row repeated, makes most or all of a block's entries candidates; the
    # search holds at most 64 slabs of max(n, SCAN_CELLS) values at any width,
    # as the column-order kernel's search did (61.5 at most on these pools)
    rng = np.random.default_rng(p)
    for n in (7, 64, 700, 2049, 4096, 6400):
        for X in (rng.random((n, p)), np.tile(rng.random(p), (n, 1))):
            lifted = lift(X)
            m = min(n - 1, 2 * (8 * max(n, SCAN_CELLS) // n) + 1)  # two full blocks and a short one
            member = np.zeros(n, bool)
            member[rng.choice(n, m, replace=False)] = True
            tracemalloc.start()
            try:
                _neighbours(X, lifted, member, min(5, n - 1), min(5, m - 1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * max(n, SCAN_CELLS) * 8, f"n={n}: peak {peak / (max(n, SCAN_CELLS) * 8):.1f} slabs"


@st.composite
def neighbour_inputs(draw):
    """A pool, often tied or nearly, a class in it, and kn and kp as adasyn_balance sets them for some k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # past 8 * SCAN_CELLS // n seeds, a class takes more than one block
    n = draw(st.one_of(st.integers(2, 40), st.integers(150, 300)))
    p = draw(st.one_of(st.integers(1, 6), st.integers(7, 40), st.integers(120, 130)))
    kind = draw(st.sampled_from(["uniform", "grid", "spread", "repeats", "near-ties"]))
    if kind == "uniform":
        X = rng.random((n, p))
    elif kind == "grid":
        X = rng.integers(0, draw(st.integers(1, 3)), size=(n, p)).astype(float)
    elif kind == "spread":  # raw magnitudes from 1e-8 to 1e8, scaled as adasyn_balance scales them, or not
        X = rng.choice([-1.0, 1.0], size=(n, p)) * 10.0 ** rng.uniform(-8, 8, size=(n, p))
        if draw(st.booleans()):
            mins, scales = _minmax_params(X)
            X = (X - mins) * scales
    elif kind == "repeats":
        base = rng.random((draw(st.integers(1, 5)), p))
        X = base[rng.integers(len(base), size=n)]
    else:  # a 0/1/2 grid moved a few ulps, so tied distances come apart by a few ulps
        X = rng.integers(0, 3, size=(n, p)) * (1.0 + rng.integers(-3, 4, size=(n, p)) * 2.0**-52)
    member = np.zeros(n, bool)
    member[rng.choice(n, draw(st.integers(1, n - 1)), replace=False)] = True
    k = draw(st.integers(1, n + 2))
    return X, member, min(k, n - 1), min(k, np.count_nonzero(member) - 1)


def assert_heads_of_the_stable_order(X, member, kn, kp, outside, partners):
    for s, i in enumerate(np.flatnonzero(member)):
        dist = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        dist[i] = np.inf
        order = np.argsort(dist, kind="stable")
        assert outside[s] == np.count_nonzero(~member[order[:kn]]), f"seed {i}"
        assert partners[s].tolist() == order[member[order]][:kp].tolist(), f"seed {i}"


@settings(max_examples=300, deadline=None)
@given(neighbour_inputs())
def test_neighbours_are_the_heads_of_the_stable_order(case):
    X, member, kn, kp = case
    assert_heads_of_the_stable_order(X, member, kn, kp, *_neighbours(X, lift(X), member, kn, kp))


@settings(max_examples=300, deadline=None)
@given(neighbour_inputs(), st.integers(0, 2**32 - 1))
def test_neighbours_hold_under_any_screen_within_half_the_margin(case, seed):
    # the screen's product summed in reverse order without fused multiply-adds,
    # then each entry moved up or down by just under half the stated margin,
    # 1e-9 (1 + 2 M + |u|) with M the largest ||row||^2: the heads must not move
    X, member, kn, kp = case
    rng = np.random.default_rng(seed)
    half = 0.49e-9 * (1.0 + 2.0 * (X * X).sum(axis=1).max())

    def screen(a, b, out):
        out[...] = 0.0
        for j in reversed(range(a.shape[1])):
            out += a[:, j, None] * b[j]
        out += half * rng.choice([-1.0, 1.0], size=out.shape)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adasyn.np, "matmul", screen)
        heads = _neighbours(X, lift(X), member, kn, kp)
    assert_heads_of_the_stable_order(X, member, kn, kp, *heads)


def test_the_bound_keeps_the_stable_order_of_ties_at_it():
    # k = 2 on a 0/1 grid. CL row 3 has CL rows 1, 5 and 7 and MA row 2 all at
    # distance 1, its bound u: its first two rows are 1 and 2, its partners 1
    # and 5. NT has exactly k members at one point, so its kn-th distance (1)
    # lies past its partner (0) and sets u; HS has one member and no partner.
    grid = [((1, 1, 0), MA), ((0, 1, 0), CL), ((1, 0, 0), MA), ((0, 0, 0), CL), ((1, 1, 0), MA),
            ((1, 0, 0), CL), ((1, 1, 1), NT), ((0, 1, 0), CL), ((1, 1, 0), MA), ((0, 0, 1), HS),
            ((1, 1, 1), NT), ((1, 1, 0), MA), ((1, 1, 0), MA)]
    instances = [make_labelled([float(v) for v in point], cls, module_id=f"g{j}") for j, (point, cls) in enumerate(grid)]
    pool = LabelledPool.from_rows(instances)
    X, y = pool.features, pool.labels
    heads = {cls: _neighbours(X, lift(X), y == y[j], 2, kp)
             for cls, j, kp in ((CL, 3, 2), (NT, 6, 1), (HS, 9, 0))}
    assert heads[CL][0].tolist() == [1, 1, 2, 1] and heads[CL][1].tolist() == [[7, 3], [1, 5], [3, 1], [1, 3]]
    assert heads[NT][0].tolist() == [1, 1] and heads[NT][1].tolist() == [[10], [6]]
    assert heads[HS][0].tolist() == [2] and heads[HS][1].shape == (1, 0)
    config = SamplerConfig(k_neighbors=2)
    balanced = balance(instances, config, 3)
    assert len(balanced) == 13 + 1 + 4 + 5  # CL's shares round its deficit of 2 to 1
    assert list(balanced) == _reference_balance(instances, config, 3)


def test_feature_too_narrow_to_scale_is_left_out_of_the_distance():
    # 1/5e-324 overflows: the feature scales to 0 like a constant one, so the
    # balanced pool matches the one built without it
    rng = np.random.default_rng(16)
    plain = cluster((0.0, 0.0), 12, CL, rng) + cluster((1.0, 1.0), 4, MA, rng)
    tiny = [replace(inst, features=inst.features + (5e-324 * (j % 2),)) for j, inst in enumerate(plain)]
    assert _minmax_params(np.array([inst.features for inst in tiny]))[1].tolist() == [
        *_minmax_params(np.array([inst.features for inst in plain]))[1].tolist(), 0.0]
    config = SamplerConfig(k_neighbors=3)
    with_tiny, without = balance(tiny, config, 17), balance(plain, config, 17)
    assert [inst.features[:2] for inst in with_tiny] == [inst.features for inst in without]
    assert [inst.label for inst in with_tiny] == [inst.label for inst in without]


# ---------------------------------------------------------------------------
# allocation oracle
#
# Recompute the per-seed synthetic allocation with independent code: min-max
# scaling from the whole labelled pool, k nearest by scaled euclidean
# distance with stable ties, difficulty = out-of-class share, normalised
# shares, g_i = round(share * G).


def expected_allocation(instances, config):
    X = np.array([inst.features for inst in instances], dtype=float)
    labels = [inst.label for inst in instances]
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    scale = np.where(span > 0, span, 1.0)
    S = (X - lo) / scale

    sizes = Counter(labels)
    n_major = max(sizes.values())
    allocation = {}
    for cls, m in sizes.items():
        if m == n_major or m / n_major >= config.d_threshold:
            continue
        target = (n_major - m) * config.beta
        if int(round(target)) <= 0 and target <= 0:
            continue
        members = [i for i, lab in enumerate(labels) if lab is cls]
        difficulty = []
        for i in members:
            d = np.sqrt(((S - S[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            order = np.argsort(d, kind="stable")[: min(config.k_neighbors, len(instances) - 1)]
            out_of_class = sum(1 for j in order if labels[j] is not cls)
            difficulty.append(out_of_class / len(order))
        total = sum(difficulty)
        if total > 0:
            shares = [r / total for r in difficulty]
        else:
            shares = [1.0 / m] * m
        produced = sum(int(round(s * target)) for s in shares)
        if produced > 0:
            allocation[cls] = produced
    return allocation


def test_allocation_matches_independent_oracle():
    rng = np.random.default_rng(3)
    instances = cluster((0.0, 0.0), 10, CL, rng) + cluster((0.6, 0.4), 2, MA, rng)
    config = SamplerConfig(k_neighbors=5, beta=1.0, d_threshold=1.0)
    balanced = balance(instances, config, 7)
    produced = Counter(i.label for i in balanced[len(instances):])
    expected = expected_allocation(instances, config)
    assert dict(produced) == expected
    assert 9 <= produced[MA] + 2 <= 11  # lands near majority size


def test_allocation_oracle_over_random_corpora():
    rng = np.random.default_rng(11)
    for trial in range(20):
        instances = []
        for cls, centre in ((CL, (0.0, 0.0)), (MA, (3.0, 1.0)), (CR, (-2.0, 4.0))):
            n = int(rng.integers(2, 15))
            instances.extend(cluster(centre, n, cls, rng, spread=1.0))
        config = SamplerConfig(
            k_neighbors=int(rng.integers(1, 7)),
            beta=float(rng.uniform(0.2, 1.0)),
            d_threshold=1.0,
        )
        balanced = balance(instances, config, trial)
        produced = Counter(i.label for i in balanced[len(instances):])
        assert dict(produced) == expected_allocation(instances, config)


# ---------------------------------------------------------------------------
# behaviour


def test_equal_classes_come_back_unchanged():
    rng = np.random.default_rng(0)
    instances = cluster((0.0,), 6, CL, rng) + cluster((4.0,), 6, MA, rng)
    out = balance(instances, SamplerConfig(), 1)
    assert list(out) == instances


def test_beta_zero_generates_nothing():
    rng = np.random.default_rng(1)
    instances = cluster((0.0,), 9, CL, rng) + cluster((4.0,), 3, MA, rng)
    out = balance(instances, SamplerConfig(beta=0.0), 1)
    assert list(out) == instances


def test_d_threshold_skips_mild_imbalance():
    rng = np.random.default_rng(2)
    # 8/10 = 0.8 >= 0.5 threshold: no resampling
    instances = cluster((0.0,), 10, CL, rng) + cluster((4.0,), 8, MA, rng)
    out = balance(instances, SamplerConfig(d_threshold=0.5), 3)
    assert list(out) == instances


def test_originals_preserved_as_prefix():
    rng = np.random.default_rng(4)
    instances = cluster((0.0, 0.0), 10, CL, rng, tag="c") + cluster((1.0, 1.0), 3, NT, rng, tag="n")
    out = balance(instances, SamplerConfig(), 5)
    assert list(out[: len(instances)]) == instances
    assert len(out) > len(instances)
    assert all(i.module_id is None for i in out[len(instances):])


def test_synthetics_stay_inside_class_bounding_box():
    rng = np.random.default_rng(6)
    instances = cluster((0.0, 0.0), 14, CL, rng) + cluster((5.0, -2.0), 4, CR, rng)
    out = balance(instances, SamplerConfig(k_neighbors=3), 8)
    members = np.array([i.features for i in instances if i.label is CR])
    lo, hi = members.min(axis=0), members.max(axis=0)
    synth = out[len(instances):]
    assert synth
    for inst in synth:
        assert inst.label is CR
        feats = np.array(inst.features)
        assert np.all(feats >= lo - 1e-12) and np.all(feats <= hi + 1e-12)


def test_two_member_minority_interpolates_on_the_segment():
    instances = [
        make_labelled([0.0, 0.0], CL), make_labelled([0.1, 0.0], CL),
        make_labelled([0.0, 0.1], CL), make_labelled([0.1, 0.1], CL),
        make_labelled([0.05, 0.05], CL), make_labelled([0.02, 0.08], CL),
        make_labelled([2.0, 2.0], HS), make_labelled([3.0, 3.0], HS),
    ]
    out = balance(instances, SamplerConfig(k_neighbors=2), 10)
    for inst in out[len(instances):]:
        x, y = inst.features
        assert 2.0 - 1e-12 <= x <= 3.0 + 1e-12
        assert abs(x - y) < 1e-9  # on the segment joining the two seeds


def test_singleton_minority_is_replicated():
    seed_inst = make_labelled([9.0, 9.0], HS, loc=777, module_id="lonely")
    instances = [make_labelled([float(i), 0.0], CL, module_id=f"c{i}") for i in range(8)]
    instances.append(seed_inst)
    out = balance(instances, SamplerConfig(k_neighbors=3), 0)
    copies = out[len(instances):]
    assert len(copies) == 7
    for copy in copies:
        assert copy.features == (9.0, 9.0)
        assert copy.label is HS
        assert copy.loc == 777
        assert copy.module_id is None


def test_uniform_fallback_when_minority_is_isolated():
    # every minority point's k neighbours are other minority points, so all
    # difficulties are zero and the allocation falls back to equal shares:
    # 8 seeds, target 16, two synthetics per seed
    rng = np.random.default_rng(12)
    minority = cluster((0.0, 0.0), 8, MA, rng, spread=0.1)
    majority = cluster((100.0, 100.0), 24, CL, rng, spread=0.1)
    instances = minority + majority
    out = balance(instances, SamplerConfig(k_neighbors=5), 13)
    produced = len(out) - len(instances)
    assert produced == 16
    assert produced == expected_allocation(instances, SamplerConfig(k_neighbors=5))[MA]


def test_synthetic_loc_copied_from_seed_instance():
    instances = [make_labelled([float(i), 0.0], CL, loc=50) for i in range(9)]
    instances += [make_labelled([20.0, 1.0], MA, loc=321), make_labelled([21.0, 1.0], MA, loc=654)]
    out = balance(instances, SamplerConfig(k_neighbors=2), 14)
    for inst in out[len(instances):]:
        assert inst.loc in (321, 654)
        assert inst.module_id is None


def test_balance_is_deterministic():
    rng = np.random.default_rng(15)
    instances = cluster((0.0, 0.0), 11, CL, rng) + cluster((2.0, 2.0), 4, NT, rng)
    config = SamplerConfig()
    assert balance(instances, config, 99) == balance(instances, config, 99)
    other = balance(instances, config, 100)
    assert other != balance(instances, config, 99)


def test_balance_input_validation():
    with pytest.raises(SevpredictError):
        balance([], SamplerConfig(), 0)
    only_one_class = [make_labelled([float(i)], CL) for i in range(5)]
    with pytest.raises(SevpredictError):
        balance(only_one_class, SamplerConfig(), 0)
    bad = [make_labelled([0.0], CL), make_labelled([float("nan")], MA)]
    with pytest.raises(SevpredictError):
        balance(bad, SamplerConfig(), 0)
    too_wide = [make_labelled([0.0, -1.7e308], CL), make_labelled([1.0, 1.0], CL),
                make_labelled([2.0, 1.7e308], MA)]
    with pytest.raises(SevpredictError, match="^feature 2 spans more than the float range"):
        balance(too_wide, SamplerConfig(), 0)
    two_classes = [make_labelled([0.0], CL), make_labelled([1.0], CL), make_labelled([2.0], MA)]
    with pytest.raises(SevpredictError, match="seed"):
        balance(two_classes, SamplerConfig(), -1)


@pytest.mark.parametrize("label, loc, fault", [
    *[(label, 10, f"label {label!r} is not a SeverityClass") for label in ("clean", None, 4, SEVERITY_ORDER)],
    *[(MA, loc, f"loc {loc!r} is not an integer") for loc in (10.5, 10.0, "10", True)],
    # past int64, or inside it but outside the one LoC bound that the readers and pools share
    *[(MA, loc, f"loc holds {loc}, outside [1, 2**53]")
      for loc in (2**63, -2**63 - 1, 2**63 - 1, -2**63, 0, 2**53 + 1)],
])
def test_a_row_whose_label_or_loc_is_bad_is_named_in_one_line(label, loc, fault):
    # the position counts rows from 0, so it cannot be read as the 1-based line of a CSV file
    rows = [make_labelled([0.0], CL), make_labelled([1.0], CL), LabelledInstance((2.0,), loc, label)]
    with pytest.raises(SevpredictError, match=f"^position 2: {re.escape(fault)}$"):
        LabelledPool.from_rows(rows)
    edges = [LabelledInstance((2.0,), loc, MA) for loc in (1, 2**53, np.int64(7))]
    assert LabelledPool.from_rows(rows[:2] + edges).loc.tolist() == [100, 100, 1, 2**53, 7]


def test_the_balanced_pool_holds_its_synthetic_modules_as_arrays():
    # 6,400 rows of 4 features, as the adasyn_imbalanced benchmark trains on: about 9,400 synthetic
    # modules, whose features, class, LoC and ID take 0.86 MB as arrays and a tuple, and 2.65 MB as rows
    counts = dict(zip(SEVERITY_ORDER, (320, 640, 960, 1280, 3200)))
    pool = synth_corpus(counts, 4, 1.0, seed=1).labelled
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        balanced = adasyn_balance(pool, SamplerConfig(), 7)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(balanced) - len(pool) > 9000
    assert held < 1 << 20, f"the balanced pool holds {held / 2**20:.2f} MB"


def test_balancing_stays_within_its_memory_budget():
    # the same pool; what balancing holds beyond the pool it returns, in slabs of
    # max(n, SCAN_CELLS) float64 values: about 24, and 37 with one neighbour search per seed
    counts = dict(zip(SEVERITY_ORDER, (320, 640, 960, 1280, 3200)))
    pool = synth_corpus(counts, 4, 1.0, seed=1).labelled
    tracemalloc.start()
    try:
        balanced = adasyn_balance(pool, SamplerConfig(), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (balanced.features, balanced.labels, balanced.loc)) + sys.getsizeof(balanced.module_ids)
    slabs = (peak - kept) / (max(len(pool), SCAN_CELLS) * 8)
    assert slabs <= 30, f"{slabs:.1f} slabs"


@pytest.mark.parametrize("beta, d_threshold", [(0.0, 1.0), (1.0, 0.5), (1.0, 0.3)])
def test_balance_settles_targets_before_scaling(monkeypatch, beta, d_threshold):
    # CL 2, MA 1: beta 0 fills no deficit, and ratio 0.5 is not below d_threshold 0.5 or 0.3,
    # so the pool comes back as it is, before its too wide second feature is scaled
    def never(matrix):
        raise AssertionError("scaled a pool that gets no synthetic rows")

    monkeypatch.setattr(adasyn, "_minmax_params", never)
    too_wide = [make_labelled([0.0, -1.7e308], CL), make_labelled([1.0, 1.0], CL),
                make_labelled([2.0, 1.7e308], MA)]
    assert list(balance(too_wide, SamplerConfig(beta=beta, d_threshold=d_threshold), 0)) == too_wide


def test_sampler_config_validation():
    with pytest.raises(SevpredictError):
        SamplerConfig(k_neighbors=0)
    with pytest.raises(SevpredictError):
        SamplerConfig(beta=1.5)
    with pytest.raises(SevpredictError):
        SamplerConfig(beta=-0.1)
    with pytest.raises(SevpredictError):
        SamplerConfig(d_threshold=0.0)
    with pytest.raises(SevpredictError):
        SamplerConfig(d_threshold=1.2)
