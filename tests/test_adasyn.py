from __future__ import annotations

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
    SamplerConfig,
    SevpredictError,
    adasyn_balance,
    synth_corpus,
)
from sevpredict import adasyn
from sevpredict.adasyn import _distance_rows, _first_k, _minmax_params
from sevpredict.cart import SCAN_CELLS
from sevpredict.corpus import PROVENANCE_SYNTHETIC

from conftest import CL, CR, HS, MA, NT, make_labelled


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
                    replace(seed_inst, provenance=PROVENANCE_SYNTHETIC, module_id=None)
                    for _ in range(g)
                )
                continue
            partners = _neighbors_of(scaled, i, seeds, config.k_neighbors)
            for _ in range(g):
                z = partners[int(rng.integers(len(partners)))]
                lam = float(rng.random())
                feats = tuple(float(a + lam * (b - a)) for a, b in zip(X[i], X[z]))
                synthetics.append(
                    LabelledInstance(feats, seed_inst.loc, cls, PROVENANCE_SYNTHETIC, None)
                )
    return instances + synthetics


def _outcome(balance, instances, config, seed):
    """The balanced pool, or the message of the SevpredictError raised instead."""
    try:
        return balance(instances, config, seed)
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
    assert _outcome(adasyn_balance, *case) == _outcome(_reference_balance, *case)


def test_balance_matches_the_reference_on_a_synth_corpus():
    counts = dict(zip(SEVERITY_ORDER, (100, 200, 400, 400, 1000)))
    instances = list(synth_corpus(counts, 20, 1.0, seed=1).labelled)
    balanced = adasyn_balance(instances, SamplerConfig(), 7)
    assert len(balanced) > len(instances)
    assert balanced == _reference_balance(instances, SamplerConfig(), 7)


def test_balance_matches_the_reference_on_an_imbalanced_pool():
    # the adasyn_imbalanced benchmark's shape at a tenth of its size
    counts = dict(zip(SEVERITY_ORDER, (40, 80, 120, 160, 400)))
    instances = list(synth_corpus(counts, 4, 1.0, seed=2).labelled)
    assert adasyn_balance(instances, SamplerConfig(), 7) == _reference_balance(instances, SamplerConfig(), 7)


def test_balance_matches_the_reference_past_128_features():
    # rows this long keep numpy's own reduction
    counts = dict(zip(SEVERITY_ORDER, (4, 8, 12, 16, 40)))
    instances = list(synth_corpus(counts, 130, 1.0, seed=3).labelled)
    assert adasyn_balance(instances, SamplerConfig(), 7) == _reference_balance(instances, SamplerConfig(), 7)


def test_balance_matches_the_reference_without_features():
    # every distance is 0, so the stable order alone picks the neighbours
    instances = [make_labelled([], CL, module_id=f"c{j}") for j in range(9)]
    instances += [make_labelled([], MA, module_id=f"m{j}") for j in range(3)]
    balanced = adasyn_balance(instances, SamplerConfig(k_neighbors=2), 5)
    assert len(balanced) == 18
    assert balanced == _reference_balance(instances, SamplerConfig(k_neighbors=2), 5)


def test_balance_matches_the_reference_over_several_seed_blocks():
    # 600 rows take SCAN_CELLS // 600 = 6 seeds a block, so each minority class spans 7 to 20 blocks
    counts = dict(zip(SEVERITY_ORDER, (40, 80, 120, 120, 240)))
    instances = list(synth_corpus(counts, 12, 1.0, seed=4).labelled)
    assert len(instances) == 600
    assert adasyn_balance(instances, SamplerConfig(), 7) == _reference_balance(instances, SamplerConfig(), 7)


@st.composite
def distance_pools(draw, p):
    """A pool of p columns (spread over many magnitudes, on a small integer grid, or of repeated rows) and some of its rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # up to 64 rows fit any seed count in one block; past SCAN_CELLS // 2 rows a block holds one seed
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
def test_distance_rows_match_numpys_row_sum_bit_for_bit(p, data):
    # the kernel follows numpy's summation order; if a numpy release changes
    # that order, fall back to .sum(axis=1) rather than loosening this test
    X, rows = data.draw(distance_pools(p))
    got = [dist.copy() for dist in _distance_rows(X, np.ascontiguousarray(X.T), rows)]  # rows are views
    assert len(got) == len(rows)
    for i, dist in zip(rows, got):
        want = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        assert np.array_equal(dist.view(np.int64), want.view(np.int64)), f"row {i}"


@pytest.mark.parametrize("p", [*range(1, 41), 64, 100, 127])
def test_distance_rows_stay_within_their_memory_budget(p):
    # numpy reports its buffers to tracemalloc, so the peak counts every
    # block buffer the kernel holds while its rows are drawn one by one
    rng = np.random.default_rng(p)
    for n in (7, 64, 700, 2049, 4096, 6400):
        X = rng.random((n, p))
        sT = np.ascontiguousarray(X.T)
        rows = np.arange(min(n, 2 * max(1, SCAN_CELLS // n) + 1))  # two full blocks and a short one
        tracemalloc.start()
        try:
            for _ in _distance_rows(X, sT, rows):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * max(n, SCAN_CELLS) * 8, f"n={n}: peak {peak / (max(n, SCAN_CELLS) * 8):.1f} slabs"


@st.composite
def first_k_inputs(draw):
    """A distance row, often tied or holding one inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        d = rng.integers(0, draw(st.integers(1, 4)), size=n).astype(float)
    else:
        d = rng.random(n)
    if draw(st.booleans()):
        d[rng.integers(n)] = np.inf
    return d


@settings(max_examples=300, deadline=None)
@given(first_k_inputs())
def test_first_k_is_the_head_of_the_stable_order(d):
    order = np.argsort(d, kind="stable")
    for k in range(1, len(d) + 1):
        assert _first_k(d, k).tolist() == order[:k].tolist()


def test_feature_too_narrow_to_scale_is_left_out_of_the_distance():
    # 1/5e-324 overflows: the feature scales to 0 like a constant one, so the
    # balanced pool matches the one built without it
    rng = np.random.default_rng(16)
    plain = cluster((0.0, 0.0), 12, CL, rng) + cluster((1.0, 1.0), 4, MA, rng)
    tiny = [replace(inst, features=inst.features + (5e-324 * (j % 2),)) for j, inst in enumerate(plain)]
    assert _minmax_params(np.array([inst.features for inst in tiny]))[1].tolist() == [
        *_minmax_params(np.array([inst.features for inst in plain]))[1].tolist(), 0.0]
    config = SamplerConfig(k_neighbors=3)
    with_tiny, without = adasyn_balance(tiny, config, 17), adasyn_balance(plain, config, 17)
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
    balanced = adasyn_balance(instances, config, 7)
    produced = Counter(i.label for i in balanced if i.provenance == "synthetic")
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
        balanced = adasyn_balance(instances, config, trial)
        produced = Counter(i.label for i in balanced if i.provenance == "synthetic")
        assert dict(produced) == expected_allocation(instances, config)


# ---------------------------------------------------------------------------
# behaviour


def test_equal_classes_come_back_unchanged():
    rng = np.random.default_rng(0)
    instances = cluster((0.0,), 6, CL, rng) + cluster((4.0,), 6, MA, rng)
    out = adasyn_balance(instances, SamplerConfig(), 1)
    assert out == instances


def test_beta_zero_generates_nothing():
    rng = np.random.default_rng(1)
    instances = cluster((0.0,), 9, CL, rng) + cluster((4.0,), 3, MA, rng)
    out = adasyn_balance(instances, SamplerConfig(beta=0.0), 1)
    assert out == instances


def test_d_threshold_skips_mild_imbalance():
    rng = np.random.default_rng(2)
    # 8/10 = 0.8 >= 0.5 threshold: no resampling
    instances = cluster((0.0,), 10, CL, rng) + cluster((4.0,), 8, MA, rng)
    out = adasyn_balance(instances, SamplerConfig(d_threshold=0.5), 3)
    assert out == instances


def test_originals_preserved_as_prefix():
    rng = np.random.default_rng(4)
    instances = cluster((0.0, 0.0), 10, CL, rng, tag="c") + cluster((1.0, 1.0), 3, NT, rng, tag="n")
    out = adasyn_balance(instances, SamplerConfig(), 5)
    assert out[: len(instances)] == instances
    assert all(i.provenance == "synthetic" for i in out[len(instances):])


def test_synthetics_stay_inside_class_bounding_box():
    rng = np.random.default_rng(6)
    instances = cluster((0.0, 0.0), 14, CL, rng) + cluster((5.0, -2.0), 4, CR, rng)
    out = adasyn_balance(instances, SamplerConfig(k_neighbors=3), 8)
    members = np.array([i.features for i in instances if i.label is CR])
    lo, hi = members.min(axis=0), members.max(axis=0)
    synth = [i for i in out if i.provenance == "synthetic"]
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
    out = adasyn_balance(instances, SamplerConfig(k_neighbors=2), 10)
    for inst in out[len(instances):]:
        x, y = inst.features
        assert 2.0 - 1e-12 <= x <= 3.0 + 1e-12
        assert abs(x - y) < 1e-9  # on the segment joining the two seeds


def test_singleton_minority_is_replicated():
    seed_inst = make_labelled([9.0, 9.0], HS, loc=777, module_id="lonely")
    instances = [make_labelled([float(i), 0.0], CL, module_id=f"c{i}") for i in range(8)]
    instances.append(seed_inst)
    out = adasyn_balance(instances, SamplerConfig(k_neighbors=3), 0)
    copies = [i for i in out if i.provenance == "synthetic"]
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
    out = adasyn_balance(instances, SamplerConfig(k_neighbors=5), 13)
    produced = sum(1 for i in out if i.provenance == "synthetic")
    assert produced == 16
    assert produced == expected_allocation(instances, SamplerConfig(k_neighbors=5))[MA]


def test_synthetic_loc_copied_from_seed_instance():
    instances = [make_labelled([float(i), 0.0], CL, loc=50) for i in range(9)]
    instances += [make_labelled([20.0, 1.0], MA, loc=321), make_labelled([21.0, 1.0], MA, loc=654)]
    out = adasyn_balance(instances, SamplerConfig(k_neighbors=2), 14)
    for inst in out[len(instances):]:
        assert inst.loc in (321, 654)
        assert inst.module_id is None


def test_balance_is_deterministic():
    rng = np.random.default_rng(15)
    instances = cluster((0.0, 0.0), 11, CL, rng) + cluster((2.0, 2.0), 4, NT, rng)
    config = SamplerConfig()
    assert adasyn_balance(instances, config, 99) == adasyn_balance(instances, config, 99)
    other = adasyn_balance(instances, config, 100)
    assert other != adasyn_balance(instances, config, 99)


def test_balance_input_validation():
    with pytest.raises(SevpredictError):
        adasyn_balance([], SamplerConfig(), 0)
    only_one_class = [make_labelled([float(i)], CL) for i in range(5)]
    with pytest.raises(SevpredictError):
        adasyn_balance(only_one_class, SamplerConfig(), 0)
    bad = [make_labelled([0.0], CL), make_labelled([float("nan")], MA)]
    with pytest.raises(SevpredictError):
        adasyn_balance(bad, SamplerConfig(), 0)
    too_wide = [make_labelled([0.0, -1.7e308], CL), make_labelled([1.0, 1.0], CL),
                make_labelled([2.0, 1.7e308], MA)]
    with pytest.raises(SevpredictError, match="^feature 2 spans more than the float range"):
        adasyn_balance(too_wide, SamplerConfig(), 0)
    two_classes = [make_labelled([0.0], CL), make_labelled([1.0], CL), make_labelled([2.0], MA)]
    with pytest.raises(SevpredictError, match="seed"):
        adasyn_balance(two_classes, SamplerConfig(), -1)


@pytest.mark.parametrize("beta, d_threshold", [(0.0, 1.0), (1.0, 0.5), (1.0, 0.3)])
def test_balance_settles_targets_before_scaling(monkeypatch, beta, d_threshold):
    # CL 2, MA 1: beta 0 fills no deficit, and ratio 0.5 is not below d_threshold 0.5 or 0.3,
    # so the pool comes back as it is, before its too wide second feature is scaled
    def never(matrix):
        raise AssertionError("scaled a pool that gets no synthetic rows")

    monkeypatch.setattr(adasyn, "_minmax_params", never)
    too_wide = [make_labelled([0.0, -1.7e308], CL), make_labelled([1.0, 1.0], CL),
                make_labelled([2.0, 1.7e308], MA)]
    assert adasyn_balance(too_wide, SamplerConfig(beta=beta, d_threshold=d_threshold), 0) == too_wide


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
