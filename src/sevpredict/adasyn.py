"""Adaptive synthetic oversampling of minority severity classes.

Each class smaller than the largest one is topped up with synthetic
instances. Generation is density-aware: a minority instance whose
neighborhood is dominated by other classes is harder to learn and receives
proportionally more synthetic offspring. A synthetic point is a convex
combination of its seed and one of the seed's nearest same-class
neighbors, so it never leaves the segment between the two parents.

Neighbor searches run in min-max scaled space (fit on the labelled set
handed in; constant features collapse to 0) so no single metric dominates
the Euclidean distance; interpolation happens in the raw feature space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cart import SCAN_CELLS
from .corpus import PROVENANCE_SYNTHETIC, LabelledInstance
from .errors import SevpredictError
from .severity import SEVERITY_ORDER, SeverityClass


@dataclass(frozen=True)
class SamplerConfig:
    k_neighbors: int = 5
    beta: float = 1.0  # fraction of the class deficit to fill
    d_threshold: float = 1.0  # only classes with size ratio below this are balanced

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise SevpredictError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if not 0.0 <= self.beta <= 1.0:
            raise SevpredictError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.d_threshold <= 1.0:
            raise SevpredictError(f"d_threshold must be in (0, 1], got {self.d_threshold}")


def _minmax_params(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mins = matrix.min(axis=0)
    with np.errstate(over="ignore"):
        spans = matrix.max(axis=0) - mins
        # constant features scale to 0 rather than dividing by zero, and so
        # do spans too narrow for a finite reciprocal (under about 2**-1024)
        scales = np.zeros_like(spans)
        np.divide(1.0, spans, out=scales, where=spans > 0)
    wide = np.flatnonzero(np.isinf(spans))
    if wide.size:
        raise SevpredictError(f"feature {wide[0] + 1} spans more than the float range and cannot be scaled")
    scales[np.isinf(scales)] = 0.0
    return mins, scales


def _first_k(dist: np.ndarray, k: int) -> np.ndarray:
    """Positions of the first k entries of dist's stable ascending order."""
    cut = np.partition(dist, k - 1)[k - 1]
    near = np.flatnonzero(dist <= cut)  # in index order, so ties keep the lower one
    return near[np.argsort(dist[near], kind="stable")[:k]]


def _squares(out: np.ndarray, sT: np.ndarray, at: np.ndarray, c: int) -> None:
    """Fill out, (w, b, n), with the block's squared differences in features c to c + w - 1."""
    np.subtract(sT[c : c + len(out), None], at[c : c + len(out)], out=out)
    np.square(out, out=out)


def _distance_rows(scaled: np.ndarray, sT: np.ndarray, rows: np.ndarray):
    """Yield np.sqrt(((scaled - scaled[i]) ** 2).sum(axis=1)) for each i in rows, bit for bit.

    sT is scaled.T made contiguous. Rows of 1 to 127 features come in blocks
    of b seeds, their squares added in the order of numpy's pairwise_sum:
    left to right for p < 8, else feature j into partial sum j mod 8, the
    eight combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the last p mod 8 in order. The first 8 features are squared in one
    (8, b, n) buffer, later ones 4 at a time in a second; b is the most seeds
    whose buffers hold 8 * max(n, SCAN_CELLS) values, and at least 1.
    Longer rows, and the all-zero rows of a pool without features, keep
    numpy's own reduction. Each row yielded is a view the next block reuses.
    """
    n, p = scaled.shape
    if not 0 < p < 128:
        for i in rows:
            yield np.sqrt(((scaled - scaled[i]) ** 2).sum(axis=1))
        return
    q = p - p % 8  # the features that go into the partial sums
    depth = min(p, 8) + (4 if q > 8 else 0)  # buffer rows per seed
    width = max(1, min(len(rows), 8 * max(n, SCAN_CELLS) // (depth * n)))
    buf, later = np.empty((min(p, 8), width, n)), np.empty((depth - min(p, 8), width, n))
    for start in range(0, len(rows), width):
        at = sT[:, rows[start : start + width], None]  # the block's seeds, (p, b, 1)
        r, tmp = buf[:, : at.shape[1]], later[:, : at.shape[1]]
        _squares(r, sT, at, 0)
        tail = r[1:]
        if p >= 8:
            for c in range(8, q, 4):
                _squares(tmp, sT, at, c)
                r[c % 8 : c % 8 + 4] += tmp
            r[0::2] += r[1::2]
            r[0::4] += r[2::4]
            r[0] += r[4]
            tail = r[1 : 1 + p - q]
            _squares(tail, sT, at, q)
        total = r[0]
        for column in tail:
            total += column
        yield from np.sqrt(total, out=total)


def adasyn_balance(
    labelled: Sequence[LabelledInstance], config: SamplerConfig, seed: int
) -> list[LabelledInstance]:
    """Oversample every minority class toward the majority count.

    Returns the input instances verbatim (same order) followed by the
    synthetic ones, each tagged with provenance 'synthetic' and carrying
    its seed's label and loc. Deterministic for a fixed config and seed.
    """
    if seed < 0:
        raise SevpredictError(f"seed must be a non-negative integer, got {seed}")
    instances = list(labelled)
    if not instances:
        raise SevpredictError("cannot balance an empty labelled set")
    X = np.asarray([inst.features for inst in instances], dtype=float)
    if not np.all(np.isfinite(X)):
        raise SevpredictError("features must be finite")
    labels = [inst.label for inst in instances]
    members = {cls: np.fromiter((lbl is cls for lbl in labels), bool, len(labels)) for cls in SEVERITY_ORDER}
    sizes = {cls: int(member.sum()) for cls, member in members.items()}
    if sum(1 for n in sizes.values() if n > 0) < 2:
        raise SevpredictError("balancing requires at least 2 classes present")

    # G = (n_majority - m) * beta for each class under the size ratio d_threshold (<= 1: never
    # the majority), settled before any scaling; beta = 0 tops up nothing
    n_majority = max(sizes.values())
    targets = {cls: (n_majority - m) * config.beta for cls, m in sizes.items()
               if m > 0 and m / n_majority < config.d_threshold and config.beta > 0}
    if not targets:
        return instances
    mins, scales = _minmax_params(X)
    scaled = (X - mins) * scales
    sT = np.ascontiguousarray(scaled.T)
    k = config.k_neighbors
    rng = np.random.default_rng(seed)

    synthetics: list[LabelledInstance] = []
    for cls, target in targets.items():
        m, member = sizes[cls], members[cls]
        other = ~member
        in_class = np.flatnonzero(member)
        seeds = in_class.tolist()
        kn, kp = min(k, len(instances) - 1), min(k, m - 1)

        # One distance row per seed, its own entry set to inf: scaled
        # features are finite, so the seed sorts after every other row. Its
        # first kn rows in stable order set its difficulty (out-of-class
        # share); unless the kn-th distance is tied, they are the rows at or
        # below it. Its first kp same-class rows are the interpolation
        # partners; a one-member class has none.
        difficulty, partners_of = [], []
        for i, dist in zip(seeds, _distance_rows(scaled, sT, in_class)):
            dist[i] = np.inf
            near = dist <= np.partition(dist, kn - 1)[kn - 1]
            if np.count_nonzero(near) == kn:
                difficulty.append(np.count_nonzero(near & other) / kn)
            else:
                difficulty.append(np.count_nonzero(other[_first_k(dist, kn)]) / kn)
            partners_of.append(in_class[_first_k(dist[in_class], kp)].tolist() if m > 1 else [])
        total = sum(difficulty)  # 0 for an interior class: spread evenly
        shares = [d / total for d in difficulty] if total > 0 else [1.0 / m] * m
        counts = [int(round(share * target)) for share in shares]

        if m == 1:  # no same-class neighbor to interpolate toward; replicate
            seed_inst = instances[seeds[0]]
            synthetics.extend(
                replace(seed_inst, provenance=PROVENANCE_SYNTHETIC, module_id=None) for _ in range(counts[0])
            )
            continue
        # a partner draw and then a lambda per synthetic row, seed by seed
        z, lam = np.empty(sum(counts), np.intp), np.empty(sum(counts))
        for row, partners in enumerate(ps for ps, g in zip(partners_of, counts) for _ in range(g)):
            z[row] = partners[rng.integers(len(partners))]
            lam[row] = rng.random()
        origin = np.repeat(in_class, counts)
        a = X[origin]
        feats = a + lam[:, None] * (X[z] - a)  # float(a + lam * (b - a)) in each value
        chunk = max(1, SCAN_CELLS // max(1, X.shape[1]))  # rows per list of lists
        synthetics.extend(
            LabelledInstance(tuple(row), instances[i].loc, cls, PROVENANCE_SYNTHETIC, None)
            for start in range(0, len(origin), chunk)
            for i, row in zip(origin[start : start + chunk].tolist(), feats[start : start + chunk].tolist())
        )
    return instances + synthetics
