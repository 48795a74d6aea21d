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

from dataclasses import dataclass

import numpy as np

from .cart import N_CLASSES, SCAN_CELLS
from .corpus import LabelledPool
from .errors import SevpredictError


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


def _neighbours(scaled: np.ndarray, sT: np.ndarray, member: np.ndarray, kn: int, kp: int):
    """Each seed's out-of-class count among its first kn rows, and its first kp same-class rows.

    The seeds are the rows member marks, in index order. A seed's rows rank
    by distance, then index, with its own row last (its entry becomes inf;
    scaled features are finite). Seeds go a block at a time, the block
    holding as many distances as _distance_rows' buffers. A seed's bound u
    is its kp-th same-class distance, from one partition of the block's
    same-class columns, or its kn-th distance where that is larger, which
    only a class of k or fewer members (kp < kn) needs. Both heads lie at or
    below u, so only those entries are ordered: they come in (seed, index)
    order, and one lexsort by seed and distance keeps ties in index order.
    Partners are row indices; a one-member class has none.
    """
    in_class = np.flatnonzero(member)
    n, m = len(member), len(in_class)
    outside, partners = np.empty(m, np.intp), np.empty((m, kp), np.intp)
    block = np.empty((min(m, 8 * max(n, SCAN_CELLS) // n), n))
    dists = _distance_rows(scaled, sT, in_class)
    for first in range(0, m, len(block)):
        rows = block[: m - first]
        for row, dist in zip(rows, dists):
            row[:] = dist
        seeds, span = np.arange(len(rows)), slice(first, first + len(rows))
        rows[seeds, in_class[span]] = np.inf
        u = np.zeros(len(rows))  # no distance is negative
        if kp:
            same = rows.take(in_class, axis=1)
            same.partition(kp - 1, axis=1)
            u = same[:, kp - 1]
        if kp < kn:
            u = np.maximum(u, np.partition(rows, kn - 1, axis=1)[:, kn - 1])
        at = np.flatnonzero(rows <= u[:, None])
        seed, cols = np.divmod(at, n)
        cols = cols[np.lexsort((rows.take(at), seed))]  # seed was sorted, so it still lines up
        near = cols[np.searchsorted(seed, seeds)[:, None] + np.arange(kn)]
        outside[span] = kn - member[near].sum(axis=1)
        mates = member[cols]
        partners[span] = cols[mates][np.searchsorted(seed[mates], seeds)[:, None] + np.arange(kp)]
    return outside, partners


def adasyn_balance(
    labelled: LabelledPool, config: SamplerConfig, seed: int
) -> LabelledPool:
    """Oversample every minority class toward the majority count.

    Returns the input pool with the synthetic modules appended, so
    `out[len(labelled):]` is exactly the synthetic ones. Each carries its
    seed's class and LoC, and module ID None.
    Deterministic for a fixed config and seed.
    """
    if seed < 0:
        raise SevpredictError(f"seed must be a non-negative integer, got {seed}")
    if not labelled:
        raise SevpredictError("cannot balance an empty labelled set")
    X, y = labelled.features, labelled.labels
    sizes = np.bincount(y, minlength=N_CLASSES).tolist()  # per class index
    if sum(1 for n in sizes if n > 0) < 2:
        raise SevpredictError("balancing requires at least 2 classes present")

    # G = (n_majority - m) * beta for each class under the size ratio d_threshold (<= 1: never
    # the majority), settled before any scaling; beta = 0 tops up nothing
    n_majority = max(sizes)
    targets = {k: (n_majority - m) * config.beta for k, m in enumerate(sizes)
               if m > 0 and m / n_majority < config.d_threshold and config.beta > 0}
    if not targets:
        return labelled
    mins, scales = _minmax_params(X)
    scaled = (X - mins) * scales
    sT = np.ascontiguousarray(scaled.T)
    k = config.k_neighbors
    rng = np.random.default_rng(seed)

    made = []  # (features, seed positions) per class topped up
    for c, target in targets.items():
        m, in_class = sizes[c], np.flatnonzero(y == c)
        kn, kp = min(k, len(labelled) - 1), min(k, m - 1)
        # a seed's first kn rows in stable order set its difficulty (out-of-class
        # share); its first kp same-class rows are the interpolation partners
        outside, partners = _neighbours(scaled, sT, y == c, kn, kp)
        difficulty = (outside / kn).tolist()
        total = sum(difficulty)  # 0 for an interior class: spread evenly
        shares = [d / total for d in difficulty] if total > 0 else [1.0 / m] * m
        counts = [int(round(share * target)) for share in shares]
        origin = np.repeat(in_class, counts)

        if m == 1:  # no same-class neighbor to interpolate toward; replicate
            made.append((X[origin], origin))
            continue
        # a partner draw and then a lambda per synthetic row, seed by seed
        pick, lam = np.empty(len(origin), np.intp), np.empty(len(origin))
        for row in range(len(origin)):
            pick[row] = rng.integers(kp)
            lam[row] = rng.random()
        z = partners[np.repeat(np.arange(m), counts), pick]
        a = X[origin]
        made.append((a + lam[:, None] * (X[z] - a), origin))  # float(a + lam * (b - a)) in each value
    feats, origins = zip(*made)
    origin = np.concatenate(origins)  # each synthetic module's seed, whose class and LoC it takes
    return LabelledPool(np.concatenate((X, *feats)), np.concatenate((y, y[origin])),
                        np.concatenate((labelled.loc, labelled.loc[origin])),
                        labelled.module_ids + (None,) * len(origin))
