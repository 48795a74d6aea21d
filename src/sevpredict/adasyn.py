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


def _distances(scaled: np.ndarray, seeds: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each pair's np.sqrt(((scaled - scaled[i]) ** 2).sum(axis=1))[j], bit for bit: numpy's own row sum on gathered rows.

    Pairs go a chunk at a time, as many as gather max(n, SCAN_CELLS) values
    a side, so the rows gathered take the same room at any width.
    """
    n, p = scaled.shape
    step = max(1, max(n, SCAN_CELLS) // max(1, p))
    out = np.empty(len(cols))
    for first in range(0, len(cols), step):
        pairs = slice(first, first + step)
        out[pairs] = np.sqrt(((scaled[cols[pairs]] - scaled[seeds[pairs]]) ** 2).sum(axis=1))
    return out


def _neighbours(scaled: np.ndarray, lifted: np.ndarray, member: np.ndarray, kn: int, kp: int):
    """Each seed's out-of-class count among its first kn rows, and its first kp same-class rows.

    The seeds are the rows member marks, in index order. A seed's rows rank
    by distance, np.sqrt(((scaled - scaled[i]) ** 2).sum(axis=1)), then by
    index, with its own row last. lifted is [scaled.T; ||row||^2].

    Screen. Seeds go a block at a time, as many as hold 8 * max(n, SCAN_CELLS)
    values. One matmul of [-2 a, 1] by lifted gives each seed a its entry
    ||b||^2 - 2 a.b = ||a - b||^2 - ||a||^2 for every row b, which orders a
    seed's rows as the distance does; the seed's own entry becomes inf. The
    bound u is the kp-th same-class entry, from one partition of the block's
    same-class columns, or the kn-th entry where that is larger, which only a
    class of k or fewer members (kp < kn) needs.

    Margin. With M the largest ||row||^2 and eps = 2**-53, a computed entry
    is within e = 4.1 (p + 1) eps M of its exact value in any summation
    order a BLAS picks, and the reference distance squared within
    f = 4 (p + 4) eps M of ||a - b||^2. If u were more than e + f below the
    exact entry at the reference bound U (the reference's kp-th same-class
    distance, or kn-th), kp same-class rows (or kn rows) would lie below U;
    so every row at or below U has an entry at most 2 (e + f) above u. The
    margin 1e-9 (1 + 2 M + |u|) is more than that below about a million
    features; the candidates are the entries at or below u + margin.

    Refine. Only the candidates' distances are computed, by _distances, so
    bit for bit. The candidates come in (seed, index) order, and one lexsort
    by seed and distance orders them stably. They hold every row at or below
    U, and the rest lie past U, so each seed's first kn candidates and first
    kp same-class candidates are the heads of its whole order, with no
    filter step.
    Partners are row indices; a one-member class has none.
    """
    in_class = np.flatnonzero(member)
    n, m = len(member), len(in_class)
    outside, partners = np.empty(m, np.intp), np.empty((m, kp), np.intp)
    lhs = np.hstack((-2.0 * scaled[in_class], np.ones((m, 1))))  # [-2 a, 1] per seed
    top = lifted[-1].max()  # M, the largest ||row||^2
    block = np.empty((min(m, 8 * max(n, SCAN_CELLS) // n), n))
    for first in range(0, m, len(block)):
        span = slice(first, first + len(block))
        rows = np.matmul(lhs[span], lifted, out=block[: m - first])
        seeds, at_seed = np.arange(len(rows)), in_class[span]
        rows[seeds, at_seed] = np.inf
        u = np.full(len(rows), -np.inf)
        if kp:
            same = rows.take(in_class, axis=1)
            same.partition(kp - 1, axis=1)
            u = same[:, kp - 1]
        if kp < kn:
            u = np.maximum(u, np.partition(rows, kn - 1, axis=1)[:, kn - 1])
        margin = 1e-9 * (1.0 + 2.0 * top + np.abs(u))
        seed, cols = np.divmod(np.flatnonzero(rows <= (u + margin)[:, None]), n)
        cols = cols[np.lexsort((_distances(scaled, at_seed[seed], cols), seed))]  # seed was sorted, so it still lines up
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
    lifted = np.vstack((scaled.T, (scaled * scaled).sum(axis=1)))  # [scaled.T; ||row||^2]
    k = config.k_neighbors
    rng = np.random.default_rng(seed)

    made = []  # (features, seed positions) per class topped up
    for c, target in targets.items():
        m, in_class = sizes[c], np.flatnonzero(y == c)
        kn, kp = min(k, len(labelled) - 1), min(k, m - 1)
        # a seed's first kn rows in stable order set its difficulty (out-of-class
        # share); its first kp same-class rows are the interpolation partners
        outside, partners = _neighbours(scaled, lifted, y == c, kn, kp)
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
