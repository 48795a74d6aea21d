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

from .corpus import PROVENANCE_SYNTHETIC, LabelledInstance
from .errors import SevpredictError
from .severity import SEVERITY_ORDER, SeverityClass


@dataclass(frozen=True)
class SamplerConfig:
    k_neighbors: int = 5
    beta: float = 1.0  # fraction of the class deficit to fill
    d_threshold: float = 1.0  # only classes with size ratio below this are balanced
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise SevpredictError(f"seed must be a non-negative integer, got {self.seed}")
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


def adasyn_balance(labelled: Sequence[LabelledInstance], config: SamplerConfig) -> list[LabelledInstance]:
    """Oversample every minority class toward the majority count.

    Returns the input instances verbatim (same order) followed by the
    synthetic ones, each tagged with provenance 'synthetic' and carrying
    its seed's label and loc. Deterministic for a fixed config.
    """
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

    n_majority = max(sizes.values())
    mins, scales = _minmax_params(X)
    scaled = (X - mins) * scales
    k = config.k_neighbors
    rng = np.random.default_rng(config.seed)

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
        member = members[cls]
        in_class = np.flatnonzero(member)
        seeds = in_class.tolist()
        kn, kp = min(k, len(instances) - 1), min(k, m - 1)

        # One distance row per seed, its own entry set to inf: scaled
        # features are finite, so the seed sorts after every other row. The
        # first kn rows of its stable order set the seed's difficulty
        # (out-of-class share), its first kp same-class rows are the
        # interpolation partners; a one-member class has none.
        difficulty = []
        partners_of = []
        for i in seeds:
            dist = np.sqrt(((scaled - scaled[i]) ** 2).sum(axis=1))
            dist[i] = np.inf
            difficulty.append(np.count_nonzero(~member[_first_k(dist, kn)]) / kn)
            partners_of.append(in_class[_first_k(dist[in_class], kp)].tolist() if m > 1 else [])
        total = sum(difficulty)
        if total > 0:
            shares = [d / total for d in difficulty]
        else:
            shares = [1.0 / m] * m  # interior class: spread evenly

        for i, share, partners in zip(seeds, shares, partners_of):
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
            for _ in range(g):
                z = partners[int(rng.integers(len(partners)))]
                lam = float(rng.random())
                feats = tuple(float(a + lam * (b - a)) for a, b in zip(X[i], X[z]))
                synthetics.append(
                    LabelledInstance(feats, seed_inst.loc, cls, PROVENANCE_SYNTHETIC, None)
                )
    return instances + synthetics
