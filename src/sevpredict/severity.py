"""Severity taxonomy: the five module classes and their ordinal weights.

Everything downstream (labelling, tree leaves, confusion matrices, risk
factors) indexes classes in the same fixed order, from most severe defect
category down to clean.
"""

from __future__ import annotations

import enum
import math
from typing import Mapping

from .errors import SevpredictError


class SeverityClass(enum.Enum):
    HIGH_SEVERITY = "high_severity"
    CRITICAL = "critical"
    MAJOR = "major"
    NON_TRIVIAL = "non_trivial"
    CLEAN = "clean"

    @classmethod
    def from_name(cls, name: str) -> "SeverityClass":
        """Look up a class by its file-format name, e.g. 'non_trivial'."""
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(c.value for c in cls)
            raise SevpredictError(f"unknown severity class {name!r} (expected one of: {known})") from None


# Most severe first; enum definition order is the canonical order everywhere.
SEVERITY_ORDER: tuple[SeverityClass, ...] = tuple(SeverityClass)
DEFECTIVE_CLASSES: tuple[SeverityClass, ...] = SEVERITY_ORDER[:4]
CLASS_INDEX: dict[SeverityClass, int] = {c: i for i, c in enumerate(SEVERITY_ORDER)}
CLASS_NAMES: tuple[str, ...] = tuple(c.value for c in SEVERITY_ORDER)

# Misclassification cost weights, increasing with distance from high severity.
DEFAULT_WEIGHTS: dict[SeverityClass, float] = {
    SeverityClass.HIGH_SEVERITY: 0.1,
    SeverityClass.CRITICAL: 0.2,
    SeverityClass.MAJOR: 0.3,
    SeverityClass.NON_TRIVIAL: 0.4,
    SeverityClass.CLEAN: 0.5,
}


def validate_weights(weights: Mapping[SeverityClass, float]) -> dict[SeverityClass, float]:
    """Check an ordinal weight assignment and return it in canonical order.

    Weights must cover all five classes, be positive and finite, and
    strictly increase from high severity to clean; otherwise risk factors
    lose their ordering semantics.
    """
    missing = [c.value for c in SEVERITY_ORDER if c not in weights]
    if missing:
        raise SevpredictError(f"ordinal weights missing classes: {', '.join(missing)}")
    ordered = [float(weights[c]) for c in SEVERITY_ORDER]
    if not all(0 < w < math.inf for w in ordered):  # also rejects NaN
        raise SevpredictError("ordinal weights must be positive and finite")
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        raise SevpredictError("ordinal weights must strictly increase from high_severity to clean")
    return dict(zip(SEVERITY_ORDER, ordered))
