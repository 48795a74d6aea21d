"""Module-level defect corpus: CSV ingest, labelling, splits, synthetic data.

The input format is one row per software module: an id, its size in LoC,
four per-severity defect counts, the total defect count, and then one or
more static code metric columns that become the feature vector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import RowError, SchemaError, SevpredictError
from .severity import DEFECTIVE_CLASSES, SEVERITY_ORDER, SeverityClass

REQUIRED_COLUMNS: tuple[str, ...] = (
    "module_id",
    "loc",
    "n_high_severity",
    "n_critical",
    "n_major",
    "n_non_trivial",
    "n_total_defects",
)

# Column that carries each defective class's count.
COUNT_COLUMNS: dict[SeverityClass, str] = dict(zip(DEFECTIVE_CLASSES, REQUIRED_COLUMNS[2:6]))

PROVENANCE_ORIGINAL = "original"
PROVENANCE_SYNTHETIC = "synthetic"
PROVENANCE_PSEUDO = "pseudo"


@dataclass(frozen=True)
class LabelledInstance:
    features: tuple[float, ...]
    loc: int
    label: SeverityClass
    provenance: str = PROVENANCE_ORIGINAL  # original | synthetic | pseudo
    module_id: str | None = None


@dataclass(frozen=True)
class UnlabelledInstance:
    features: tuple[float, ...]
    loc: int
    module_id: str | None = None


@dataclass(frozen=True)
class Corpus:
    """Parsed dataset: feature schema plus labelled and unlabelled pools."""

    schema: tuple[str, ...]
    labelled: tuple[LabelledInstance, ...]
    unlabelled: tuple[UnlabelledInstance, ...]

    @property
    def total_loc(self) -> int:
        return sum(i.loc for i in self.labelled) + sum(i.loc for i in self.unlabelled)

    def __len__(self) -> int:
        return len(self.labelled) + len(self.unlabelled)


def derive_label(defect_counts: Sequence[int], total_defects: int) -> SeverityClass | None:
    """Assign a severity label to a module, or None when it stays unlabelled.

    A module with no defects at all is clean. A module whose defects are on
    record only in the total, with every per-severity count zero, carries no
    usable label. Otherwise the label is the most severe category with a
    nonzero count; `defect_counts` follows DEFECTIVE_CLASSES order.
    """
    nonzero = [c for c, n in zip(DEFECTIVE_CLASSES, defect_counts) if n > 0]
    if total_defects > 0 and not nonzero:
        return None
    if total_defects == 0:
        return SeverityClass.CLEAN
    return nonzero[0]


# ---------------------------------------------------------------------------
# CSV ingest


def _parse_int(raw: str, line: int, column: str, minimum: int) -> int:
    try:
        value = int(raw.strip())
    except ValueError:
        raise RowError(line, f"column {column!r} must be an integer (got {raw!r})") from None
    if value < minimum:
        raise RowError(line, f"column {column!r} must be >= {minimum} (got {value})")
    return value


def _parse_feature(raw: str, line: int, column: str) -> float:
    try:
        value = float(raw.strip())
    except ValueError:
        raise RowError(line, f"column {column!r} must be numeric (got {raw!r})") from None
    if not math.isfinite(value):
        raise RowError(line, f"column {column!r} must be finite (got {raw!r})")
    return value


def csv_records(source: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(file line, fields) per CSV record; a record csv cannot parse raises RowError."""
    reader = csv.reader(source)
    try:
        for fields in reader:
            yield reader.line_num, fields
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        raise RowError(reader.line_num, str(err)) from None


def _read_header(records, feature_names: Sequence[str] | None) -> tuple[str, ...]:
    _, header = next(records, (0, None))
    if header is None:
        raise SchemaError("empty input: missing header row")
    header = [h.strip() for h in header]
    for pos, name in enumerate(REQUIRED_COLUMNS):
        found = header[pos] if pos < len(header) else None
        if found != name:
            raise SchemaError(f"missing column {name!r} (position {pos + 1} holds {found!r})")
    metrics = tuple(header[len(REQUIRED_COLUMNS):])
    if not metrics:
        raise SchemaError("no metric columns found after 'n_total_defects'")
    if feature_names is not None and tuple(feature_names) != metrics:
        raise SchemaError(
            f"metric columns {list(metrics)} do not match the expected schema {list(feature_names)}"
        )
    return metrics


def _scan_rows(source: Iterable[str], feature_names: Sequence[str] | None):
    """Yield an instance, or a RowError, per data row; raises SchemaError early.

    A row repeating an earlier valid row's module_id is a RowError too.
    """
    records = csv_records(source)
    schema = _read_header(records, feature_names)
    width = len(REQUIRED_COLUMNS) + len(schema)
    first_line: dict[str, int] = {}  # module_id -> file line of its first valid row

    def rows() -> Iterator[LabelledInstance | UnlabelledInstance | RowError]:
        for line, fields in records:
            if not fields:
                continue
            if len(fields) != width:
                yield RowError(line, f"expected {width} fields, found {len(fields)}")
                continue
            try:
                module_id = fields[0].strip()
                if not module_id:
                    raise RowError(line, "column 'module_id' must be non-empty")
                loc = _parse_int(fields[1], line, "loc", minimum=1)
                counts = tuple(
                    _parse_int(fields[2 + k], line, REQUIRED_COLUMNS[2 + k], minimum=0)
                    for k in range(4)
                )
                total = _parse_int(fields[6], line, "n_total_defects", minimum=0)
                feats = tuple(
                    _parse_feature(fields[len(REQUIRED_COLUMNS) + j], line, schema[j])
                    for j in range(len(schema))
                )
            except RowError as err:
                yield err
                continue
            if module_id in first_line:
                yield RowError(
                    line, f"duplicate module_id {module_id!r} (first on row {first_line[module_id]})"
                )
                continue
            first_line[module_id] = line
            label = derive_label(counts, total)
            if label is None:
                yield UnlabelledInstance(feats, loc, module_id)
            else:
                yield LabelledInstance(feats, loc, label, PROVENANCE_ORIGINAL, module_id)

    return schema, rows()


def _assemble(schema: tuple[str, ...], instances: Sequence) -> Corpus:
    labelled = tuple(i for i in instances if isinstance(i, LabelledInstance))
    unlabelled = tuple(i for i in instances if isinstance(i, UnlabelledInstance))
    return Corpus(schema, labelled, unlabelled)


def parse_corpus(source: Iterable[str], feature_names: Sequence[str] | None = None) -> Corpus:
    """Parse the module CSV into a Corpus, raising on the first bad row."""
    schema, rows = _scan_rows(source, feature_names)
    instances = []
    for item in rows:
        if isinstance(item, RowError):
            raise item
        instances.append(item)
    return _assemble(schema, instances)


def audit_csv(source: Iterable[str]) -> tuple[Corpus, list[str]]:
    """Parse leniently: collect a diagnostic per bad row, keep the good ones.

    SchemaError still propagates, since without a valid header no row can be
    interpreted at all.
    """
    schema, rows = _scan_rows(source, None)
    instances = []
    diagnostics: list[str] = []
    for item in rows:
        if isinstance(item, RowError):
            diagnostics.append(str(item))
        else:
            instances.append(item)
    return _assemble(schema, instances), diagnostics


def read_csv_file(path, parse):
    """parse(open file) for the CSV at path; undecodable bytes raise a SevpredictError naming it."""
    with open(path, newline="") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as err:  # its position counts from the decoder's chunk, not the file
            raise SevpredictError(f"{path}: not valid {err.encoding} text ({err.reason})") from None


def load_corpus(path) -> Corpus:
    return read_csv_file(path, parse_corpus)


def write_corpus_csv(corpus: Corpus, stream) -> None:
    """Serialize a corpus back to the input CSV format.

    Defect counts are reconstructed from the label: one defect in the
    labelled class's own category, none for clean modules, and a bare
    nonzero total for unlabelled modules. Round-trips through parse_corpus
    with identical labels.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS + corpus.schema)
    auto = 0
    for inst in corpus.labelled:
        counts = [0, 0, 0, 0]
        total = 0
        if inst.label is not SeverityClass.CLEAN:
            counts[SEVERITY_ORDER.index(inst.label)] = 1
            total = 1
        module_id = inst.module_id
        if module_id is None:
            module_id, auto = f"m{auto:05d}", auto + 1
        writer.writerow([module_id, inst.loc, *counts, total, *[repr(v) for v in inst.features]])
    for inst in corpus.unlabelled:
        module_id = inst.module_id
        if module_id is None:
            module_id, auto = f"m{auto:05d}", auto + 1
        writer.writerow([module_id, inst.loc, 0, 0, 0, 0, 1, *[repr(v) for v in inst.features]])


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", newline="") as fh:
        write_corpus_csv(corpus, fh)


# ---------------------------------------------------------------------------
# Splits


def _class_members(corpus: Corpus) -> dict[SeverityClass, list[int]]:
    members: dict[SeverityClass, list[int]] = {c: [] for c in SEVERITY_ORDER}
    for i, inst in enumerate(corpus.labelled):
        members[inst.label].append(i)
    return members


def stratified_split(
    corpus: Corpus, test_fraction: float, seed: int
) -> tuple[Corpus, tuple[LabelledInstance, ...]]:
    """Seeded per-class holdout split; unlabelled instances all stay in train.

    Each class contributes floor(test_fraction * class_size) instances to the
    test side, so test proportions track the class distribution to within one
    instance and singleton classes are never drained from training.
    """
    if not corpus.labelled:
        raise SevpredictError("cannot split: labelled set is empty")
    if not 0.0 < test_fraction < 1.0:
        raise SevpredictError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    members_by_class = _class_members(corpus)
    test_idx: set[int] = set()
    for cls in SEVERITY_ORDER:
        members = members_by_class[cls]
        if not members:
            continue
        n_test = int(math.floor(test_fraction * len(members) + 1e-9))
        perm = rng.permutation(len(members))
        test_idx.update(members[j] for j in perm[:n_test].tolist())
    train = tuple(inst for i, inst in enumerate(corpus.labelled) if i not in test_idx)
    test = tuple(inst for i, inst in enumerate(corpus.labelled) if i in test_idx)
    return replace(corpus, labelled=train), test


def stratified_kfold(
    corpus: Corpus, k: int, seed: int
) -> list[tuple[Corpus, tuple[LabelledInstance, ...]]]:
    """Seeded stratified k-fold: shuffled class members dealt round-robin."""
    if k < 2:
        raise SevpredictError(f"k-fold requires k >= 2, got {k}")
    if not corpus.labelled:
        raise SevpredictError("cannot split: labelled set is empty")
    rng = np.random.default_rng(seed)
    fold_of = [0] * len(corpus.labelled)
    members_by_class = _class_members(corpus)
    for cls in SEVERITY_ORDER:
        members = members_by_class[cls]
        if not members:
            continue
        perm = rng.permutation(len(members))
        for pos, j in enumerate(perm.tolist()):
            fold_of[members[j]] = pos % k
    folds = []
    for fold in range(k):
        train = tuple(inst for i, inst in enumerate(corpus.labelled) if fold_of[i] != fold)
        test = tuple(inst for i, inst in enumerate(corpus.labelled) if fold_of[i] == fold)
        folds.append((replace(corpus, labelled=train), test))
    return folds


# ---------------------------------------------------------------------------
# Synthetic corpora


def synth_corpus(
    class_counts: Mapping[SeverityClass, int],
    n_features: int,
    separation: float,
    n_unlabelled: int = 0,
    seed: int = 0,
) -> Corpus:
    """Generate a Gaussian-mixture corpus, one cluster per severity class.

    Cluster centres are drawn at distance scale `separation` (0 gives fully
    overlapping classes); unlabelled instances are drawn from the same
    mixture with weights proportional to the labelled class counts.
    """
    if seed < 0:
        raise SevpredictError(f"seed must be a non-negative integer, got {seed}")
    if n_features < 1:
        raise SevpredictError(f"n_features must be >= 1, got {n_features}")
    if n_unlabelled < 0:
        raise SevpredictError(f"n_unlabelled must be >= 0, got {n_unlabelled}")
    if not (math.isfinite(separation) and separation >= 0):
        raise SevpredictError(f"separation must be a finite number >= 0, got {separation}")
    counts = {cls: int(class_counts.get(cls, 0)) for cls in SEVERITY_ORDER}
    if any(n < 0 for n in counts.values()):
        raise SevpredictError("class counts must be >= 0")
    if sum(counts.values()) == 0:
        raise SevpredictError("all class counts are zero")

    rng = np.random.default_rng(seed)
    centres = {cls: rng.normal(size=n_features) * separation for cls in SEVERITY_ORDER}

    def draw(cls: SeverityClass) -> tuple[tuple[float, ...], int]:
        feats = centres[cls] + rng.normal(size=n_features)
        loc = int(rng.integers(20, 2001))
        return tuple(float(v) for v in feats), loc

    serial = 0
    labelled = []
    for cls in SEVERITY_ORDER:
        for _ in range(counts[cls]):
            feats, loc = draw(cls)
            labelled.append(LabelledInstance(feats, loc, cls, PROVENANCE_ORIGINAL, f"synth_{serial:05d}"))
            serial += 1
    present = [cls for cls in SEVERITY_ORDER if counts[cls] > 0]
    probs = np.array([counts[cls] for cls in present], dtype=float)
    probs /= probs.sum()
    unlabelled = []
    for _ in range(n_unlabelled):
        cls = present[int(rng.choice(len(present), p=probs))]
        feats, loc = draw(cls)
        unlabelled.append(UnlabelledInstance(feats, loc, f"synth_{serial:05d}"))
        serial += 1
    schema = tuple(f"metric_{j + 1}" for j in range(n_features))
    return Corpus(schema, tuple(labelled), tuple(unlabelled))


def class_summary(corpus: Corpus) -> dict:
    """Bookkeeping block: per-class counts and percentages over all modules."""
    n = len(corpus)
    members = _class_members(corpus)
    counts = {cls.value: len(members[cls]) for cls in SEVERITY_ORDER}
    pct = lambda c: round(100.0 * c / n, 3) if n else 0.0
    return {
        "modules": n,
        "total_loc": corpus.total_loc,
        "labelled": len(corpus.labelled),
        "unlabelled": len(corpus.unlabelled),
        "class_counts": counts,
        "class_percentages": {name: pct(c) for name, c in counts.items()},
        "unlabelled_percentage": pct(len(corpus.unlabelled)),
    }
