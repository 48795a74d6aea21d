"""Module-level defect corpus: CSV ingest, labelling, splits, synthetic data.

The input format is one row per software module: an id, its size in LoC,
four per-severity defect counts, the total defect count, and then one or
more static code metric columns that become the feature vector.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
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


def _parse_loc(raw: str, line: int) -> int:
    loc = _parse_int(raw, line, "loc", minimum=1)
    if loc > 2**53:  # the largest integer a float64 holds exactly; LoC sums are divided as floats
        raise RowError(line, "column 'loc' must be <= 2**53")
    return loc


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


def csv_header(records) -> list[str]:
    """The first record's fields, stripped; the first field, if any, loses one leading byte-order mark."""
    _, header = next(records, (0, None))
    if header is None:
        raise SchemaError("empty input: missing header row")
    return [h.strip() for h in [h.removeprefix("\ufeff") for h in header[:1]] + header[1:]]


def _read_header(records, feature_names: Sequence[str] | None) -> tuple[str, ...]:
    header = csv_header(records)
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


def _read_rows(source: Iterable[str], feature_names: Sequence[str] | None, bad_row) -> Corpus:
    """Read the header, then each record once; each bad row goes to bad_row(RowError).

    A row repeating an earlier valid row's module_id is a bad row too. A
    SchemaError, or a record csv cannot parse, ends the read.
    """
    records = csv_records(source)
    schema = _read_header(records, feature_names)
    width = len(REQUIRED_COLUMNS) + len(schema)
    first_line: dict[str, int] = {}  # module_id -> file line of its first valid row
    labelled, unlabelled = [], []
    for line, fields in records:
        if not fields:
            continue
        try:
            if len(fields) != width:
                raise RowError(line, f"expected {width} fields, found {len(fields)}")
            module_id = fields[0].strip()
            if not module_id:
                raise RowError(line, "column 'module_id' must be non-empty")
            loc = _parse_loc(fields[1], line)
            *counts, total = (_parse_int(fields[k], line, REQUIRED_COLUMNS[k], minimum=0) for k in range(2, 7))
            metric_fields = zip(schema, fields[len(REQUIRED_COLUMNS):])
            feats = tuple(_parse_feature(raw, line, name) for name, raw in metric_fields)
            if module_id in first_line:
                raise RowError(
                    line, f"duplicate module_id {module_id!r} (first on row {first_line[module_id]})"
                )
        except RowError as err:
            bad_row(err)
            continue
        first_line[module_id] = line
        label = derive_label(counts, total)
        if label is None:
            unlabelled.append(UnlabelledInstance(feats, loc, module_id))
        else:
            labelled.append(LabelledInstance(feats, loc, label, PROVENANCE_ORIGINAL, module_id))
    return Corpus(schema, tuple(labelled), tuple(unlabelled))


def _raise(err: RowError):
    raise err


def parse_corpus(source: Iterable[str], feature_names: Sequence[str] | None = None) -> Corpus:
    """Parse the module CSV into a Corpus, raising on the first bad row."""
    return _read_rows(source, feature_names, _raise)


def audit_csv(source: Iterable[str]) -> tuple[Corpus, list[str]]:
    """Parse leniently: collect a diagnostic per bad row, keep the good ones.

    SchemaError still propagates, since without a valid header no row can be
    interpreted at all.
    """
    diagnostics: list[str] = []
    corpus = _read_rows(source, None, lambda err: diagnostics.append(str(err)))
    return corpus, diagnostics


def read_csv_file(path, parse):
    """parse(open file) for the CSV at path; undecodable bytes raise a SevpredictError naming it."""
    with open(path, newline="") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as err:  # its position counts from the decoder's chunk, not the file
            raise SevpredictError(f"{path}: not valid {err.encoding} text ({err.reason})") from None


def load_corpus(path) -> Corpus:
    return read_csv_file(path, parse_corpus)


def fill_module_ids(ids: Iterable[str | None]) -> list[str]:
    """The IDs, each None numbered m00000, m00001, ... in turn, skipping IDs in use."""
    ids = list(ids)
    taken = set(ids)
    fresh = (name for name in (f"m{i:05d}" for i in itertools.count()) if name not in taken)
    return [next(fresh) if module_id is None else module_id for module_id in ids]


def write_corpus_csv(corpus: Corpus, stream) -> None:
    """Serialize a corpus back to the input CSV format.

    Defect counts are reconstructed from the label: one defect in the
    labelled class's own category, none for clean modules, and a bare
    nonzero total for unlabelled modules. Round-trips through parse_corpus
    with identical labels.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS + corpus.schema)
    instances = corpus.labelled + corpus.unlabelled
    for inst, module_id in zip(instances, fill_module_ids(i.module_id for i in instances)):
        counts = [0, 0, 0, 0, 0]  # the four per-severity counts, then the total
        if isinstance(inst, UnlabelledInstance):
            counts[4] = 1
        elif inst.label is not SeverityClass.CLEAN:
            counts[SEVERITY_ORDER.index(inst.label)] = counts[4] = 1
        writer.writerow([module_id, inst.loc, *counts, *map(repr, inst.features)])


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", newline="") as fh:
        write_corpus_csv(corpus, fh)


# ---------------------------------------------------------------------------
# Splits


def _deal(corpus: Corpus, seed: int, fold_at) -> list[int]:
    """Each labelled instance's fold: every class, in severity order, is shuffled by one
    seeded permutation, and its members at positions pos of m go to folds fold_at(pos, m)."""
    members_of: dict[SeverityClass, list[int]] = {c: [] for c in SEVERITY_ORDER}
    for i, inst in enumerate(corpus.labelled):
        members_of[inst.label].append(i)
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(len(corpus.labelled), dtype=np.int64)
    for members in filter(None, members_of.values()):
        m = len(members)
        fold_of[np.asarray(members)[rng.permutation(m)]] = fold_at(np.arange(m), m)
    return fold_of.tolist()


def _cut(corpus: Corpus, fold_of: list[int], fold: int) -> tuple[Corpus, tuple[LabelledInstance, ...]]:
    """(corpus labelled with the other folds, the fold's instances)."""
    train = tuple(inst for inst, f in zip(corpus.labelled, fold_of) if f != fold)
    test = tuple(inst for inst, f in zip(corpus.labelled, fold_of) if f == fold)
    return replace(corpus, labelled=train), test


def stratified_split(
    corpus: Corpus, test_fraction: float, seed: int
) -> tuple[Corpus, tuple[LabelledInstance, ...]]:
    """Seeded per-class holdout split; unlabelled instances all stay in train.

    Test is fold 0 of a two-way deal: floor(test_fraction * class_size) of
    each class, so test proportions track the class distribution to within
    one instance and singleton classes are never drained from training.
    """
    if not corpus.labelled:
        raise SevpredictError("cannot split: labelled set is empty")
    if not 0.0 < test_fraction < 1.0:
        raise SevpredictError(f"test_fraction must be in (0, 1), got {test_fraction}")
    fold_of = _deal(corpus, seed, lambda pos, m: pos >= math.floor(test_fraction * m + 1e-9))
    return _cut(corpus, fold_of, 0)


def stratified_kfold(
    corpus: Corpus, k: int, seed: int
) -> list[tuple[Corpus, tuple[LabelledInstance, ...]]]:
    """Seeded stratified k-fold: shuffled class members dealt round-robin, k at most the largest class."""
    if k < 2:
        raise SevpredictError(f"k-fold requires k >= 2, got {k}")
    if not corpus.labelled:
        raise SevpredictError("cannot split: labelled set is empty")
    largest = max(Counter(inst.label for inst in corpus.labelled).values())
    if k > largest:  # the deal leaves fold i empty iff i >= largest
        raise SevpredictError(f"folds={k} leaves fold {largest} with an empty test set; lower folds")
    fold_of = _deal(corpus, seed, lambda pos, m: pos % k)
    return [_cut(corpus, fold_of, fold) for fold in range(k)]


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
    labels = Counter(i.label for i in corpus.labelled)
    counts = {cls.value: labels[cls] for cls in SEVERITY_ORDER}
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
