"""Module-level defect corpus: CSV ingest, labelling, splits, synthetic data.

The input format is one row per software module: an id, its size in LoC,
four per-severity defect counts, the total defect count, and then one or
more static code metric columns that become the feature vector.
"""

from __future__ import annotations

import bisect
import codecs
import csv
import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import RowError, SchemaError, SevpredictError
from .severity import CLASS_INDEX, SEVERITY_ORDER, SeverityClass

REQUIRED_COLUMNS: tuple[str, ...] = (
    "module_id",
    "loc",
    "n_high_severity",
    "n_critical",
    "n_major",
    "n_non_trivial",
    "n_total_defects",
)


@dataclass(frozen=True)
class LabelledInstance:
    features: tuple[float, ...]
    loc: int
    label: SeverityClass
    module_id: str | None = None


MAX_LOC = 2**53  # the largest integer a float64 holds exactly; LoC sums are divided as floats
_BOUNDS = {"labels": (0, len(SEVERITY_ORDER) - 1, "[0, 5)"), "loc": (1, MAX_LOC, "[1, 2**53]")}


def _outside(pos: int, name: str, value) -> SevpredictError:
    return SevpredictError(f"position {pos}: {name} holds {value}, outside {_BOUNDS[name][2]}")


class _Pool:
    """Modules by position, one entry per module in each field: equal when every field is, arrays by value.

    Built, a pool checks its invariant, each breach one line naming the field: an (n, p) finite float64
    feature matrix; per module one int64 LoC in [1, 2**53], one ID (a str or None) and, if labelled, one
    int64 class index in [0, 5)."""

    def __post_init__(self):
        X, ids = self.features, self.module_ids
        if not (isinstance(X, np.ndarray) and X.dtype == np.float64 and X.ndim == 2):
            raise SevpredictError("features must be a 2-D float64 array")
        for name in [name for name in _BOUNDS if name in vars(self)]:  # labels, in a labelled pool, then loc
            value, (low, high, _) = vars(self)[name], _BOUNDS[name]
            if not (isinstance(value, np.ndarray) and value.dtype == np.int64 and value.shape == (len(X),)):
                raise SevpredictError(f"{name} must be an int64 array of one value per module ({len(X)})")
            if bad := np.flatnonzero((value < low) | (value > high)).tolist():
                raise _outside(bad[0], name, value[bad[0]])
        if not (isinstance(ids, tuple) and len(ids) == len(X)):
            raise SevpredictError(f"module_ids must be a tuple of one ID per module ({len(X)})")
        if not {*map(type, ids)} <= {str, type(None)}:
            pos = [type(i) in (str, type(None)) for i in ids].index(False)
            raise SevpredictError(f"position {pos}: module_ids holds {ids[pos]!r}, not a str or None")
        if not np.isfinite(X).all():
            raise SevpredictError(f"position {np.flatnonzero(~np.isfinite(X).all(axis=1))[0]}: features are not finite")

    def __len__(self) -> int:
        return len(self.loc)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __hash__(self) -> int:  # not over the features: -0.0 == 0.0, but their bytes differ
        return hash((self.module_ids, tuple(self.loc.tolist())))


@dataclass(frozen=True, eq=False)
class UnlabelledPool(_Pool):
    """The unlabelled modules by position: an (n, p) float feature matrix, int64 LoC and IDs."""

    features: np.ndarray
    loc: np.ndarray
    module_ids: tuple[str | None, ...]


@dataclass(frozen=True, eq=False)
class LabelledPool(_Pool):
    """The labelled modules by position: an (n, p) float feature matrix, int64 class indices in
    severity order, int64 LoC and IDs (None for a synthetic module). Iterated, it yields
    LabelledInstance rows, each built when read; a slice, mask or index array gives a sub-pool.
    """

    features: np.ndarray
    labels: np.ndarray
    loc: np.ndarray
    module_ids: tuple[str | None, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[LabelledInstance], width: int | None = None) -> LabelledPool:
        """The rows as a pool, each of width features (by default the first row's, and 0 for no rows);
        a label that is not a SeverityClass, or a LoC that is not an integer, raises naming its position from 0."""
        rows = tuple(rows)
        for pos, inst in enumerate(rows):
            if not isinstance(inst.label, SeverityClass):
                raise SevpredictError(f"position {pos}: label {inst.label!r} is not a SeverityClass")
            if isinstance(inst.loc, bool) or not isinstance(inst.loc, (int, np.integer)):  # a bool is no line count
                raise SevpredictError(f"position {pos}: loc {inst.loc!r} is not an integer")
            if not -2**63 <= inst.loc < 2**63:  # no int64 array holds it; past int64 is past the pool's bound too
                raise _outside(pos, "loc", inst.loc)
        X = feature_matrix([inst.features for inst in rows], width if width is not None else
                           len(rows[0].features) if rows else 0)
        return cls(X, np.array([CLASS_INDEX[inst.label] for inst in rows], np.int64),
                   np.array([inst.loc for inst in rows], np.int64), tuple(inst.module_id for inst in rows))

    def __getitem__(self, key) -> LabelledPool:
        ids = tuple(np.array(self.module_ids, dtype=object)[key].tolist())
        return LabelledPool(self.features[key], self.labels[key], self.loc[key], ids)

    def __iter__(self) -> Iterator[LabelledInstance]:
        return map(LabelledInstance, map(tuple, self.features.tolist()), self.loc.tolist(),
                   map(SEVERITY_ORDER.__getitem__, self.labels.tolist()), self.module_ids)


@dataclass(frozen=True)
class Corpus:
    """Parsed dataset: feature schema plus labelled and unlabelled pools."""

    schema: tuple[str, ...]
    labelled: LabelledPool
    unlabelled: UnlabelledPool

    def __post_init__(self):
        if not isinstance(self.schema, tuple) or not all(isinstance(name, str) for name in self.schema):
            raise SevpredictError("schema must be a tuple of feature names, each a str")
        for name, kind in (("labelled", LabelledPool), ("unlabelled", UnlabelledPool)):
            pool, p = getattr(self, name), len(self.schema)
            if type(pool) is not kind or pool.features.shape[1] != p:
                raise SevpredictError(f"{name} must be a {kind.__name__} of {p} features, one per schema name")

    @property
    def total_loc(self) -> int:  # exact: an int64 sum would wrap past 2**63
        return sum(self.labelled.loc.tolist()) + sum(self.unlabelled.loc.tolist())

    def __len__(self) -> int:
        return len(self.labelled) + len(self.unlabelled)


def feature_matrix(rows: Sequence[Sequence[float]], width: int) -> np.ndarray:
    """The rows as an (n, width) float array, read in one pass over their values; a matrix of that width as it is.

    The one width check: the first row of another length raises, and so does a flat row.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] == width:
        return rows.astype(float, copy=False)
    try:
        widths = set(map(len, rows))
    except TypeError:  # a value where a row should be
        raise SevpredictError(f"expected a sequence of rows, each of {width} values") from None
    if widths - {width}:
        found = next(len(row) for row in rows if len(row) != width)
        raise SevpredictError(f"feature vector has {found} values, expected {width}")
    return np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width).reshape(len(rows), width)


def _class_index(nonzero: np.ndarray) -> np.ndarray:
    """Each module's class index, or -1 where it stays unlabelled, from an (n, 5) mask of its
    nonzero counts: the four per-severity counts in DEFECTIVE_CLASSES order, then the total.

    A module with no defects at all is clean. A module whose defects are on record only in the
    total, with every per-severity count zero, carries no usable label. Otherwise the label is
    the most severe category with a nonzero count.
    """
    first = np.where(nonzero[:, :4].any(axis=1), nonzero[:, :4].argmax(axis=1), -1)
    return np.where(nonzero[:, 4], first, SEVERITY_ORDER.index(SeverityClass.CLEAN))


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
    if loc > MAX_LOC:
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


def _read_header(records) -> tuple[str, ...]:
    header = csv_header(records)
    for pos, name in enumerate(REQUIRED_COLUMNS):
        found = header[pos] if pos < len(header) else None
        if found != name:
            raise SchemaError(f"missing column {name!r} (position {pos + 1} holds {found!r})")
    metrics = tuple(header[len(REQUIRED_COLUMNS):])
    if not metrics:
        raise SchemaError("no metric columns found after 'n_total_defects'")
    return metrics


def _read_rows(source: Iterable[str], bad_row) -> Corpus:
    """Read the header, then each record once; each bad row goes to bad_row(RowError).

    A row repeating an earlier valid row's module_id is a bad row too. A
    SchemaError, or a record csv cannot parse, ends the read.
    """
    records = csv_records(source)
    schema = _read_header(records)
    width = len(REQUIRED_COLUMNS) + len(schema)
    first_line: dict[str, int] = {}  # module_id -> file line of its first valid row
    rows = []
    for line, fields in records:
        if not fields:
            continue
        try:
            if len(fields) != width:
                raise RowError(line, f"expected {width} fields, found {len(fields)}")
            module_id = fields[0].strip()
            if not module_id:
                raise RowError(line, "column 'module_id' must be non-empty")
            try:  # the whole row at once; int() and float() strip whitespace as the field parsers do
                loc, *counts = map(int, fields[1:7])
                feats = tuple(map(float, fields[7:]))
                parsed = 0 < loc <= MAX_LOC and min(counts) >= 0 and math.isfinite(sum(feats))
            except ValueError:
                parsed = False
            if not parsed:  # field by field, so the row's first bad field is the one named
                loc = _parse_loc(fields[1], line)
                counts = [_parse_int(fields[k], line, REQUIRED_COLUMNS[k], minimum=0) for k in range(2, 7)]
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
        rows.append((loc, *(n > 0 for n in counts), *feats))
    table = np.array(rows, float).reshape(-1, 6 + len(schema))  # a LoC of at most MAX_LOC is exact as a float
    return _from_columns(schema, list(first_line), table[:, 0].astype(np.int64), _class_index(table[:, 1:6] > 0),
                         table[:, 6:])


def _from_columns(schema: tuple[str, ...], ids: list[str], loc: np.ndarray, k: np.ndarray, X: np.ndarray) -> Corpus:
    """The corpus of columns in file order: IDs, LoC, class indices (-1 where unlabelled) and (n, p) features."""
    labelled, (U, _, u_loc, u_ids) = [(X[keep], k[keep], loc[keep], tuple(itertools.compress(ids, keep.tolist())))
                                      for keep in (k >= 0, k < 0)]
    return Corpus(schema, LabelledPool(*labelled), UnlabelledPool(U, u_loc, u_ids))


CHUNK_LINES = 1024  # lines per np.loadtxt call: bounds the text held at once


def _read_columns(fh) -> Corpus:
    """The header as the row reader reads it, then the body by np.loadtxt in chunks of CHUNK_LINES
    lines; raises wherever the row reader might read the text otherwise, or reject it."""
    schema = _read_header(csv_records(fh))
    dtype = np.dtype([("id", object)] + [(f"n{j}", np.int64) for j in range(6)]
                     + [(f"x{j}", np.float64) for j in range(len(schema))])
    seen: set[str] = set()
    chunks = [([], np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, len(schema))))]  # for an empty body
    while lines := list(itertools.islice(fh, CHUNK_LINES)):
        cols = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
        ids = [module_id.strip() for module_id in cols["id"].tolist()]
        n, X = (np.column_stack([cols[name] for name in names]) for names in (dtype.names[1:7], dtype.names[7:]))
        before, text = len(seen), "".join(lines)
        seen.update(ids)
        # csv reads quotes as quoting and (before Python 3.11) rejects NUL, where loadtxt reads
        # both as text; and loadtxt takes a non-ASCII character in an integer for a digit
        if not (text.isascii() and '"' not in text and "\0" not in text
                and max(map(len, lines)) <= csv.field_size_limit() and all(ids) and len(seen) == before + len(ids)
                and (n >= 0).all()):  # a LoC or feature the pools reject raises when they are built
            raise ValueError("left to the row reader")
        chunks.append((ids, n[:, 0], _class_index(n[:, 1:] > 0), X))
    ids, *columns = zip(*chunks)
    return _from_columns(schema, list(itertools.chain.from_iterable(ids)), *map(np.concatenate, columns))


def _raise(err: RowError):
    raise err


def parse_corpus(source: Iterable[str]) -> Corpus:
    """Parse the module CSV into a Corpus, raising on the first bad row."""
    return _read_rows(source, _raise)


def audit_csv(source: Iterable[str]) -> tuple[Corpus, list[str]]:
    """Parse leniently: collect a diagnostic per bad row, keep the good ones.

    SchemaError still propagates, since without a valid header no row can be
    interpreted at all.
    """
    diagnostics: list[str] = []
    corpus = _read_rows(source, lambda err: diagnostics.append(str(err)))
    return corpus, diagnostics


def read_csv_file(path, parse):
    """parse(open file) for the CSV at path; undecodable bytes raise a SevpredictError naming it."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as err:  # its position counts from the decoder's chunk, not the file
            raise SevpredictError(f"{path}: not valid {err.encoding} text ({err.reason})") from None


SCAN_BYTES = 1 << 16  # bytes per read of the scan that picks a file's reader


def _plain_bytes(path) -> bool:
    """Whether the file at path, past one leading UTF-8 byte-order mark, is ASCII without a quote or NUL."""
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        return all(block.isascii() and b'"' not in block and b"\0" not in block
                   for block in iter(lambda: fh.read(SCAN_BYTES), b""))


def load_corpus(path) -> Corpus:
    """The corpus in the CSV at path, by numpy's C reader, or by parse_corpus where they may differ:
    on any quote, NUL or non-ASCII byte in the file, header included, and wherever the C reader raises or warns."""
    try:
        if _plain_bytes(path):
            with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy < 2 reads "10.0" as an int, with only a warning
                return _read_columns(fh)
    except Exception:  # read again by the row reader, whose messages name the fault
        pass
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
    with identical labels. Unless a name or ID holds a comma, a quote, CR or
    LF, which csv.writer would quote, every field goes out as it is, and the
    file in one write.
    """
    header = REQUIRED_COLUMNS + corpus.schema
    labelled, pool, clean = corpus.labelled, corpus.unlabelled, CLASS_INDEX[SeverityClass.CLEAN]
    ids = fill_module_ids(labelled.module_ids + pool.module_ids)
    # the four per-severity counts, then the total, by class index; None for an unlabelled module
    counts_of = {k: [str(int(j == k)) for j in range(4)] + [str(int(k != clean))]
                 for k in [*range(len(SEVERITY_ORDER)), None]}
    columns = zip(ids, labelled.loc.tolist() + pool.loc.tolist(), labelled.labels.tolist() + [None] * len(pool),
                  labelled.features.tolist() + pool.features.tolist())
    rows = itertools.chain([header], ([module_id, str(loc), *counts_of[k], *map(repr, features)]
                                      for module_id, loc, k, features in columns))
    names = "".join((*header, *ids))
    if any(c in names for c in ',"\r\n'):
        csv.writer(stream, lineterminator="\n").writerows(rows)
    else:
        stream.write("".join(f"{','.join(row)}\n" for row in rows))


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_corpus_csv(corpus, fh)


# ---------------------------------------------------------------------------
# Splits


def _deal(corpus: Corpus, seed: int, fold_at) -> np.ndarray:
    """Each labelled module's fold: every class, in severity order, is shuffled by one
    seeded permutation, and its members at positions pos of m go to folds fold_at(pos, m)."""
    labels = corpus.labelled.labels
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(len(labels), dtype=np.int64)
    for k in range(len(SEVERITY_ORDER)):
        members = np.flatnonzero(labels == k)
        if m := len(members):
            fold_of[members[rng.permutation(m)]] = fold_at(np.arange(m), m)
    return fold_of


def _cut(corpus: Corpus, fold_of: np.ndarray, fold: int) -> tuple[Corpus, LabelledPool]:
    """(corpus labelled with the other folds, the fold's modules)."""
    return replace(corpus, labelled=corpus.labelled[fold_of != fold]), corpus.labelled[fold_of == fold]


def stratified_split(
    corpus: Corpus, test_fraction: float, seed: int
) -> tuple[Corpus, LabelledPool]:
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
) -> list[tuple[Corpus, LabelledPool]]:
    """Seeded stratified k-fold: shuffled class members dealt round-robin, k at most the largest class."""
    if k < 2:
        raise SevpredictError(f"k-fold requires k >= 2, got {k}")
    if not corpus.labelled:
        raise SevpredictError("cannot split: labelled set is empty")
    largest = int(np.bincount(corpus.labelled.labels).max())
    if k > largest:  # the deal leaves fold i empty iff i >= largest
        raise SevpredictError(f"folds={k} leaves fold {largest} with an empty test set; lower folds")
    fold_of = _deal(corpus, seed, lambda pos, m: pos % k)
    return [_cut(corpus, fold_of, fold) for fold in range(k)]


# ---------------------------------------------------------------------------
# Synthetic corpora

MAX_SYNTH_CELLS = 10_000_000  # modules x features: 80 MB of float64 noise before any row is built


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
    from .cart import MAX_TRAIN_ROWS  # here, not at the top: cart imports this module
    n_modules = sum(counts.values()) + n_unlabelled
    if n_modules > MAX_TRAIN_ROWS or n_modules * n_features > MAX_SYNTH_CELLS:
        raise SevpredictError(f"{n_modules} modules x {n_features} features is too large: at most "
                              f"{MAX_TRAIN_ROWS} modules and {MAX_SYNTH_CELLS} feature values")

    # The bytes fix the draw order: centres, then per module its cluster if unlabelled, noise and LoC.
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(len(SEVERITY_ORDER), n_features))  # before scaling by separation
    clusters = [k for k, cls in enumerate(SEVERITY_ORDER) for _ in range(counts[cls])]
    n_labelled = len(clusters)
    present = [k for k, cls in enumerate(SEVERITY_ORDER) if counts[cls] > 0]
    probs = np.array([counts[SEVERITY_ORDER[k]] for k in present], dtype=float)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf = (cdf / cdf[-1]).tolist()  # as rng.choice(p=probs) builds it, so one random() picks alike
    noise = np.empty((n_labelled + n_unlabelled, n_features))
    locs = []
    for i in range(len(noise)):
        if i >= n_labelled:
            clusters.append(present[bisect.bisect_right(cdf, rng.random())])
        noise[i] = rng.normal(size=n_features)
        locs.append(int(rng.integers(20, 2001)))
    with np.errstate(over="ignore"):
        features = centres[clusters] * separation + noise
    if not np.isfinite(features).all():
        raise SevpredictError(f"separation {separation} overflows the float range of the features")
    k = np.array(clusters, np.int64)
    k[n_labelled:] = -1
    schema = tuple(f"metric_{j + 1}" for j in range(n_features))
    return _from_columns(schema, [f"synth_{i:05d}" for i in range(len(locs))], np.array(locs, np.int64), k, features)


def class_summary(corpus: Corpus) -> dict:
    """Bookkeeping block: per-class counts and percentages over all modules."""
    n = len(corpus)
    per_class = np.bincount(corpus.labelled.labels, minlength=len(SEVERITY_ORDER)).tolist()
    counts = {cls.value: c for cls, c in zip(SEVERITY_ORDER, per_class)}
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
