"""Fuzzing the CSV readers: any text ends in a result or a domain error.

The CLI maps a SevpredictError to exit 1 and an OSError to exit 2; any
other exception would reach the user as a traceback. The inputs are drawn
from the characters that CSV parsing and number parsing treat specially,
after a valid header or none at all.
"""

from __future__ import annotations

import csv
import io
import pathlib
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sevpredict.corpus as corpus_module
from sevpredict import SevpredictError, load_corpus, parse_corpus, parse_predictions, synth_corpus, write_corpus_csv
from sevpredict import Corpus, LabelledInstance, LabelledPool, RowError, UnlabelledPool
from sevpredict.corpus import (
    REQUIRED_COLUMNS,
    _parse_feature,
    _parse_int,
    _parse_loc,
    _read_columns,
    _read_header,
    audit_csv,
    csv_records,
    fill_module_ids,
    read_csv_file,
)
from sevpredict.metrics import PREDICTIONS_HEADER
from sevpredict.severity import CLASS_INDEX, CLASS_NAMES, DEFECTIVE_CLASSES, SEVERITY_ORDER, SeverityClass

from conftest import UnlabelledRow, pool_of, unlabelled_rows

# "_", "+", "\t", "\x1c" and "\u0665" (an Arabic-Indic five) are read differently by numpy's C reader
FIELD_PIECES = ['"', "\x00", " ", *"0123456789", "e", "-", ".", "inf", "nan", *CLASS_NAMES,
                "_", "+", "\t", "\x1c", "\u0665"]
PIECES = [",", "\r", "\n", "\r\n", *FIELD_PIECES]
FIELDS = st.lists(st.sampled_from(FIELD_PIECES), max_size=3).map("".join)

# reader -> (its header, the field count of its rows)
READERS = {
    parse_corpus: (",".join(REQUIRED_COLUMNS + ("m1", "m2")) + "\n", len(REQUIRED_COLUMNS) + 2),
    audit_csv: (",".join(REQUIRED_COLUMNS + ("m1",)) + "\r\n", len(REQUIRED_COLUMNS) + 1),
    parse_predictions: (",".join(PREDICTIONS_HEADER) + "\n", len(PREDICTIONS_HEADER)),
}


def bodies(width: int):
    """Free text, or rows of `width` fields, so that number parsing is reached often."""
    rows = st.lists(st.lists(FIELDS, min_size=width, max_size=width).map(",".join), min_size=1, max_size=3)
    return st.lists(st.sampled_from(PIECES), max_size=80).map("".join) | rows.map("\n".join)


@pytest.mark.parametrize("parse", list(READERS), ids=lambda parse: parse.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reader_ends_in_a_result_or_a_domain_error(parse, data):
    header, width = READERS[parse]
    text = data.draw(st.sampled_from(["", header])) + data.draw(bodies(width))
    try:
        parse(io.StringIO(text, newline=""))
    except (SevpredictError, OSError):
        pass


@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(st.integers(0, 6), min_size=5, max_size=5).filter(any),
    n_features=st.integers(1, 4),
    separation=st.sampled_from([0.0, 1.0, 1e-300, 1e300]) | st.floats(0.0, 1e6),
    n_unlabelled=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_written_corpus_parses_back_bit_for_bit(counts, n_features, separation, n_unlabelled, seed):
    corpus = synth_corpus(dict(zip(SEVERITY_ORDER, counts)), n_features, separation, n_unlabelled, seed)
    stream = io.StringIO(newline="")
    write_corpus_csv(corpus, stream)
    stream.seek(0)
    parsed = parse_corpus(stream)

    def fields(instances):
        return [(i.module_id, i.loc, getattr(i, "label", None), tuple(map(float.hex, i.features))) for i in instances]

    assert parsed.schema == corpus.schema
    assert fields(parsed.labelled) == fields(corpus.labelled)
    assert fields(unlabelled_rows(parsed.unlabelled)) == fields(unlabelled_rows(corpus.unlabelled))


def _reference_write(corpus, stream):
    """write_corpus_csv as it was, every row through csv.writer, kept as its reference."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS + corpus.schema)
    labelled, pool, clean = corpus.labelled, corpus.unlabelled, CLASS_INDEX[SeverityClass.CLEAN]
    rows = zip(fill_module_ids(labelled.module_ids + pool.module_ids), labelled.loc.tolist() + pool.loc.tolist(),
               labelled.labels.tolist() + [None] * len(pool), labelled.features.tolist() + pool.features.tolist())
    counts_of = {k: [int(j == k) for j in range(4)] + [int(k != clean)] for k in [*range(len(SEVERITY_ORDER)), None]}
    for module_id, loc, k, features in rows:
        writer.writerow([module_id, loc, *counts_of[k], *map(repr, features)])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_features=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_the_writer_matches_csv_writer_byte_for_byte(data, n_features, seed):
    # names and IDs free of a comma, a quote, CR and LF go out as they are; the rest go through csv.writer
    pieces = [c for c in PIECES if c not in (",", '"', "\r", "\n", "\r\n")] if data.draw(st.booleans()) else PIECES
    names = st.lists(st.sampled_from(pieces), max_size=3).map("".join)
    corpus = synth_corpus(dict(zip(SEVERITY_ORDER, (2, 1, 1, 1, 3))), n_features, 1.0, 2, seed)
    lab, unl = corpus.labelled, corpus.unlabelled
    ids = data.draw(st.lists(names | st.none(), min_size=len(corpus), max_size=len(corpus)))
    schema = tuple(data.draw(st.lists(names, min_size=n_features, max_size=n_features)))
    corpus = Corpus(schema, LabelledPool(lab.features, lab.labels, lab.loc, tuple(ids[: len(lab)])),
                    UnlabelledPool(unl.features, unl.loc, tuple(ids[len(lab):])))
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    write_corpus_csv(corpus, got)
    _reference_write(corpus, want)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# the corpus readers against their reference: the row scan as it was before
# parse_corpus and audit_csv shared one read loop, kept as the oracle for
# every corpus and every diagnostic


def _reference_label(defect_counts, total_defects):
    """The labelling rule, frozen: None for a module that stays unlabelled."""
    nonzero = [c for c, n in zip(DEFECTIVE_CLASSES, defect_counts) if n > 0]
    if total_defects > 0 and not nonzero:
        return None
    if total_defects == 0:
        return SeverityClass.CLEAN
    return nonzero[0]


def _reference_scan_rows(source):
    records = csv_records(source)
    schema = _read_header(records)
    width = len(REQUIRED_COLUMNS) + len(schema)
    first_line: dict[str, int] = {}

    def rows():
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
                loc = _parse_loc(fields[1], line)
                counts = tuple(
                    _parse_int(fields[2 + k], line, REQUIRED_COLUMNS[2 + k], minimum=0) for k in range(4)
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
                yield RowError(line, f"duplicate module_id {module_id!r} (first on row {first_line[module_id]})")
                continue
            first_line[module_id] = line
            label = _reference_label(counts, total)
            if label is None:
                yield UnlabelledRow(feats, loc, module_id)
            else:
                yield LabelledInstance(feats, loc, label, module_id)

    return schema, rows()


def _reference_assemble(schema, instances) -> Corpus:
    labelled = LabelledPool.from_rows((i for i in instances if isinstance(i, LabelledInstance)), len(schema))
    unlabelled = [i for i in instances if isinstance(i, UnlabelledRow)]
    return Corpus(schema, labelled, pool_of(unlabelled, len(schema)))


def _reference_parse_corpus(source) -> Corpus:
    schema, rows = _reference_scan_rows(source)
    instances = []
    for item in rows:
        if isinstance(item, RowError):
            raise item
        instances.append(item)
    return _reference_assemble(schema, instances)


def _reference_audit_csv(source):
    schema, rows = _reference_scan_rows(source)
    instances, diagnostics = [], []
    for item in rows:
        if isinstance(item, RowError):
            diagnostics.append(str(item))
        else:
            instances.append(item)
    return _reference_assemble(schema, instances), diagnostics


def _read_outcome(read, text: str):
    """The reader's result on text, or the type and message of the SevpredictError it raised."""
    try:
        return read(io.StringIO(text, newline=""))
    except SevpredictError as err:
        return type(err), str(err)


METRICS = ("wmc", "rfc")
HUGE_FIELD = "9" * 140_000  # past csv.field_size_limit(): csv.Error, a RowError that ends the read
GOOD_VALUES = {
    "module_id": ["a", "b", " a ", "c"],  # " a " strips to a repeat of "a"
    "loc": ["1", "10", " 250 ", str(2**53)],
    # clean, unlabelled, labelled, and a stray count under a zero total (clean)
    "counts": ["0,0,0,0,0", "0,0,0,0,3", "0,1,2,0,3", "1,0,0,0,0"],
    "feature": ["0", "1.5", "-2e3", " 7 ", "1e-300"],
}


@st.composite
def module_rows(draw, width: int):
    """One data row: a valid module (module IDs repeat), a blank line, a wrong width,
    fields from the fuzz pieces, or a field too large for csv."""
    kind = draw(st.sampled_from(["valid"] * 6 + ["blank", "width", "fuzz", "bad_field", "huge"]))
    if kind == "blank":
        return ""
    if kind == "huge":
        return ",".join(["h", "10", "0", "0", "0", "0", "0"] + [HUGE_FIELD] * (width - 7))
    if kind == "fuzz":
        return ",".join(draw(st.lists(FIELDS, min_size=width, max_size=width)))
    if kind == "width":
        n = draw(st.integers(1, width + 2).filter(lambda n: n != width))
        return ",".join(draw(st.lists(FIELDS, min_size=n, max_size=n)))
    columns = ["module_id", "loc", "counts"] + ["feature"] * (width - 7)
    fields = ",".join(draw(st.sampled_from(GOOD_VALUES[c])) for c in columns).split(",")
    if kind == "bad_field":
        fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(["", "x", "-1", "0", "nan", "inf", "1.5"]))
    return ",".join(fields)


@st.composite
def corpus_texts(draw):
    """CSV text: a valid header or none, then structured rows or free text."""
    metrics = METRICS[: draw(st.integers(1, 2))]
    width = len(REQUIRED_COLUMNS) + len(metrics)
    header = draw(st.sampled_from([""] + [",".join(REQUIRED_COLUMNS + metrics) + "\n"] * 4))
    rows = st.lists(module_rows(width), max_size=8).map(lambda rows: "".join(row + "\n" for row in rows))
    body = draw(st.one_of(rows, rows, bodies(width)))
    return header + body


@settings(max_examples=200, deadline=None)
@given(corpus_texts())
def test_readers_match_the_reference(text):
    parsed = _read_outcome(parse_corpus, text)
    assert parsed == _read_outcome(_reference_parse_corpus, text)
    audited = _read_outcome(audit_csv, text)
    assert audited == _read_outcome(_reference_audit_csv, text)
    if isinstance(audited[0], Corpus):
        # strict parsing stops at exactly the first row the audit reports
        corpus, diagnostics = audited
        assert parsed == ((RowError, diagnostics[0]) if diagnostics else corpus)


@pytest.mark.parametrize(
    "row",
    [
        "a,10,0,0,0,0,0,1e308,1e308",  # finite features whose sum overflows
        "a,10,0,0,0,0,0,1e999,1",  # a feature that overflows to inf
        "a,10,0,0,0,0,0,inf,-inf",  # a sum that is nan
        "a,1_0,0,0,0,1_1,1,1_5,-0.0",  # underscores, which int() and float() take
        "a,\u0661\u0660,0,0,\u0663,0,3,\u0662,1",  # non-ASCII digits, likewise
        "a,\u2003 10\u3000,0,0,0,0,0,\u00a01.5,2\t",  # non-ASCII whitespace
        f"a,{2**53 + 1},0,0,0,0,0,1,2",
        "a,0,0,0,0,0,0,1,2",
        "a,10,0,0,-1,0,0,1,2",
        "a,10,0,0,0,0,-1,1,2",
        "a,10,0,0,0,0,0,1,2.5.1",
        "a,10.0,0,0,0,0,0,1,2",
    ],
)
def test_whole_row_parse_matches_the_field_parsers(row):
    # parse_corpus reads a row with int() and float() at once and re-reads a
    # row that fails field by field; both must agree with the field parsers
    text = ",".join(REQUIRED_COLUMNS + METRICS) + "\n" + row + "\nb,5,0,0,0,0,0,3,4\n"
    assert _read_outcome(parse_corpus, text) == _read_outcome(_reference_parse_corpus, text)
    assert _read_outcome(audit_csv, text) == _read_outcome(_reference_audit_csv, text)


def _number_text(draw, value) -> str:
    """value written as a CSV field may hold it: repr, %g, %e or an integer, padded or signed."""
    form = draw(st.sampled_from(["{!r}", "{:g}", "{:.17e}", " {!r}", "{!r}\t", "+{!r}"]))
    if isinstance(value, int):
        form = draw(st.sampled_from(["{}", " {}", "{} ", "+{}", "0{}"]))
    return form.format(value)


@st.composite
def readable_texts(draw):
    """CSV text the C reader can read: unique IDs and numbers in the forms a file may hold,
    CRLF or LF lines, blank lines, and at times one field from the fuzz pieces."""
    metrics = METRICS[: draw(st.integers(1, 2))]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(REQUIRED_COLUMNS + metrics)]
    for j in range(draw(st.integers(0, 8))):
        fields = [draw(st.sampled_from([f"m{j}", f" m{j} "])),
                  _number_text(draw, draw(st.integers(1, 2**53)))]
        fields += [_number_text(draw, draw(st.integers(0, 3))) for _ in range(5)]
        fields += [_number_text(draw, draw(st.floats(allow_nan=False, allow_infinity=False)))
                   for _ in metrics]
        if draw(st.integers(0, 9)) == 0:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELDS)
        lines += [""] * draw(st.integers(0, 1)) + [",".join(fields)]
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=300, deadline=None)
@given(corpus_texts() | readable_texts(), st.sampled_from([1, 2, 3, 4096]))
def test_load_corpus_matches_the_row_reader(text, chunk):
    # load_corpus on a file gives the row reader's corpus or error; and wherever the
    # C reader itself returns a corpus (chunks of 1-3 lines cut the body), it is that corpus
    row_corpus = _read_outcome(parse_corpus, text)
    with mock.patch.object(corpus_module, "CHUNK_LINES", chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "c.csv")
            path.write_bytes(text.encode("utf-8"))
            try:
                loaded = load_corpus(path)
            except SevpredictError as err:
                loaded = type(err), str(err)
            assert loaded == _read_outcome(lambda fh: read_csv_file(path, parse_corpus), text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                columns = _read_columns(io.StringIO(text, newline=""))
            except Exception:  # load_corpus re-reads such a text with the row reader
                return
    assert columns == row_corpus
