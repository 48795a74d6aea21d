from __future__ import annotations

import io
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevpredict import (
    SEVERITY_ORDER,
    Corpus,
    LabelledInstance,
    LabelledPool,
    PipelineConfig,
    RowError,
    SchemaError,
    SevpredictError,
    UnlabelledPool,
    class_summary,
    load_corpus,
    parse_corpus,
    report_to_json,
    run_experiment,
    save_corpus,
    stratified_kfold,
    stratified_split,
    synth_corpus,
    write_corpus_csv,
)
import sevpredict.corpus as corpus_module
from sevpredict.corpus import audit_csv, read_csv_file

from conftest import CL, CR, HS, MA, NT, UnlabelledRow, make_labelled, make_pool, pool_of, unlabelled_rows

HEADER = "module_id,loc,n_high_severity,n_critical,n_major,n_non_trivial,n_total_defects,wmc,rfc"


# ---------------------------------------------------------------------------
# labelling rule


@pytest.mark.parametrize("counts, total, label", [
    ((0, 0, 0, 0), 3, None),  # defects on record only in the total: unlabelled
    ((0, 0, 0, 0), 0, CL),  # no defects at all
    ((0, 1, 2, 0), 3, CR),  # otherwise the most severe nonzero category
    ((1, 0, 0, 1), 2, HS),
    ((0, 0, 0, 4), 4, NT),
    ((1, 0, 0, 0), 0, CL),  # the total is authoritative for the zero test
], ids=["total-only-unlabelled", "no-defects-clean", "most-severe-critical", "most-severe-high-severity",
        "most-severe-non-trivial", "total-zero-wins"])
def test_labelling_rule(counts, total, label):
    corpus = parse_corpus(io.StringIO(f"{HEADER}\nm1,10,{','.join(map(str, counts))},{total},1.0,2.0\n"))
    assert [inst.label for inst in corpus.labelled] == ([] if label is None else [label])
    assert len(corpus.unlabelled) == (label is None)


# ---------------------------------------------------------------------------
# parsing


def csv_stream(*rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


def test_parse_corpus_routes_rows():
    corpus = parse_corpus(
        csv_stream(
            "a,10,1,0,0,0,1,1.0,2.0",
            "b,20,0,0,0,0,0,3.0,4.0",
            "c,30,0,0,0,0,2,5.0,6.0",
        )
    )
    assert corpus.schema == ("wmc", "rfc")
    assert [i.label for i in corpus.labelled] == [HS, CL]
    assert corpus.unlabelled.module_ids == ("c",)
    assert corpus.labelled.features.tolist()[0] == [1.0, 2.0]
    assert [i.module_id for i in corpus.labelled] == ["a", "b"]
    assert len(corpus) == 3 and corpus.total_loc == 60


def test_parse_corpus_missing_column_names_it():
    bad = io.StringIO("module_id,n_high_severity\na,1\n")
    with pytest.raises(SchemaError, match="loc"):
        parse_corpus(bad)


def test_parse_corpus_requires_metric_columns():
    bad = io.StringIO(HEADER.rsplit(",wmc,rfc", 1)[0] + "\n")
    with pytest.raises(SchemaError, match="metric"):
        parse_corpus(bad)


def test_parse_corpus_empty_input():
    with pytest.raises(SchemaError, match="header"):
        parse_corpus(io.StringIO(""))


def test_parse_corpus_drops_one_leading_byte_order_mark():
    rows = ["a,10,1,0,0,0,1,1.0,2.0", "b,20,0,0,0,0,0,3.0,4.0"]
    plain = csv_stream(*rows).getvalue()
    assert parse_corpus(io.StringIO("\ufeff" + plain)) == parse_corpus(io.StringIO(plain))


@pytest.mark.parametrize(
    "text, error, message",
    [
        # a second mark, or one on a later column, is part of the name
        ("\ufeff\ufeff" + HEADER, SchemaError,
         "missing column 'module_id' (position 1 holds '\\ufeffmodule_id')"),
        (HEADER.replace(",loc,", ",\ufeffloc,"), SchemaError,
         "missing column 'loc' (position 2 holds '\\ufeffloc')"),
        (HEADER + "\na,\ufeff10,0,0,0,0,0,1.0,2.0", RowError, "row 2: column 'loc' must be an integer"),
        # a blank first line is a header without fields
        ("\n" + HEADER, SchemaError, "missing column 'module_id' (position 1 holds None)"),
    ],
)
def test_parse_corpus_keeps_other_byte_order_marks_and_blank_headers_as_errors(text, error, message):
    with pytest.raises(error) as exc:
        parse_corpus(io.StringIO(text + "\n"))
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("a,-5,0,0,0,0,0,1.0,2.0", "loc"),
        ("a,0,0,0,0,0,0,1.0,2.0", "loc"),
        ("a,ten,0,0,0,0,0,1.0,2.0", "loc"),
        (f"a,{2**53 + 1},0,0,0,0,0,1.0,2.0", r"^row 2: column 'loc' must be <= 2\*\*53"),
        ("a,10,-1,0,0,0,1,1.0,2.0", "n_high_severity"),
        ("a,10,0,0,0,0,-2,1.0,2.0", "n_total_defects"),
        ("a,10,0,0,0,0,0,nan,2.0", "wmc"),
        ("a,10,0,0,0,0,0,inf,2.0", "wmc"),
        ("a,10,0,0,0,0,0,x,2.0", "wmc"),
        ("a,10,0,0,0,0,0,1.0", "fields"),
    ],
)
def test_parse_corpus_row_errors(row, fragment):
    with pytest.raises(RowError, match=fragment):
        parse_corpus(csv_stream(row))


def test_parse_corpus_accepts_loc_up_to_2_to_the_53():
    assert parse_corpus(csv_stream(f"a,{2**53},0,0,0,0,0,1.0,2.0")).labelled.loc.tolist() == [2**53]


def test_parse_corpus_rejects_duplicate_module_ids():
    with pytest.raises(RowError, match=r"row 3: duplicate module_id 'a' \(first on row 2\)"):
        parse_corpus(csv_stream("a,10,0,0,0,0,0,1.0,2.0", "a,20,0,0,0,0,0,3.0,4.0"))


def test_parse_corpus_row_error_carries_line_number():
    with pytest.raises(RowError, match="row 3"):
        parse_corpus(csv_stream("a,10,0,0,0,0,0,1.0,2.0", "b,-1,0,0,0,0,0,1.0,2.0"))


def test_audit_csv_collects_diagnostics_and_keeps_good_rows():
    corpus, diagnostics = audit_csv(
        csv_stream(
            "a,10,0,0,0,0,0,1.0,2.0",
            "b,-1,0,0,0,0,0,1.0,2.0",
            "c,30,0,1,0,0,1,1.0,2.0",
            "a,40,0,0,0,0,0,1.0,2.0",
        )
    )
    assert len(diagnostics) == 2
    assert diagnostics[1] == "row 5: duplicate module_id 'a' (first on row 2)"
    assert len(corpus.labelled) == 2
    assert {i.module_id for i in corpus.labelled} == {"a", "c"}


def test_mini_fixture_bookkeeping(mini_fixture_path):
    corpus = load_corpus(mini_fixture_path)
    summary = class_summary(corpus)
    assert summary["modules"] == 18
    assert summary["class_counts"] == {
        "high_severity": 2, "critical": 3, "major": 3, "non_trivial": 3, "clean": 5,
    }
    assert summary["unlabelled"] == 2
    total_pct = sum(summary["class_percentages"].values()) + summary["unlabelled_percentage"]
    assert total_pct == pytest.approx(100.0, abs=0.01)


def test_corpus_round_trip(tmp_path):
    original = synth_corpus({CL: 12, MA: 5, HS: 2}, 3, 2.5, n_unlabelled=4, seed=5)
    path = tmp_path / "c.csv"
    save_corpus(original, path)
    loaded = load_corpus(path)
    assert loaded.schema == original.schema
    assert [i.label for i in loaded.labelled] == [i.label for i in original.labelled]
    assert [i.features for i in loaded.labelled] == [i.features for i in original.labelled]
    assert loaded.unlabelled.loc.tolist() == original.unlabelled.loc.tolist()


# ---------------------------------------------------------------------------
# load_corpus: numpy's C reader, with the row reader behind it


def _outcome(read, path):
    """read(path), or the type and message of the SevpredictError it raised."""
    try:
        return read(path)
    except SevpredictError as err:
        return type(err), str(err)


def _row_reader(path):
    return read_csv_file(path, parse_corpus)


ROW = "a,10,0,0,0,0,0,1.5,2"
# "\u30e41" is a katakana letter before a 1: numpy's integer parser reads it as 124681
ODD_VALUES = ["1_000", "\u0665", "9223372036854775808", "0x1p3", "inf", "1e400", "1\x00", "", "\u30e41", "1\x1c"]
EDGE_BODIES = {
    **{f"loc {v!r}": f"a,{v},0,0,0,0,0,1.5,2\n" for v in ODD_VALUES},
    **{f"count {v!r}": f"a,10,0,{v},0,0,1,1.5,2\n" for v in ODD_VALUES},
    **{f"feature {v!r}": f"a,10,0,0,0,0,0,{v},2\n" for v in ODD_VALUES},
    "spaced ids": " a ,10,0,0,0,0,0,1.5,2\n\tb\t,20,0,0,0,0,1,3,4\n",
    "a quote inside an id": 'a"b,10,0,0,0,0,0,1.5,2\n',
    "a quoted id": '"a",10,0,0,0,0,0,1.5,2\n',
    "an id past csv's field size limit": "a" * 140_000 + ",10,0,0,0,0,0,1.5,2\n",
    "a quoted id holding a comma": '"a,b",10,0,0,0,0,0,1.5,2\n',
    "a quoted id over two lines": f'{ROW}\n"b\nc",10,0,0,0,0,0,1.5,2\nd,10,0,0,0,0,0,1.5,2\n',
    "a quoted feature over two lines": 'a,10,0,0,0,0,0,1.5,"2\n"\nb,10,0,0,0,0,2,1.5,2\n',
    "a quoted feature left open": 'a,10,0,0,0,0,0,1.5,"2\nb,20,0,0,0,0,1,3,4\n',
    "a NUL inside an id": "a\x00b,10,0,0,0,0,0,1.5,2\n",
    "blank lines": f"\n{ROW}\n\n\r\nb,20,0,0,0,0,1,3,4\n\n",
    "a whitespace-only line": f"{ROW}\n  \nb,20,0,0,0,0,1,3,4\n",
    "CRLF": f"{ROW}\r\nb,20,0,0,0,0,1,3,4\r\n",
    "lone CR": f"{ROW}\rb,20,0,0,0,0,1,3,4\r",
    "header only": "",
    "no final newline": f"{ROW}\nb,20,0,0,0,0,1,3,4",
    "a duplicate id three rows on": f"{ROW}\nb,1,0,0,0,0,0,1,2\nc,1,0,0,0,0,0,1,2\n{ROW}\n",
    "a wrong width": "a,10,0,0,0,0,0,1.5\n",
    "loc 0": "a,0,0,0,0,0,0,1.5,2\n",
    "loc past 2**53": f"a,{2**53 + 1},0,0,0,0,0,1.5,2\n",
    "an empty id": ",10,0,0,0,0,0,1.5,2\n",
    "a negative count": "a,10,0,0,0,0,-1,1.5,2\n",
    "a non-ASCII id": "\u00e9,10,0,0,0,0,0,1.5,2\n",
}
EDGE_FILES = {
    **{name: f"{HEADER}\n{body}" for name, body in EDGE_BODIES.items()},
    # a scan that skipped the header would miss its lone CR, and read the next line's LoC as digits
    "a header ending in a lone CR": f"{HEADER}\r{ROW}\r",
    "a header ending in a lone CR, then loc '\u30e41'": f"{HEADER}\ra,\u30e41,0,0,0,0,0,1.5,2\n",
}


@pytest.mark.parametrize("chunk", [1, 2, 4096])
@pytest.mark.parametrize("text", list(EDGE_FILES.values()), ids=list(EDGE_FILES))
def test_load_corpus_agrees_with_the_row_reader(tmp_path, monkeypatch, text, chunk):
    # chunks of one and two lines cut the multi-line records and put the duplicate in a later chunk
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", chunk)
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_corpus, path) == _outcome(_row_reader, path)


@pytest.mark.parametrize("body", [
    f"{ROW}\n\u00e9,10,0,0,0,0,0,1.5,2\n",
    f'{ROW}\n"b",10,0,0,0,0,0,1.5,2\n',
    f"{ROW}\nb\x00,10,0,0,0,0,0,1.5,2\n",
], ids=["a non-ASCII id", "a quoted id", "a NUL"])
def test_load_corpus_sends_quotes_nuls_and_non_ascii_straight_to_the_row_reader(tmp_path, monkeypatch, body):
    path = tmp_path / "c.csv"
    path.write_bytes(f"{HEADER}\n{body}".encode("utf-8"))
    expected = _outcome(_row_reader, path)
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or loadtxt(*args, **kwargs))
    for block in (1, 7, 1 << 16):  # the byte is found wherever the scan's blocks cut the file
        monkeypatch.setattr(corpus_module, "SCAN_BYTES", block)
        assert _outcome(load_corpus, path) == expected
    assert calls == []


def test_equal_corpora_hash_equal(tmp_path):
    original = synth_corpus({CL: 12, MA: 5, HS: 2}, 3, 2.5, n_unlabelled=4, seed=5)
    path = tmp_path / "c.csv"
    save_corpus(original, path)
    loaded, parsed = load_corpus(path), parse_corpus(path.read_text(encoding="utf-8").splitlines(True))
    assert loaded == parsed
    assert hash(loaded) == hash(parsed)
    assert {loaded, parsed} == {loaded}


def test_load_corpus_reads_plain_files_without_the_row_reader(tmp_path, monkeypatch):
    path = tmp_path / "c.csv"
    original = synth_corpus({CL: 12, MA: 5, HS: 2}, 3, 2.5, n_unlabelled=9, seed=5)
    save_corpus(original, path)
    expected = _row_reader(path)

    def refuse(*args):
        raise AssertionError("fell back to the row reader")

    monkeypatch.setattr(corpus_module, "read_csv_file", refuse)
    for chunk in (1, 4, 4096):
        monkeypatch.setattr(corpus_module, "CHUNK_LINES", chunk)
        assert load_corpus(path) == expected == original
    marked = tmp_path / "marked.csv"  # one leading byte-order mark keeps a file plain
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_corpus(marked) == expected


def test_load_corpus_names_a_float_loc_as_the_row_reader_does(tmp_path, monkeypatch):
    # numpy before 2.0 read "10.0" into an integer column with a DeprecationWarning; the
    # reader turns warnings into errors, so such a file takes the row path either way
    path = tmp_path / "c.csv"
    path.write_text(HEADER + "\na,10.0,0,0,0,0,0,1.5,2\n", encoding="utf-8")
    message = "row 2: column 'loc' must be an integer (got '10.0')"
    with pytest.raises(RowError, match=f"^{re.escape(message)}$"):
        load_corpus(path)

    loadtxt = np.loadtxt

    def lenient_loadtxt(lines, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt([line.replace("10.0", "10") for line in lines], *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with warnings.catch_warnings(), pytest.raises(RowError, match=f"^{re.escape(message)}$"):
        warnings.simplefilter("ignore")  # as outside pytest, where a DeprecationWarning is not an error
        load_corpus(path)


def test_total_loc_stays_exact_past_2_to_the_63(tmp_path):
    # 1025 modules of 2**53 LoC: an int64 sum would wrap to a negative number
    big = 1025 * 2**53
    pool = make_pool([[float(j)] for j in range(1025)], locs=[2**53] * 1025,
                     module_ids=[f"u{j}" for j in range(1025)])
    labelled = tuple(make_labelled([float(j % 2)], (CL, MA)[j % 2], loc=1, module_id=f"m{j}") for j in range(20))
    direct = Corpus(("f0",), LabelledPool.from_rows(labelled), pool)
    save_corpus(direct, tmp_path / "c.csv")
    for corpus in (Corpus(("f0",), LabelledPool.from_rows((), width=1), pool), direct, load_corpus(tmp_path / "c.csv")):
        assert class_summary(corpus)["total_loc"] == big + 1 * len(corpus.labelled)
    report = json.loads(report_to_json(run_experiment(direct, PipelineConfig())))
    assert report["corpus"]["total_loc"] == big + 20


# ---------------------------------------------------------------------------
# splits


def grid_corpus(class_sizes: dict, n_unlabelled=0) -> Corpus:
    labelled = []
    i = 0
    for cls, size in class_sizes.items():
        for _ in range(size):
            labelled.append(make_labelled([float(i), float(i % 7)], cls, module_id=f"m{i}"))
            i += 1
    unlabelled = tuple(
        make_labelled([float(i + j), 0.0], CL, module_id=f"u{j}") for j in range(0)
    )
    del unlabelled
    unl = make_pool([[float(1000 + j), 0.0] for j in range(n_unlabelled)], width=2,
                    module_ids=[f"u{j}" for j in range(n_unlabelled)])
    return Corpus(("f0", "f1"), LabelledPool.from_rows(labelled), unl)


def test_stratified_split_exact_proportions():
    corpus = grid_corpus({CL: 100, MA: 10}, n_unlabelled=7)
    train, test = stratified_split(corpus, 0.2, seed=1)
    test_counts = Counter(i.label for i in test)
    assert test_counts == {CL: 20, MA: 2}
    assert len(train.labelled) == 88
    assert len(train.unlabelled) == 7  # unlabelled never leaves train
    assert set(i.module_id for i in train.labelled).isdisjoint(i.module_id for i in test)
    assert len(train.labelled) + len(test) == 110


def test_stratified_split_singleton_class_stays_in_train():
    corpus = grid_corpus({CL: 10, HS: 1})
    for seed in range(20):
        train, test = stratified_split(corpus, 0.2, seed=seed)
        assert sum(i.label is HS for i in train.labelled) == 1
        assert all(i.label is not HS for i in test)


def test_stratified_split_deterministic():
    corpus = grid_corpus({CL: 30, MA: 9, CR: 4})
    a = stratified_split(corpus, 0.25, seed=9)
    b = stratified_split(corpus, 0.25, seed=9)
    assert a == b
    c = stratified_split(corpus, 0.25, seed=10)
    assert c != a  # almost surely a different draw


def test_stratified_split_proportion_property():
    rng = np.random.default_rng(0)
    for _ in range(25):
        sizes = {cls: int(rng.integers(1, 40)) for cls in (CL, MA, CR, NT, HS)}
        fraction = float(rng.uniform(0.1, 0.9))
        corpus = grid_corpus(sizes)
        train, test = stratified_split(corpus, fraction, seed=int(rng.integers(1 << 30)))
        test_counts = Counter(i.label for i in test)
        for cls, size in sizes.items():
            assert abs(test_counts.get(cls, 0) - fraction * size) < 1.0


def test_stratified_split_rejects_bad_fraction():
    corpus = grid_corpus({CL: 4, MA: 4})
    for fraction in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(SevpredictError):
            stratified_split(corpus, fraction, seed=0)


def test_stratified_split_rejects_empty_labelled():
    corpus = Corpus(("f0", "f1"), LabelledPool.from_rows((), width=2), make_pool([], width=2))
    with pytest.raises(SevpredictError):
        stratified_split(corpus, 0.2, seed=0)


def test_stratified_kfold_partitions_each_class():
    corpus = grid_corpus({CL: 25, MA: 10, CR: 5}, n_unlabelled=3)
    folds = stratified_kfold(corpus, 5, seed=2)
    assert len(folds) == 5
    seen = Counter()
    for train, test in folds:
        assert len(train.labelled) + len(test) == 40
        assert len(train.unlabelled) == 3
        seen.update(i.module_id for i in test)
        counts = Counter(i.label for i in test)
        assert counts[CL] == 5 and counts[MA] == 2 and counts[CR] == 1
    assert len(seen) == 40 and all(v == 1 for v in seen.values())


def test_stratified_kfold_rejects_k_below_two():
    with pytest.raises(SevpredictError):
        stratified_kfold(grid_corpus({CL: 5}), 1, seed=0)


def test_stratified_kfold_with_more_folds_than_the_largest_class_fails_at_once(mini_fixture_path):
    # largest class 5: fold 5 is the first empty one, so no fold is cut however many are asked for
    corpus = load_corpus(mini_fixture_path)
    with pytest.raises(SevpredictError, match=r"^folds=1000000000000 leaves fold 5 with an empty test set; lower folds$"):
        stratified_kfold(corpus, 10**12, seed=1)


# ---------------------------------------------------------------------------
# synthetic corpora


def test_synth_corpus_counts_and_determinism():
    wanted = {CL: 15, MA: 6, CR: 0, HS: 2}
    a = synth_corpus(wanted, 4, 3.0, n_unlabelled=5, seed=42)
    b = synth_corpus(wanted, 4, 3.0, n_unlabelled=5, seed=42)
    assert a == b
    counts = Counter(i.label for i in a.labelled)
    assert counts == {CL: 15, MA: 6, HS: 2}
    assert len(a.unlabelled) == 5
    assert a.schema == ("metric_1", "metric_2", "metric_3", "metric_4")
    assert all(len(i.features) == 4 for i in a.labelled)
    assert all(i.loc >= 1 for i in a.labelled)
    different = synth_corpus(wanted, 4, 3.0, n_unlabelled=5, seed=43)
    assert different != a


def test_synth_corpus_zero_separation_allowed():
    corpus = synth_corpus({CL: 5, MA: 5}, 2, 0.0, seed=1)
    assert len(corpus.labelled) == 10


def test_synth_corpus_rejects_degenerate_specs():
    with pytest.raises(SevpredictError):
        synth_corpus({}, 3, 1.0, seed=0)
    with pytest.raises(SevpredictError):
        synth_corpus({CL: 0, MA: 0}, 3, 1.0, seed=0)
    with pytest.raises(SevpredictError):
        synth_corpus({CL: -1}, 3, 1.0, seed=0)
    with pytest.raises(SevpredictError):
        synth_corpus({CL: 5}, 0, 1.0, seed=0)
    with pytest.raises(SevpredictError):
        synth_corpus({CL: 5}, 3, -1.0, seed=0)
    with pytest.raises(SevpredictError, match="seed"):
        synth_corpus({CL: 5}, 3, 1.0, seed=-1)


@pytest.mark.parametrize("n_features, n_unlabelled", [(3, 2**63), (2**63, 0)])
def test_synth_corpus_rejects_sizes_past_its_bound_before_drawing(n_features, n_unlabelled):
    with pytest.raises(SevpredictError, match="too large: at most 3300000 modules and 10000000 feature values$"):
        synth_corpus({CL: 3}, n_features, 1.0, n_unlabelled, seed=1)


def test_synth_corpus_bound_counts_every_module_and_feature_value(monkeypatch):
    import sevpredict.cart as cart
    import sevpredict.corpus as corpus

    monkeypatch.setattr(cart, "MAX_TRAIN_ROWS", 5)
    monkeypatch.setattr(corpus, "MAX_SYNTH_CELLS", 10)
    assert len(synth_corpus({CL: 3, MA: 2}, 2, 1.0, seed=1)) == 5
    assert len(synth_corpus({CL: 3}, 2, 1.0, 2, seed=1)) == 5
    with pytest.raises(SevpredictError, match="^6 modules x 1 features is too large: at most 5 modules and 10 "):
        synth_corpus({CL: 3, MA: 2}, 1, 1.0, 1, seed=1)
    with pytest.raises(SevpredictError, match="^4 modules x 3 features is too large"):
        synth_corpus({CL: 3}, 3, 1.0, 1, seed=1)


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), float("-inf")])
def test_synth_corpus_rejects_non_finite_separation(separation):
    with pytest.raises(SevpredictError, match="separation must be a finite number >= 0"):
        synth_corpus({CL: 5, MA: 5}, 2, separation, seed=1)


def test_synth_corpus_rejects_a_separation_that_overflows_the_features():
    with pytest.raises(SevpredictError, match=r"^separation 1\.7e\+308 overflows the float range of the features$"):
        synth_corpus({CL: 5, MA: 5}, 5, 1.7e308, seed=1)


def test_synth_corpus_takes_a_separation_of_1e300():
    corpus = synth_corpus({CL: 5, MA: 5}, 5, 1e300, n_unlabelled=3, seed=1)
    feats = [f for inst in (*corpus.labelled, *unlabelled_rows(corpus.unlabelled)) for f in inst.features]
    assert all(math.isfinite(f) for f in feats) and max(map(abs, feats)) > 1e299


def _reference_synth(class_counts, n_features, separation, n_unlabelled=0, seed=0):
    """synth_corpus as first written: per-row draws through rng.choice and one closure."""
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

    def draw(cls):
        feats = centres[cls] + rng.normal(size=n_features)
        loc = int(rng.integers(20, 2001))
        return tuple(float(v) for v in feats), loc

    serial = 0
    labelled = []
    for cls in SEVERITY_ORDER:
        for _ in range(counts[cls]):
            feats, loc = draw(cls)
            labelled.append(LabelledInstance(feats, loc, cls, f"synth_{serial:05d}"))
            serial += 1
    present = [cls for cls in SEVERITY_ORDER if counts[cls] > 0]
    probs = np.array([counts[cls] for cls in present], dtype=float)
    probs /= probs.sum()
    unlabelled = []
    for _ in range(n_unlabelled):
        cls = present[int(rng.choice(len(present), p=probs))]
        feats, loc = draw(cls)
        unlabelled.append(UnlabelledRow(feats, loc, f"synth_{serial:05d}"))
        serial += 1
    schema = tuple(f"metric_{j + 1}" for j in range(n_features))
    return Corpus(schema, LabelledPool.from_rows(labelled), pool_of(unlabelled, n_features))


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 40), min_size=5, max_size=5).filter(any),
    n_features=st.integers(1, 12),
    separation=st.sampled_from([0.0, 1.0, 3.0, 1e150]),
    n_unlabelled=st.integers(0, 60),
    seed=st.integers(0, 2**64 - 1),
)
@example(sizes=[0, 0, 0, 0, 7], n_features=3, separation=1.0, n_unlabelled=20, seed=0)  # p = [1.0]
def test_synth_corpus_matches_the_reference(sizes, n_features, separation, n_unlabelled, seed):
    counts = dict(zip(SEVERITY_ORDER, sizes))
    got = synth_corpus(counts, n_features, separation, n_unlabelled, seed)
    want = _reference_synth(counts, n_features, separation, n_unlabelled, seed)
    assert got == want
    texts = []
    for corpus in (got, want):
        texts.append(io.StringIO())
        write_corpus_csv(corpus, texts[-1])
    assert texts[0].getvalue() == texts[1].getvalue()


def test_write_corpus_csv_is_seed_stable(tmp_path):
    corpus = synth_corpus({CL: 8, NT: 3}, 2, 2.0, n_unlabelled=2, seed=9)
    out = io.StringIO()
    write_corpus_csv(corpus, out)
    again = io.StringIO()
    write_corpus_csv(synth_corpus({CL: 8, NT: 3}, 2, 2.0, n_unlabelled=2, seed=9), again)
    assert out.getvalue() == again.getvalue()
    assert out.getvalue().splitlines()[0].startswith("module_id,loc,n_high_severity")


def test_write_corpus_csv_numbers_missing_ids_past_those_in_use():
    corpus = Corpus(
        ("f0",),
        LabelledPool.from_rows(
            (make_labelled([1], CL, module_id="m00000"), make_labelled([2], MA), make_labelled([3], CL))
        ),
        make_pool([[4], [5]], module_ids=["m00002", None]),
    )
    out = io.StringIO()
    write_corpus_csv(corpus, out)
    again = parse_corpus(io.StringIO(out.getvalue()))
    assert [i.module_id for i in again.labelled] == ["m00000", "m00001", "m00003"]
    assert again.unlabelled.module_ids == ("m00002", "m00004")
    assert [i.label for i in again.labelled] == [CL, MA, CL]


# ---------------------------------------------------------------------------
# splits against their reference: the per-class shuffles as each split wrote
# its own copy, before both became deals of one assignment


def _reference_members(corpus: Corpus) -> dict:
    members = {c: [] for c in SEVERITY_ORDER}
    for i, inst in enumerate(corpus.labelled):
        members[inst.label].append(i)
    return members


def _reference_split(corpus: Corpus, test_fraction: float, seed: int):
    if not corpus.labelled:
        raise SevpredictError("cannot split: labelled set is empty")
    if not 0.0 < test_fraction < 1.0:
        raise SevpredictError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    members_by_class = _reference_members(corpus)
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
    return replace(corpus, labelled=LabelledPool.from_rows(train, width=len(corpus.schema))), test


def _reference_kfold(corpus: Corpus, k: int, seed: int):
    if k < 2:
        raise SevpredictError(f"k-fold requires k >= 2, got {k}")
    if not corpus.labelled:
        raise SevpredictError("cannot split: labelled set is empty")
    rng = np.random.default_rng(seed)
    fold_of = [0] * len(corpus.labelled)
    members_by_class = _reference_members(corpus)
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
        folds.append((replace(corpus, labelled=LabelledPool.from_rows(train, width=len(corpus.schema))), test))
    return folds


def _split_outcome(split, *args):
    """The split's result with each test set as a tuple of rows, as the references give it,
    or the message of the SevpredictError raised instead."""
    try:
        result = split(*args)
    except SevpredictError as err:
        return str(err)
    if isinstance(result, tuple):
        return result[0], tuple(result[1])
    return [(train, tuple(test)) for train, test in result]


@st.composite
def split_corpora(draw) -> Corpus:
    """0-5 classes of 0-12 members each, interleaved in a drawn order, and 0-3 unlabelled modules."""
    sizes = draw(st.lists(st.integers(0, 12), min_size=5, max_size=5))
    labels = draw(st.permutations([cls for cls, m in zip(SEVERITY_ORDER, sizes) for _ in range(m)]))
    labelled = LabelledPool.from_rows((make_labelled([float(i)], cls, module_id=f"m{i}") for i, cls in enumerate(labels)),
                                      width=1)
    m = draw(st.integers(0, 3))
    return Corpus(("f0",), labelled, make_pool([[-1.0]] * m, width=1, module_ids=[f"u{j}" for j in range(m)]))


# fractions whose floor(f * m + 1e-9) sits exactly on an integer for some m,
# such as 0.2 with m = 5 and 1/3 with m = 3, plus out-of-range ones
EDGE_FRACTIONS = (0.2, 1 / 3, 0.25, 0.5, 2 / 3, 0.6, 0.7, 0.1, 0.0, 1.0, -0.5, 1.5)


@settings(max_examples=400, deadline=None)
@given(
    split_corpora(),
    st.one_of(st.sampled_from(EDGE_FRACTIONS), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
# every labelled module goes to test, so both train pools are empty but one feature wide
@example(Corpus(("f0",), LabelledPool.from_rows([make_labelled([0.0], CL, module_id="m0")]), make_pool([], width=1)),
         0.9999999999999999, 0)
def test_stratified_split_matches_the_reference(corpus, fraction, seed):
    got = _split_outcome(stratified_split, corpus, fraction, seed)
    assert got == _split_outcome(_reference_split, corpus, fraction, seed)


@settings(max_examples=400, deadline=None)
@given(split_corpora(), st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_stratified_kfold_matches_the_reference(corpus, k, seed):
    want = _split_outcome(_reference_kfold, corpus, k, seed)
    if isinstance(want, list) and not all(test for _, test in want):
        # the reference cuts every fold; one left empty, from the largest class's size on, now fails first
        largest = max(Counter(inst.label for inst in corpus.labelled).values())
        want = f"folds={k} leaves fold {largest} with an empty test set; lower folds"
    assert _split_outcome(stratified_kfold, corpus, k, seed) == want


# ---------------------------------------------------------------------------
# the pool invariant, checked where a pool is built

N_CONTRACT = 40  # modules in each hand-built pool


def _contract_fields(kind) -> dict:
    """Valid fields for a pool of kind, or a Corpus of two such pools, N_CONTRACT modules of 3 features each."""
    if kind is Corpus:
        return {"schema": ("a", "b", "c"), "labelled": LabelledPool(**_contract_fields(LabelledPool)),
                "unlabelled": UnlabelledPool(**_contract_fields(UnlabelledPool))}
    fields = {"features": np.arange(N_CONTRACT * 3, dtype=float).reshape(N_CONTRACT, 3),
              "labels": np.arange(N_CONTRACT, dtype=np.int64) % 5, "loc": np.full(N_CONTRACT, 100, np.int64),
              "module_ids": tuple(f"m{i}" for i in range(N_CONTRACT))}
    if kind is UnlabelledPool:
        del fields["labels"]
    return fields


def _put(array: np.ndarray, pos, value) -> np.ndarray:
    changed = array.copy()
    changed[pos] = value
    return changed


def _contract_case(case_id, kind, field, change, message):
    return pytest.param(kind, field, change, message, id=case_id)


@pytest.mark.parametrize("kind, field, change, message", [
    _contract_case("class index 9", LabelledPool, "labels", lambda k: _put(k, 7, 9),
                   r"position 7: labels holds 9, outside \[0, 5\)"),
    _contract_case("class index -1", LabelledPool, "labels", lambda k: _put(k, 0, -1),
                   r"position 0: labels holds -1, outside \[0, 5\)"),
    _contract_case("float class indices", LabelledPool, "labels", lambda k: k.astype(float),
                   r"labels must be an int64 array of one value per module \(40\)"),
    *[_contract_case(f"{kind.__name__} {case_id}", kind, field, change, message)
      for kind in (LabelledPool, UnlabelledPool) for case_id, field, change, message in [
          ("30 IDs", "module_ids", lambda ids: ids[:30], r"module_ids must be a tuple of one ID per module \(40\)"),
          ("1-D features", "features", lambda X: X[:, 0], "features must be a 2-D float64 array"),
          ("loc 0", "loc", lambda loc: _put(loc, 39, 0), r"position 39: loc holds 0, outside \[1, 2\*\*53\]"),
          ("loc 2**53 + 1", "loc", lambda loc: _put(loc, 3, 2**53 + 1),
           r"position 3: loc holds 9007199254740993, outside \[1, 2\*\*53\]"),
          ("nan feature", "features", lambda X: _put(X, (5, 2), np.nan), "position 5: features are not finite"),
          ("inf feature", "features", lambda X: _put(X, (6, 0), -np.inf), "position 6: features are not finite"),
      ]],
    _contract_case("schema one column narrower", Corpus, "schema", lambda schema: schema[:-1],
                   "labelled must be a LabelledPool of 2 features, one per schema name"),
    *[_contract_case(f"schema {case_id}", Corpus, "schema", change, "schema must be a tuple of feature names, each a str")
      for case_id, change in [("None", lambda schema: None), ("3", lambda schema: 3),
                              ("as a list", list), ("holding an int", lambda schema: schema[:-1] + (1,))]],
])
def test_a_pool_that_breaks_its_invariant_fails_in_one_line_naming_the_field(kind, field, change, message):
    fields = _contract_fields(kind)
    fields[field] = change(fields[field])
    with pytest.raises(SevpredictError, match=f"^{message}$"):
        kind(**fields)


@st.composite
def malformed_corpora(draw):
    """(schema, labelled fields, unlabelled fields): small valid pools with at most one field
    of one of them, or the schema, drawn wrong in dtype, shape, length, type or range."""
    n, m, p = draw(st.integers(0, 16)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = []
    for rows in (n, m):
        pools.append({"features": rng.integers(0, 3, size=(rows, p)).astype(float),
                      "labels": rng.integers(0, draw(st.integers(1, 5)), size=rows),
                      "loc": rng.integers(1, 2000, size=rows), "module_ids": tuple(f"m{i}" for i in range(rows))})
    del pools[1]["labels"]
    schema = tuple(f"f{j}" for j in range(p))
    target = draw(st.sampled_from([None, "schema", *pools[0], *pools[1]]))
    if target == "schema":
        schema = draw(st.sampled_from([schema[:-1], schema + ("extra",), None, p, list(schema), schema[:-1] + (1,)]))
    elif target is not None:
        fields = draw(st.sampled_from([f for f in pools if target in f]))
        value, rows = fields[target], len(fields["loc"])
        fields[target] = draw(st.sampled_from([
            list(value), value[:-1], value[None], value.astype(np.float32), value.astype(np.int32),
            value.astype(np.uint64), value.astype(object), None,
        ] if isinstance(value, np.ndarray) else [list(value), value[:-1], value + ("x",), (1,) * rows, (b"x",) * rows]))
        if target != "module_ids" and rows:
            bad = {"features": [np.nan, np.inf, -np.inf], "labels": [-1, 5, 2**40], "loc": [0, -5, 2**53 + 1]}
            if draw(st.booleans()):  # a value out of range, in place of a wrong type or shape
                fields[target] = _put(value, draw(st.integers(0, rows - 1)), draw(st.sampled_from(bad[target])))
    return schema, *pools


@settings(max_examples=300, deadline=None)
@given(malformed_corpora(), st.integers(0, 3))
def test_a_malformed_pool_raises_only_sevpredict_errors(case, seed):
    # past the pool constructors and Corpus, the run itself may still refuse a corpus, but only in one line
    schema, labelled, unlabelled = case
    try:
        corpus = Corpus(schema, LabelledPool(**labelled), UnlabelledPool(**unlabelled))
        run_experiment(corpus, PipelineConfig(seed=seed, test_fraction=0.5))
    except SevpredictError as err:
        assert "\n" not in str(err)
