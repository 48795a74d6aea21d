from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpredict import (
    SEVERITY_ORDER,
    Corpus,
    RowError,
    SchemaError,
    SevpredictError,
    class_summary,
    derive_label,
    load_corpus,
    parse_corpus,
    save_corpus,
    stratified_kfold,
    stratified_split,
    synth_corpus,
    write_corpus_csv,
)
from sevpredict.corpus import audit_csv

from conftest import CL, CR, HS, MA, NT, make_labelled, make_unlabelled

HEADER = "module_id,loc,n_high_severity,n_critical,n_major,n_non_trivial,n_total_defects,wmc,rfc"


# ---------------------------------------------------------------------------
# labelling rule


def test_derive_label_unlabelled_when_total_positive_but_categories_empty():
    assert derive_label((0, 0, 0, 0), 3) is None


def test_derive_label_clean_when_no_defects():
    assert derive_label((0, 0, 0, 0), 0) is CL


def test_derive_label_most_severe_nonzero_category():
    assert derive_label((0, 1, 2, 0), 3) is CR
    assert derive_label((1, 0, 0, 1), 2) is HS
    assert derive_label((0, 0, 0, 4), 4) is NT


def test_derive_label_total_zero_wins_over_stray_counts():
    # the total is authoritative for the zero test
    assert derive_label((1, 0, 0, 0), 0) is CL


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
    assert [i.module_id for i in corpus.unlabelled] == ["c"]
    assert corpus.labelled[0].features == (1.0, 2.0)
    assert corpus.labelled[0].provenance == "original"
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
    assert parse_corpus(csv_stream(f"a,{2**53},0,0,0,0,0,1.0,2.0")).labelled[0].loc == 2**53


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
    assert [i.loc for i in loaded.unlabelled] == [i.loc for i in original.unlabelled]


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
    from conftest import make_unlabelled

    unl = tuple(make_unlabelled([float(1000 + j), 0.0], module_id=f"u{j}") for j in range(n_unlabelled))
    return Corpus(("f0", "f1"), tuple(labelled), unl)


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
    corpus = Corpus(("f0", "f1"), (), ())
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


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), float("-inf")])
def test_synth_corpus_rejects_non_finite_separation(separation):
    with pytest.raises(SevpredictError, match="separation must be a finite number >= 0"):
        synth_corpus({CL: 5, MA: 5}, 2, separation, seed=1)


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
        (make_labelled([1], CL, module_id="m00000"), make_labelled([2], MA), make_labelled([3], CL)),
        (make_unlabelled([4], module_id="m00002"), make_unlabelled([5])),
    )
    out = io.StringIO()
    write_corpus_csv(corpus, out)
    again = parse_corpus(io.StringIO(out.getvalue()))
    assert [i.module_id for i in again.labelled] == ["m00000", "m00001", "m00003"]
    assert [i.module_id for i in again.unlabelled] == ["m00002", "m00004"]
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
    return replace(corpus, labelled=train), test


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
        folds.append((replace(corpus, labelled=train), test))
    return folds


def _split_outcome(split, *args):
    """The split's result, or the message of the SevpredictError raised instead."""
    try:
        return split(*args)
    except SevpredictError as err:
        return str(err)


@st.composite
def split_corpora(draw) -> Corpus:
    """0-5 classes of 0-12 members each, interleaved in a drawn order, and 0-3 unlabelled modules."""
    sizes = draw(st.lists(st.integers(0, 12), min_size=5, max_size=5))
    labels = draw(st.permutations([cls for cls, m in zip(SEVERITY_ORDER, sizes) for _ in range(m)]))
    labelled = tuple(make_labelled([float(i)], cls, module_id=f"m{i}") for i, cls in enumerate(labels))
    unlabelled = tuple(make_unlabelled([-1.0], module_id=f"u{j}") for j in range(draw(st.integers(0, 3))))
    return Corpus(("f0",), labelled, unlabelled)


# fractions whose floor(f * m + 1e-9) sits exactly on an integer for some m,
# such as 0.2 with m = 5 and 1/3 with m = 3, plus out-of-range ones
EDGE_FRACTIONS = (0.2, 1 / 3, 0.25, 0.5, 2 / 3, 0.6, 0.7, 0.1, 0.0, 1.0, -0.5, 1.5)


@settings(max_examples=400, deadline=None)
@given(
    split_corpora(),
    st.one_of(st.sampled_from(EDGE_FRACTIONS), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
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
