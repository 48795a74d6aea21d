"""Fuzzing the CSV readers: any text ends in a result or a domain error.

The CLI maps a SevpredictError to exit 1 and an OSError to exit 2; any
other exception would reach the user as a traceback. The inputs are drawn
from the characters that CSV parsing and number parsing treat specially,
after a valid header or none at all.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpredict import SevpredictError, parse_corpus, parse_predictions, synth_corpus, write_corpus_csv
from sevpredict.corpus import REQUIRED_COLUMNS, audit_csv
from sevpredict.metrics import PREDICTIONS_HEADER
from sevpredict.severity import CLASS_NAMES, SEVERITY_ORDER

FIELD_PIECES = ['"', "\x00", " ", *"0123456789", "e", "-", ".", "inf", "nan", *CLASS_NAMES]
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
    assert fields(parsed.unlabelled) == fields(corpus.unlabelled)
