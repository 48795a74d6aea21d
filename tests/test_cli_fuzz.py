"""Fuzzing the whole command line: any argv, config file and input file ends in the contract.

`sevpredict` exits 0 on success, 1 on a domain error and 2 on an I/O error;
on 1 or 2 it prints exactly one line to stderr (`validate` prints one per bad
row) and never a traceback. Every JSON file it writes is strict JSON, with no
NaN or Infinity. The draws mix
valid values with extreme ones (the smallest subnormal, the largest float,
integers past int64, NaN and infinities) in every flag and config key, and
small corpora and predictions files of valid and broken rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import tempfile
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from sevpredict.cli import SEED_ENV_VAR, SETTING_KEYS, main
from sevpredict.corpus import REQUIRED_COLUMNS
from sevpredict.metrics import PREDICTIONS_HEADER
from sevpredict.severity import CLASS_NAMES

EXTREME_NUMBERS = ["0", "-0", "1", "-1", "2", "5e-324", "-5e-324", "1e-300", "1e308", "1.7976931348623157e308",
                   "-1e308", "9223372036854775808", str(2**70), "-" + str(2**70), "nan", "inf", "-inf", "0.5", ""]
NUMBERS = st.sampled_from(EXTREME_NUMBERS) | st.integers(-3, 40).map(str) | st.floats(-2.0, 2.0).map(repr)
SEEDS = st.integers(0, 2**70)
WEIGHTS = (st.lists(st.floats(1e-3, 1.0), min_size=5, max_size=5, unique=True).map(sorted)
           | st.just([1e-300, 1e-200, 1e-100, 1, 1e308]))  # strictly increasing; the last overflows
DELTAS = st.floats(1e-3, 1e6) | st.just(5e-324)  # positive; the last overflows the service hours
# each numeric flag of run: a value in its range, huge ones included where it has no upper bound
RUN_FLAGS = {
    "--gamma": st.floats(0.0, 1.0), "--beta": st.floats(0.0, 1.0), "--delta": DELTAS, "--weights": WEIGHTS,
    "--k-neighbors": st.integers(1, 8) | st.just(2**70), "--test-fraction": st.floats(0.05, 0.95),
    "--folds": st.integers(2, 4), "--max-iterations": st.integers(1, 5) | st.just(2**70),
    "--max-depth": st.integers(0, 6) | st.just(2**70), "--d-threshold": st.floats(1e-3, 1.0),
    "--min-samples-split": st.integers(2, 5) | st.just(2**70),
}
# config-file settings of their own types, in range and a little past it
SETTINGS = {
    "folds": (st.integers(2, 4) | st.none(), st.integers(-1, 1)),
    "max_depth": (st.integers(0, 6) | st.none() | st.just(2**70), st.just(-1)),
    "gamma": (st.floats(0.0, 1.0), st.floats(1.0, 1.5, exclude_min=True)),
    "beta": (st.floats(0.0, 1.0), st.floats(-0.5, 0.0, exclude_max=True)),
    "k_neighbors": (st.integers(1, 8), st.just(0)),
    "test_fraction": (st.floats(0.05, 0.95), st.sampled_from([0.0, 1.0])),
    "min_samples_split": (st.integers(2, 5), st.integers(0, 1)),
    "d_threshold": (st.floats(1e-3, 1.0), st.just(0.0)),
    "max_iterations": (st.integers(1, 5), st.just(0)),
    "seed": (SEEDS, st.just(-1)),
    "bst_oversample": (st.booleans(), st.just(1)),
    "oversample_first": (st.booleans(), st.just("yes")),
    "delta": (DELTAS, st.just(0.0)),
    "weights": (WEIGHTS | WEIGHTS.map(lambda w: ",".join(map(repr, w))), WEIGHTS.map(lambda w: w[::-1])),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

CORPUS_HEADER = ",".join(REQUIRED_COLUMNS + ("m1", "m2"))
BAD_FIELDS = ["", "-1", "0", "1.5", "1e3", str(2**53 + 1), "nan", "inf", "1e999", "x", '"', "\u00e9"]
# a module of each class in severity order, an unlabelled one, and a clean one with a stray count
COUNT_ROWS = [tuple(map(st.just, row)) for row in [
    ("1", "0", "2", "0", "3"), ("0", "1", "0", "0", "1"), ("0", "0", "1", "1", "2"), ("0", "0", "0", "2", "2"),
    ("0", "0", "0", "0", "0"), ("0", "0", "0", "0", "4"), ("1", "0", "0", "0", "0"),
]]
SYNTH_SIZES = ("--high-severity", "--critical", "--major", "--non-trivial", "--clean", "--unlabelled")


def either(draw, strict: bool, good, bad):
    """A draw from good; unless strict, from bad one time in four."""
    return draw(good if strict else st.one_of(good, good, good, bad))


def as_flag(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, list) else str(value)


def flags(draw, strict: bool, strategies) -> list[str]:
    """A random subset of the flags, each with a value in its range or, unless strict, any number."""
    argv = []
    for name in draw(st.lists(st.sampled_from(sorted(strategies)), max_size=4, unique=True)):
        argv += [name, either(draw, strict, strategies[name].map(as_flag), NUMBERS)]
    return argv


def csv_text(draw, strict: bool, header: str, fields, rows: int) -> str:
    """A header and rows of the given field strategies; unless strict, one file in four has one bad
    field, and one in six a bad header."""
    table = [[draw(field) for field in fields(i)] for i in range(rows)]
    if table and either(draw, strict, st.just(False), st.just(True)):
        row = draw(st.sampled_from(table))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_FIELDS))
    header = either(draw, strict, st.just(header), st.sampled_from([header, "module_id,loc", ""]))
    return "\n".join([header, *map(",".join, table)]) + "\n"


def config_bytes(draw, strict: bool) -> bytes:
    """A JSON object of settings; unless strict, possibly of any JSON type, not an object, or not JSON."""
    keys = draw(st.lists(st.sampled_from(sorted(SETTINGS)), max_size=5, unique=True))
    document = {key: either(draw, strict, *SETTINGS[key]) for key in keys}
    untyped = st.dictionaries(st.sampled_from(sorted(SETTING_KEYS) + ["unknown"]), JSON_VALUES, max_size=4)
    document = either(draw, strict, st.just(document), untyped | untyped.map(lambda d: [d]) | st.none())
    return either(draw, strict, st.just(json.dumps(document).encode()), st.sampled_from([b"{", b"\xff{}"]))


@st.composite
def invocations(draw, root: pathlib.Path) -> tuple[list[str], str | None]:
    """(argv for one subcommand, the SEVPREDICT_SEED to set or None), its input files written under root.

    A strict draw keeps every value in its range, so that whole runs succeed often enough to matter.
    """
    strict = draw(st.booleans())
    (root / "blocker").write_text("")  # a file where a directory belongs: writing under it is an I/O error
    out = str(either(draw, strict, st.just(root / "out"), st.sampled_from([root / "blocker", root / "blocker/out"])))
    command = draw(st.sampled_from(["run", "metrics", "synth", "validate"]))
    # run and synth need a seed: from --seed, or else from the environment
    seed = either(draw, strict, SEEDS.map(lambda v: ["--seed", str(v)]) | st.just([]),
                  NUMBERS.map(lambda v: ["--seed", v]))
    env_seed = either(draw, strict, st.just("7"), st.sampled_from([None, "x"]))
    config = []
    if command in ("run", "metrics") and draw(st.booleans()):
        (root / "config.json").write_bytes(config_bytes(draw, strict))
        config = ["--config", str(root / "config.json")]
    if command == "synth":  # class and pool sizes stay far below synth's bounds
        sizes = {name: st.integers(0, 20) for name in SYNTH_SIZES}
        sizes |= {"--features": st.integers(1, 4), "--separation": st.floats(0.0, 10.0) | st.just(1.7e308)}
        target = either(draw, strict, st.just(root / "synth.csv"), st.just(root / "blocker/synth.csv"))
        return ["synth", "--out", str(target), *seed, *flags(draw, strict, sizes)], env_seed
    if command == "metrics":
        loc, cls = st.integers(1, 3000).map(str), st.sampled_from(CLASS_NAMES)
        fields = lambda i: [st.just(f"m{i}"), loc, cls, cls]
        text = csv_text(draw, strict, ",".join(PREDICTIONS_HEADER), fields, draw(st.integers(0, 40)))
        (root / "predictions.csv").write_text(text, encoding="utf-8")
        econ = {name: RUN_FLAGS[name] for name in ("--delta", "--weights")}
        return ["metrics", str(root / "predictions.csv"), *config, *flags(draw, strict, econ), "--out", out], None
    loc, feature = st.integers(1, 3000).map(str), st.floats(-10, 10).map(repr)
    fields = lambda i: [st.just(f"m{i}"), loc, *draw(st.sampled_from(COUNT_ROWS)), feature, feature]
    paths = []
    for i in range(draw(st.integers(1, 2)) if command == "run" else 1):
        rows = draw(st.integers(20, 40) if strict else st.integers(0, 40))  # 20 give a test split at 0.2
        paths.append(root / f"c{i}.csv")
        paths[-1].write_text(csv_text(draw, strict, CORPUS_HEADER, fields, rows), encoding="utf-8")
    paths[0] = either(draw, strict, st.just(paths[0]), st.just(root / "missing.csv"))
    if command == "validate":
        return ["validate", str(paths[0])], None
    switches = draw(st.lists(st.sampled_from(["--bst-raw", "--table", "--oversample-first", "--no-oversample-first"]),
                             unique=True))
    return ["run", *map(str, paths), *config, *seed, *flags(draw, strict, RUN_FLAGS), *switches, "--out", out], env_seed


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_command_line_ends_in_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        argv, env_seed = data.draw(invocations(root), label="argv, SEVPREDICT_SEED")
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.environ.pop(SEED_ENV_VAR, None)
            if env_seed is not None:
                os.environ[SEED_ENV_VAR] = env_seed
            code = main(argv)
        event(f"{argv[0]} exit {code}")
        lines = err.getvalue().splitlines(keepends=True)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code and argv[0] == "validate" and lines and lines[0].startswith("row "):  # one diagnostic per bad row
            assert code == 1 and all(line.startswith("row ") and line.endswith("\n") for line in lines)
        elif code:
            assert len(lines) == 1 and lines[0].endswith("\n")
            assert lines[0].startswith("schema error: " if lines[0].startswith("schema") else "error: ")
        for path in root.rglob("*.json"):
            if path.name != "config.json":
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
