"""Layer spans and counters, recorded from outside around sevpredict's functions.

`Tracer.installed()` replaces every reference to a traced function in every
loaded sevpredict module. pipeline, selftrain and cli import functions such
as `fit_tree` by name, so patching only the defining module would record
nothing; replacing each reference records a call whichever module looks it
up. Per-row routing calls (`predict_label`, `predict_confidence`) are folded
into call and time counters on the enclosing span, not one span each.

The wrappers' own bookkeeping (input fingerprints, tree walks) is charged to
no layer: it is added to the enclosing span's covered time, so it shows only
in the traced-minus-untraced overhead.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function, span name). Each layer's spans sit at its public entry points.
TRACED = (
    ("corpus", "load_corpus", "corpus.parse"),
    ("corpus", "stratified_split", "corpus.split"),
    ("corpus", "stratified_kfold", "corpus.split"),
    ("adasyn", "adasyn_balance", "adasyn"),
    ("cart", "fit_tree", "cart.fit"),
    ("selftrain", "self_train", "selftrain"),
    ("selftrain", "pseudo_label_risk", "selftrain.risk"),
    ("metrics", "full_report", "metrics"),
    ("pipeline", "run_experiment", "pipeline"),
    ("pipeline", "run_kfold", "pipeline"),
    ("pipeline", "average_reports", "pipeline"),
    ("pipeline", "write_comparison_tables", "pipeline"),
    ("pipeline", "report_to_json", "pipeline.serialize"),
)
ROUTED = (("cart", "predict_label"), ("cart", "predict_confidence"))


class Span:
    __slots__ = ("index", "name", "parent", "start", "end", "covered", "route_calls", "route_s")

    def __init__(self, index: int, name: str, parent: int, start: float):
        self.index = index  # position in Tracer.spans
        self.name = name
        self.parent = parent  # index of the enclosing span, -1 for the root
        self.start = start
        self.end = start
        self.covered = 0.0  # time inside child spans, routing calls and bookkeeping
        self.route_calls = 0
        self.route_s = 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _fingerprint(pool, *extra) -> str:
    """Digest of a labelled pool (features, labels) and the call's other arguments."""
    h = hashlib.sha1(array("d", [v for inst in pool for v in inst.features]).tobytes())
    h.update("|".join(inst.label.value for inst in pool).encode())
    for value in extra:
        h.update(repr(value).encode())
    return h.hexdigest()


class Tracer:
    """Spans and counters of one experiment; `reset()` starts the next one."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.calls: Counter[str] = Counter()  # traced function name -> calls
        self.counts: Counter[str] = Counter()
        self._inputs_seen: dict[str, set[str]] = {"adasyn": set(), "cart": set()}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else -1
        span = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].covered += span.end - span.start

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1].covered += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, span_name: str, before=None, after=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[fn.__name__] += 1
            note = None
            if before is not None:
                t0 = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                note = before(bound.arguments)
                self._charge(perf_counter() - t0)
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                t0 = perf_counter()
                after(result, note)
                self._charge(perf_counter() - t0)
            return result

        return traced

    def _wrap_route(self, fn):
        @functools.wraps(fn)
        def routed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            seconds = perf_counter() - t0
            parent = self._stack[-1]
            parent.route_calls += 1
            parent.route_s += seconds
            parent.covered += seconds
            return result

        return routed

    def _seen_before(self, layer: str, key: str) -> bool:
        seen = key in self._inputs_seen[layer]
        self._inputs_seen[layer].add(key)
        return seen

    # -- per-function counters ---------------------------------------------

    def _parsed(self, corpus, _note) -> None:
        self.counts["corpus.parse_rows"] += len(corpus)

    def _adasyn_in(self, a) -> int:
        pool = a["labelled"]
        self.counts["adasyn.duplicate_calls"] += self._seen_before("adasyn", _fingerprint(pool, a["config"]))
        return len(pool)

    def _adasyn_out(self, balanced, n_in: int) -> None:
        self.counts["adasyn.input_rows"] += n_in
        self.counts["adasyn.synthetic_rows"] += len(balanced) - n_in

    def _fit_in(self, a) -> None:
        train = a["train"]
        key = _fingerprint(train, a["config"], a["schema"])
        self.counts["cart.duplicate_fits"] += self._seen_before("cart", key)
        self.counts["cart.fit_rows"] += len(train)

    def _fit_out(self, tree, _note) -> None:
        from sevpredict.cart import Split

        nodes = depth = 0
        stack = [(tree.root, 0)]
        while stack:
            node, level = stack.pop()
            nodes += 1
            depth = max(depth, level)
            if isinstance(node, Split):
                stack += [(node.left, level + 1), (node.right, level + 1)]
        self.counts["cart.nodes"] += nodes
        self.counts["cart.max_depth"] = max(self.counts["cart.max_depth"], depth)

    def _selftrained(self, result, _note) -> None:
        records = result.trace.iterations
        self.counts["selftrain.iterations"] += len(records)
        self.counts["selftrain.accepted"] += sum(r.accepted for r in records)
        self.counts["selftrain.scored"] += sum(r.unlabelled_before for r in records)

    def _scored(self, a) -> None:
        self.counts["metrics.outcomes"] += len(a["outcomes"])

    def _serialized(self, text, _note) -> None:
        self.counts["pipeline.report_bytes"] += len(text.encode("utf-8"))

    def _hooks(self, fn_name: str) -> dict:
        return {
            "load_corpus": {"after": self._parsed},
            "adasyn_balance": {"before": self._adasyn_in, "after": self._adasyn_out},
            "fit_tree": {"before": self._fit_in, "after": self._fit_out},
            "self_train": {"after": self._selftrained},
            "full_report": {"before": self._scored},
            "report_to_json": {"after": self._serialized},
        }.get(fn_name, {})

    @contextlib.contextmanager
    def installed(self):
        """Patch every sevpredict module's reference to a traced function."""
        replacements = {}
        for module, name, span_name in TRACED:
            fn = getattr(sys.modules[f"sevpredict.{module}"], name)
            replacements[id(fn)] = (fn, self._wrap(fn, span_name, **self._hooks(name)))
        for module, name in ROUTED:
            fn = getattr(sys.modules[f"sevpredict.{module}"], name)
            replacements[id(fn)] = (fn, self._wrap_route(fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sevpredict" and not mod_name.startswith("sevpredict."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts of the experiment traced since reset()."""
        busy: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for span in self.spans:
            busy[span.name] += span.end - span.start
            own[span.name] += span.end - span.start - span.covered
        c = self.counts
        return {
            "corpus.parse_s": busy["corpus.parse"],
            "corpus.parse_rows": c["corpus.parse_rows"],
            "corpus.split_s": busy["corpus.split"],
            "adasyn.busy_s": busy["adasyn"],
            "adasyn.calls": self.calls["adasyn_balance"],
            "adasyn.input_rows": c["adasyn.input_rows"],
            "adasyn.synthetic_rows": c["adasyn.synthetic_rows"],
            "adasyn.duplicate_calls": c["adasyn.duplicate_calls"],
            "cart.fit_s": busy["cart.fit"],
            "cart.fits": self.calls["fit_tree"],
            "cart.fit_rows": c["cart.fit_rows"],
            "cart.nodes": c["cart.nodes"],
            "cart.max_depth": c["cart.max_depth"],
            "cart.duplicate_fits": c["cart.duplicate_fits"],
            "cart.route_s": sum(span.route_s for span in self.spans),
            "cart.route_calls": sum(span.route_calls for span in self.spans),
            "selftrain.busy_s": busy["selftrain"],
            "selftrain.self_s": own["selftrain"],
            "selftrain.risk_s": busy["selftrain.risk"],
            "selftrain.iterations": c["selftrain.iterations"],
            "selftrain.accepted": c["selftrain.accepted"],
            "selftrain.scored": c["selftrain.scored"],
            "metrics.busy_s": busy["metrics"],
            "metrics.outcomes": c["metrics.outcomes"],
            "pipeline.self_s": own["pipeline"],
            "pipeline.serialize_s": busy["pipeline.serialize"],
            "pipeline.report_bytes": c["pipeline.report_bytes"],
            "cli.self_s": own["cli"],
        }
