"""In-memory spans around polyak's public functions, and the per-layer metrics
derived from them.

Spans are recorded from outside the package: `Tracer.install` swaps the
functions that `polyak.invariant` and `polyak.classify` bound at import for
traced wrappers, and `Tracer.wrap` traces the calls the benchmark makes
itself.  Nothing under `src/` changes.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

# Root span names the benchmark opens around each set-up repetition and each
# measured operation; every other span nests under one of them.
SETUP = "bench.setup"
OP = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs_snf(args, kwargs, result):
    A = args[0]
    return {"rows": A.rows, "cols": A.cols, "nnz_in": A.nnz,
            "nontrivial": len(result.moduli)}


def _attrs_presentation(args, kwargs, result):
    return {"degree": result.degree, "relations": len(result.relations),
            "raw_matches": sum(result.raw_counts)}


def _attrs_search(args, kwargs, result):
    return {"nodes": result.nodes_explored, "connected": int(result.connected)}


def _attrs_evaluate(args, kwargs, result):
    return {"rank": args[1].rank, "degree": args[0].degree}


def _attrs_classify(args, kwargs, result):
    return {"classes": len(result.classes), "unresolved": len(result.unresolved)}


ANNOTATE = {
    "smith.snf_sparse_mod2k": _attrs_snf,
    "presentation.build_presentation": _attrs_presentation,
    "homotopy.search": _attrs_search,
    "invariant.evaluate": _attrs_evaluate,
    "classify.classify": _attrs_classify,
}

# (module whose global binding is replaced, attribute, span name)
BINDINGS = (
    ("polyak.invariant", "build_presentation", "presentation.build_presentation"),
    ("polyak.invariant", "snf_sparse_mod2k", "smith.snf_sparse_mod2k"),
    ("polyak.invariant", "verify_cokernel_map", "smith.verify_cokernel_map"),
    ("polyak.classify", "search", "homotopy.search"),
    ("polyak.classify", "reduce_with_trace", "homotopy.reduce_with_trace"),
    ("polyak.classify", "evaluate", "invariant.evaluate"),
    ("polyak.classify", "enumerate_canonical", "words.enumerate_canonical"),
)


class Tracer:
    """Collects spans: name, start, end, parent span and counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def current(self) -> Span:
        return self.spans[self._stack[-1]]

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    def _mark_endgame(self, fn):
        # The SNF reports its dense endgame through the public progress
        # callback; timestamp that line and pass every line on.
        def call(*args, progress=None, **kwargs):
            def mark(msg: str) -> None:
                if "endgame" in msg:
                    self.current().attrs.setdefault("endgame_at", perf_counter())
                if progress is not None:
                    progress(msg)

            return fn(*args, progress=mark, **kwargs)

        return call

    def install(self) -> None:
        """Trace the functions polyak's own modules call across layers."""
        for module_name, attr, span_name in BINDINGS:
            # `import polyak.classify` would yield the re-exported function.
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            inner = self._mark_endgame(fn) if span_name == "smith.snf_sparse_mod2k" else fn
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(span_name, inner))
        presentation_cls = importlib.import_module("polyak.presentation").Presentation
        matrix = presentation_cls.matrix
        self._restore.append((presentation_cls, "matrix", matrix))
        presentation_cls.matrix = self.wrap("presentation.matrix", matrix)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        edge = s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, edge), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.duration - covered)
    return out


def scanned_words(degree: int) -> int:
    """Canonical words the relation scan visits: sum of (2r-1)!! for r <= n+1."""
    total, df = 0, 1
    for r in range(1, degree + 2):
        df *= 2 * r - 1
        total += df
    return total


def evaluate_subsets(rank: int, degree: int) -> int:
    """Letter subsets `evaluate` canonicalizes for one word."""
    return sum(comb(rank, k) for k in range(2, min(degree, rank) + 1))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics, each per run of the unit that contains the layer.

    A layer's spans are summed over the measured operations and divided by
    their number; a layer that runs only in set-up (the table build of
    `classify6` and `eval`) is summed over the set-up repetitions instead.
    A layer that does not run in the workload reads 0.  The benchmark fills
    in `bench.traced_op_p50_s` itself.
    """
    selfs = self_times(spans)
    root = []
    for s in spans:
        root.append(s.name if s.parent < 0 else root[s.parent])
    units = {OP: sum(s.name == OP for s in spans),
             SETUP: sum(s.name == SETUP for s in spans)}

    def picked(name):
        """(indices of the layer's spans, units they are spread over)."""
        for phase in (OP, SETUP):
            idx = [i for i, s in enumerate(spans) if s.name == name and root[i] == phase]
            if idx:
                return idx, units[phase]
        return [], 1

    def total(name, key=None):
        idx, n = picked(name)
        if key is None:
            return sum(spans[i].duration for i in idx) / n
        if key == "self":
            return sum(selfs[i] for i in idx) / n
        if key == "count":
            return len(idx) / n
        return sum(spans[i].attrs.get(key, 0) for i in idx) / n

    m: dict[str, float] = {}
    snf_idx, snf_n = picked("smith.snf_sparse_mod2k")
    pre = end = 0.0
    for i in snf_idx:
        s = spans[i]
        mark = s.attrs.get("endgame_at", s.end)
        pre += mark - s.start
        end += s.end - mark
    m["smith.snf_s"] = total("smith.snf_sparse_mod2k")
    m["smith.pre_endgame_s"] = pre / snf_n
    m["smith.endgame_s"] = end / snf_n
    m["smith.verify_s"] = total("smith.verify_cokernel_map")
    for key in ("rows", "cols", "nnz_in", "nontrivial"):
        m[f"smith.{key}"] = total("smith.snf_sparse_mod2k", key)

    build_idx, _ = picked("presentation.build_presentation")
    m["presentation.build_s"] = total("presentation.build_presentation")
    m["presentation.matrix_s"] = total("presentation.matrix")
    m["presentation.relations"] = total("presentation.build_presentation", "relations")
    m["presentation.raw_matches"] = total("presentation.build_presentation", "raw_matches")
    m["presentation.scan_words_per_s"] = _ratio(
        sum(scanned_words(spans[i].attrs["degree"]) for i in build_idx),
        sum(spans[i].duration for i in build_idx),
    )

    m["homotopy.reduce_s"] = total("homotopy.reduce_with_trace")
    m["homotopy.search_s"] = total("homotopy.search")
    m["homotopy.searches"] = total("homotopy.search", "count")
    m["homotopy.connected"] = total("homotopy.search", "connected")
    m["homotopy.connect_ratio"] = _ratio(m["homotopy.connected"], m["homotopy.searches"])
    m["homotopy.nodes"] = total("homotopy.search", "nodes")
    m["homotopy.nodes_per_s"] = _ratio(m["homotopy.nodes"], m["homotopy.search_s"])

    m["invariant.extract_s"] = total("invariant.build_table", "self")
    m["invariant.save_s"] = total("invariant.save_table")
    m["invariant.load_s"] = total("invariant.load_table")
    eval_idx, _ = picked("invariant.evaluate")
    m["invariant.evaluate_s"] = total("invariant.evaluate")
    m["invariant.evaluate_calls"] = total("invariant.evaluate", "count")
    m["invariant.subsets_per_s"] = _ratio(
        sum(evaluate_subsets(spans[i].attrs["rank"], spans[i].attrs["degree"])
            for i in eval_idx),
        sum(spans[i].duration for i in eval_idx),
    )
    for label, small in (("le8", True), ("gt8", False)):
        sel = [i for i in eval_idx if (spans[i].attrs["rank"] <= 8) == small]
        m[f"invariant.evaluate_{label}_per_s"] = _ratio(
            len(sel), sum(spans[i].duration for i in sel))

    m["classify.self_s"] = total("classify.classify", "self")
    m["classify.classes"] = total("classify.classify", "classes")
    m["classify.unresolved"] = total("classify.classify", "unresolved")
    m["words.enumerate_s"] = total("words.enumerate_canonical")
    return m
