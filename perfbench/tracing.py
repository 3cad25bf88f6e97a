"""Per-layer tracing from outside the program.

The tracer swaps public functions of the ontorag modules for timing
wrappers while a traced session runs, and puts the originals back after
it. Nothing inside ``src/`` knows about it. Names a module imported from
another (``align.levenshtein`` and ``ragstore.cosine_scan`` from
``_kernels``, ``cli.align`` from ``align``) are wrapped where they are
looked up, because that is where the call goes.

Each wrapped call is a span. A span's self time is its duration minus the
spans nested in it, so per command the self times of every span plus the
command's own self time (``cli.other_ms``) add up to the command's traced
wall time. ``<layer>.<what>_ms`` is the inclusive time of a layer's calls,
``<layer>.<what>_self_ms`` its self time. Counters are summed per
session. A wrap target that a later version of the program no longer has
is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (metric, unit) in report order; unit "ms" metrics are times.
PER_LAYER = (
    ("parse.ms", "ms"),
    ("parse.classes", "count"),
    ("model.normalized_texts_calls", "count"),
    ("align.block_ms", "ms"),
    ("align.candidates", "count"),
    ("align.score_ms", "ms"),
    ("align.scorer_calls", "count"),
    ("align.mappings", "count"),
    ("align.mapping_ratio", "ratio"),
    ("kernels.levenshtein_calls", "count"),
    ("kernels.levenshtein_ms", "ms"),
    ("kernels.levenshtein_cells", "count"),
    ("subsume.corpus_ms", "ms"),
    ("subsume.positives", "count"),
    ("subsume.negatives", "count"),
    ("subsume.predict_ms", "ms"),
    ("subsume.scorer_calls", "count"),
    ("subsume.accepted", "count"),
    ("subsume.accept_ratio", "ratio"),
    ("subsume.dictionary_ms", "ms"),
    ("subsume.anchors", "count"),
    ("ragstore.ingest_self_ms", "ms"),
    ("ragstore.chunk_ms", "ms"),
    ("ragstore.chunks", "count"),
    ("ragstore.embed_ms", "ms"),
    ("ragstore.embed_calls", "count"),
    ("ragstore.embed_texts", "count"),
    ("ragstore.serialize_ms", "ms"),
    ("ragstore.store_bytes", "bytes"),
    ("cli.write_ms", "ms"),
    ("ragstore.load_ms", "ms"),
    ("kernels.cosine_scan_calls", "count"),
    ("kernels.cosine_scan_ms", "ms"),
    ("kernels.cosine_scan_bytes", "bytes"),
    ("ragstore.nearest_calls", "count"),
    ("ragstore.nearest_self_ms", "ms"),
    ("infiltrate.ms", "ms"),
    ("infiltrate.prompts", "count"),
    ("infiltrate.augmented", "count"),
    ("infiltrate.terms_appended", "count"),
    ("engine.answer_self_ms", "ms"),
    ("engine.complete_calls", "count"),
    ("engine.complete_ms", "ms"),
    ("evaluate.report_calls", "count"),
    ("evaluate.report_self_ms", "ms"),
    ("evaluate.texts_embedded", "count"),
    ("evaluate.distinct_texts_ratio", "ratio"),
    ("cli.command_ms", "ms"),
    ("cli.other_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

COMMAND = "cli.command"


class Tracer:
    """Span stack plus counters; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, ms spent in nested spans]
        self.total: Counter = Counter()
        self.self_ms: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.eval_texts: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, *args)`` records counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ms = (perf_counter() - t0) * 1e3
                tracer.stack.pop()
                tracer.total[name] += ms
                tracer.self_ms[name] += ms - frame[1]
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += ms
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, path: str, name: str, after=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` if it exists."""
        module_name, _, attr_path = path.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            return
        current = vars(owner)[attr]
        if isinstance(current, classmethod):
            self._patch(owner, attr, classmethod(self.span(name, current.__func__, after)))
        else:
            self._patch(owner, attr, self.span(name, current, after))

    def count_property(self, path: str, counter: str) -> None:
        module_name, _, attr_path = path.partition(":")
        cls_name, attr = attr_path.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        prop = vars(cls).get(attr) if cls is not None else None
        if not isinstance(prop, property):
            return
        counts = self.counts

        def fget(obj):
            counts[counter] += 1
            return prop.fget(obj)

        self._patch(cls, attr, property(fget, doc=prop.__doc__))

    def install(self) -> None:
        c = self.counts

        def parsed(report, *a, **k):
            c["parse.classes"] += len(report.ontology)

        def aligned(mappings, *a, **k):
            c["align.mappings"] += len(mappings)

        def blocked(pairs, *a, **k):
            c["align.candidates"] += len(pairs)

        def scored(value, *a, **k):
            if self.inside("subsume.predict"):
                c["subsume.scorer_calls"] += 1
            elif self.inside("align.align"):
                c["align.scorer_calls"] += 1

        def edited(dist, a, b, *rest, **k):
            if a != b:
                c["kernels.levenshtein_cells"] += len(a) * len(b)

        def corpus(pairs, *a, **k):
            positives = sum(1 for p in pairs if p.label)
            c["subsume.positives"] += positives
            c["subsume.negatives"] += len(pairs) - positives

        def predicted(accepted, corpus_pairs, *a, **k):
            c["subsume.accepted"] += len(accepted)
            c["subsume.pairs"] += len({(p.concept, p.candidate) for p in corpus_pairs})

        def folded(dictionary, *a, **k):
            c["subsume.anchors"] += len(dictionary.entries)

        def chunked(pieces, *a, **k):
            c["ragstore.chunks"] += len(pieces)

        def embedded(rows, provider, texts, *a, **k):
            c["ragstore.embed_texts"] += len(texts)
            if self.inside("evaluate.batch"):
                c["evaluate.texts_embedded"] += len(texts)
                self.eval_texts.update(hash(t) for t in texts)

        def scanned(scores, matrix, *a, **k):
            c["kernels.cosine_scan_bytes"] += matrix.shape[0] * matrix.shape[1] * 8

        def infiltrated(aug, *a, **k):
            c["infiltrate.augmented"] += aug.augmented != aug.original
            c["infiltrate.terms_appended"] += len(aug.appended)

        def evaluated(summary, *a, **k):
            c["evaluate.distinct_texts"] += len(self.eval_texts)
            self.eval_texts.clear()

        self.wrap("ontorag.cli:main", COMMAND)
        self.wrap("ontorag.cli:parse_ontology_file", "parse", parsed)
        self.count_property("ontorag.model:OntologyClass.normalized_texts", "model.normalized_texts_calls")
        self.wrap("ontorag.cli:align", "align.align", aligned)
        self.wrap("ontorag.align:candidate_pairs", "align.block", blocked)
        self.wrap("ontorag.align:class_score", "align.score")
        self.wrap("ontorag.align:LexicalScorer.score", "align.scorer", scored)
        for module in ("ontorag.align", "ontorag.infiltrate"):
            self.wrap(f"{module}:levenshtein", "kernels.levenshtein", edited)
        self.wrap("ontorag.cli:build_subsumption_corpus", "subsume.corpus", corpus)
        self.wrap("ontorag.cli:predict_subsumptions", "subsume.predict", predicted)
        self.wrap("ontorag.cli:build_dictionary", "subsume.dictionary", folded)
        self.wrap("ontorag.cli:ingest", "ragstore.ingest")
        self.wrap("ontorag.ragstore:chunk_document", "ragstore.chunk", chunked)
        self.wrap("ontorag.ragstore:DeterministicEmbedder.embed", "ragstore.embed", embedded)
        self.wrap("ontorag.ragstore:VectorStore.to_jsonl", "ragstore.serialize")
        self.wrap("ontorag.cli:_atomic_write", "cli.write")
        self.wrap("ontorag.ragstore:VectorStore.load", "ragstore.load")
        self.wrap("ontorag.ragstore:VectorStore.nearest", "ragstore.nearest")
        self.wrap("ontorag.ragstore:cosine_scan", "kernels.cosine_scan", scanned)
        for module in ("ontorag.engine", "ontorag.cli"):
            self.wrap(f"{module}:infiltrate", "infiltrate", infiltrated)
        for module in ("ontorag.engine", "ontorag.cli", "ontorag.evaluate"):
            self.wrap(f"{module}:answer", "engine.answer")
        self.wrap("ontorag.engine:EchoLlm.complete", "engine.complete")
        self.wrap("ontorag.cli:evaluate_batch", "evaluate.batch", evaluated)
        self.wrap("ontorag.evaluate:similarity_report", "evaluate.report")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """This session's per-layer values (without the overhead figure)."""
        t, s, n, c = self.total, self.self_ms, self.calls, self.counts
        return {
            "parse.ms": t["parse"],
            "parse.classes": c["parse.classes"],
            "model.normalized_texts_calls": c["model.normalized_texts_calls"],
            "align.block_ms": t["align.block"],
            "align.candidates": c["align.candidates"],
            "align.score_ms": t["align.score"],
            "align.scorer_calls": c["align.scorer_calls"],
            "align.mappings": c["align.mappings"],
            "align.mapping_ratio": _ratio(c["align.mappings"], c["align.candidates"]),
            "kernels.levenshtein_calls": n["kernels.levenshtein"],
            "kernels.levenshtein_ms": t["kernels.levenshtein"],
            "kernels.levenshtein_cells": c["kernels.levenshtein_cells"],
            "subsume.corpus_ms": t["subsume.corpus"],
            "subsume.positives": c["subsume.positives"],
            "subsume.negatives": c["subsume.negatives"],
            "subsume.predict_ms": t["subsume.predict"],
            "subsume.scorer_calls": c["subsume.scorer_calls"],
            "subsume.accepted": c["subsume.accepted"],
            "subsume.accept_ratio": _ratio(c["subsume.accepted"], c["subsume.pairs"]),
            "subsume.dictionary_ms": t["subsume.dictionary"],
            "subsume.anchors": c["subsume.anchors"],
            "ragstore.ingest_self_ms": s["ragstore.ingest"],
            "ragstore.chunk_ms": t["ragstore.chunk"],
            "ragstore.chunks": c["ragstore.chunks"],
            "ragstore.embed_ms": t["ragstore.embed"],
            "ragstore.embed_calls": n["ragstore.embed"],
            "ragstore.embed_texts": c["ragstore.embed_texts"],
            "ragstore.serialize_ms": t["ragstore.serialize"],
            "ragstore.store_bytes": c["ragstore.store_bytes"],
            "cli.write_ms": t["cli.write"],
            "ragstore.load_ms": t["ragstore.load"],
            "kernels.cosine_scan_calls": n["kernels.cosine_scan"],
            "kernels.cosine_scan_ms": t["kernels.cosine_scan"],
            "kernels.cosine_scan_bytes": c["kernels.cosine_scan_bytes"],
            "ragstore.nearest_calls": n["ragstore.nearest"],
            "ragstore.nearest_self_ms": s["ragstore.nearest"],
            "infiltrate.ms": t["infiltrate"],
            "infiltrate.prompts": n["infiltrate"],
            "infiltrate.augmented": c["infiltrate.augmented"],
            "infiltrate.terms_appended": c["infiltrate.terms_appended"],
            "engine.answer_self_ms": s["engine.answer"],
            "engine.complete_calls": n["engine.complete"],
            "engine.complete_ms": t["engine.complete"],
            "evaluate.report_calls": n["evaluate.report"],
            "evaluate.report_self_ms": s["evaluate.report"],
            "evaluate.texts_embedded": c["evaluate.texts_embedded"],
            "evaluate.distinct_texts_ratio": _ratio(c["evaluate.distinct_texts"], c["evaluate.texts_embedded"]),
            "cli.command_ms": t[COMMAND],
            "cli.other_ms": s[COMMAND],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
