"""Subsumption extraction on top of accepted equivalence mappings.

For an accepted mapping (c1, c2), every class below c2 in the target
hierarchy is a labeled positive "c1 subsumes d" example. Negatives are drawn
uniformly from the target ontology with a seeded RNG. A scorer then filters
the corpus, and the surviving pairs become a lookup dictionary from a
normalized concept label to the display labels of its accepted narrower
terms.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .align import EQUIV, SUBSUMED_BY, EquivalenceMapping, SynonymyScorer
from .errors import DataError
from .model import ClassIri, Ontology, label_tokens, normalize_label, subclass_closure

DEFAULT_SUBSUME_THRESHOLD = 0.5
DEFAULT_MAX_PER_ANCHOR = 3
_CORPUS_HEADER = "concept_iri\tcandidate_iri\tlabel"


@dataclass(frozen=True)
class SubsumptionPair:
    """One labeled example: does `concept` subsume `candidate`?"""

    concept: ClassIri
    candidate: ClassIri
    label: bool


def build_subsumption_corpus(
    source: Ontology,
    target: Ontology,
    mappings: Sequence[EquivalenceMapping],
    negatives_per_positive: int = 1,
    seed: int = 0,
) -> list[SubsumptionPair]:
    """Labeled subsumption examples derived from equivalence mappings.

    Positives come first, sorted by (concept, candidate); negatives follow,
    in sampling order. Each negative is drawn uniformly from the target's
    classes and redrawn until it is not a positive for the same concept.
    """
    if negatives_per_positive < 0:
        raise DataError("negatives_per_positive must be >= 0")
    positives: set[tuple[ClassIri, ClassIri]] = set()
    for m in mappings:
        if m.relation != EQUIV:
            raise DataError(f"corpus needs {EQUIV} mappings, got {m.relation!r}")
        source.get(m.source)
        c2 = target.get(m.target)
        for d in subclass_closure(target, c2.iri):
            positives.add((m.source, d))
    ordered = sorted(positives)
    pairs = [SubsumptionPair(c, d, True) for c, d in ordered]
    if negatives_per_positive == 0:
        return pairs
    all_targets = target.sorted_iris()
    # Every positive's candidate is a target class, so a concept has no open
    # negative slot exactly when its positives cover the whole target.
    per_concept = Counter(concept for concept, _ in ordered)
    rng = random.Random(seed)
    negatives: list[SubsumptionPair] = []
    for concept, _ in ordered:
        if per_concept[concept] == len(all_targets):
            raise DataError(f"no negative candidates available for {concept}")
        for _ in range(negatives_per_positive):
            while True:
                pick = rng.choice(all_targets)
                if (concept, pick) not in positives:
                    break
            negatives.append(SubsumptionPair(concept, pick, False))
    return pairs + negatives


def predict_subsumptions(
    corpus: Sequence[SubsumptionPair],
    scorer: SynonymyScorer,
    source: Ontology,
    target: Ontology,
    threshold: float = DEFAULT_SUBSUME_THRESHOLD,
) -> list[EquivalenceMapping]:
    """Corpus pairs whose display labels score at or above ``threshold``.

    Corpus labels are not consulted; the scorer alone decides, so sampled
    negatives are rejected only if they actually score low. Output rows carry
    the SUBSUMED_BY relation, deduplicated and sorted by (concept, candidate).
    The scorer's ``floor`` is ``threshold``, so every accepted score is exact.
    """
    keys = list(dict.fromkeys((pair.concept, pair.candidate) for pair in corpus))
    labels = [(source.get(c).display_label, target.get(d).display_label) for c, d in keys]
    scores = scorer.score_many(labels, floor=threshold)
    accepted = [
        EquivalenceMapping(source=c, target=d, score=score, relation=SUBSUMED_BY)
        for (c, d), score in zip(keys, scores, strict=True)
        if score >= threshold
    ]
    accepted.sort(key=lambda m: (m.source, m.target))
    return accepted


@dataclass(frozen=True)
class SubsumptionDictionary:
    """Normalized concept label -> narrower display labels, best first.

    ``entries`` is read-only after construction: values derived from it,
    such as ``anchors_by_word_count``, are computed once and cached.
    """

    entries: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @cached_property
    def anchors_by_word_count(self) -> dict[int, tuple[str, ...]]:
        """Anchors grouped by their token count."""
        groups: dict[int, list[str]] = {}
        for key in self.entries:
            groups.setdefault(len(label_tokens(key)), []).append(key)
        return {n: tuple(keys) for n, keys in groups.items()}

    @property
    def max_key_word_count(self) -> int:
        return max(self.anchors_by_word_count, default=0)

    def to_json(self) -> str:
        payload = {"entries": {k: list(v) for k, v in sorted(self.entries.items())}}
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SubsumptionDictionary":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"bad dictionary JSON: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("entries"), dict):
            raise DataError('dictionary JSON must be an object with an "entries" object')
        entries: dict[str, tuple[str, ...]] = {}
        for key, values in payload["entries"].items():
            if not isinstance(key, str) or not isinstance(values, list):
                raise DataError("dictionary entries must map strings to lists of strings")
            if any(not isinstance(v, str) for v in values):
                raise DataError(f"entry {key!r} holds a non-string label")
            entries[key] = tuple(values)
        return cls(entries=entries)


def build_dictionary(
    accepted: Sequence[EquivalenceMapping],
    source: Ontology,
    target: Ontology,
    max_per_anchor: int = DEFAULT_MAX_PER_ANCHOR,
) -> SubsumptionDictionary:
    """Fold accepted subsumptions into a lookup dictionary.

    The anchor is the normalized display label of the broader concept. Each
    anchor keeps at most ``max_per_anchor`` candidate labels, ordered by
    descending score then label; duplicate labels keep their best score.
    """
    if max_per_anchor < 1:
        raise DataError("max_per_anchor must be >= 1")
    buckets: dict[str, dict[str, float]] = {}
    for m in accepted:
        anchor = normalize_label(source.get(m.source).display_label)
        if not anchor:
            continue
        display = target.get(m.target).display_label
        bucket = buckets.setdefault(anchor, {})
        if m.score > bucket.get(display, float("-inf")):
            bucket[display] = m.score
    entries: dict[str, tuple[str, ...]] = {}
    for anchor in sorted(buckets):
        ranked = sorted(buckets[anchor].items(), key=lambda kv: (-kv[1], kv[0]))
        entries[anchor] = tuple(label for label, _ in ranked[:max_per_anchor])
    return SubsumptionDictionary(entries=entries)


def render_corpus(corpus: Iterable[SubsumptionPair]) -> str:
    """Labeled corpus TSV text with a header line."""
    lines = [_CORPUS_HEADER]
    for pair in corpus:
        lines.append(f"{pair.concept}\t{pair.candidate}\t{int(pair.label)}")
    return "\n".join(lines) + "\n"


def read_corpus(path: str) -> list[SubsumptionPair]:
    """Read a labeled corpus in the form :func:`render_corpus` produces."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = [(n, line) for n, line in enumerate(raw.split("\n"), start=1) if line]
    if not lines or lines[0][1] != _CORPUS_HEADER:
        raise DataError(f"{path}: missing corpus header")
    out: list[SubsumptionPair] = []
    for lineno, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        concept, candidate, label_text = fields
        if label_text not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label_text!r}")
        out.append(SubsumptionPair(concept, candidate, label_text == "1"))
    return out
