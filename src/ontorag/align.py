"""Ontology alignment: score cross-ontology class pairs for synonymy.

The output of :func:`align` is a list of equivalence mappings, each naming a
source class, a target class, the synonymy score that joined them, and the
literal relation tag ``EQUIV``. Scoring is pluggable; the default
:class:`LexicalScorer` needs no network and is fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, product
from operator import itemgetter
from typing import Iterable, Protocol, Sequence

import numpy as np

from ._kernels import cosine, levenshtein
from .errors import DataError, ProviderError
from .model import ClassIri, Ontology, OntologyClass, label_tokens, normalize_label
from .parse import read_tsv

DEFAULT_THRESHOLD = 0.9
EQUIV = "EQUIV"
SUBSUMED_BY = "SUBSUMED_BY"
_RELATIONS = (EQUIV, SUBSUMED_BY)
_HEADER = "source_iri\ttarget_iri\tscore\trelation"
# Blocking keeps a cross-ontology pair only when the two classes share a
# normalized label or synonym, or a token at least this long in one.
MIN_BLOCK_TOKEN = 3


class SynonymyScorer(Protocol):
    """Scores a batch of label pairs for synonymy, each in ``[0, 1]``."""

    def score_many(self, pairs: Sequence[tuple[str, str]], floor: float = 0.0) -> list[float]:
        """One score per pair, in input order.

        A pair whose exact score is >= ``floor`` gets its exact score; any
        other pair may get any value below ``floor`` and at most its exact
        score. So ``floor=0.0`` asks for every score exactly, and exact
        scores always meet the contract.
        """
        ...


# What the lexical formula reads of a label: its normal form and token set.
_Features = tuple[str, frozenset[str]]


def _features(text: str) -> _Features:
    norm = normalize_label(text)
    return norm, frozenset(label_tokens(norm))


def _score(fa: _Features, fb: _Features, floor: float) -> float:
    """The lexical formula on two feature tuples, under the ``floor`` contract.

    Edit similarity ``1 - dist / longest`` only matters when it reaches
    ``need = max(floor, jaccard)``. It falls as ``dist`` grows, also in
    floating point, so once ``cutoff + 1`` falls short, every larger distance
    does too. Edit distance is at least the length difference, so a larger
    difference than ``cutoff`` skips Levenshtein, and Levenshtein stops once
    the distance exceeds ``cutoff``. A distance past the cutoff is never
    turned into a score: the pair scores ``jaccard``, which is exact when it
    reaches the floor and below the floor otherwise.
    """
    a, ta = fa
    b, tb = fb
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    jaccard = len(ta & tb) / len(ta | tb) if (ta or tb) else 0.0
    longest = max(len(a), len(b))
    need = max(floor, jaccard)
    # int() of the product can land one below the largest distance that
    # reaches `need` (longest 10 at need 0.9), so step up in the score's own
    # expression.
    cutoff = int((1.0 - need) * longest)
    while 1.0 - (cutoff + 1) / longest >= need:
        cutoff += 1
    if abs(len(a) - len(b)) > cutoff:
        return jaccard
    dist = levenshtein(a, b, cutoff)
    if dist > cutoff:
        return jaccard
    return max(jaccard, 1.0 - dist / longest)


def lexical_score(text_a: str, text_b: str) -> float:
    """Similarity of two labels without any external model.

    Both inputs are normalized first. Equal normal forms score 1.0;
    otherwise the score is the larger of token-set Jaccard overlap and
    edit-distance similarity ``1 - dist / max(len)``.
    """
    return _score(_features(text_a), _features(text_b), 0.0)


class LexicalScorer:
    """Default scorer backed by :func:`lexical_score`'s formula.

    Features are kept per text, so each distinct text is normalized and
    tokenized once per scorer; a batch adds the texts it has not seen.
    """

    def __init__(self) -> None:
        self._cache: dict[str, _Features] = {}

    def score_many(self, pairs: Sequence[tuple[str, str]], floor: float = 0.0) -> list[float]:
        cache = self._cache
        for pair in pairs:
            for text in pair:
                if text not in cache:
                    cache[text] = _features(text)
        return [_score(cache[a], cache[b], floor) for a, b in pairs]


class EmbeddingScorer:
    """Scores label pairs by cosine of their embeddings, clamped to [0, 1]; a zero vector scores 0.

    ``provider`` is any object with ``embed(texts) -> ndarray``. Vectors are
    kept per text, so each distinct text is embedded once per scorer; a
    batch embeds its unseen texts in one sorted ``embed`` call.
    """

    def __init__(self, provider) -> None:
        self._provider = provider
        self._cache: dict[str, np.ndarray] = {}

    def score_many(self, pairs: Sequence[tuple[str, str]], floor: float = 0.0) -> list[float]:
        """Exact cosine scores; ``floor`` is accepted and not needed."""
        cache = self._cache
        unseen = sorted({text for pair in pairs for text in pair if text not in cache})
        if unseen:
            rows = np.asarray(self._provider.embed(unseen), dtype=np.float64)
            cache.update(zip(unseen, rows, strict=True))
        cosines = (cosine(cache[a], cache[b]) for a, b in pairs)
        return [0.0 if cos is None else min(1.0, max(0.0, cos)) for cos in cosines]


@dataclass(frozen=True)
class Mapping:
    """One accepted cross-ontology pairing: an equivalence (EQUIV) or a subsumption (SUBSUMED_BY)."""

    source: ClassIri
    target: ClassIri
    score: float
    relation: str = EQUIV


def _blocking_keys(cls: OntologyClass) -> set[str]:
    # Normalized texts are keys too, so equal ones meet however short their tokens.
    keys = set(cls.normalized_texts)
    for text in cls.normalized_texts:
        for tok in label_tokens(text):
            if len(tok) >= MIN_BLOCK_TOKEN:
                keys.add(tok)
    return keys


def candidate_pairs(source: Ontology, target: Ontology) -> list[tuple[ClassIri, ClassIri]]:
    """Cross-ontology pairs sharing at least one blocking key, sorted."""
    index: dict[str, set[ClassIri]] = {}
    for iri in target.sorted_iris():
        for key in _blocking_keys(target.classes[iri]):
            index.setdefault(key, set()).add(iri)
    pairs: list[tuple[ClassIri, ClassIri]] = []
    for s_iri in source.sorted_iris():
        hits: set[ClassIri] = set()
        for key in _blocking_keys(source.classes[s_iri]):
            hits.update(index.get(key, ()))
        pairs.extend((s_iri, t_iri) for t_iri in sorted(hits))
    return pairs


def _score_pairs(
    scorer: SynonymyScorer,
    source: Ontology,
    target: Ontology,
    pairs: Sequence[tuple[ClassIri, ClassIri]],
    threshold: float,
) -> list[float]:
    """Class-level score of each pair: its best text-pair score, 0.0 if none.

    The scorer gets one batch per run of pairs that share a source class, so
    source-major ``pairs`` make one batch per source class. Its ``floor`` is
    ``threshold``: a block whose best exact score reaches the threshold gets
    that score exactly, and any other block stays below the threshold.
    """
    scores: list[float] = []
    for s_iri, run in groupby(pairs, key=itemgetter(0)):
        s_texts = source.classes[s_iri].normalized_texts
        blocks = [target.classes[t_iri].normalized_texts for _, t_iri in run]
        batch = [(a, b) for t_texts in blocks for a in s_texts for b in t_texts]
        try:
            values = scorer.score_many(batch, floor=threshold)
        except Exception as exc:
            raise ProviderError(f"scoring failed for {s_iri}: {exc}") from exc
        start = 0
        for t_texts in blocks:
            end = start + len(s_texts) * len(t_texts)
            scores.append(max(values[start:end], default=0.0))
            start = end
    return scores


def align(
    source: Ontology,
    target: Ontology,
    scorer: SynonymyScorer | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    use_blocking: bool = True,
) -> list[Mapping]:
    """Equivalence mappings between two ontologies.

    Every candidate pair whose class-level score is >= ``threshold`` becomes a
    mapping. A class may appear in any number of mappings. Results are sorted
    by (source, target).
    """
    if not math.isfinite(threshold):
        raise DataError(f"threshold must be a finite number, got {threshold}")
    if scorer is None:
        scorer = LexicalScorer()
    if use_blocking:
        pairs = candidate_pairs(source, target)
    else:
        pairs = list(product(source.sorted_iris(), target.sorted_iris()))
    scores = _score_pairs(scorer, source, target, pairs, threshold)
    return [
        Mapping(source=s_iri, target=t_iri, score=score)
        for (s_iri, t_iri), score in zip(pairs, scores)
        if score >= threshold
    ]


def render_mappings(mappings: Iterable[Mapping]) -> str:
    """Mapping TSV text: a header line then one row per mapping."""
    lines = [_HEADER]
    for m in mappings:
        lines.append(f"{m.source}\t{m.target}\t{m.score!r}\t{m.relation}")
    return "\n".join(lines) + "\n"


def read_mappings(path: str) -> list[Mapping]:
    """Read a mapping TSV in the form :func:`render_mappings` produces."""
    out: list[Mapping] = []
    for lineno, (src, tgt, score_text, relation) in read_tsv(path, _HEADER, "mapping"):
        if relation not in _RELATIONS:
            raise DataError(f"{path}:{lineno}: unknown relation {relation!r}")
        try:
            score = float(score_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score {score_text!r}") from None
        out.append(Mapping(source=src, target=tgt, score=score, relation=relation))
    return out
