"""Hallucination measurement for the answering pipeline.

Three vector measures compare a model response against a reference text:
cosine similarity (reported as a percentage), raw dot product, and euclidean
distance. "Contextual similarity" references the original user prompt,
"factual accuracy" references the ground-truth answer, and the hallucination
index is the component-wise mean of the two. Batch evaluation runs every
record twice, with and without prompt infiltration, and reports the relative
change of each aggregate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .engine import LlmProvider, answer
from .errors import DataError
from .ragstore import DEFAULT_K, EmbeddingProvider, VectorStore
from .subsume import SubsumptionDictionary

TABLE_CONTEXTUAL = "Contextual Similarity"
TABLE_FACTUAL = "Factual Accuracy"
TABLE_INDEX = "Hallucination Index"
MEASURE_COSINE = "Cosine Similarity"
MEASURE_DOT = "Dot Product"
MEASURE_EUCLIDEAN = "Euclidean Distance"
_SUMMARY_HEADER = "table\tmeasure\twith_subsumptions\twithout_subsumptions\trelative_change_pct"


def _vector_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as flat float64 vectors of one width; anything else is a DataError."""
    a = np.asarray(u, dtype=np.float64).reshape(-1)
    b = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise DataError("empty vector")
    if a.shape != b.shape:
        raise DataError(f"vector widths differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two vectors, scaled to a percentage."""
    a, b = _vector_pair(u, v)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine similarity undefined for a zero-norm vector")
    return float(np.dot(a, b) / (na * nb)) * 100.0


def dot_product(u, v) -> float:
    a, b = _vector_pair(u, v)
    return float(np.dot(a, b))


def euclidean_distance(u, v) -> float:
    a, b = _vector_pair(u, v)
    return float(np.linalg.norm(a - b))


class SimilarityReport(NamedTuple):
    """The three measures for one response/reference pair, iterable in that order."""

    cosine: float
    dot: float
    euclidean: float


_MEASURES = (MEASURE_COSINE, MEASURE_DOT, MEASURE_EUCLIDEAN)  # SimilarityReport's field order


def _report(u, v) -> SimilarityReport:
    return SimilarityReport(cosine_similarity(u, v), dot_product(u, v), euclidean_distance(u, v))


def similarity_report(response: str, reference: str, provider: EmbeddingProvider) -> SimilarityReport:
    """Embed both texts with ``provider`` and compare them."""
    return _report(*provider.embed([response, reference]))


def hallucination_index(contextual: SimilarityReport, factual: SimilarityReport) -> SimilarityReport:
    """Component-wise mean of the contextual and factual reports."""
    return SimilarityReport(*((c + f) / 2.0 for c, f in zip(contextual, factual)))


def mean_report(reports: Sequence[SimilarityReport]) -> SimilarityReport:
    if not reports:
        raise DataError("cannot average zero reports")
    n = len(reports)
    return SimilarityReport(*(sum(values) / n for values in zip(*reports)))


def relative_change(with_value: float, without_value: float) -> float:
    """Percent change of ``with_value`` against the ``without_value`` baseline."""
    if without_value == 0.0:
        raise DataError("relative change undefined for a zero baseline")
    return 100.0 * (with_value - without_value) / without_value


def _report_change(with_report: SimilarityReport, without_report: SimilarityReport) -> SimilarityReport:
    return SimilarityReport(*map(relative_change, with_report, without_report))


@dataclass(frozen=True)
class EvalRecord:
    """One benchmark item: a prompt and the answer it should produce."""

    prompt: str
    ground_truth: str

    def __post_init__(self) -> None:
        if not self.prompt.strip():
            raise DataError("record prompt must be non-empty")
        if not self.ground_truth.strip():
            raise DataError("record ground_truth must be non-empty")


def read_records(path: str) -> list[EvalRecord]:
    """Read JSONL records of {"prompt", "ground_truth"}."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    records: list[EvalRecord] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: bad record JSON: {exc}") from exc
        if not isinstance(row, dict) or not isinstance(row.get("prompt"), str) or not isinstance(
            row.get("ground_truth"), str
        ):
            raise DataError(f'{path}:{lineno}: record needs string "prompt" and "ground_truth"')
        records.append(EvalRecord(prompt=row["prompt"], ground_truth=row["ground_truth"]))
    if not records:
        raise DataError(f"{path}: no records")
    return records


@dataclass(frozen=True)
class EvalSummary:
    """Aggregate measures over a record batch, with and without infiltration."""

    n_records: int
    augmented_count: int
    with_contextual: SimilarityReport
    without_contextual: SimilarityReport
    with_factual: SimilarityReport
    without_factual: SimilarityReport
    with_index: SimilarityReport
    without_index: SimilarityReport
    contextual_change: SimilarityReport
    factual_change: SimilarityReport
    index_change: SimilarityReport


def evaluate_batch(
    records: Sequence[EvalRecord],
    store: VectorStore,
    provider: EmbeddingProvider,
    llm: LlmProvider,
    dictionary: SubsumptionDictionary,
    k: int = DEFAULT_K,
    fuzzy: bool = False,
    bare: bool = False,
) -> EvalSummary:
    """Run every record through the pipeline twice and aggregate.

    Contextual similarity always references the original prompt, never the
    infiltrated one, so the two arms stay comparable. Once every record is
    answered, each distinct response, prompt and ground truth of the batch is
    embedded once, in one ``embed`` call.
    """
    if not records:
        raise DataError("cannot evaluate zero records")
    answered = [
        (
            record,
            answer(store, provider, llm, record.prompt, dictionary=dictionary, k=k, fuzzy=fuzzy, bare=bare),
            answer(store, provider, llm, record.prompt, dictionary=None, k=k),
        )
        for record in records
    ]
    texts = list(
        dict.fromkeys(
            text
            for record, infiltrated, plain in answered
            for text in (infiltrated.response, plain.response, record.prompt, record.ground_truth)
        )
    )
    vectors = dict(zip(texts, provider.embed(texts)))
    # One list of reports per arm: with infiltration, then without.
    contextual: tuple[list[SimilarityReport], ...] = ([], [])
    factual: tuple[list[SimilarityReport], ...] = ([], [])
    for record, *results in answered:
        prompt, truth = vectors[record.prompt], vectors[record.ground_truth]
        for arm, result in enumerate(results):
            response = vectors[result.response]
            contextual[arm].append(_report(response, prompt))
            factual[arm].append(_report(response, truth))
    with_contextual, without_contextual = map(mean_report, contextual)
    with_factual, without_factual = map(mean_report, factual)
    with_index = hallucination_index(with_contextual, with_factual)
    without_index = hallucination_index(without_contextual, without_factual)
    return EvalSummary(
        n_records=len(records),
        augmented_count=sum(infiltrated.augmented != record.prompt for record, infiltrated, _ in answered),
        with_contextual=with_contextual,
        without_contextual=without_contextual,
        with_factual=with_factual,
        without_factual=without_factual,
        with_index=with_index,
        without_index=without_index,
        contextual_change=_report_change(with_contextual, without_contextual),
        factual_change=_report_change(with_factual, without_factual),
        index_change=_report_change(with_index, without_index),
    )


def _fmt(x: float) -> str:
    return "%.6g" % x


def render_summary_tsv(summary: EvalSummary) -> str:
    """One rectangular TSV: three tables by three measures."""
    rows = [_SUMMARY_HEADER]
    blocks = [
        (TABLE_CONTEXTUAL, summary.with_contextual, summary.without_contextual, summary.contextual_change),
        (TABLE_FACTUAL, summary.with_factual, summary.without_factual, summary.factual_change),
        (TABLE_INDEX, summary.with_index, summary.without_index, summary.index_change),
    ]
    for table, *reports in blocks:
        for measure, values in zip(_MEASURES, zip(*reports)):
            rows.append("\t".join((table, measure, *map(_fmt, values))))
    return "\n".join(rows) + "\n"
