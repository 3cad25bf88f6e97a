"""Ontology-guided prompt infiltration for retrieval-augmented generation.

The pipeline: align two ontologies to find equivalent classes, derive
subsumption-linked concepts from the target hierarchy, compile them into a
label dictionary, inject matching entries into user prompts before
retrieval, and measure the effect on response quality with a contextual /
factual / hallucination-index metric suite.
"""

__version__ = "0.1.0"

from .model import Ontology, OntologyClass, local_name, normalize_label, subclass_closure
from .parse import parse_json_ontology, parse_obo, serialize_ontology
from .align import LexicalScorer, align, candidate_pairs, lexical_score
from .subsume import SubsumptionDictionary, build_dictionary, build_subsumption_corpus, predict_subsumptions
from .infiltrate import infiltrate
from .ragstore import DeterministicEmbedder, VectorStore, chunk_document, deterministic_embed, ingest, retrieve
from .engine import EchoLlm, answer
from .evaluate import (
    cosine_similarity,
    dot_product,
    euclidean_distance,
    evaluate_batch,
    hallucination_index,
    relative_change,
    similarity_report,
)

__all__ = [
    "Ontology",
    "OntologyClass",
    "local_name",
    "normalize_label",
    "subclass_closure",
    "parse_obo",
    "parse_json_ontology",
    "serialize_ontology",
    "LexicalScorer",
    "align",
    "candidate_pairs",
    "lexical_score",
    "SubsumptionDictionary",
    "build_subsumption_corpus",
    "predict_subsumptions",
    "build_dictionary",
    "infiltrate",
    "VectorStore",
    "DeterministicEmbedder",
    "chunk_document",
    "deterministic_embed",
    "ingest",
    "retrieve",
    "EchoLlm",
    "answer",
    "cosine_similarity",
    "dot_product",
    "euclidean_distance",
    "similarity_report",
    "hallucination_index",
    "relative_change",
    "evaluate_batch",
]
