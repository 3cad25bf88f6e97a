import os
from pathlib import Path

import pytest

import ontorag.align
from ontorag.align import LexicalScorer, align
from ontorag.fixtures import fixture_text
from ontorag.parse import parse_json_ontology, parse_obo
from ontorag.ragstore import DeterministicEmbedder, VectorStore, ingest
from ontorag.subsume import build_dictionary, build_subsumption_corpus, predict_subsumptions


@pytest.fixture(scope="session")
def source_onto():
    return parse_obo(fixture_text("symptoms.obo")).ontology


@pytest.fixture(scope="session")
def target_onto():
    return parse_json_ontology(fixture_text("clinical_signs.json")).ontology


@pytest.fixture(scope="session")
def fixture_mappings(source_onto, target_onto):
    return align(source_onto, target_onto)


@pytest.fixture(scope="session")
def fixture_dictionary(source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    accepted = predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto)
    return build_dictionary(accepted, source_onto, target_onto)


@pytest.fixture()
def levenshtein_calls(monkeypatch):
    """Every (a, b) the align module passes to Levenshtein, in call order."""
    real = ontorag.align.levenshtein
    calls = []

    def counting(a, b, cutoff=None):
        calls.append((a, b))
        return real(a, b, cutoff)

    monkeypatch.setattr(ontorag.align, "levenshtein", counting)
    return calls


@pytest.fixture()
def embedder():
    return DeterministicEmbedder(dim=64)


@pytest.fixture()
def handbook_store(embedder):
    store = VectorStore(dim=embedder.dim, provider_name=embedder.name, created=1700000000)
    ingest(store, [("handbook", fixture_text("handbook.txt"))], embedder)
    return store


@pytest.fixture()
def child_pythonpath(monkeypatch):
    """Make Python child processes import the ontorag package under test.

    The absolute directory that holds the imported package goes first on
    PYTHONPATH, so a child neither depends on the working directory (a
    relative ``PYTHONPATH=src`` breaks after ``chdir``) nor picks up another
    installed copy.
    """
    root = str(Path(ontorag.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", root + os.pathsep + rest if rest else root)
