import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontorag.align import (
    EmbeddingScorer,
    EquivalenceMapping,
    LexicalScorer,
    align,
    candidate_pairs,
    class_score,
    lexical_score,
    read_mappings,
    render_mappings,
)
from ontorag.errors import DataError, ProviderError
from ontorag.model import Ontology, OntologyClass
from ontorag.ragstore import DeterministicEmbedder

CS = "http://example.org/clinical-signs#"
S = "http://purl.obolibrary.org/obo/"


class TestLexicalScore:
    def test_exact_after_normalization(self):
        assert lexical_score("Heart-Attack", "heart attack") == 1.0
        assert lexical_score("fever", "fever") == 1.0

    def test_frozen_values(self):
        assert lexical_score("chronic constipation", "constipation") == pytest.approx(0.6)
        assert lexical_score("acute constipation", "constipation") == pytest.approx(2 / 3)
        assert lexical_score("fecal impaction", "constipation") == pytest.approx(7 / 15)
        assert lexical_score("tension headache", "headache") == pytest.approx(0.5)
        assert lexical_score("fever", "rash") == 0.0

    def test_token_overlap_beats_edit_distance(self):
        # jaccard 0.5 vs edit similarity 1 - 9/15
        assert lexical_score("whooping cough", "cough") == pytest.approx(0.5)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_symmetric_and_bounded(self, a, b):
        s = lexical_score(a, b)
        assert 0.0 <= s <= 1.0
        assert s == lexical_score(b, a)


def _cls(iri, label, synonyms=()):
    return OntologyClass(iri=iri, label=label, synonyms=frozenset(synonyms))


def _onto(oid, *classes):
    return Ontology(id=oid, classes={c.iri: c for c in classes})


def test_class_score_uses_synonyms():
    a = _cls("http://a/#1", "zzz", synonyms=["loose stools"])
    b = _cls("http://b/#1", "diarrhoea", synonyms=["loose stools"])
    assert class_score(LexicalScorer(), a, b) == 1.0


def test_candidate_pairs_blocking():
    src = _onto(
        "s",
        _cls("http://a/#1", "chest pain"),
        _cls("http://a/#2", "xyzzy"),
    )
    tgt = _onto(
        "t",
        _cls("http://b/#1", "chest tightness"),
        _cls("http://b/#2", "fever"),
    )
    pairs = candidate_pairs(src, tgt)
    # only the pair sharing the token "chest" survives
    assert pairs == [("http://a/#1", "http://b/#1")]


def test_candidate_pairs_ignores_short_tokens():
    src = _onto("s", _cls("http://a/#1", "be at"))
    tgt = _onto("t", _cls("http://b/#1", "at be"))
    assert candidate_pairs(src, tgt) == []


def test_align_fixture(source_onto, target_onto, fixture_mappings):
    assert len(fixture_mappings) == 12
    assert all(m.score == 1.0 for m in fixture_mappings)
    assert all(m.relation == "EQUIV" for m in fixture_mappings)
    by_source = {m.source: m.target for m in fixture_mappings}
    assert by_source[f"{S}S_0003"] == f"{CS}CS_0003"
    # synonym-driven match: diarrhea <-> diarrhoea share "loose stools"
    assert by_source[f"{S}S_0014"] == f"{CS}CS_0009"
    # sorted output
    keys = [(m.source, m.target) for m in fixture_mappings]
    assert keys == sorted(keys)


def test_align_threshold_widens(source_onto, target_onto):
    relaxed = align(source_onto, target_onto, threshold=0.65)
    pairs = {(m.source, m.target) for m in relaxed}
    assert (f"{S}S_0010", f"{CS}CS_1101") in pairs  # chest pain / crushing chest pain
    assert len(relaxed) > 12


def test_align_without_blocking_matches(source_onto, target_onto, fixture_mappings):
    full = align(source_onto, target_onto, use_blocking=False)
    assert full == fixture_mappings


def test_align_wraps_scorer_errors(source_onto, target_onto):
    class Boom:
        max_in_flight = 1

        def score(self, a, b):
            raise RuntimeError("nope")

    with pytest.raises(ProviderError) as err:
        align(source_onto, target_onto, scorer=Boom())
    assert "S_" in str(err.value) and "CS_" in str(err.value)


def test_align_concurrent_scorer_is_deterministic():
    # 30 x 30 classes that all share a blocking token -> 900 candidates
    src = _onto("s", *[_cls(f"http://a/#{i:02d}", f"item alpha {i:02d}") for i in range(30)])
    tgt = _onto("t", *[_cls(f"http://b/#{i:02d}", f"item beta {i:02d}") for i in range(30)])

    class Threaded(LexicalScorer):
        max_in_flight = 8

        def __init__(self):
            self.seen_threads = set()

        def score(self, a, b):
            self.seen_threads.add(threading.get_ident())
            return super().score(a, b)

    scorer = Threaded()
    threaded = align(src, tgt, scorer=scorer, threshold=0.3)
    serial = align(src, tgt, threshold=0.3)
    assert threaded == serial
    assert len(scorer.seen_threads) >= 1


def test_mapping_tsv_round_trip(tmp_path, fixture_mappings):
    path = tmp_path / "m.tsv"
    path.write_text(render_mappings(fixture_mappings), encoding="utf-8")
    assert read_mappings(str(path)) == fixture_mappings
    # repr floats survive exactly
    odd = [EquivalenceMapping("http://a/#1", "http://b/#1", 0.1 + 0.2)]
    path.write_text(render_mappings(odd), encoding="utf-8")
    assert read_mappings(str(path))[0].score == 0.1 + 0.2


def test_read_mappings_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("wrong header\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_mappings(str(path))
    path.write_text("source_iri\ttarget_iri\tscore\trelation\na\tb\tc\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_mappings(str(path))
    path.write_text("source_iri\ttarget_iri\tscore\trelation\na\tb\tx\tEQUIV\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_mappings(str(path))
    path.write_text("source_iri\ttarget_iri\tscore\trelation\na\tb\t0.5\tFRIENDS\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_mappings(str(path))


class TestEmbeddingScorer:
    def test_identical_texts_score_one(self):
        scorer = EmbeddingScorer(DeterministicEmbedder(dim=32))
        assert scorer.score("fever", "fever") == pytest.approx(1.0)

    def test_clamped_to_unit_interval(self):
        scorer = EmbeddingScorer(DeterministicEmbedder(dim=32))
        for a, b in [("fever", "rash"), ("a b c", "c b a"), ("x", "y z")]:
            assert 0.0 <= scorer.score(a, b) <= 1.0

    def test_vectors_are_cached(self):
        calls = []

        class Counting(DeterministicEmbedder):
            def embed(self, texts):
                calls.extend(texts)
                return super().embed(texts)

        scorer = EmbeddingScorer(Counting(dim=32))
        scorer.score("fever", "rash")
        scorer.score("fever", "cough")
        assert calls.count("fever") == 1

    def test_inherits_provider_concurrency(self):
        provider = DeterministicEmbedder(dim=32)
        assert EmbeddingScorer(provider).max_in_flight == 1
