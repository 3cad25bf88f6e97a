import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ontorag._kernels import levenshtein
from ontorag.align import (
    EmbeddingScorer,
    LexicalScorer,
    Mapping,
    align,
    candidate_pairs,
    lexical_score,
    read_mappings,
    render_mappings,
)
from ontorag.errors import DataError, ProviderError
from ontorag.model import Ontology, OntologyClass, label_tokens, normalize_label
from ontorag.ragstore import DeterministicEmbedder

CS = "http://example.org/clinical-signs#"
S = "http://purl.obolibrary.org/obo/"


def _reference_score(text_a, text_b):
    """The lexical formula with Levenshtein always run: the exactness oracle."""
    a, b = normalize_label(text_a), normalize_label(text_b)
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    ta, tb = set(label_tokens(a)), set(label_tokens(b))
    jaccard = len(ta & tb) / len(ta | tb) if (ta or tb) else 0.0
    return max(jaccard, 1.0 - levenshtein(a, b) / max(len(a), len(b)))


# Labels over a small alphabet, so that many pairs sit near any floor.
_labels = st.text(alphabet="ab c-", max_size=16) | st.text(max_size=16)


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

    @given(st.lists(st.tuples(st.text(max_size=20), st.text(max_size=20)), max_size=8))
    def test_scorer_batch_matches_pairwise(self, pairs):
        assert LexicalScorer().score_many(pairs) == [lexical_score(a, b) for a, b in pairs]

    @given(st.lists(st.tuples(_labels, _labels), max_size=8), st.floats(0.0, 1.0))
    # An early exit that scored its partial distance broke the contract here.
    @example([("aaaaa", "000")], 0.5)
    def test_floor_contract(self, pairs, floor):
        exact = [_reference_score(a, b) for a, b in pairs]
        assert [lexical_score(a, b) for a, b in pairs] == exact
        scorer = LexicalScorer()
        for pair, want, got in zip(pairs, exact, scorer.score_many(pairs, floor=floor), strict=True):
            if want >= floor:
                assert got == want
            else:
                assert got < floor and got <= want
            # a floor equal to the exact score still gets it exactly
            assert scorer.score_many([pair], floor=want) == [want]

    @pytest.mark.parametrize("longest", range(10, 80, 10))
    def test_cutoff_keeps_scores_at_the_floor(self, longest):
        # int((1 - 0.9) * longest) is one below the largest distance that
        # still scores 0.9, so a cutoff taken from it would lose this pair.
        a = "a" * longest
        b = "a" * (longest - longest // 10) + "b" * (longest // 10)
        assert LexicalScorer().score_many([(a, b)], floor=0.9) == [0.9]


def _cls(iri, label, synonyms=()):
    return OntologyClass(iri=iri, label=label, synonyms=frozenset(synonyms))


def _onto(oid, *classes):
    return Ontology(id=oid, classes={c.iri: c for c in classes})


def test_class_score_uses_synonyms():
    src = _onto("s", _cls("http://a/#1", "zzz", synonyms=["loose stools"]))
    tgt = _onto("t", _cls("http://b/#1", "diarrhoea", synonyms=["loose stools"]))
    assert align(src, tgt) == [Mapping("http://a/#1", "http://b/#1", 1.0)]


def test_align_scores_each_candidate_on_its_own_texts():
    src = _onto("s", _cls("http://a/#1", "dry cough", synonyms=["cough"]))
    # the middle class normalizes to no text at all, so its block is empty
    tgt = _onto("t", _cls("http://b/#1", "cough"), _cls("http://b/#2", "---"), _cls("http://b/#3", "wet cough"))
    got = align(src, tgt, threshold=0.0, use_blocking=False)
    wet = max(lexical_score(a, "wet cough") for a in ("dry cough", "cough"))
    assert [(m.target, m.score) for m in got] == [("http://b/#1", 1.0), ("http://b/#2", 0.0), ("http://b/#3", wet)]


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


@pytest.mark.parametrize("a, b", [("CO", "co"), ("IL-2", "il 2")])
def test_blocking_keeps_equal_labels_of_short_tokens(a, b):
    src = _onto("s", _cls("http://a/#1", a))
    tgt = _onto("t", _cls("http://b/#1", b))
    expected = [Mapping("http://a/#1", "http://b/#1", 1.0)]
    assert align(src, tgt, use_blocking=False) == expected
    assert align(src, tgt) == expected


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


def test_align_without_blocking_sorts_each_ontology_once(source_onto, target_onto, monkeypatch):
    sorted_ids = []
    real = Ontology.sorted_iris
    monkeypatch.setattr(Ontology, "sorted_iris", lambda self: sorted_ids.append(self.id) or real(self))
    align(source_onto, target_onto, use_blocking=False)
    assert sorted(sorted_ids) == sorted([source_onto.id, target_onto.id])


def test_align_wraps_scorer_errors(source_onto, target_onto):
    class Boom:
        def score_many(self, pairs, floor=0.0):
            raise RuntimeError("nope")

    with pytest.raises(ProviderError) as err:
        align(source_onto, target_onto, scorer=Boom())
    first_source = candidate_pairs(source_onto, target_onto)[0][0]
    assert str(err.value) == f"scoring failed for {first_source}: nope"


@pytest.mark.parametrize("threshold", [0.9, 0.65])
def test_align_skips_levenshtein_and_stays_exact(source_onto, target_onto, levenshtein_calls, threshold):
    got = align(source_onto, target_onto, threshold=threshold)
    calls = len(levenshtein_calls)
    expected, unequal_text_pairs = [], 0
    for s_iri, t_iri in candidate_pairs(source_onto, target_onto):
        s_texts = source_onto.classes[s_iri].normalized_texts
        t_texts = target_onto.classes[t_iri].normalized_texts
        unequal_text_pairs += sum(a != b for a in s_texts for b in t_texts)
        best = max((lexical_score(a, b) for a in s_texts for b in t_texts), default=0.0)
        if best >= threshold:
            expected.append(Mapping(s_iri, t_iri, best))
    # without the bound, every text pair with unequal normal forms runs Levenshtein
    assert 0 < calls < unequal_text_pairs
    assert got == expected


def test_mapping_tsv_round_trip(tmp_path, fixture_mappings):
    path = tmp_path / "m.tsv"
    path.write_text(render_mappings(fixture_mappings), encoding="utf-8")
    assert read_mappings(str(path)) == fixture_mappings
    # repr floats survive exactly
    odd = [Mapping("http://a/#1", "http://b/#1", 0.1 + 0.2)]
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
    # errors name the physical line, blank lines included
    path.write_text("source_iri\ttarget_iri\tscore\trelation\na\tb\t0.5\tEQUIV\n\n\na\tb\tx\tEQUIV\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.tsv:5:"):
        read_mappings(str(path))


class TestEmbeddingScorer:
    def test_identical_texts_score_one(self):
        scorer = EmbeddingScorer(DeterministicEmbedder(dim=32))
        assert scorer.score_many([("fever", "fever")]) == [pytest.approx(1.0)]

    def test_clamped_to_unit_interval(self):
        scorer = EmbeddingScorer(DeterministicEmbedder(dim=32))
        pairs = [("fever", "rash"), ("a b c", "c b a"), ("x", "y z"), ("fever", "rash")]
        scores = scorer.score_many(pairs)
        assert len(scores) == len(pairs)
        for (a, b), score in zip(pairs, scores):
            va, vb = DeterministicEmbedder(32).embed([a])[0], DeterministicEmbedder(32).embed([b])[0]
            cos = float(np.dot(va, vb) / (float(np.linalg.norm(va)) * float(np.linalg.norm(vb))))
            assert score == min(1.0, max(0.0, cos))
            assert 0.0 <= score <= 1.0

    def test_vectors_are_cached(self, source_onto, target_onto):
        batches = []

        class Counting(DeterministicEmbedder):
            def embed(self, texts):
                batches.append(list(texts))
                return super().embed(texts)

        align(source_onto, target_onto, scorer=EmbeddingScorer(Counting(dim=64)), threshold=0.5)
        pairs = candidate_pairs(source_onto, target_onto)
        embedded = [text for batch in batches for text in batch]
        assert len(embedded) == len(set(embedded))
        assert set(embedded) == {
            text
            for s_iri, t_iri in pairs
            for text in source_onto.classes[s_iri].normalized_texts | target_onto.classes[t_iri].normalized_texts
        }
        assert len(batches) <= len({s_iri for s_iri, _ in pairs})
        assert all(batch == sorted(batch) for batch in batches)


class _NoWalkCache(dict):
    """A scorer cache that fails if anything lists or copies its keys."""

    def keys(self):
        raise AssertionError("cache keys listed")

    def __iter__(self):
        raise AssertionError("cache iterated")


@pytest.mark.parametrize(
    "make", [LexicalScorer, lambda: EmbeddingScorer(DeterministicEmbedder(dim=32))], ids=["lexical", "embedding"]
)
def test_scorer_cache_is_looked_up_per_text(make, source_onto, target_onto):
    scorer = make()
    scorer._cache = _NoWalkCache()
    got = align(source_onto, target_onto, scorer=scorer, threshold=0.5)
    assert got == align(source_onto, target_onto, scorer=make(), threshold=0.5)
    assert len(scorer._cache) > 0
    # a second batch finds its texts in the cache
    pairs = [("fever", "rash"), ("rash", "Fever")]
    assert scorer.score_many(pairs) == make().score_many(pairs)
