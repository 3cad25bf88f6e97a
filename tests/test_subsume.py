import pytest

import ontorag.subsume
from ontorag.align import EquivalenceMapping, LexicalScorer, lexical_score
from ontorag.errors import DataError, UnknownClassError
from ontorag.infiltrate import infiltrate
from ontorag.model import label_tokens, normalize_label
from ontorag.subsume import (
    SubsumptionDictionary,
    SubsumptionPair,
    build_dictionary,
    build_subsumption_corpus,
    predict_subsumptions,
    read_corpus,
    render_corpus,
)

CS = "http://example.org/clinical-signs#"
S = "http://purl.obolibrary.org/obo/"


def _brute_positives(target, mappings):
    """Transitive closure by fixpoint iteration, independent of the library walk."""
    out = set()
    for m in mappings:
        below = {m.target}
        changed = True
        while changed:
            changed = False
            for iri, cls in target.classes.items():
                if iri not in below and cls.parents & below:
                    below.add(iri)
                    changed = True
        below.discard(m.target)
        out.update((m.source, d) for d in below)
    return out


def test_corpus_positives_match_closure(source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    positives = [(p.concept, p.candidate) for p in corpus if p.label]
    assert set(positives) == _brute_positives(target_onto, fixture_mappings)
    assert len(positives) == 23
    assert positives == sorted(positives)
    # grandchild reached through the hierarchy
    assert (f"{S}S_0003", f"{CS}CS_0311") in set(positives)


def test_corpus_negatives_are_sound(source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    positives = {(p.concept, p.candidate) for p in corpus if p.label}
    negatives = [p for p in corpus if not p.label]
    assert len(negatives) == 23
    for p in negatives:
        assert (p.concept, p.candidate) not in positives
        assert p.candidate in target_onto.classes


def test_corpus_seeding(source_onto, target_onto, fixture_mappings):
    one = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=5)
    again = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=5)
    other = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=6)
    assert one == again
    assert one != other


def test_corpus_negative_multiplier(source_onto, target_onto, fixture_mappings):
    none = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, negatives_per_positive=0)
    assert all(p.label for p in none)
    double = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, negatives_per_positive=2)
    assert sum(1 for p in double if not p.label) == 46
    with pytest.raises(DataError):
        build_subsumption_corpus(source_onto, target_onto, fixture_mappings, negatives_per_positive=-1)


def test_corpus_rejects_bad_mappings(source_onto, target_onto):
    with pytest.raises(UnknownClassError):
        build_subsumption_corpus(
            source_onto, target_onto, [EquivalenceMapping("http://nope/#x", f"{CS}CS_0001", 1.0)]
        )
    with pytest.raises(DataError):
        build_subsumption_corpus(
            source_onto,
            target_onto,
            [EquivalenceMapping(f"{S}S_0001", f"{CS}CS_0001", 1.0, relation="SUBSUMED_BY")],
        )


def test_predict_threshold_boundary(source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    accepted = predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto)
    pairs = {(m.source, m.target): m.score for m in accepted}
    # exactly at the 0.5 threshold: accepted
    assert pairs[(f"{S}S_0002", f"{CS}CS_0201")] == pytest.approx(0.5)
    # just under: rejected (fecal impaction scores 7/15)
    assert (f"{S}S_0003", f"{CS}CS_0303") not in pairs
    assert pairs[(f"{S}S_0003", f"{CS}CS_0301")] == pytest.approx(0.6)
    assert pairs[(f"{S}S_0013", f"{CS}CS_1201")] == pytest.approx(0.76)
    assert all(m.relation == "SUBSUMED_BY" for m in accepted)
    keys = [(m.source, m.target) for m in accepted]
    assert keys == sorted(keys)


def test_predict_accepts_exactly_the_pairwise_scores(source_onto, target_onto, fixture_mappings, levenshtein_calls):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    labels = {
        (p.concept, p.candidate): (source_onto.get(p.concept).display_label, target_onto.get(p.candidate).display_label)
        for p in corpus
    }
    accepted = predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto)
    calls = len(levenshtein_calls)
    expected = sorted(
        (key, score) for key, pair in labels.items() if (score := lexical_score(*pair)) >= 0.5
    )
    assert [((m.source, m.target), m.score) for m in accepted] == expected
    assert all(m.relation == "SUBSUMED_BY" for m in accepted)
    # without the bound, each pair of unequal non-empty normal forms runs Levenshtein
    normal = [(normalize_label(a), normalize_label(b)) for a, b in labels.values()]
    assert 0 < calls < sum(1 for a, b in normal if a and b and a != b)


def test_predict_scores_negatives_too(source_onto, target_onto, fixture_mappings):
    # seed 0 draws the (fatigue, fatigue) negative, which scores 1.0 and stays
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    accepted = predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto)
    pairs = {(m.source, m.target): m.score for m in accepted}
    assert pairs[(f"{S}S_0007", f"{CS}CS_0007")] == 1.0
    assert len(accepted) == 15


def test_predict_custom_threshold(source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    strict = predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto, threshold=0.7)
    assert {(m.source, m.target) for m in strict} == {
        (f"{S}S_0007", f"{CS}CS_0007"),
        (f"{S}S_0013", f"{CS}CS_1201"),
    }


def test_build_dictionary_fixture(source_onto, target_onto, fixture_dictionary):
    entries = fixture_dictionary.entries
    assert entries["constipation"] == ("acute constipation", "chronic constipation")
    assert entries["cough"] == ("dry cough", "productive cough", "whooping cough")
    assert entries["headache"] == ("cluster headache", "tension headache")
    assert entries["shortness of breath"] == ("acute shortness of breath",)
    assert entries["fatigue"] == ("fatigue", "chronic fatigue")
    assert len(entries) == 10
    assert fixture_dictionary.max_key_word_count == 3


def test_build_dictionary_truncates(source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    accepted = predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto)
    one = build_dictionary(accepted, source_onto, target_onto, max_per_anchor=1)
    assert one.entries["cough"] == ("dry cough",)
    assert one.entries["constipation"] == ("acute constipation",)
    with pytest.raises(DataError):
        build_dictionary(accepted, source_onto, target_onto, max_per_anchor=0)


def test_build_dictionary_dedupes_by_best_score(source_onto, target_onto):
    dup = [
        EquivalenceMapping(f"{S}S_0004", f"{CS}CS_0401", 0.5, relation="SUBSUMED_BY"),
        EquivalenceMapping(f"{S}S_0004", f"{CS}CS_0401", 0.9, relation="SUBSUMED_BY"),
        EquivalenceMapping(f"{S}S_0004", f"{CS}CS_0402", 0.6, relation="SUBSUMED_BY"),
    ]
    d = build_dictionary(dup, source_onto, target_onto)
    assert d.entries["cough"] == ("dry cough", "productive cough")


def test_dictionary_lookup_normalizes(fixture_dictionary):
    entries = fixture_dictionary.entries
    assert all(key == normalize_label(key) for key in entries)
    assert entries[normalize_label("Constipation")] == ("acute constipation", "chronic constipation")
    assert entries[normalize_label("  chest-pain ")] == ("crushing chest pain",)
    assert normalize_label("unknown thing") not in entries


def test_max_key_word_count_tokenizes_each_anchor_once(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return label_tokens(text)

    monkeypatch.setattr(ontorag.subsume, "label_tokens", counting)
    d = SubsumptionDictionary(entries={"cough": ("dry cough",), "chest pain": ("crushing chest pain",)})
    for prompt in ("a cough", "chest pain again", "nothing here"):
        infiltrate(prompt, d)
    assert len(calls) == len(d.entries)


def test_dictionary_json_round_trip(fixture_dictionary):
    text = fixture_dictionary.to_json()
    again = SubsumptionDictionary.from_json(text)
    assert again == fixture_dictionary
    assert again.to_json() == text


def test_dictionary_json_validation():
    with pytest.raises(DataError):
        SubsumptionDictionary.from_json("{nope")
    with pytest.raises(DataError):
        SubsumptionDictionary.from_json("[]")
    with pytest.raises(DataError):
        SubsumptionDictionary.from_json('{"entries": {"a": "not a list"}}')
    with pytest.raises(DataError):
        SubsumptionDictionary.from_json('{"entries": {"a": [1, 2]}}')
    empty = SubsumptionDictionary.from_json('{"entries": {}}')
    assert empty.entries == {}
    assert empty.max_key_word_count == 0


def test_corpus_tsv_round_trip(tmp_path, source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    path = tmp_path / "c.tsv"
    path.write_text(render_corpus(corpus), encoding="utf-8")
    assert read_corpus(str(path)) == corpus


def test_read_corpus_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("nope\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_corpus(str(path))
    path.write_text("concept_iri\tcandidate_iri\tlabel\na\tb\t2\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_corpus(str(path))
    path.write_text("concept_iri\tcandidate_iri\tlabel\na\tb\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_corpus(str(path))
    # errors name the physical line, blank lines included
    path.write_text("concept_iri\tcandidate_iri\tlabel\n\n\na\tb\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.tsv:4:"):
        read_corpus(str(path))


def test_predict_scores_in_one_batch(source_onto, target_onto, fixture_mappings):
    batches = []

    class Recording(LexicalScorer):
        def score_many(self, pairs, floor=0.0):
            batches.append(list(pairs))
            return super().score_many(pairs, floor)

    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    predict_subsumptions(corpus, Recording(), source_onto, target_onto)
    assert len(batches) == 1
    assert len(batches[0]) == len({(p.concept, p.candidate) for p in corpus})


def test_predict_unknown_class_in_corpus(source_onto, target_onto):
    corpus = [SubsumptionPair("http://nope/#x", f"{CS}CS_0001", False)]
    with pytest.raises(UnknownClassError):
        predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto)
