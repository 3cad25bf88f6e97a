import dataclasses

import pytest

from ontorag.errors import ParseError, UnknownClassError
from ontorag.model import (
    Ontology,
    OntologyClass,
    label_tokens,
    local_name,
    normalize_label,
    subclass_closure,
)

from hypothesis import given
from hypothesis import strategies as st


def test_normalize_label_basic():
    assert normalize_label("Heart Attack") == "heart attack"
    assert normalize_label("myocardial-infarction") == "myocardial infarction"
    assert normalize_label("  a   b ") == "a b"
    assert normalize_label("") == ""


def test_normalize_label_dash_variants():
    # hyphen, non-breaking hyphen, en dash, em dash, underscore
    for dash in ["-", "‐", "–", "—", "_"]:
        assert normalize_label(f"x{dash}y") == "x y"
    assert normalize_label("a--b__c") == "a b c"


@given(st.text(max_size=60))
def test_normalize_label_idempotent(text):
    once = normalize_label(text)
    assert normalize_label(once) == once


def test_label_tokens():
    assert label_tokens("High (grade) fever!") == ["high", "grade", "fever"]
    assert label_tokens("covid-19 test") == ["covid", "19", "test"]
    assert label_tokens("") == []
    assert label_tokens("...") == []


def test_local_name():
    assert local_name("http://example.org/x#Frag") == "Frag"
    assert local_name("http://purl.obolibrary.org/obo/S_0001") == "S_0001"
    with pytest.raises(ParseError):
        local_name("http://example.org/trailing/")
    with pytest.raises(ParseError):
        local_name("has space")
    with pytest.raises(ParseError):
        local_name("")


def _cls(iri, label="", synonyms=(), parents=()):
    return OntologyClass(iri=iri, label=label, synonyms=frozenset(synonyms), parents=frozenset(parents))


def test_class_display_label_falls_back_to_iri():
    c = _cls("http://purl.obolibrary.org/obo/S_0001")
    assert c.display_label == "s 0001"
    named = _cls("http://x.org/a#B", label="Chest Pain")
    assert named.display_label == "Chest Pain"


def test_class_rejects_bad_fields():
    with pytest.raises(ParseError):
        _cls("http://x.org/a#B", synonyms=[""])
    with pytest.raises(ParseError):
        _cls("http://x.org/a#B", parents=["http://x.org/a#B"])
    with pytest.raises(ParseError):
        _cls("not an iri")


@pytest.mark.parametrize("iri", ["http://x.org/a\tb", "http://x.org/a\u00a0b", "http://x.org/a\u2028b", "\x1c", " "])
def test_class_rejects_whitespace_iri(iri):
    with pytest.raises(ParseError, match="^IRI contains whitespace: "):
        _cls(iri)
    with pytest.raises(ParseError, match="^empty IRI$"):
        _cls("")


def test_class_is_a_frozen_value():
    syns = frozenset({"pyrexia"})
    c = OntologyClass("http://x.org/a#B", "fever", syns, ["http://x.org/a#A"])
    same = OntologyClass(iri="http://x.org/a#B", label="fever", synonyms=["pyrexia"], parents=("http://x.org/a#A",))
    assert c == same and hash(c) == hash(same)
    assert hash(c) == hash(("http://x.org/a#B", "fever", syns, frozenset({"http://x.org/a#A"})))
    assert c.synonyms is syns
    assert type(same.synonyms) is frozenset and type(same.parents) is frozenset
    assert c != OntologyClass("http://x.org/a#B", "Fever", syns, ["http://x.org/a#A"])
    assert c != ("http://x.org/a#B", "fever", syns, frozenset({"http://x.org/a#A"}))
    assert repr(OntologyClass("http://x/#a")) == (
        "OntologyClass(iri='http://x/#a', label='', synonyms=frozenset(), parents=frozenset())"
    )
    for name in ("iri", "label", "synonyms", "parents", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del c.label
    assert dataclasses.replace(c, label="pyrexia") == OntologyClass("http://x.org/a#B", "pyrexia", syns, c.parents)
    assert [f.name for f in dataclasses.fields(c)] == ["iri", "label", "synonyms", "parents"]
    # the normalized texts are computed once and kept
    assert c.normalized_texts is c.normalized_texts == frozenset({"fever", "pyrexia"})


def test_normalized_texts_union():
    c = _cls("http://x.org/a#B", label="Heart-Attack", synonyms=["Cardiac  Arrest", "heart attack"])
    assert c.normalized_texts == frozenset({"heart attack", "cardiac arrest"})


def _onto(*classes):
    return Ontology(id="t", classes={c.iri: c for c in classes})


def test_ontology_get_unknown():
    o = _onto(_cls("http://x/#a"))
    assert o.get("http://x/#a").iri == "http://x/#a"
    with pytest.raises(UnknownClassError):
        o.get("http://x/#missing")


def test_children_index():
    a = _cls("http://x/#a")
    b = _cls("http://x/#b", parents=["http://x/#a"])
    c = _cls("http://x/#c", parents=["http://x/#a"])
    o = _onto(a, b, c)
    assert o.children("http://x/#a") == ("http://x/#b", "http://x/#c")
    assert o.children("http://x/#b") == ()


def test_subclass_closure_chain_and_diamond():
    a = _cls("http://x/#a")
    b = _cls("http://x/#b", parents=["http://x/#a"])
    c = _cls("http://x/#c", parents=["http://x/#b"])
    d = _cls("http://x/#d", parents=["http://x/#b", "http://x/#a"])
    o = _onto(a, b, c, d)
    assert subclass_closure(o, "http://x/#a") == {"http://x/#b", "http://x/#c", "http://x/#d"}
    assert subclass_closure(o, "http://x/#b") == {"http://x/#c", "http://x/#d"}
    assert subclass_closure(o, "http://x/#c") == set()
    # the class itself is never part of its own closure
    assert "http://x/#a" not in subclass_closure(o, "http://x/#a")


def test_subclass_closure_terminates_on_cycle():
    a = _cls("http://x/#a", parents=["http://x/#b"])
    b = _cls("http://x/#b", parents=["http://x/#a"])
    o = _onto(a, b)
    # cycles are invalid input, but the traversal must still terminate,
    # and the root stays excluded
    assert subclass_closure(o, "http://x/#a") == {"http://x/#b"}


def test_sorted_iris(target_onto):
    iris = target_onto.sorted_iris()
    assert iris == sorted(iris)
    assert len(iris) == len(target_onto.classes)
