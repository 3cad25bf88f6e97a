import json
import re

import pytest

from ontorag.errors import DataError, ParseError
from ontorag.fixtures import fixture_text
from ontorag.model import subclass_closure
from ontorag.parse import (
    obo_id_to_iri,
    parse_json_ontology,
    parse_obo,
    parse_ontology_file,
    read_text,
    serialize_ontology,
)

OBO_MIN = """format-version: 1.2
ontology: demo

[Term]
id: D:1
name: alpha

[Term]
id: D:2
name: beta
is_a: D:1 ! alpha
"""


def test_obo_id_to_iri():
    assert obo_id_to_iri("S:0001") == "http://purl.obolibrary.org/obo/S_0001"
    assert obo_id_to_iri("GO:12:34") == "http://purl.obolibrary.org/obo/GO_12:34"
    assert obo_id_to_iri("http://x.org/a#b") == "http://x.org/a#b"


def test_parse_obo_minimal():
    report = parse_obo(OBO_MIN)
    onto = report.ontology
    assert onto.id == "demo"
    assert len(onto.classes) == 2
    beta = onto.get("http://purl.obolibrary.org/obo/D_2")
    assert beta.label == "beta"
    assert beta.parents == frozenset({"http://purl.obolibrary.org/obo/D_1"})
    assert report.warnings == []


def test_parse_obo_fixture():
    report = parse_obo(fixture_text("symptoms.obo"))
    onto = report.ontology
    assert onto.id == "symptoms"
    # 21 stanzas, one obsolete
    assert len(onto.classes) == 20
    fever = onto.get("http://purl.obolibrary.org/obo/S_0001")
    assert fever.label == "fever"
    assert "pyrexia" in fever.synonyms
    chest = onto.get("http://purl.obolibrary.org/obo/S_0010")
    assert "http://purl.obolibrary.org/obo/S_0100" in chest.parents
    assert not any(c.label == "dropsy" for c in onto.classes.values())


def test_parse_obo_warnings():
    text = """ontology: w

[Term]
name: no id here

[Term]
id: W:1
name: one
is_a: W:1

[Term]
id: W:1
name: one again
"""
    report = parse_obo(text)
    messages = [m for _, m in report.warnings]
    assert any("id" in m for m in messages)
    assert any("self is_a" in m for m in messages)
    assert any("duplicate" in m for m in messages)
    # duplicate keeps the last definition; self is_a is dropped
    cls = report.ontology.get("http://purl.obolibrary.org/obo/W_1")
    assert cls.label == "one again"
    assert cls.parents == frozenset()
    total_lines = text.count("\n") + 1
    assert all(1 <= lineno <= total_lines for lineno, _ in report.warnings)


def test_parse_obo_lines_end_at_newline_only():
    # A form feed and U+2028 are line breaks to str.splitlines, not to grep -n.
    text = "ontology: ff\n\n[Term]\nid: FF:1\nname: a\x0cb\u2028c\n\n[Term]\nname: no id\n"
    report = parse_obo(text)
    assert report.ontology.get("http://purl.obolibrary.org/obo/FF_1").label == "a\x0cb\u2028c"
    assert report.warnings == [(7, "term stanza without id: skipped")]


def test_read_text_locates_a_bad_byte_past_the_first_buffer(tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes(b"line\r\n" * 20_000 + b"caf\xe9\n")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:20001: not UTF-8 text$"):
        read_text(str(path))


def test_parse_obo_trailing_modifiers():
    # OBO 1.4 allows a {modifier} block before the comment; it is not part of the id.
    text = """ontology: m

[Term]
id: X:1
name: pain

[Term]
id: X:2 {source="manual"}
name: chronic pain
is_a: X:1 {is_inferred="true"} ! pain
"""
    report = parse_obo(text)
    assert report.warnings == []
    assert subclass_closure(report.ontology, obo_id_to_iri("X:1")) == {obo_id_to_iri("X:2")}


@pytest.mark.parametrize(
    "value, label",
    [
        ('pain {comment="x"} ! c', "pain"),
        ("pain ! a comment", "pain"),
        ("pain {source=\"manual\"}", "pain"),
        (r"left \! right \{x\} ! comment", r"left \! right \{x\}"),
        ("pain", "pain"),
    ],
)
def test_parse_obo_name_drops_modifiers_and_comment(value, label):
    report = parse_obo(f"ontology: m\n\n[Term]\nid: X:1\nname: {value}\n")
    assert report.ontology.classes[obo_id_to_iri("X:1")].label == label


def test_parse_obo_empty_is_error():
    with pytest.raises(ParseError):
        parse_obo("format-version: 1.2\n")
    with pytest.raises(ParseError):
        parse_obo("")


def test_parse_json_fixture():
    report = parse_json_ontology(fixture_text("clinical_signs.json"))
    onto = report.ontology
    assert onto.id == "clinical-signs"
    assert len(onto.classes) == 36
    whooping = onto.get("http://example.org/clinical-signs#CS_0403")
    assert len(whooping.parents) == 2
    assert report.warnings == []


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_json_ontology("not json at all {")
    with pytest.raises(ParseError):
        parse_json_ontology('{"id": "x"}')
    with pytest.raises(ParseError):
        parse_json_ontology('{"id": "x", "classes": []}')
    with pytest.raises(ParseError, match='class entry 1 without "iri"'):
        parse_json_ontology('{"id": "x", "classes": [{"iri": "http://x/A"}, {"label": "no iri"}]}')


@pytest.mark.parametrize(
    "field, value",
    [("label", 5), ("synonyms", "abc"), ("synonyms", [1]), ("parents", "http://x/B"), ("parents", [[1]])],
)
def test_parse_json_field_types(field, value):
    text = json.dumps({"id": "x", "classes": [{"iri": "http://x/A", "label": "a", field: value}]})
    message = '^class http://x/A: "label" must be a string, "synonyms" and "parents" lists of strings$'
    with pytest.raises(ParseError, match=message):
        parse_json_ontology(text)


def test_parse_json_duplicate_and_self_parent_warn():
    text = (
        '{"id": "x", "classes": ['
        '{"iri": "http://x/#a", "label": "first"},'
        '{"iri": "http://x/#a", "label": "second"},'
        '{"iri": "http://x/#b", "label": "b", "parents": ["http://x/#b"]}'
        "]}"
    )
    report = parse_json_ontology(text)
    assert report.ontology.get("http://x/#a").label == "second"
    assert report.ontology.get("http://x/#b").parents == frozenset()
    assert len(report.warnings) == 2
    # JSON has no useful line: warnings name the class entry instead
    assert report.warnings == [
        (None, "class entry 1 (http://x/#a): duplicate iri, previous class replaced"),
        (None, "class entry 2 (http://x/#b): self is_a dropped"),
    ]


def test_serialize_round_trip(target_onto):
    text = serialize_ontology(target_onto)
    again = parse_json_ontology(text)
    assert again.ontology == target_onto
    assert serialize_ontology(again.ontology) == text


def test_obo_to_json_round_trip(source_onto):
    text = serialize_ontology(source_onto)
    assert parse_json_ontology(text).ontology == source_onto


def test_parse_ontology_file_sniffing(tmp_path):
    obo = tmp_path / "mini.obo"
    obo.write_text(OBO_MIN, encoding="utf-8")
    assert parse_ontology_file(str(obo)).ontology.id == "demo"

    js = tmp_path / "mini.json"
    js.write_text('{"id": "j", "classes": [{"iri": "http://x/#a", "label": "a"}]}', encoding="utf-8")
    assert parse_ontology_file(str(js)).ontology.id == "j"

    # unknown extension falls back to content sniffing
    other = tmp_path / "data.txt"
    other.write_text('{"id": "k", "classes": [{"iri": "http://x/#a", "label": "a"}]}', encoding="utf-8")
    assert parse_ontology_file(str(other)).ontology.id == "k"
    other.write_text(OBO_MIN, encoding="utf-8")
    assert parse_ontology_file(str(other)).ontology.id == "demo"


def test_parse_ontology_file_errors_name_the_path(tmp_path):
    for name, text in [("empty.obo", "format-version: 1.2\n"), ("empty.json", '{"id": "x", "classes": []}')]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            parse_ontology_file(str(path))
