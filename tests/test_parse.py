import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontorag.errors import DataError, ParseError
from ontorag.fixtures import fixture_text
from ontorag.model import Ontology, OntologyClass, subclass_closure
from ontorag.parse import (
    ParseReport,
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
    # each warning names the line of its stanza's [Term] header
    assert report.warnings == [
        (3, "term stanza without id: skipped"),
        (6, "self is_a on W:1 dropped"),
        (11, "duplicate id W:1: previous term replaced"),
    ]


def test_parse_obo_lines_end_at_newline_only():
    # A form feed and U+2028 are line breaks to str.splitlines, not to grep -n.
    text = "ontology: ff\n\n[Term]\nid: FF:1\nname: a\x0cb\u2028c\n\n[Term]\nname: no id\n"
    report = parse_obo(text)
    assert report.ontology.get("http://purl.obolibrary.org/obo/FF_1").label == "a\x0cb\u2028c"
    assert report.warnings == [(7, "term stanza without id: skipped")]


@pytest.mark.parametrize("value", ["true ! gone", "true {source=\"x\"}", "TRUE {a=b} ! gone", " true\r"])
def test_parse_obo_obsolete_drops_modifiers_and_comment(value):
    report = parse_obo(f"ontology: o\n\n[Term]\nid: O:1\n\n[Term]\nid: O:2\nis_obsolete: {value}\n")
    assert set(report.ontology.classes) == {obo_id_to_iri("O:1")}
    assert report.warnings == []


@pytest.mark.parametrize(
    "value, synonyms",
    [
        (r'"the \"big\" one" EXACT []', {r'the \"big\" one'}),
        (r'"ends in a backslash\\" EXACT []', {"ends in a backslash\\\\"}),
        (r'"a \\\" b" RELATED []', {r'a \\\" b'}),
        (r'"never closed\" EXACT []', set()),
        ('"plain" EXACT []', {"plain"}),
    ],
)
def test_parse_obo_synonym_ends_at_the_first_unescaped_quote(value, synonyms):
    report = parse_obo(f"ontology: s\n\n[Term]\nid: S:1\nsynonym: {value}\n")
    assert report.ontology.classes[obo_id_to_iri("S:1")].synonyms == synonyms


@pytest.mark.parametrize("ident", ["A:1\tx", "A:1\x0bx", "A:1\u00a0x", "A:1\u3000x", "A:1 x"])
def test_parse_obo_id_with_whitespace_skips_its_stanza(ident):
    text = f"ontology: ws\n\n[Term]\nid: B:1\n\n[Term]\nid: {ident}\nname: bad\n"
    report = parse_obo(text)
    assert set(report.ontology.classes) == {obo_id_to_iri("B:1")}
    assert report.warnings == [(6, "term stanza without id: skipped")]


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


def test_parse_obo_ontology_id_drops_its_comment():
    assert parse_obo("ontology: demo ! the demo\n\n[Term]\nid: A:1\n").ontology.id == "demo"


def test_parse_obo_term_header_drops_its_comment():
    report = parse_obo("ontology: d\n\n[Term] ! first\nid: A:1\nname: a\n\n[Term]\nid: A:2\n")
    assert set(report.ontology.classes) == {obo_id_to_iri("A:1"), obo_id_to_iri("A:2")}
    assert report.ontology.classes[obo_id_to_iri("A:1")].label == "a"
    assert report.warnings == []


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


# ---------------------------------------------------------------- reference readers
#
# The readers as they were before the one-pass OBO reader and the cheaper JSON
# checks, with five fixes applied: `is_obsolete:` drops its trailing comment
# and modifiers, a synonym ends at the first quote no backslash escapes, an id
# with any whitespace skips its stanza, the `ontology:` value drops its trailing
# comment, and so does a `[Term]` header. They are written the plain way on
# purpose, so that the tests below check the fast readers against them.

_REF_VALUE_RE = re.compile(r"[^\\!{]*(?:\\.?[^\\!{]*)*")


def _ref_value(value):
    return _REF_VALUE_RE.match(value).group().rstrip()


def _ref_synonym_text(value):
    first = value.find('"')
    if first < 0:
        return None
    i = first + 1
    while i < len(value):
        if value[i] == "\\":
            i += 2
        elif value[i] == '"':
            return value[first + 1 : i]
        else:
            i += 1
    return None


def _reference_parse_obo(text):
    lines = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
    warnings = []
    ontology_id = "obo"
    stanzas = []
    current = None
    in_header = True
    for lineno, raw in lines:
        line = raw.strip()
        if line.startswith("["):
            in_header = False
            current = {"line": lineno, "id": None, "name": "", "synonyms": [], "parents": [], "obsolete": False}
            if line.split("!", 1)[0].rstrip() == "[Term]":
                stanzas.append(current)
            else:
                current = None
            continue
        if ":" not in line:
            continue
        tag, _, value = line.partition(":")
        tag = tag.strip()
        value = value.strip()
        if in_header:
            if tag == "ontology":
                ontology_id = _ref_value(value)
            continue
        if current is None:
            continue
        if tag == "id":
            ident = _ref_value(value)
            if ident and not any(ch.isspace() for ch in ident):
                current["id"] = ident
        elif tag == "name":
            current["name"] = _ref_value(value)
        elif tag == "is_a":
            parent = _ref_value(value)
            if parent:
                current["parents"].append(parent)
        elif tag == "synonym":
            syn = _ref_synonym_text(value)
            if syn:
                current["synonyms"].append(syn)
        elif tag == "is_obsolete":
            current["obsolete"] = _ref_value(value).lower() == "true"

    classes = {}
    for stanza in stanzas:
        if stanza["obsolete"]:
            continue
        if not stanza["id"]:
            warnings.append((stanza["line"], "term stanza without id: skipped"))
            continue
        iri = obo_id_to_iri(stanza["id"])
        parents = {obo_id_to_iri(p) for p in stanza["parents"]}
        if iri in parents:
            warnings.append((stanza["line"], f"self is_a on {stanza['id']} dropped"))
            parents.discard(iri)
        if iri in classes:
            warnings.append((stanza["line"], f"duplicate id {stanza['id']}: previous term replaced"))
        classes[iri] = OntologyClass(
            iri=iri, label=stanza["name"], synonyms=frozenset(stanza["synonyms"]), parents=frozenset(parents)
        )
    if not classes:
        raise ParseError("no terms parsed from OBO input")
    return ParseReport(Ontology(id=ontology_id, classes=classes), warnings)


def _reference_parse_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("id"), str):
        raise ParseError('ontology document must be an object with a string "id"')
    entries = doc.get("classes")
    if not isinstance(entries, list):
        raise ParseError('ontology document must carry a "classes" list')
    warnings = []
    classes = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("iri"), str) or not entry["iri"]:
            raise ParseError(f'class entry {index} without "iri": {entry!r}')
        iri = entry["iri"]
        label, synonyms, parents = entry.get("label", ""), entry.get("synonyms", []), entry.get("parents", [])
        if not (
            isinstance(label, str)
            and isinstance(synonyms, list)
            and isinstance(parents, list)
            and all(isinstance(v, str) for v in synonyms + parents)
        ):
            raise ParseError(f'class {iri}: "label" must be a string, "synonyms" and "parents" lists of strings')
        synonyms = {s for s in synonyms if s}
        parents = set(parents)
        if iri in parents:
            warnings.append((None, f"class entry {index} ({iri}): self is_a dropped"))
            parents.discard(iri)
        if iri in classes:
            warnings.append((None, f"class entry {index} ({iri}): duplicate iri, previous class replaced"))
        classes[iri] = OntologyClass(iri=iri, label=label, synonyms=frozenset(synonyms), parents=frozenset(parents))
    if not classes:
        raise ParseError("ontology document has zero classes")
    return ParseReport(Ontology(id=doc["id"], classes=classes), warnings)


def _outcome(reader, text):
    """The report ``reader`` returns for ``text``, or the message of its ParseError."""
    try:
        return reader(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


# ---------------------------------------------------------------- generated OBO

_IDS = ["X:1", "X:2", "X:3", "http://x.org/a#b", "X:1\u00a0y"]
_VALUE_PIECES = [
    "pain", "X:1", "X:2", "a b", " ", "\t", "!", "! c", "{", "}", '{k="v"}', "\\", "\\!", "\\{",
    '\\"', '"', ":", "\x0c", "\u2028", "true", "TRUE",
]
_ws = st.sampled_from(["", "", "", " ", "\t", " \t"])
_value = st.lists(st.sampled_from(_VALUE_PIECES), max_size=5).map("".join)
_comment = st.sampled_from(["", "", " ! parent", " {x=y}", "\t! c", ' {a="b"} ! c', " \\! z", "\\{q} ! c", " !"])


@st.composite
def _tag_line(draw):
    tag = draw(st.sampled_from(["name", "is_a", "is_a", "synonym", "synonym", "is_obsolete", "id", "def", "id "]))
    shape = draw(st.integers(0, 3))
    if tag in ("id", "is_a") and shape:
        value = draw(st.sampled_from(_IDS)) + draw(_comment)
    elif tag == "synonym" and shape:
        value = '"' + draw(_value) + '"' + draw(st.sampled_from([" EXACT []", "", " RELATED [] ! c"]))
    elif tag == "is_obsolete" and shape:
        value = draw(st.sampled_from(["true", "false", "true ! gone", "true {a=b}", "True", "\\true"]))
    else:
        value = draw(_value)
    return draw(_ws) + tag + draw(_ws) + ":" + draw(_ws) + value + draw(_ws)


_other_line = st.sampled_from(
    ["", "", " ", "\t", " \t ", "\x0c", "! a comment", "no colon here", "xref: A:1", "ontology: late"]
)


@st.composite
def _stanza(draw):
    header = draw(st.sampled_from(["[Term]", "[Term]", "[Term]", " [Term]\t", "[Typedef]", "[Term] ! c", "["]))
    lines = [header]
    if draw(st.integers(0, 5)):
        lines.append(draw(_ws) + "id:" + draw(_ws) + draw(st.sampled_from(_IDS)) + draw(_comment))
    lines += draw(st.lists(st.one_of(_tag_line(), _tag_line(), _other_line), max_size=6))
    return lines


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_other_line, st.sampled_from(["ontology: gen", " ontology : g2 ! c", "format-version: 1.2"]))),
    st.lists(_stanza(), max_size=6),
    st.sampled_from(["\n", "\r\n"]),
)
def test_parse_obo_matches_the_reference_reader(header, stanzas, newline):
    text = newline.join(header + [line for stanza in stanzas for line in stanza]) + newline
    assert _outcome(parse_obo, text) == _outcome(_reference_parse_obo, text)


# ---------------------------------------------------------------- generated JSON

_odd = st.sampled_from([None, 0, 1.5, True, {}, {"a": "b"}, ["x"]])
_iri = st.sampled_from(["http://x/#a", "http://x/#b", "http://x/#c"])
_bad_iri = st.sampled_from(["", "http://x/#a b", "http://x/#\tc", "http://x/#\u00a0d"])
_strings = st.lists(st.one_of(_iri, st.sampled_from(["fever", "", "pyrexia"])), max_size=4)
_good = {"label": st.sampled_from(["", "fever", "high fever"]), "synonyms": _strings, "parents": _strings}
# A list of strings with one item of another type somewhere in it.
_one_odd_item = st.tuples(st.lists(_iri, max_size=2), _odd, st.lists(_iri, max_size=2)).map(
    lambda parts: [*parts[0], parts[1], *parts[2]]
)
_bad = {
    "iri": st.one_of(_bad_iri, _odd),
    "label": _odd,
    "synonyms": st.one_of(_odd, st.just("fever"), _one_odd_item),
    "parents": st.one_of(_odd, st.just("http://x/#a"), _one_odd_item),
}


_rarely = st.sampled_from([False] * 29 + [True])
_now_and_then = st.sampled_from([False] * 4 + [True])


@st.composite
def _entry(draw):
    """Mostly a class entry with valid fields, each maybe absent; now and then one is wrong."""
    if draw(_rarely):
        return draw(_odd)
    entry = {"iri": draw(_iri)}
    for key, value in _good.items():
        if draw(st.booleans()):
            entry[key] = draw(value)
    if draw(_now_and_then):
        key = draw(st.sampled_from(sorted(_bad)))
        entry[key] = draw(_bad[key])
    if draw(_rarely):
        del entry["iri"]
    return entry


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["j"] * 8 + ["", None]),
    st.lists(_entry(), max_size=6),
    st.sampled_from(["list"] * 8 + ["absent", "object"]),
)
def test_parse_json_matches_the_reference_reader(doc_id, entries, shape):
    doc = {"id": doc_id}
    if shape != "absent":
        doc["classes"] = entries if shape == "list" else dict(enumerate(entries))
    text = json.dumps(doc)
    assert _outcome(parse_json_ontology, text) == _outcome(_reference_parse_json, text)
