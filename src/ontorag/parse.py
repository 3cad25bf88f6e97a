"""Ontology readers and writer, an OBO 1.4 flat-file subset plus a JSON
interchange format, and the reader every input file goes through.

The OBO reader only consumes what the pipeline needs from a `[Term]`
stanza: `id:`, `name:`, `is_a:`, `synonym:` and `is_obsolete:`. Everything
else is skipped silently. The JSON format is the round-trip form emitted
by :func:`serialize_ontology`.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DataError, ParseError
from .model import Ontology, OntologyClass

OBO_PURL_PREFIX = "http://purl.obolibrary.org/obo/"


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, newlines translated as ``open`` does.

    A file that is not UTF-8 is a :class:`DataError` naming ``path`` and the
    line of its first bad byte.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object is its bytes.
        raise _not_utf8(path, exc, 1) from None


def stdin_lines() -> Iterator[str]:
    """The lines of standard input, each decoded as UTF-8 once read, whatever the locale.

    Lines end at ``"\n"`` only. A line that is not UTF-8 is a DataError naming
    ``<stdin>`` and its number, raised after the lines before it are yielded.
    A closed standard input (``sys.stdin`` is None) is a DataError too.
    """
    if sys.stdin is None:
        raise DataError("<stdin>: standard input is closed")
    for lineno, raw in enumerate(sys.stdin.buffer, start=1):
        yield decode_utf8(raw, "<stdin>", lineno)


def decode_utf8(data: bytes | memoryview, name: str, first_line: int = 1) -> str:
    """``data``, which starts on line ``first_line`` of ``name``, decoded as UTF-8.

    Bytes that are not UTF-8 are a DataError naming ``name`` and the line of
    the first bad byte.
    """
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(name, exc, first_line) from None


def _not_utf8(name: str, exc: UnicodeDecodeError, first_line: int) -> DataError:
    """The error for bytes ``exc.object`` that start on ``first_line`` of ``name``."""
    line = first_line + exc.object.count(b"\n", 0, exc.start)
    return DataError(f"{name}:{line}: not UTF-8 text")


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, line) for each line of ``text`` that is not blank.

    Lines end at ``"\n"`` only, so a form feed or U+2028 stays inside its line
    and the numbers are those an editor or ``grep -n`` shows.
    """
    return [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]


def read_tsv(path: str, header: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each row below ``header`` in the TSV file at ``path``.

    A first line other than ``header`` is a DataError about the ``what``
    header, and so is a row without the header's field count. Rows are checked
    as they are yielded, so the first bad line is the one reported.
    """
    lines = numbered_lines(read_text(path))
    if not lines or lines[0][1] != header:
        raise DataError(f"{path}: missing {what} header")
    width = header.count("\t") + 1
    for lineno, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != width:
            raise DataError(f"{path}:{lineno}: expected {width} tab-separated fields")
        yield lineno, fields


@dataclass
class ParseReport:
    """Parsed ontology plus (1-based line or None, message) warnings; JSON's name their class entry."""

    ontology: Ontology
    warnings: list[tuple[int | None, str]] = field(default_factory=list)


def obo_id_to_iri(obo_id: str) -> str:
    """Map an OBO id to its PURL IRI: ``GO:0001`` -> ``.../obo/GO_0001``.

    Ids that already look like absolute IRIs pass through unchanged.
    """
    if "://" in obo_id:
        return obo_id
    return OBO_PURL_PREFIX + obo_id.replace(":", "_", 1)


# A tag value up to its first unescaped "!" or "{"; a backslash escapes one
# character. The leading class takes a value with neither in one scan.
_OBO_VALUE_RE = re.compile(r"[^\\!{]*(?:\\.?[^\\!{]*)*")

# A quoted synonym text from its opening quote to the first quote that no
# backslash escapes; a backslash escapes one character.
_SYNONYM_RE = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"')


def _obo_value(value: str) -> str:
    """A stripped tag value without OBO 1.4 trailing ``{modifiers}`` or ``! comment``.

    An escaped ``\\!`` or ``\\{`` is part of the value and stays as written.
    """
    if "\\" in value:
        return _OBO_VALUE_RE.match(value).group().rstrip()
    # Without a backslash the value ends at the first "!" or "{".
    bang, brace = value.find("!"), value.find("{")
    if bang < 0 and brace < 0:
        return value
    return value[: brace if bang < 0 or 0 <= brace < bang else bang].rstrip()


def _synonym_text(value: str) -> str | None:
    """Text between the first double quote and the next one not escaped by a backslash, or None.

    Escapes stay as written.
    """
    first = value.find('"')
    if first < 0:
        return None
    if "\\" not in value:
        second = value.find('"', first + 1)
        return value[first + 1 : second] if second >= 0 else None
    quoted = _SYNONYM_RE.match(value, first)
    return quoted.group(1) if quoted else None


class _Stanza:
    __slots__ = ("line", "id", "name", "synonyms", "parents", "obsolete")

    def __init__(self, line: int):
        self.line = line
        self.id: str | None = None
        self.name = ""
        self.synonyms: list[str] = []
        self.parents: list[str] = []
        self.obsolete = False


def parse_obo(text: str) -> ParseReport:
    """Parse the `[Term]` stanzas of an OBO flat file.

    Obsolete terms are dropped without a warning; a stanza without a valid
    `id:` (one without whitespace) is skipped with one. Raises
    :class:`ParseError` when no term survives.

    Lines end at ``"\\n"`` only, as in :func:`numbered_lines`, and one pass
    reads the `[...]` headers and the tags in use; every other line is skipped.
    """
    warnings: list[tuple[int, str]] = []
    ontology_id = "obo"

    stanzas: list[_Stanza] = []
    current: _Stanza | None = None
    in_header = True
    for lineno, line in enumerate(text.split("\n"), start=1):
        tag, colon, value = line.partition(":")
        tag = tag.strip()
        if tag[:1] == "[":
            in_header = False
            # A header may carry a trailing "! comment", as any OBO line may.
            current = _Stanza(lineno) if line.partition("!")[0].strip() == "[Term]" else None
            if current is not None:
                stanzas.append(current)
            continue
        if not colon:
            continue
        if current is None:
            if in_header and tag == "ontology":
                ontology_id = _obo_value(value.strip())
            continue
        if tag == "id":
            ident = _obo_value(value.strip())
            if ident.split(None, 1) == [ident]:
                current.id = ident
        elif tag == "name":
            current.name = _obo_value(value.strip())
        elif tag == "is_a":
            parent = _obo_value(value.strip())
            if parent:
                current.parents.append(parent)
        elif tag == "synonym":
            syn = _synonym_text(value)
            if syn:
                current.synonyms.append(syn)
        elif tag == "is_obsolete":
            current.obsolete = _obo_value(value.strip()).lower() == "true"

    classes: dict[str, OntologyClass] = {}
    for stanza in stanzas:
        if stanza.obsolete:
            continue
        if not stanza.id:
            warnings.append((stanza.line, "term stanza without id: skipped"))
            continue
        iri = obo_id_to_iri(stanza.id)
        parents = frozenset(map(obo_id_to_iri, stanza.parents))
        if iri in parents:
            warnings.append((stanza.line, f"self is_a on {stanza.id} dropped"))
            parents -= {iri}
        if iri in classes:
            warnings.append((stanza.line, f"duplicate id {stanza.id}: previous term replaced"))
        classes[iri] = OntologyClass(iri, stanza.name, frozenset(stanza.synonyms), parents)

    if not classes:
        raise ParseError("no terms parsed from OBO input")
    return ParseReport(Ontology(id=ontology_id, classes=classes), warnings)


def parse_json_ontology(text: str) -> ParseReport:
    """Parse the JSON interchange form.

    Expected shape: ``{"id": str, "classes": [{"iri", "label",
    "synonyms", "parents"}, ...]}``: `label` is a string and `synonyms` and
    `parents` are lists of strings, all three empty when absent. Any other
    type is a :class:`ParseError`. Duplicate IRIs keep the last entry and add
    a warning.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("id"), str):
        raise ParseError('ontology document must be an object with a string "id"')
    entries = doc.get("classes")
    if not isinstance(entries, list):
        raise ParseError('ontology document must carry a "classes" list')

    warnings: list[tuple[int | None, str]] = []
    classes: dict[str, OntologyClass] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("iri"), str) or not entry["iri"]:
            raise ParseError(f'class entry {index} without "iri": {entry!r}')
        iri = entry["iri"]
        label, synonyms, parents = entry.get("label", ""), entry.get("synonyms", []), entry.get("parents", [])
        if not (
            isinstance(label, str)
            and isinstance(synonyms, list)
            and isinstance(parents, list)
            # isinstance(v, str) for each item, without a generator per entry
            and all(map(str.__instancecheck__, synonyms))
            and all(map(str.__instancecheck__, parents))
        ):
            raise ParseError(
                f'class {iri}: "label" must be a string, "synonyms" and "parents" lists of strings'
            )
        synonyms = frozenset(synonyms)
        if "" in synonyms:
            synonyms -= {""}
        parents = frozenset(parents)
        if iri in parents:
            warnings.append((None, f"class entry {index} ({iri}): self is_a dropped"))
            parents -= {iri}
        if iri in classes:
            warnings.append((None, f"class entry {index} ({iri}): duplicate iri, previous class replaced"))
        classes[iri] = OntologyClass(iri, label, synonyms, parents)

    if not classes:
        raise ParseError("ontology document has zero classes")
    return ParseReport(Ontology(id=doc["id"], classes=classes), warnings)


def serialize_ontology(o: Ontology) -> str:
    """Emit the JSON interchange form, classes sorted by IRI.

    Stable under round trips: parsing the output and serializing again
    yields the identical string.
    """
    payload = {
        "id": o.id,
        "classes": [
            {
                "iri": iri,
                "label": o.classes[iri].label,
                "synonyms": sorted(o.classes[iri].synonyms),
                "parents": sorted(o.classes[iri].parents),
            }
            for iri in o.sorted_iris()
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def parse_ontology_file(path: str) -> ParseReport:
    """Parse `path` as OBO or JSON, sniffing by extension then content.

    A :class:`ParseError` names ``path``.
    """
    text = read_text(path)
    lower = path.lower()
    try:
        if lower.endswith(".json") or (not lower.endswith(".obo") and text.lstrip().startswith("{")):
            return parse_json_ontology(text)
        return parse_obo(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
