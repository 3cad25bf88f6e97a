"""Core ontology model: named classes with labels, synonyms and is-a links.

All types here are immutable after construction, so they can be shared
freely across threads. Parsing and serialization live in
:mod:`ontorag.parse`; this module only holds the in-memory shape plus the
IRI and label utilities every other stage relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParseError, UnknownClassError

# An absolute IRI. Kept as a plain string; `validate_iri` enforces shape.
ClassIri = str

_WS_RE = re.compile(r"\s+")
_DASH_RE = re.compile(r"[-_‐–—]+")
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def validate_iri(iri: str) -> str:
    """Check that `iri` is non-empty and contains no whitespace."""
    if not iri:
        raise ParseError("empty IRI")
    if _WS_RE.search(iri):
        raise ParseError(f"IRI contains whitespace: {iri!r}")
    return iri


def local_name(iri: ClassIri) -> str:
    """Human-meaningful tail of an IRI.

    Returns the fragment after ``#`` when one is present, otherwise the
    last ``/``-separated path segment. Raises :class:`ParseError` when
    that segment is empty.
    """
    validate_iri(iri)
    if "#" in iri:
        name = iri.rsplit("#", 1)[1]
    else:
        name = iri.rsplit("/", 1)[-1]
    if not name:
        raise ParseError(f"IRI has no non-empty local segment: {iri!r}")
    return name


def normalize_label(raw: str) -> str:
    """Canonical comparison form of a label.

    Lowercases, maps underscores and hyphen/dash characters to spaces,
    collapses runs of whitespace, and trims the ends. Idempotent.
    """
    text = _DASH_RE.sub(" ", raw.lower())
    return _WS_RE.sub(" ", text).strip()


def label_tokens(text: str) -> list[str]:
    """Lowercase alphanumeric word tokens of a label or prompt."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class OntologyClass:
    """A named concept: IRI plus display label, synonyms and direct parents.

    Invariants enforced at construction: the IRI is well-formed, no synonym
    is the empty string, and the class is not its own parent.
    """

    iri: ClassIri
    label: str = ""
    synonyms: frozenset[str] = field(default_factory=frozenset)
    parents: frozenset[ClassIri] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        validate_iri(self.iri)
        object.__setattr__(self, "synonyms", frozenset(self.synonyms))
        object.__setattr__(self, "parents", frozenset(self.parents))
        if "" in self.synonyms:
            raise ParseError(f"{self.iri}: empty synonym")
        if self.iri in self.parents:
            raise ParseError(f"{self.iri}: class asserted as its own parent")

    @property
    def display_label(self) -> str:
        """The label, or the normalized IRI local name when none was given."""
        return self.label if self.label else normalize_label(local_name(self.iri))

    @cached_property
    def normalized_texts(self) -> frozenset[str]:
        """Normalized display label plus normalized synonyms, empties dropped."""
        texts = {normalize_label(self.display_label)}
        texts.update(normalize_label(s) for s in self.synonyms)
        texts.discard("")
        return frozenset(texts)


@dataclass(frozen=True)
class Ontology:
    """A set of named classes keyed by IRI.

    Treated as read-only after construction; the cached child index assumes
    `classes` is never mutated.
    """

    id: str
    classes: dict[ClassIri, OntologyClass]

    def __post_init__(self) -> None:
        for iri, cls in self.classes.items():
            if iri != cls.iri:
                raise ParseError(f"class map key {iri!r} does not match class IRI {cls.iri!r}")

    def __len__(self) -> int:
        return len(self.classes)

    def get(self, iri: ClassIri) -> OntologyClass:
        try:
            return self.classes[iri]
        except KeyError:
            raise UnknownClassError(f"class {iri!r} not in ontology {self.id!r}") from None

    def sorted_iris(self) -> list[ClassIri]:
        return sorted(self.classes)

    @cached_property
    def _children(self) -> dict[ClassIri, tuple[ClassIri, ...]]:
        """Reverse is-a index: parent IRI -> direct children, sorted."""
        index: dict[ClassIri, list[ClassIri]] = {}
        for cls in self.classes.values():
            for parent in cls.parents:
                index.setdefault(parent, []).append(cls.iri)
        return {parent: tuple(sorted(kids)) for parent, kids in index.items()}

    def children(self, iri: ClassIri) -> tuple[ClassIri, ...]:
        return self._children.get(iri, ())


def subclass_closure(o: Ontology, c: ClassIri) -> set[ClassIri]:
    """All transitive descendants of `c` via asserted is-a edges.

    Excludes `c` itself. Safe on cyclic input (visited-set traversal).
    Raises :class:`UnknownClassError` when `c` is not in the ontology.
    """
    o.get(c)
    seen: set[ClassIri] = set()
    stack = list(o.children(c))
    while stack:
        iri = stack.pop()
        if iri in seen or iri == c:
            continue
        seen.add(iri)
        stack.extend(o.children(iri))
    return seen
