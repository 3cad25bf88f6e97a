"""Prompt infiltration: widen a user prompt with narrower ontology terms.

Dictionary anchors are matched against the prompt as token n-grams, longest
span first, and the accepted narrower labels are appended inside a single
``(related: ...)`` suffix. On re-entry a trailing suffix whose every term is a
dictionary term is recognized and stripped, which makes the operation
idempotent without deleting a ``(related: ...)`` the user wrote.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import levenshtein
from .model import label_tokens
from .subsume import SubsumptionDictionary

MAX_APPEND_TOTAL = 6
FUZZY_MAX_EDITS = 1
_MARKER = "(related: "


@dataclass(frozen=True)
class AugmentedPrompt:
    """Result of infiltration, keeping the original prompt for evaluation."""

    original: str
    augmented: str
    matched: tuple[str, ...]
    appended: tuple[str, ...]


def strip_suffix(text: str, dictionary: SubsumptionDictionary) -> str:
    """Remove a trailing ``(related: ...)`` marker that lists only dictionary terms.

    Terms are joined by ``", "`` and may themselves hold ``", "`` or ``)``.
    """
    start = text.rfind(_MARKER)
    if start < 0:
        return text
    rest = text[start + len(_MARKER) :].rstrip()
    if not rest.endswith(")"):
        return text
    terms = {term for entry in dictionary.entries.values() for term in entry}
    parts = rest[:-1].split(", ")
    ends = {0}  # part counts that split into whole terms
    for j in range(1, len(parts) + 1):
        if any(", ".join(parts[i:j]) in terms for i in ends):
            ends.add(j)
    return text[:start].rstrip() if len(parts) in ends else text


def _fuzzy_anchor(key: str, word_count: int, dictionary: SubsumptionDictionary) -> str | None:
    best: tuple[int, str] | None = None
    for anchor in dictionary.anchors_by_word_count.get(word_count, ()):
        if abs(len(key) - len(anchor)) > FUZZY_MAX_EDITS:
            continue  # the edit distance is at least the length difference
        dist = levenshtein(key, anchor, FUZZY_MAX_EDITS)
        if dist <= FUZZY_MAX_EDITS and (best is None or (dist, anchor) < best):
            best = (dist, anchor)
    return None if best is None else best[1]


def _match_anchors(tokens: tuple[str, ...], dictionary: SubsumptionDictionary, fuzzy: bool) -> list[str]:
    consumed = [False] * len(tokens)
    matched: list[str] = []
    top = min(dictionary.max_key_word_count, len(tokens))
    for n in range(top, 0, -1):
        for i in range(len(tokens) - n + 1):
            if any(consumed[i : i + n]):
                continue
            key = " ".join(tokens[i : i + n])
            anchor = key if key in dictionary.entries else None
            if anchor is None and fuzzy:
                anchor = _fuzzy_anchor(key, n, dictionary)
            if anchor is None:
                continue
            for j in range(i, i + n):
                consumed[j] = True
            if anchor not in matched:
                matched.append(anchor)
    return matched


def _word_boundary_contains(haystack_norm: str, needle_norm: str) -> bool:
    return f" {needle_norm} " in f" {haystack_norm} "


def infiltrate(
    text: str,
    dictionary: SubsumptionDictionary,
    fuzzy: bool = False,
    bare: bool = False,
) -> AugmentedPrompt:
    """Append narrower terms for every dictionary anchor found in ``text``.

    Longer anchors win overlaps; each prompt token feeds at most one anchor.
    Terms already present in the prompt (on token boundaries, case folded)
    are skipped, as are duplicates, and at most ``MAX_APPEND_TOTAL`` terms
    are appended. With ``bare=True`` the terms are appended as plain words
    instead of the ``(related: ...)`` marker. With ``fuzzy=True`` an n-gram
    also matches an anchor of the same word count within one edit.
    """
    core = strip_suffix(text, dictionary)
    tokens = tuple(label_tokens(core))
    matched = _match_anchors(tokens, dictionary, fuzzy)
    core_norm = " ".join(tokens)
    appended: list[str] = []
    appended_norms: set[str] = set()
    for term in (term for anchor in matched for term in dictionary.entries[anchor]):
        if len(appended) >= MAX_APPEND_TOTAL:
            break
        term_norm = " ".join(label_tokens(term))
        if not term_norm or term_norm in appended_norms:
            continue
        if _word_boundary_contains(core_norm, term_norm):
            continue
        appended.append(term)
        appended_norms.add(term_norm)
    base = core.rstrip()
    if not appended:
        augmented = text
    elif bare:
        augmented = f"{base} {' '.join(appended)}" if base else " ".join(appended)
    else:
        augmented = f"{base} {_MARKER}{', '.join(appended)})"
    return AugmentedPrompt(
        original=text,
        augmented=augmented,
        matched=tuple(matched),
        appended=tuple(appended),
    )
