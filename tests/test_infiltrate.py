import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontorag.infiltrate
import ontorag.subsume
from ontorag._kernels import levenshtein
from ontorag.infiltrate import AugmentedPrompt, infiltrate, strip_suffix
from ontorag.model import label_tokens
from ontorag.subsume import SubsumptionDictionary

EMPTY = SubsumptionDictionary(entries={})


def _dict(**entries):
    return SubsumptionDictionary(entries={k.replace("_", " "): tuple(v) for k, v in entries.items()})


def test_strip_suffix():
    d = _dict(x=["a", "b"])
    assert strip_suffix("q (related: a, b)", d) == "q"
    assert strip_suffix("q (related: a, b) more", d) == "q (related: a, b) more"
    assert strip_suffix("plain", d) == "plain"
    # only a suffix made entirely of dictionary terms is ours to strip
    assert strip_suffix("q (related: a, c)", d) == "q (related: a, c)"
    assert strip_suffix("q (related: )", d) == "q (related: )"


def test_user_related_text_is_kept():
    out = infiltrate("cough (related: x)", _dict(cough=["dry cough"]))
    assert out.augmented == "cough (related: x) (related: dry cough)"
    again = infiltrate(out.augmented, _dict(cough=["dry cough"]))
    assert again.augmented == out.augmented


def test_terms_with_parentheses_and_commas_are_recognized():
    d = _dict(fever=["fever (finding)", "pain, chronic"], finding=["lab finding"])
    once = infiltrate("I have fever", d)
    assert once.augmented == "I have fever (related: fever (finding), pain, chronic)"
    assert strip_suffix(once.augmented, d) == "I have fever"
    # left in place, the suffix would match the "finding" anchor on re-entry
    twice = infiltrate(once.augmented, d)
    assert twice.augmented == once.augmented
    assert twice.appended == once.appended


def test_single_anchor(fixture_dictionary):
    out = infiltrate("What should I do about constipation?", fixture_dictionary)
    assert out.augmented == (
        "What should I do about constipation? (related: acute constipation, chronic constipation)"
    )
    assert out.matched == ("constipation",)
    assert out.appended == ("acute constipation", "chronic constipation")
    assert out.original == "What should I do about constipation?"


def test_multiword_anchor(fixture_dictionary):
    out = infiltrate("Is chest pain an emergency?", fixture_dictionary)
    assert out.appended == ("crushing chest pain",)
    out3 = infiltrate("Tell me about shortness of breath.", fixture_dictionary)
    assert out3.appended == ("acute shortness of breath",)


def test_longest_match_wins():
    d = _dict(chest_pain=["crushing chest pain"], pain=["back pain"])
    out = infiltrate("chest pain again", d)
    assert out.matched == ("chest pain",)
    assert out.appended == ("crushing chest pain",)


def test_anchor_tokens_consumed_once():
    d = _dict(pain=["back pain"])
    out = infiltrate("pain and more pain", d)
    # both occurrences match the same anchor; terms are appended once
    assert out.matched == ("pain",)
    assert out.appended == ("back pain",)


def test_already_present_terms_skipped(fixture_dictionary):
    out = infiltrate("I have a high fever today", fixture_dictionary)
    # "high fever" is already in the prompt and it is the only fever term
    assert out.augmented == "I have a high fever today"
    assert out.matched == ("fever",)
    assert out.appended == ()


def test_substring_is_not_containment():
    d = _dict(ache=["head ache"])
    out = infiltrate("my headache is bad ache", d)
    # "ache" appears as its own token, so the anchor matches; the term
    # "head ache" is not present on token boundaries and gets appended
    assert out.appended == ("head ache",)


def test_append_cap():
    d = _dict(
        alpha=["a one", "a two", "a three"],
        beta=["b one", "b two", "b three"],
        gamma=["c one"],
    )
    full = infiltrate("alpha beta gamma", d)
    assert len(full.appended) == 6


def test_duplicate_terms_across_anchors_deduped():
    d = _dict(alpha=["shared term"], beta=["shared term", "other"])
    out = infiltrate("alpha and beta", d)
    assert out.appended == ("shared term", "other")


def test_identity_with_empty_dictionary():
    prompt = "Anything at all?"
    out = infiltrate(prompt, EMPTY)
    assert out == AugmentedPrompt(original=prompt, augmented=prompt, matched=(), appended=())


def test_no_anchor_means_no_change(fixture_dictionary):
    prompt = "Completely unrelated question about turnips."
    assert infiltrate(prompt, fixture_dictionary).augmented == prompt


def test_idempotent(fixture_dictionary):
    once = infiltrate("What should I do about constipation?", fixture_dictionary)
    twice = infiltrate(once.augmented, fixture_dictionary)
    assert twice.augmented == once.augmented
    assert twice.appended == once.appended


def test_idempotent_with_trailing_whitespace(fixture_dictionary):
    once = infiltrate("fever?  ", fixture_dictionary)
    twice = infiltrate(once.augmented, fixture_dictionary)
    assert twice.augmented == once.augmented


@settings(deadline=None, max_examples=150)
@given(
    st.lists(
        st.sampled_from(
            ["fever", "cough", "what", "about", "chest", "pain", "x9", "breath", "of", "?!"]
        ),
        max_size=8,
    )
)
def test_idempotence_property(fixture_dictionary, words):
    prompt = " ".join(words)
    once = infiltrate(prompt, fixture_dictionary)
    twice = infiltrate(once.augmented, fixture_dictionary)
    assert twice.augmented == once.augmented


def test_fuzzy_single_edit(fixture_dictionary):
    miss = infiltrate("bad constipatio today", fixture_dictionary)
    assert miss.appended == ()
    hit = infiltrate("bad constipatio today", fixture_dictionary, fuzzy=True)
    assert hit.matched == ("constipation",)
    assert hit.appended == ("acute constipation", "chronic constipation")
    # two edits away stays unmatched even in fuzzy mode
    far = infiltrate("bad constipati today", fixture_dictionary, fuzzy=True)
    assert far.appended == ()


def test_fuzzy_prefers_smallest_distance():
    d = _dict(cat=["small cat"], cart=["big cart"])
    out = infiltrate("my cast", d, fuzzy=True)
    # "cast" is one edit from both anchors; the lexicographically smaller wins
    assert out.matched == ("cart",)


def test_fuzzy_tokenizes_anchors_once_and_skips_far_lengths(monkeypatch):
    d = _dict(cat=["small cat"], cart=["big cart"], catastrophe=["disaster"], chest_pain=["crushing chest pain"])
    tokenized, compared = [], []

    def counting(text):
        if text in d.entries:
            tokenized.append(text)
        return label_tokens(text)

    def recording(a, b, cutoff=None):
        compared.append((a, b))
        return levenshtein(a, b, cutoff)

    for module in (ontorag.infiltrate, ontorag.subsume):
        monkeypatch.setattr(module, "label_tokens", counting)
    monkeypatch.setattr(ontorag.infiltrate, "levenshtein", recording)
    for prompt in ("my cast", "chest pian today", "a catastrophe of cats"):
        infiltrate(prompt, d, fuzzy=True)
    assert sorted(tokenized) == sorted(d.entries)
    assert compared
    assert all(abs(len(a) - len(b)) <= 1 for a, b in compared)


def test_bare_mode(fixture_dictionary):
    out = infiltrate("Is chest pain an emergency?", fixture_dictionary, bare=True)
    assert "(related:" not in out.augmented
    assert out.augmented == "Is chest pain an emergency? crushing chest pain"
    again = infiltrate(out.augmented, fixture_dictionary, bare=True)
    assert again.augmented == out.augmented


def test_bounds_never_exceeded(fixture_dictionary):
    prompt = "fever cough headache constipation nausea dizziness fatigue rash chest pain shortness of breath"
    out = infiltrate(prompt, fixture_dictionary)
    assert len(out.appended) == 6
