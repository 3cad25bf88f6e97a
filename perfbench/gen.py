"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and nothing else that
varies, so one seed always yields the same bytes. The program under test
only ever sees the files these functions write.

Why the inputs look the way they do:

* Ontology labels are pseudo-words drawn Zipf-skewed (exponent 0.3) from a
  4,000-word vocabulary. That skew makes token blocking keep roughly 1 % of
  cross pairs, which is what real vocabularies with shared head words do;
  a uniform draw would block almost everything away, a steep one would
  block almost nothing.
* About a third of the source classes are planted near-duplicates of target
  classes (same label up to case and dashes, one typo, or a shared
  synonym), so alignment finds a few hundred mappings and the planted pairs
  are a recall oracle.
* The target hierarchy has fan-out 5 and about half of the children are
  named as refinements of their parent ("<modifier> <parent label>"). That
  is what makes subsumption prediction accept pairs, so the dictionary
  step yields tens of anchors instead of none. With 781 classes the tree
  is complete to depth 4, so all classes of one level have the same number
  of descendants, and with a fixed share planted per level the corpus has
  the same size for every seed.
* Documents mix the words of the bundled handbook with the labels of the
  bundled ontologies, so questions about fixture concepts retrieve
  differently with and without infiltration.
* Closed-loop questions are fixture questions varied with synthetic
  words; most of them name a fixture dictionary anchor, so most prompts are
  infiltrated.
"""

from __future__ import annotations

import json
import re

import numpy as np

VOCAB_SIZE = 4000
ZIPF_EXPONENT = 0.3
FAN_OUT = 5
PLANTED_SHARE = 1 / 3
REFINED_SHARE = 0.5
SYNONYM_SHARE = 0.7
_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "st", "tr", "pl", "gr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "x")
_WORD_RE = re.compile(r"[a-z]+")


def pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct pronounceable words of 2 to 3 syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        ) + _CODAS[rng.integers(len(_CODAS))]
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def _typo(rng: np.random.Generator, label: str) -> str:
    """One substituted letter, never on a space."""
    spots = [i for i, ch in enumerate(label) if ch.isalpha()]
    i = spots[int(rng.integers(len(spots)))]
    repl = "q" if label[i] != "q" else "j"
    return label[:i] + repl + label[i + 1 :]


def _restyle(rng: np.random.Generator, label: str) -> str:
    """Same normal form, different surface: capitals and dashes."""
    words = label.split(" ")
    if len(words) > 1 and rng.random() < 0.5:
        return "-".join(words)
    return label.title()


def ontology_pair(rng: np.random.Generator, n_classes: int) -> dict:
    """A source (OBO) and target (JSON) ontology plus what was planted.

    Returns a dict with the two file texts, the source and target label and
    synonym tables, the target parent table, and the planted
    (source index, target index) pairs.
    """
    vocab = pseudo_words(rng, VOCAB_SIZE)
    probs = _zipf_probs(VOCAB_SIZE, ZIPF_EXPONENT)
    modifiers = pseudo_words(rng, 60)

    used: set[str] = set()

    def fresh_label() -> str:
        # Labels and synonyms never repeat, so only planted pairs align
        # and the mapping count does not depend on chance collisions.
        while True:
            label = " ".join(vocab[i] for i in rng.choice(VOCAB_SIZE, size=int(rng.integers(2, 4)), p=probs))
            if label not in used:
                used.add(label)
                return label

    # Target: a fan-out tree; about half the children refine the parent label.
    t_labels: list[str] = []
    t_parents: list[int | None] = []
    for i in range(n_classes):
        parent = None if i == 0 else (i - 1) // FAN_OUT
        if parent is not None and rng.random() < REFINED_SHARE:
            base = " ".join(t_labels[parent].split(" ")[-2:])
            label = f"{modifiers[rng.integers(len(modifiers))]} {base}"
            if label in used:
                label = fresh_label()
            used.add(label)
        else:
            label = fresh_label()
        t_labels.append(label)
        t_parents.append(parent)
    t_synonyms = [[fresh_label()] if rng.random() < SYNONYM_SHARE else [] for _ in range(n_classes)]

    # Source: its own tree and fresh labels, then planted near-duplicates.
    # Planted targets are the same share of every level below the top two,
    # so the hierarchy closure that `subsume` walks, and with it the corpus
    # size, is nearly the same for every seed.
    s_labels = [fresh_label() for _ in range(n_classes)]
    s_synonyms = [[fresh_label()] if rng.random() < SYNONYM_SHARE else [] for _ in range(n_classes)]
    t_pick = np.concatenate([
        rng.choice(level, size=round(len(level) * PLANTED_SHARE), replace=False)
        for level in _levels(t_parents)[2:]
    ])
    s_pick = rng.choice(n_classes, size=len(t_pick), replace=False)
    planted: list[tuple[int, int]] = []
    for s, t in zip(s_pick.tolist(), t_pick.tolist()):
        kind = int(rng.integers(3))
        if kind == 1 and len(t_labels[t]) < 12:
            kind = 0  # one typo in a short label falls below the 0.9 threshold
        if kind == 0:
            s_labels[s] = _restyle(rng, t_labels[t])
        elif kind == 1:
            s_labels[s] = _typo(rng, t_labels[t])
        else:
            syn = fresh_label()
            s_synonyms[s] = [syn]
            t_synonyms[t] = t_synonyms[t] + [syn.upper()]
        planted.append((s, t))

    obo = ["format-version: 1.2", "ontology: synthetic-source", ""]
    for i in range(n_classes):
        obo.append("[Term]")
        obo.append(f"id: SRC:{i:06d}")
        obo.append(f"name: {s_labels[i]}")
        for syn in s_synonyms[i]:
            obo.append(f'synonym: "{syn}" EXACT []')
        if i:
            obo.append(f"is_a: SRC:{(i - 1) // FAN_OUT:06d} ! parent")
        obo.append("")
    target = {
        "id": "synthetic-target",
        "classes": [
            {
                "iri": target_iri(i),
                "label": t_labels[i],
                "synonyms": t_synonyms[i],
                "parents": [] if t_parents[i] is None else [target_iri(t_parents[i])],
            }
            for i in range(n_classes)
        ],
    }
    return {
        "source_obo": "\n".join(obo) + "\n",
        "target_json": json.dumps(target, indent=1) + "\n",
        "s_labels": s_labels,
        "s_synonyms": s_synonyms,
        "t_labels": t_labels,
        "t_synonyms": t_synonyms,
        "t_parents": t_parents,
        "planted": planted,
    }


def _levels(parents: list[int | None]) -> list[list[int]]:
    """Class indices grouped by depth; parents precede their children."""
    depth: list[int] = []
    levels: list[list[int]] = []
    for i, parent in enumerate(parents):
        depth.append(0 if parent is None else depth[parent] + 1)
        if depth[i] == len(levels):
            levels.append([])
        levels[depth[i]].append(i)
    return levels


def source_iri(i: int) -> str:
    return f"http://purl.obolibrary.org/obo/SRC_{i:06d}"


def target_iri(i: int) -> str:
    return f"http://example.org/synthetic-target#T{i:06d}"


def handbook_words(handbook: str) -> list[str]:
    return _WORD_RE.findall(handbook.lower())


def documents(
    rng: np.random.Generator,
    handbook: str,
    phrases: list[str],
    n_docs: int,
    doc_chars: int,
) -> list[str]:
    """``n_docs`` texts of about ``doc_chars`` characters each.

    Words are drawn from the handbook with their handbook frequencies; one
    slot in eight is an ontology phrase instead. Sentences end every 8 to
    20 words so chunk boundaries land on varied text.
    """
    words = handbook_words(handbook)
    pool = np.array(words + phrases, dtype=object)
    n_words = len(words)
    weights = np.concatenate(
        [np.full(n_words, 7.0 / n_words), np.full(len(phrases), 1.0 / len(phrases))]
    )
    weights /= weights.sum()
    out: list[str] = []
    per_doc = doc_chars // 6 + 1
    for _ in range(n_docs):
        picks = pool[rng.choice(len(pool), size=per_doc, p=weights)]
        ends = np.cumsum(rng.integers(8, 21, size=per_doc // 8 + 1))
        for e in ends[ends < per_doc]:
            picks[e - 1] = picks[e - 1] + "."
        out.append(" ".join(picks.tolist())[:doc_chars].rstrip() + "\n")
    return out


def varied_questions(
    rng: np.random.Generator,
    questions: list[dict],
    filler: list[str],
    n: int,
) -> list[dict]:
    """``n`` records: a fixture question with 1 to 3 filler words inserted."""
    out: list[dict] = []
    for _ in range(n):
        base = questions[int(rng.integers(len(questions)))]
        words = base["prompt"].rstrip("?").split(" ")
        for _ in range(int(rng.integers(1, 4))):
            words.insert(int(rng.integers(1, len(words) + 1)), filler[int(rng.integers(len(filler)))])
        out.append(
            {
                "prompt": " ".join(words) + "?",
                "ground_truth": base["ground_truth"],
            }
        )
    return out
