"""Independent reference implementations the benchmark checks outputs against.

Nothing here imports ontorag. Each oracle re-derives an expected output from
the generated inputs with plain, slow code, so a fast path in the program
that changes a result shows up as a failed operation, not as a speed-up.
"""

from __future__ import annotations

import json
import re
import zlib

import numpy as np

_DASH_RE = re.compile(r"[-_‐–—]+")
_WS_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"[a-z0-9]+")
ALIGN_THRESHOLD = 0.9
SUBSUME_THRESHOLD = 0.5
MAX_PER_ANCHOR = 3
BLOCK_TOKEN = 3
EMBED_SEED = 0x9E3779B9
CHUNK_SIZE = 512
CHUNK_STEP = 512 - 64
ALIGN_WINDOW = 20
SCORE_TOL = 1e-9


def normalize(label: str) -> str:
    return _WS_RE.sub(" ", _DASH_RE.sub(" ", label.lower())).strip()


def tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def lexical_score(text_a: str, text_b: str) -> float:
    a, b = normalize(text_a), normalize(text_b)
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    ta, tb = set(tokens(a)), set(tokens(b))
    jaccard = len(ta & tb) / len(ta | tb) if (ta or tb) else 0.0
    edit = 1.0 - edit_distance(a, b) / max(len(a), len(b))
    return max(jaccard, edit)


def class_texts(label: str, synonyms: list[str]) -> set[str]:
    texts = {normalize(label)} | {normalize(s) for s in synonyms}
    texts.discard("")
    return texts


def class_score(texts_a: set[str], texts_b: set[str]) -> float:
    return max((lexical_score(a, b) for a in texts_a for b in texts_b), default=0.0)


def _tsv_rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.split("\n")[1:] if line]


def check_mappings(pair: dict, mappings_tsv: str, source_iri, target_iri, sample: int, seed: int) -> list[str]:
    """Precision on every mapping, recall on planted and sampled pairs."""
    n = len(pair["s_labels"])
    s_texts = [class_texts(pair["s_labels"][i], pair["s_synonyms"][i]) for i in range(n)]
    t_texts = [class_texts(pair["t_labels"][i], pair["t_synonyms"][i]) for i in range(n)]
    s_index = {source_iri(i): i for i in range(n)}
    t_index = {target_iri(i): i for i in range(n)}
    errors: list[str] = []
    got: dict[tuple[int, int], str] = {}
    rows = _tsv_rows(mappings_tsv)
    keys = [(r[0], r[1]) for r in rows]
    if keys != sorted(set(keys)):
        errors.append("mappings are not unique and sorted by (source, target)")
    for row in rows:
        if len(row) != 4 or row[3] != "EQUIV" or row[0] not in s_index or row[1] not in t_index:
            errors.append(f"malformed mapping row {row!r}")
            continue
        s, t = s_index[row[0]], t_index[row[1]]
        want = class_score(s_texts[s], t_texts[t])
        if want < ALIGN_THRESHOLD or repr(want) != row[2]:
            errors.append(f"mapping {row[0]} {row[1]} scored {row[2]}, oracle {want!r}")
        got[(s, t)] = row[2]
    for s, t in pair["planted"]:
        if (s, t) not in got and class_score(s_texts[s], t_texts[t]) >= ALIGN_THRESHOLD:
            errors.append(f"planted pair {s}/{t} missing from mappings")
    # Recall beyond the planted pairs: a seeded sample of blocked pairs.
    blocked = candidate_pairs(s_texts, t_texts)
    rng = np.random.default_rng(seed)
    for k in rng.choice(len(blocked), size=min(sample, len(blocked)), replace=False).tolist():
        s, t = blocked[k]
        if (s, t) not in got and class_score(s_texts[s], t_texts[t]) >= ALIGN_THRESHOLD:
            errors.append(f"blocked pair {s}/{t} scores above threshold but is not mapped")
    return errors


def candidate_pairs(s_texts: list[set[str]], t_texts: list[set[str]]) -> list[tuple[int, int]]:
    """Cross pairs sharing a token of at least BLOCK_TOKEN characters."""

    def block(texts: set[str]) -> set[str]:
        return {tok for text in texts for tok in tokens(text) if len(tok) >= BLOCK_TOKEN}

    index: dict[str, set[int]] = {}
    for t, texts in enumerate(t_texts):
        for tok in block(texts):
            index.setdefault(tok, set()).add(t)
    pairs: list[tuple[int, int]] = []
    for s, texts in enumerate(s_texts):
        hits: set[int] = set()
        for tok in block(texts):
            hits |= index.get(tok, set())
        pairs.extend((s, t) for t in sorted(hits))
    return pairs


def check_corpus(pair: dict, mappings_tsv: str, corpus_tsv: str, target_iri) -> list[str]:
    """Positives equal the hierarchy closure of every mapped target; one negative each."""
    parents = pair["t_parents"]
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p is not None:
            children.setdefault(p, []).append(i)
    positives: set[tuple[str, str]] = set()
    for row in _tsv_rows(mappings_tsv):
        t = int(row[1].rsplit("#T", 1)[1])
        stack = list(children.get(t, []))
        while stack:
            d = stack.pop()
            positives.add((row[0], target_iri(d)))
            stack.extend(children.get(d, []))
    rows = _tsv_rows(corpus_tsv)
    ordered = sorted(positives)
    head = [(r[0], r[1]) for r in rows[: len(ordered)]]
    errors: list[str] = []
    if head != ordered or any(r[2] != "1" for r in rows[: len(ordered)]):
        errors.append(f"corpus positives differ from the closure oracle ({len(ordered)} expected)")
    tail = rows[len(ordered) :]
    if len(tail) != len(ordered):
        errors.append(f"corpus has {len(tail)} negatives, expected {len(ordered)}")
    for (concept, _), neg in zip(ordered, tail):
        if neg[0] != concept or neg[2] != "0" or (neg[0], neg[1]) in positives:
            errors.append(f"bad negative row {neg!r}")
            break
    return errors


def expected_dictionary(pair: dict, corpus_tsv: str, source_iri, target_iri) -> dict:
    """Score every distinct corpus pair, keep >= 0.5, fold into anchors."""
    n = len(pair["s_labels"])
    s_label = {source_iri(i): pair["s_labels"][i] for i in range(n)}
    t_label = {target_iri(i): pair["t_labels"][i] for i in range(n)}
    buckets: dict[str, dict[str, float]] = {}
    seen: set[tuple[str, str]] = set()
    for concept, candidate, _ in _tsv_rows(corpus_tsv):
        if (concept, candidate) in seen:
            continue
        seen.add((concept, candidate))
        score = lexical_score(s_label[concept], t_label[candidate])
        anchor = normalize(s_label[concept])
        if score < SUBSUME_THRESHOLD or not anchor:
            continue
        bucket = buckets.setdefault(anchor, {})
        display = t_label[candidate]
        bucket[display] = max(score, bucket.get(display, float("-inf")))
    return {
        anchor: [label for label, _ in sorted(b.items(), key=lambda kv: (-kv[1], kv[0]))[:MAX_PER_ANCHOR]]
        for anchor, b in sorted(buckets.items())
    }


def check_dictionary(pair: dict, corpus_tsv: str, dict_json: str, source_iri, target_iri) -> list[str]:
    want = expected_dictionary(pair, corpus_tsv, source_iri, target_iri)
    got = json.loads(dict_json).get("entries")
    if got != want:
        return [f"dictionary differs from the oracle ({len(got or {})} anchors, expected {len(want)})"]
    return []


def chunks(doc_id: str, text: str) -> list[tuple[str, str]]:
    """(chunk id, chunk text) on a fixed grid, starts pulled back to whitespace."""
    out: list[tuple[str, str]] = []
    start = 0
    while start < len(text):
        begin = start
        for j in range(start - 1, max(start - ALIGN_WINDOW, 0) - 1, -1):
            if text[j].isspace():
                begin = j + 1
                break
        out.append((f"{doc_id}:{start}", text[begin : start + CHUNK_SIZE]))
        if start + CHUNK_SIZE >= len(text):
            break
        start += CHUNK_STEP
    return out


def embed(text: str, dim: int) -> np.ndarray:
    """Feature-hashed token counts, L2-normalized; no tokens -> first basis vector."""
    vec = np.zeros(dim)
    toks = tokens(text)
    if not toks:
        vec[0] = 1.0
        return vec
    for tok in toks:
        vec[zlib.crc32(tok.encode("utf-8"), EMBED_SEED) % dim] += 1.0
    return vec / np.linalg.norm(vec)


class RankingOracle:
    """Brute-force cosine over every chunk; ties break on ascending id."""

    def __init__(self, docs: dict[str, str], dim: int) -> None:
        pieces = [c for doc_id, text in docs.items() for c in chunks(doc_id, text)]
        pieces.sort()
        self.ids = [cid for cid, _ in pieces]
        self.matrix = np.array([embed(text, dim) for _, text in pieces])
        self.norms = np.linalg.norm(self.matrix, axis=1)
        self.row = {cid: i for i, cid in enumerate(self.ids)}
        self.dim = dim

    def __len__(self) -> int:
        return len(self.ids)

    def check(self, query_text: str, got_ids, got_scores) -> list[str]:
        q = embed(query_text, self.dim)
        scores = (self.matrix @ q) / (self.norms * np.linalg.norm(q))
        k = len(got_ids)
        # Rows are in ascending id order, so a stable sort breaks ties on id.
        order = np.argsort(-scores, kind="stable")[:k].tolist()
        want_ids = [self.ids[i] for i in order]
        rows = [self.row.get(cid, -1) for cid in got_ids]
        if list(got_ids) != want_ids:
            # Accept a different id only where its score ties the oracle's
            # within float tolerance; any real reordering still fails.
            if -1 in rows or len(set(rows)) != k or any(
                abs(float(scores[r]) - float(scores[i])) > SCORE_TOL for r, i in zip(rows, order)
            ):
                return [f"top-{k} for {query_text!r}: got {list(got_ids)}, oracle {want_ids}"]
        if any(abs(g - float(scores[r])) > SCORE_TOL for g, r in zip(got_scores, rows)):
            return [f"top-{k} scores for {query_text!r} differ from the oracle"]
        return []
