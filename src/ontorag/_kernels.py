"""Hot kernels: Levenshtein distance, dense cosine scans and top-k ranking.

Each operation has exactly one implementation. The cosine scan is one NumPy
matrix-vector product. Top-k ranking finds the k-th best score with one
``np.partition`` (introselect, O(n)) and sorts only the rows that reach it, so
a store of any size takes the same path. Levenshtein is the Myers/Hyyrö
bit-parallel algorithm (Myers, JACM 1999; Hyyrö 2003) on Python ints: one
column of the edit-distance table is held as bit vectors of vertical +1/-1
deltas and updated with a handful of word operations per character. Python
ints are unbounded, so strings of any length take the same path.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np


def cosine_scan(matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, qnorm: float) -> np.ndarray:
    """Cosine of `query` against every matrix row; zero-norm rows score 0."""
    out = np.zeros(matrix.shape[0], dtype=np.float64)
    return np.divide(matrix @ query, norms * qnorm, out=out, where=norms > 0.0)


def top_k(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The ``k >= 1`` best of NaN-free ``scores`` as (index, score), best first.

    Equal to ``np.argsort(-scores, kind="stable")[:k]``: ties break on
    ascending index, and each score is returned as stored. Only the rows that
    reach the k-th best score are sorted; of those tied with it, the first
    ones that make up k are kept.
    """
    n = scores.shape[0]
    k = min(k, n)
    kth = np.partition(scores, n - k)[n - k]
    rows = (scores >= kth).nonzero()[0]
    if rows.shape[0] > k:  # ties at the k-th score
        above = scores[rows] > kth
        rows = np.concatenate((rows[above], rows[~above][: k - int(above.sum())]))
    # reverse=True keeps equal scores in their (ascending index) order.
    return sorted(zip(rows.tolist(), scores[rows].tolist()), key=itemgetter(1), reverse=True)


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute, unit costs) between strings."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # The longer string is the pattern (one bit per character), so the loop
    # runs over the shorter one.
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, dist = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return dist
