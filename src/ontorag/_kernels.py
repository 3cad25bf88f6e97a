"""Hot kernels: Levenshtein distance, pairwise cosine, dense cosine scans and top-k ranking.

Each operation has exactly one implementation. The pairwise cosine returns
None for a zero-norm vector, and each caller says what that means. The cosine
scan is one NumPy matrix-vector product, and a zero norm on either side, a
zero query included, scores 0. Top-k ranking finds the k-th best score with
one ``np.partition`` (introselect, O(n)) and sorts only the rows that reach
it, so a store of any size takes the same path. Levenshtein is the Myers/Hyyrö
bit-parallel algorithm (Myers, JACM 1999; Hyyrö 2003) on Python ints: one
column of the edit-distance table is held as bit vectors of vertical +1/-1
deltas and updated with a handful of word operations per character. Python
ints are unbounded, so strings of any length take the same path. A caller that
only needs distances up to some ``cutoff`` passes it: the column's last cell
moves by at most one per character, so after ``j`` of the shorter string's
``n`` characters the final distance is at least ``dist - (n - j)``. Once that
bound exceeds the cutoff the loop stops (Ukkonen's cut-off, Inf. Control 1985).
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np


def cosine(a: np.ndarray, b: np.ndarray) -> float | None:
    """Cosine of two 1-D vectors, or None when either has norm 0."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return None
    return float(np.dot(a, b) / (na * nb))


def cosine_scan(matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, qnorm: float) -> np.ndarray:
    """Cosine of `query` against every matrix row; a zero norm on either side scores 0."""
    den = norms * qnorm
    out = np.zeros(matrix.shape[0], dtype=np.float64)
    return np.divide(matrix @ query, den, out=out, where=den > 0.0)


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


def levenshtein(a: str, b: str, cutoff: int | None = None) -> int:
    """Edit distance (insert/delete/substitute, unit costs) between strings.

    With a ``cutoff``, a distance up to ``cutoff`` is returned exactly and any
    larger one as ``cutoff + 1``, which means only "more than ``cutoff``".
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if cutoff is None:
        cutoff = len(a)  # no distance exceeds the longer length
    # The bound below starts at the length difference and never falls.
    if len(a) - len(b) > cutoff:
        return cutoff + 1
    # The longer string is the pattern (one bit per character), so the loop
    # runs over the shorter one.
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, dist = mask, 0, len(a)
    limit = cutoff + len(b)
    for j, ch in enumerate(b, 1):
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        if dist + j > limit:  # dist - (len(b) - j) > cutoff
            return cutoff + 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return dist
