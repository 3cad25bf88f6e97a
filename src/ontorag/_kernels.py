"""Hot kernels: Levenshtein distance and dense cosine scans.

Each operation has exactly one implementation. The cosine scan is one NumPy
matrix-vector product. Levenshtein is the Myers/Hyyrö bit-parallel algorithm
(Myers, JACM 1999; Hyyrö 2003) on Python ints: one column of the edit-distance
table is held as bit vectors of vertical +1/-1 deltas and updated with a
handful of word operations per character. Python ints are unbounded, so
strings of any length take the same path.
"""

from __future__ import annotations

import numpy as np


def cosine_scan(matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, qnorm: float) -> np.ndarray:
    """Cosine of `query` against every matrix row; zero-norm rows score 0."""
    scores = matrix @ query
    safe = norms > 0.0
    out = np.zeros(matrix.shape[0], dtype=np.float64)
    out[safe] = scores[safe] / (norms[safe] * qnorm)
    return out


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
