"""Hot numeric kernels: Levenshtein distance and dense cosine scans.

The cosine scan is one NumPy matrix-vector product on every install.
Levenshtein alone ships in two variants: a numba ``@njit`` build and a pure
NumPy fallback. The fallback is selected when numba is unavailable or when
``ONTORAG_NO_NUMBA=1`` is set (read once at import time).
"""

from __future__ import annotations

import os

import numpy as np


def _levenshtein_np(a: np.ndarray, b: np.ndarray) -> int:
    """Row-vectorized edit-distance DP over code-point arrays."""
    n = b.shape[0]
    if a.shape[0] == 0:
        return n
    if n == 0:
        return int(a.shape[0])
    idx = np.arange(n + 1)
    prev = idx.copy()
    cur = np.empty(n + 1, dtype=np.int64)
    for i in range(a.shape[0]):
        cur[0] = i + 1
        cur[1:] = np.minimum(prev[:-1] + (b != a[i]), prev[1:] + 1)
        # Propagate insertions left to right: cur[j] <- min_k<=j cur[k] + (j - k)
        cur = np.minimum.accumulate(cur - idx) + idx
        prev, cur = cur, prev
    return int(prev[n])


def cosine_scan(matrix: np.ndarray, norms: np.ndarray, query: np.ndarray, qnorm: float) -> np.ndarray:
    """Cosine of `query` against every matrix row; zero-norm rows score 0."""
    scores = matrix @ query
    safe = norms > 0.0
    out = np.zeros(matrix.shape[0], dtype=np.float64)
    out[safe] = scores[safe] / (norms[safe] * qnorm)
    return out


def _levenshtein_loop(a: np.ndarray, b: np.ndarray) -> int:
    m = a.shape[0]
    n = b.shape[0]
    if m == 0:
        return n
    if n == 0:
        return m
    prev = np.arange(n + 1)
    cur = np.empty(n + 1, dtype=np.int64)
    for i in range(m):
        cur[0] = i + 1
        for j in range(1, n + 1):
            cost = prev[j - 1]
            if a[i] != b[j - 1]:
                cost += 1
            dele = prev[j] + 1
            ins = cur[j - 1] + 1
            best = cost
            if dele < best:
                best = dele
            if ins < best:
                best = ins
            cur[j] = best
        prev, cur = cur, prev
    return int(prev[n])


_env = os.environ.get("ONTORAG_NO_NUMBA", "")
NUMBA_DISABLED = _env not in ("", "0")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via ONTORAG_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

if HAVE_NUMBA:
    _levenshtein_nb = njit(cache=True)(_levenshtein_loop)
    levenshtein_codes = _levenshtein_nb
else:
    levenshtein_codes = _levenshtein_np


def encode_text(s: str) -> np.ndarray:
    """Code-point array for the Levenshtein kernels."""
    return np.fromiter(map(ord, s), dtype=np.int32, count=len(s))


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute, unit costs) between strings."""
    if a == b:
        return 0
    return int(levenshtein_codes(encode_text(a), encode_text(b)))
