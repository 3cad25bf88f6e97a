import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontorag._kernels import (
    HAVE_NUMBA,
    _levenshtein_np,
    cosine_scan,
    encode_text,
    levenshtein,
)


def ref_levenshtein(a: str, b: str) -> int:
    """Slow but obviously correct DP, used as the oracle."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("fever", "rash") == 5
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("same", "same") == 0
    assert levenshtein("", "") == 0


@settings(deadline=None, max_examples=200)
@given(st.text(max_size=30), st.text(max_size=30))
def test_levenshtein_matches_reference(a, b):
    assert levenshtein(a, b) == ref_levenshtein(a, b)


@settings(deadline=None, max_examples=100)
@given(st.text(max_size=25), st.text(max_size=25))
def test_levenshtein_numpy_fallback_matches(a, b):
    ca, cb = encode_text(a), encode_text(b)
    assert _levenshtein_np(ca, cb) == ref_levenshtein(a, b)


def test_encode_text():
    arr = encode_text("ab")
    assert arr.tolist() == [97, 98]
    assert encode_text("").shape == (0,)


def _random_store(rng, rows=50, dim=16):
    matrix = np.ascontiguousarray(rng.standard_normal((rows, dim)))
    norms = np.linalg.norm(matrix, axis=1)
    q = np.ascontiguousarray(rng.standard_normal(dim))
    return matrix, norms, q, float(np.linalg.norm(q))


def test_cosine_scan_matches_numpy_formula():
    rng = np.random.default_rng(11)
    matrix, norms, q, qn = _random_store(rng)
    got = cosine_scan(matrix, norms, q, qn)
    want = (matrix @ q) / (norms * qn)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_cosine_scan_zero_norm_rows_score_zero():
    matrix = np.zeros((3, 8))
    matrix[1] = 1.0
    norms = np.linalg.norm(matrix, axis=1)
    q = np.ones(8)
    out = cosine_scan(matrix, norms, q, float(np.linalg.norm(q)))
    assert out[0] == 0.0 and out[2] == 0.0
    assert out[1] == pytest.approx(1.0)


def test_env_flag_selects_numpy_path(child_pythonpath):
    env = dict(os.environ, ONTORAG_NO_NUMBA="1")
    code = (
        "from ontorag._kernels import HAVE_NUMBA, levenshtein;"
        "assert not HAVE_NUMBA;"
        "assert levenshtein('kitten', 'sitting') == 3;"
        "print('fallback ok')"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "fallback ok" in out.stdout


def test_numba_is_active_by_default():
    # wherever numba imports, the jit path runs unless the flag is set
    if os.environ.get("ONTORAG_NO_NUMBA", "") in ("", "0"):
        pytest.importorskip("numba")
        assert HAVE_NUMBA
