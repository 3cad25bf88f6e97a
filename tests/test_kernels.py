import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontorag._kernels import cosine_scan, levenshtein


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
    assert levenshtein("a" * 100, "a" * 99 + "b") == 1
    assert levenshtein("x" * 70, "") == 70


# Short strings of any code points, plus strings longer than 64 characters
# over a small alphabet, so that long pairs share characters.
_texts = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="abcé漢", min_size=65, max_size=150),
)


@settings(deadline=None, max_examples=200)
@given(_texts, _texts)
def test_levenshtein_matches_reference(a, b):
    assert levenshtein(a, b) == ref_levenshtein(a, b)
    assert levenshtein(a, b) == levenshtein(b, a)


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
