import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ontorag._kernels import cosine, cosine_scan, levenshtein, top_k


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


@settings(deadline=None, max_examples=200)
@given(_texts, _texts, st.data())
def test_levenshtein_cutoff_contract(a, b, data):
    cutoff = data.draw(st.integers(0, max(len(a), len(b))))
    exact = ref_levenshtein(a, b)
    got = levenshtein(a, b, cutoff)
    if exact <= cutoff:
        assert got == exact
    else:
        assert got == cutoff + 1
    assert levenshtein(a, b, None) == exact


def expression_cosine(a, b):
    """The pairwise cosine as the alignment scorer and the evaluation metric each wrote it."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return None
    return float(np.dot(a, b) / (na * nb))


# Pairs of equal-width vectors; the element range includes 0.0 and subnormals.
_vector_pairs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[arrays(np.float64, n, elements=st.floats(-1e6, 1e6))] * 2)
)


@settings(deadline=None, max_examples=200)
@given(_vector_pairs)
@example((np.zeros(3), np.ones(3)))
@example((np.ones(3), np.zeros(3)))
@example((np.array([5e-324]), np.array([1.0])))  # a norm that underflows to 0
def test_cosine_bits_equal_the_expression(pair):
    a, b = pair
    want = expression_cosine(a, b)
    got = cosine(a, b)
    if want is None:
        assert got is None
    else:
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


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


def masked_cosine(matrix, norms, query, qnorm):
    """The scan as a boolean-mask copy, kept as the reference for its bits."""
    scores = matrix @ query
    safe = norms > 0.0
    out = np.zeros(matrix.shape[0], dtype=np.float64)
    out[safe] = scores[safe] / (norms[safe] * qnorm)
    return out


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 40), st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_cosine_scan_bytes_equal_masked_formula(rows, dim, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, dim))
    matrix[rng.random(rows) < 0.3] = 0.0  # zero-norm rows
    norms = np.linalg.norm(matrix, axis=1)
    q = rng.standard_normal(dim)
    qn = float(np.linalg.norm(q))
    assert cosine_scan(matrix, norms, q, qn).tobytes() == masked_cosine(matrix, norms, q, qn).tobytes()


def _ranked_bits(pairs):
    return [(int(i), np.float64(score).tobytes()) for i, score in pairs]


def _argsort_top_k(scores, k):
    order = np.argsort(-scores, kind="stable")[:k]
    return [(i, scores[i]) for i in order]


_tied_scores = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]), min_size=1, max_size=60)
_any_scores = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=60)


@settings(deadline=None, max_examples=300)
@given(st.one_of(_tied_scores, _any_scores), st.integers(1, 70))
@example([0.5], 1)
@example([0.5], 3)
@example([0.0, -0.0, 0.0], 2)
@example([1.0, 1.0, 2.0, 1.0], 1)
@example([1.0, 1.0, 2.0, 1.0], 4)
def test_top_k_matches_stable_argsort(values, k):
    scores = np.array(values, dtype=np.float64)
    got = top_k(scores, k)
    assert _ranked_bits(got) == _ranked_bits(_argsort_top_k(scores, k))
    assert all(type(i) is int and type(score) is float for i, score in got)

