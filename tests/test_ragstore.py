import io
import json
import threading
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ontorag.ragstore as ragstore
from ontorag.errors import DataError, ProviderError
from ontorag.fixtures import fixture_text
from ontorag.model import label_tokens
from ontorag.ragstore import (
    Chunk,
    DeterministicEmbedder,
    HttpEmbeddingProvider,
    VectorStore,
    chunk_document,
    deterministic_embed,
    ingest,
    retrieve,
)


class TestDeterministicEmbed:
    def test_unit_norm(self):
        for text in ["fever", "a b c a", "", "   ", "many words in here now"]:
            vec = deterministic_embed(text, dim=32)
            assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_uses_first_basis_vector(self):
        vec = deterministic_embed("", dim=16)
        assert vec[0] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_known_bucket(self):
        bucket = zlib.crc32(b"fever", 0x9E3779B9) % 8
        assert bucket == 3
        vec = deterministic_embed("fever", dim=8)
        assert vec[3] == 1.0

    def test_token_order_does_not_matter(self):
        a = deterministic_embed("alpha beta gamma", dim=32)
        b = deterministic_embed("gamma beta alpha", dim=32)
        np.testing.assert_array_equal(a, b)

    def test_case_and_punctuation_fold(self):
        a = deterministic_embed("Fever!", dim=32)
        b = deterministic_embed("fever", dim=32)
        np.testing.assert_array_equal(a, b)

    def test_minimum_width(self):
        with pytest.raises(DataError):
            deterministic_embed("x", dim=7)
        with pytest.raises(DataError):
            DeterministicEmbedder(dim=4)

    @given(st.text(max_size=60), st.sampled_from([8, 32, 256]))
    @example("", 8)
    @example("  --  !? ", 32)
    @example("a a a b", 8)
    def test_matches_per_token_reference(self, text, dim):
        got = deterministic_embed(text, dim=dim)
        assert got.dtype == np.float64
        assert got.tobytes() == _reference_row(text, dim).tobytes()

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=40),
                st.text(alphabet="ab c", max_size=12),
                st.text(alphabet=" .,;!?-", max_size=8),
                st.sampled_from(["", "Fieber über 39", "naïve café", "発熱 fever"]),
            ),
            max_size=12,
        ),
        st.sampled_from([8, 32, 256]),
    )
    @example(["", "x", "", "x x"], 8)
    @example(["same words", "same words", "  !? ", "Straße STRASSE"], 32)
    def test_batch_matches_per_token_reference(self, texts, dim):
        out = DeterministicEmbedder(dim).embed(texts)
        assert out.dtype == np.float64
        assert out.shape == (len(texts), dim)
        for text, row in zip(texts, out):
            assert row.tobytes() == _reference_row(text, dim).tobytes()

    def test_empty_batches(self):
        provider = DeterministicEmbedder(dim=16)
        out = provider.embed([])
        assert out.shape == (0, 16) and out.dtype == np.float64
        out = provider.embed(["", " ", "?!"])
        np.testing.assert_array_equal(out, np.tile(np.eye(16)[0], (3, 1)))

    def test_each_distinct_token_is_hashed_once(self, monkeypatch):
        hashed = []

        class CountingZlib:
            def crc32(self, data, value=0):
                hashed.append(data)
                return zlib.crc32(data, value)

        monkeypatch.setattr(ragstore, "zlib", CountingZlib())
        embedder = DeterministicEmbedder(dim=16)
        first = embedder.embed(["fever fever chills", "chills", "", "Fever, rash"])
        assert sorted(hashed) == [b"chills", b"fever", b"rash"]
        # later calls hash only tokens the embedder has not seen
        second = embedder.embed(["rash and fever", "fever fever chills"])
        assert sorted(hashed) == [b"and", b"chills", b"fever", b"rash"]
        assert second[1].tobytes() == first[0].tobytes()

    def test_provider_batches(self):
        provider = DeterministicEmbedder(dim=16)
        out = provider.embed(["a", "b"])
        assert out.shape == (2, 16)
        np.testing.assert_array_equal(out[0], deterministic_embed("a", dim=16))


def _reference_row(text, dim):
    """The embedding of ``text`` built one token at a time."""
    expected = np.zeros(dim, dtype=np.float64)
    tokens = label_tokens(text)
    if tokens:
        for tok in tokens:
            expected[zlib.crc32(tok.encode("utf-8"), 0x9E3779B9) % dim] += 1.0
        expected /= np.linalg.norm(expected)
    else:
        expected[0] = 1.0
    return expected


class TestChunkDocument:
    def test_known_grid(self):
        text = "x" * 1000
        chunks = chunk_document(text, size=512, overlap=64)
        assert [offset for offset, _ in chunks] == [0, 448, 896]
        # no whitespace anywhere, so beginnings stay on the grid
        assert chunks[1][1] == text[448 : 448 + 512]
        assert chunks[2][1] == text[896:1000]

    def test_alignment_to_whitespace(self):
        # a space 5 chars before the second grid start pulls it back
        text = "a" * 15 + " " + "b" * 30
        chunks = chunk_document(text, size=20, overlap=0)
        assert chunks[0] == (0, text[0:20])
        assert chunks[1] == (20, text[16:40])
        assert chunks[2] == (40, text[40:46])

    def test_alignment_window_is_bounded(self):
        text = "a" + " " + "b" * 100
        chunks = chunk_document(text, size=30, overlap=0)
        # the space sits 28 chars before the second start: out of reach
        assert chunks[1][0] == 30
        assert chunks[1][1] == text[30:60]

    def test_every_character_is_covered(self):
        text = fixture_text("handbook.txt")
        chunks = chunk_document(text, size=257, overlap=31)
        covered = set()
        step = 257 - 31
        for offset, piece in chunks:
            end = min(offset + 257, len(text))
            covered.update(range(end - len(piece), end))
        assert covered == set(range(len(text)))

    def test_short_and_empty_documents(self):
        assert chunk_document("") == []
        assert chunk_document("tiny", size=512, overlap=64) == [(0, "tiny")]

    def test_validation(self):
        with pytest.raises(DataError):
            chunk_document("x", size=0)
        with pytest.raises(DataError):
            chunk_document("x", size=10, overlap=10)
        with pytest.raises(DataError):
            chunk_document("x", size=10, overlap=-1)


def _mini_store(dim=8):
    store = VectorStore(dim=dim, provider_name="deterministic", created=1)
    return store


def _chunk(cid, vec, doc="d", text="t"):
    return Chunk(id=cid, doc_id=doc, text=text), vec


def _add(store, *pairs):
    store.add_chunks([chunk for chunk, _ in pairs], np.array([vec for _, vec in pairs]))


class TestVectorStore:
    def test_add_validates_before_mutating(self):
        store = _mini_store()
        chunks = [Chunk("d:0", "d", "t"), Chunk("d:1", "d", "t")]
        for vectors in (np.ones((2, 4)), np.ones((1, 8)), np.ones(8)):
            with pytest.raises(DataError):
                store.add_chunks(chunks, vectors)
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "-inf", "overflow"])
    def test_non_finite_vectors_rejected(self, bad):
        store = _mini_store()
        _add(store, _chunk("d:0", np.ones(8)))
        vectors = np.ones((2, 8))
        vectors[1, 3] = bad
        with pytest.raises(DataError, match="d:2"):
            store.add_chunks([Chunk("d:1", "d", "t"), Chunk("d:2", "d", "t")], vectors)
        assert [c.id for c in store.chunks] == ["d:0"]
        np.testing.assert_array_equal(store.matrix, np.ones((1, 8)))
        np.testing.assert_array_equal(store.norms, [np.sqrt(8)])

    def test_rows_follow_chunk_id_order(self):
        store = _mini_store()
        e = np.eye(8)
        _add(store, _chunk("d:c", e[2]), _chunk("d:a", e[0]))
        _add(store, _chunk("d:b", e[1]))
        assert [c.id for c in store.chunks] == ["d:a", "d:b", "d:c"]
        np.testing.assert_array_equal(store.matrix, e[:3])
        assert store.matrix.flags.c_contiguous

    def test_duplicate_ids_rejected(self):
        store = _mini_store()
        _add(store, _chunk("d:0", np.ones(8)))
        with pytest.raises(DataError):
            _add(store, _chunk("d:0", np.ones(8)))
        with pytest.raises(DataError):
            _add(store, _chunk("d:1", np.ones(8)), _chunk("d:1", np.ones(8)))

    def test_nearest_ranking(self):
        store = _mini_store()
        e = np.eye(8)
        _add(
            store,
            _chunk("d:0", e[0]),
            _chunk("d:1", (e[0] + e[1]) / np.sqrt(2)),
            _chunk("d:2", e[1]),
        )
        hits = store.nearest(e[0], k=2)
        assert [c.id for c, _ in hits] == ["d:0", "d:1"]
        assert hits[0][1] == pytest.approx(1.0)
        assert hits[1][1] == pytest.approx(1 / np.sqrt(2))

    def test_nearest_tie_breaks_on_id(self):
        store = _mini_store()
        v = np.ones(8)
        _add(store, _chunk("d:b", v), _chunk("d:a", v), _chunk("d:c", v))
        hits = store.nearest(v, k=3)
        assert [c.id for c, _ in hits] == ["d:a", "d:b", "d:c"]

    def test_nearest_edge_cases(self):
        store = _mini_store()
        assert store.nearest(np.ones(8), k=3) == []
        _add(store, _chunk("d:0", np.ones(8)))
        with pytest.raises(DataError):
            store.nearest(np.ones(8), k=0)
        with pytest.raises(DataError):
            store.nearest(np.ones(4), k=1)
        assert len(store.nearest(np.ones(8), k=10)) == 1
        zero = store.nearest(np.zeros(8), k=1)
        assert zero[0][1] == 0.0

    def test_zero_query_returns_the_first_chunks(self):
        store = _mini_store()
        e = np.eye(8)
        _add(store, *(_chunk(f"d:{i}", e[i]) for i in (3, 1, 2, 0)))
        hits = store.nearest(np.zeros(8), k=3)
        assert [(c.id, score) for c, score in hits] == [("d:0", 0.0), ("d:1", 0.0), ("d:2", 0.0)]
        assert all(np.float64(score).tobytes() == np.float64(0.0).tobytes() for _, score in hits)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "-inf", "norm-overflow"]
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_query_is_data_error(self, bad):
        store = _mini_store()
        _add(store, _chunk("d:0", np.ones(8)), _chunk("d:1", np.eye(8)[0]))
        query = np.ones(8)
        query[2] = bad
        with pytest.raises(DataError, match="query embedding"):
            store.nearest(query, k=2)

    def test_all_equal_scores_keep_the_first_ids(self):
        store = _mini_store()
        ids = [f"d:{i:04d}" for i in range(4000)]
        store.add_chunks([Chunk(cid, "d", "t") for cid in ids], np.ones((4000, 8)))
        hits = store.nearest(np.ones(8), k=4)
        assert [c.id for c, _ in hits] == ids[:4]
        assert len({score for _, score in hits}) == 1

    def test_nearest_matches_stable_argsort(self):
        rng = np.random.default_rng(3)
        store = _mini_store()
        # few distinct rows, so many scores tie
        vectors = rng.integers(0, 3, size=(300, 8)).astype(np.float64)
        store.add_chunks([Chunk(f"d:{i:03d}", "d", "t") for i in range(300)], vectors)
        for k in (1, 4, 299, 300, 301):
            query = rng.integers(0, 3, size=8).astype(np.float64)
            if not query.any():
                continue
            scores = (store.matrix @ query) / (store.norms * float(np.linalg.norm(query)))
            scores[store.norms == 0.0] = 0.0
            want = [(store.chunks[i].id, scores[i].tobytes()) for i in np.argsort(-scores, kind="stable")[:k]]
            got = [(c.id, np.float64(score).tobytes()) for c, score in store.nearest(query, k)]
            assert got == want

    def test_save_load_round_trip(self, tmp_path, embedder, handbook_store):
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        loaded = VectorStore.load(str(path))
        assert loaded.dim == handbook_store.dim
        assert loaded.provider_name == handbook_store.provider_name
        assert loaded.created == handbook_store.created
        assert loaded.chunks == handbook_store.chunks
        np.testing.assert_array_equal(loaded.matrix, handbook_store.matrix)
        np.testing.assert_array_equal(loaded.norms, handbook_store.norms)
        # saving what was loaded reproduces the bytes of both files
        (npy_path, matrix), (jsonl_path, text) = loaded.to_jsonl(str(path))
        assert (npy_path, jsonl_path) == (str(_matrix_path(path)), str(path))
        assert matrix == _matrix_path(path).read_bytes()
        assert text.encode("utf-8") == path.read_bytes()
        header = json.loads(text.split("\n")[0])
        assert header["rows"] == len(handbook_store)
        assert header["crc32"] == zlib.crc32(matrix)
        assert all("embedding" not in json.loads(line) for line in text.split("\n")[1:] if line)

    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        _save(_mini_store(), path)
        loaded = VectorStore.load(str(path))
        assert len(loaded) == 0
        assert loaded.matrix.shape == (0, 8)

    def test_load_validation(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            VectorStore.load(str(path))
        path.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(DataError):
            VectorStore.load(str(path))
        path.write_text('{"dim": 4, "provider": "p", "created": 1}\n', encoding="utf-8")
        with pytest.raises(DataError):
            VectorStore.load(str(path))
        path.write_text('{"dim": 8, "provider": "p"}\n', encoding="utf-8")
        with pytest.raises(DataError):
            VectorStore.load(str(path))
        _write_pair(path, [{"id": "a"}], np.ones((1, 8)))
        with pytest.raises(DataError, match=r"s\.jsonl:2: chunk row needs"):
            VectorStore.load(str(path))
        _write_pair(path, ["a"], np.ones((1, 8)))
        with pytest.raises(DataError, match=r"s\.jsonl:2: chunk row needs"):
            VectorStore.load(str(path))
        _write_pair(path, [_ROW], np.ones((1, 8)), rows="1")
        with pytest.raises(DataError, match=r"s\.jsonl:1: store header needs rows and crc32"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "bad",
        [
            {"vector": [1.0] * 7 + [float("nan")]},
            {"vector": [float("inf")] * 8},
            {"vector": [1.0] * 7 + [float("-inf")]},
            {"vector": [1.0] * 7 + [1e200]},
            {"row": {"id": 5}},
            {"row": {"doc_id": None}},
            {"row": {"text": ["t"]}},
            {"row": {"embedding": [1.0] * 8}},
            {"row": {"embedding": None}},
            {"drop": "id"},
            {"drop": "text"},
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad):
        rows = [{**_ROW, "id": cid} for cid in "abc"]
        rows[1].update(bad.get("row", {}))
        rows[1].pop(bad.get("drop"), None)
        matrix = np.ones((3, 8))
        matrix[1] = bad.get("vector", matrix[1])
        path = tmp_path / "s.jsonl"
        # the blank line counts: errors name the line a text editor shows
        _write_pair(path, rows, matrix, gap="\n")
        with pytest.raises(DataError, match=r"s\.jsonl:4: "):
            VectorStore.load(str(path))


def _matrix_path(path):
    return path.with_name(path.name + ".npy")


def _save(store, path):
    (_, matrix), (_, text) = store.to_jsonl(str(path))
    _matrix_path(path).write_bytes(matrix)
    path.write_text(text, encoding="utf-8")


_ROW = {"id": "a", "doc_id": "d", "text": "t"}


def _npy(array, **kwargs):
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


def _write_pair(path, records, matrix, gap="", **header):
    """A hand-made store: ``header`` overrides the fields derived from the records and matrix."""
    data = matrix if isinstance(matrix, bytes) else _npy(matrix)
    head = {"dim": 8, "provider": "p", "created": 1, "rows": len(records), "crc32": zlib.crc32(data), **header}
    body = "".join(json.dumps(r) + "\n" for r in records)
    path.write_text(json.dumps(head) + "\n" + gap + body, encoding="utf-8")
    _matrix_path(path).write_bytes(data)


class TestStorePair:
    """Every way the JSONL and its ``.npy`` can disagree is a located DataError."""

    def test_missing_matrix(self, tmp_path, handbook_store):
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        _matrix_path(path).unlink()
        with pytest.raises(DataError, match=r"store\.jsonl\.npy: .*missing"):
            VectorStore.load(str(path))

    def test_torn_pair(self, tmp_path, embedder, handbook_store):
        # the .npy of another ingest with the same row count: only the CRC tells
        other = VectorStore.new(embedder)
        other.add_chunks(handbook_store.chunks, handbook_store.matrix[::-1])
        path, torn = tmp_path / "store.jsonl", tmp_path / "other.jsonl"
        _save(handbook_store, path)
        _save(other, torn)
        _matrix_path(path).write_bytes(_matrix_path(torn).read_bytes())
        with pytest.raises(DataError, match=r"store\.jsonl\.npy: crc32 .* torn or mismatched"):
            VectorStore.load(str(path))

    def test_crc_mismatch(self, tmp_path, handbook_store):
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        data = bytearray(_matrix_path(path).read_bytes())
        data[-1] ^= 0x01
        _matrix_path(path).write_bytes(bytes(data))
        with pytest.raises(DataError, match=r"store\.jsonl\.npy: crc32"):
            VectorStore.load(str(path))
        _matrix_path(path).write_bytes(bytes(data[:-8]))
        with pytest.raises(DataError, match=r"store\.jsonl\.npy: crc32"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_wrong_row_count(self, tmp_path, rows):
        path = tmp_path / "s.jsonl"
        _write_pair(path, [_ROW, {**_ROW, "id": "b"}], np.ones((2, 8)), rows=rows)
        with pytest.raises(DataError, match=rf"s\.jsonl:1: header says {rows} rows, the file has 2"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "data",
        [
            _npy(np.array([[1.0] * 8], dtype=object), allow_pickle=True),
            _npy(np.array([{"a": 1}]), allow_pickle=True),
            _npy(np.ones((1, 8), dtype=np.float32)),
            _npy(np.ones((1, 8), dtype=">f8")),
            _npy(np.ones((1, 9))),
            _npy(np.ones(8)),
            b"not an npy file",
            b"",
        ],
        ids=["object", "pickled", "float32", "big-endian", "width", "1d", "garbage", "empty"],
    )
    def test_matrix_must_be_plain_float64(self, tmp_path, data):
        path = tmp_path / "s.jsonl"
        _write_pair(path, [_ROW], data)
        with pytest.raises(DataError, match=r"s\.jsonl\.npy: "):
            VectorStore.load(str(path))

    def test_fortran_order_matrix_loads_c_contiguous(self, tmp_path):
        matrix = np.asfortranarray(np.arange(24, dtype=np.float64).reshape(3, 8))
        path = tmp_path / "s.jsonl"
        _write_pair(path, [{**_ROW, "id": cid} for cid in "abc"], matrix)
        loaded = VectorStore.load(str(path))
        assert loaded.matrix.flags.c_contiguous
        np.testing.assert_array_equal(loaded.matrix, matrix)
        np.testing.assert_array_equal(loaded.norms, np.linalg.norm(matrix, axis=1))

    def test_nan_row_names_its_jsonl_line(self, tmp_path):
        matrix = np.ones((3, 8))
        matrix[2, 5] = np.nan
        path = tmp_path / "s.jsonl"
        _write_pair(path, [{**_ROW, "id": cid} for cid in "abc"], matrix)
        with pytest.raises(DataError, match=r"s\.jsonl:4: embedding \(row 2 of .*s\.jsonl\.npy\)"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "ids", ["acb", "abb", "aab", "ba"], ids=["swapped", "duplicate", "duplicate-first", "reversed"]
    )
    def test_rows_out_of_id_order_name_their_line(self, tmp_path, ids):
        # the first row that is not strictly after its predecessor is reported
        line = next(n for n in range(1, len(ids)) if ids[n] <= ids[n - 1]) + 2
        path = tmp_path / "s.jsonl"
        _write_pair(path, [{**_ROW, "id": cid} for cid in ids], np.ones((len(ids), 8)))
        with pytest.raises(DataError, match=rf"s\.jsonl:{line}: chunk id '{ids[line - 2]}' does not follow"):
            VectorStore.load(str(path))

    def test_inline_embeddings_say_reingest(self, tmp_path):
        # the single-file format: no rows or crc32, embeddings inside the rows
        path = tmp_path / "old.jsonl"
        header = json.dumps({"dim": 8, "provider": "p", "created": 1})
        row = json.dumps({**_ROW, "embedding": [1.0] * 8})
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"old\.jsonl:2: inline embedding.*re-ingest"):
            VectorStore.load(str(path))
        path.write_text(f"{header}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"old\.jsonl:1: .*re-ingest"):
            VectorStore.load(str(path))


class TestIngest:
    def test_handbook_chunk_count(self, handbook_store):
        assert len(handbook_store) == 8
        assert {c.doc_id for c in handbook_store.chunks} == {"handbook"}
        # ids carry the grid offset
        assert "handbook:0" in handbook_store.chunk_ids()

    def test_rejects_mismatched_provider(self, handbook_store):
        other = DeterministicEmbedder(dim=32)
        with pytest.raises(DataError):
            ingest(handbook_store, [("x", "text")], other)

        class Misnamed(DeterministicEmbedder):
            name = "something-else"

        with pytest.raises(DataError):
            ingest(handbook_store, [("x", "text")], Misnamed(dim=handbook_store.dim))

    def test_doc_id_validation(self, handbook_store, embedder):
        with pytest.raises(DataError):
            ingest(handbook_store, [("", "text")], embedder)
        with pytest.raises(DataError):
            ingest(handbook_store, [(" padded ", "text")], embedder)

    def test_empty_document_is_noop(self, embedder):
        store = VectorStore.new(embedder)
        assert ingest(store, [("d", "")], embedder) == 0
        assert len(store) == 0

    @pytest.mark.parametrize(
        "docs",
        [
            [("alpha", "fever notes"), ("beta", "rash notes"), ("gamma ", "cough notes")],
            [("alpha", "fever notes"), ("beta", "rash notes"), ("alpha", "other notes")],
            [("alpha", ""), ("alpha", "")],
        ],
        ids=["bad-last-id", "repeated-id", "repeated-empty"],
    )
    def test_bad_batch_leaves_store_unchanged(self, handbook_store, embedder, monkeypatch, docs):
        chunks, matrix = list(handbook_store.chunks), handbook_store.matrix.tobytes()
        embedded = []
        monkeypatch.setattr(embedder, "embed", lambda texts: embedded.append(texts))
        with pytest.raises(DataError, match="doc_id"):
            ingest(handbook_store, docs, embedder)
        assert embedded == []
        assert handbook_store.chunks == chunks
        assert handbook_store.matrix.tobytes() == matrix

    def test_many_documents_in_one_batch(self, embedder):
        docs = [("b", "rash notes " * 40), ("a", "fever notes " * 40), ("c", "")]
        store = VectorStore.new(embedder)
        assert ingest(store, docs, embedder, size=100, overlap=20) == 12
        assert sorted({c.doc_id for c in store.chunks}) == ["a", "b"]
        ids = [c.id for c in store.chunks]
        assert ids == sorted(ids)
        for chunk, row in zip(store.chunks, store.matrix):
            assert row.tobytes() == deterministic_embed(chunk.text, embedder.dim).tobytes()

    def test_reingest_same_doc_rejected(self, handbook_store, embedder):
        with pytest.raises(DataError):
            ingest(handbook_store, [("handbook", fixture_text("handbook.txt"))], embedder)

    def test_retrieve_function(self, handbook_store, embedder):
        hits = retrieve(handbook_store, "constipation advice", embedder, k=2)
        assert len(hits) == 2
        assert "onstipation" in hits[0][0].text
        with pytest.raises(DataError):
            retrieve(handbook_store, "q", DeterministicEmbedder(dim=32), k=2)


class _FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class TestHttpEmbeddingProvider:
    def _patch(self, monkeypatch, handler):
        import requests

        monkeypatch.setattr(requests, "post", handler)

    @staticmethod
    def _length_rows(json):
        return _FakeResponse(payload={"data": [{"embedding": [float(len(t))] * 8} for t in json["input"]]})

    def test_batching_preserves_order(self, monkeypatch):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append(list(json["input"]))
            return self._length_rows(json)

        self._patch(monkeypatch, fake_post)
        provider = HttpEmbeddingProvider("http://api.test/v1", dim=8, batch_size=2)
        out = provider.embed(["a", "bb", "ccc", "dddd", "eeeee"])
        assert out.shape == (5, 8)
        assert [row[0] for row in out] == [1.0, 2.0, 3.0, 4.0, 5.0]
        # the pool may post the batches in any order
        assert sorted(calls) == [["a", "bb"], ["ccc", "dddd"], ["eeeee"]]

    def test_batches_are_in_flight_at_once(self, monkeypatch):
        # Serial posting would leave the first request alone at the barrier.
        barrier = threading.Barrier(2, timeout=5)

        def fake_post(url, json=None, headers=None, timeout=None):
            barrier.wait()
            return self._length_rows(json)

        self._patch(monkeypatch, fake_post)
        out = HttpEmbeddingProvider("http://api.test/v1", dim=8, batch_size=1).embed(["a", "bb"])
        assert [row[0] for row in out] == [1.0, 2.0]

    def test_pool_only_for_several_batches(self, monkeypatch):
        import concurrent.futures

        pools, threads = [], []
        make_pool = concurrent.futures.ThreadPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return make_pool(max_workers)

        def fake_post(url, json=None, headers=None, timeout=None):
            threads.append(threading.get_ident())
            return self._length_rows(json)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        self._patch(monkeypatch, fake_post)
        provider = HttpEmbeddingProvider("http://api.test/v1", dim=8, batch_size=2)
        provider.embed(["a", "bb"])
        assert pools == [] and threads == [threading.get_ident()]
        provider.embed(["a", "bb", "ccc"])
        assert pools == [ragstore.MAX_IN_FLIGHT]

    def test_one_failing_batch_fails_the_call(self, monkeypatch):
        def fake_post(url, json=None, headers=None, timeout=None):
            if "bad" in json["input"]:
                return _FakeResponse(status_code=500)
            return self._length_rows(json)

        self._patch(monkeypatch, fake_post)
        provider = HttpEmbeddingProvider("http://api.test/v1", dim=8, batch_size=2)
        with pytest.raises(ProviderError, match="returned status 500"):
            provider.embed(["a", "bb", "ccc", "bad", "eeeee"])

    def test_sends_bearer_token(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(headers)
            return _FakeResponse(payload={"data": [{"embedding": [0.0] * 8}]})

        self._patch(monkeypatch, fake_post)
        monkeypatch.setenv("EMBED_API_KEY", "sekrit")
        HttpEmbeddingProvider("http://api.test/v1", dim=8).embed(["x"])
        assert seen["Authorization"] == "Bearer sekrit"

    def test_no_token_no_header(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(headers)
            return _FakeResponse(payload={"data": [{"embedding": [0.0] * 8}]})

        self._patch(monkeypatch, fake_post)
        monkeypatch.delenv("EMBED_API_KEY", raising=False)
        HttpEmbeddingProvider("http://api.test/v1", dim=8).embed(["x"])
        assert "Authorization" not in seen

    def test_error_paths(self, monkeypatch):
        provider = HttpEmbeddingProvider("http://api.test/v1", dim=8)

        self._patch(monkeypatch, lambda *a, **k: _FakeResponse(status_code=500))
        with pytest.raises(ProviderError):
            provider.embed(["x"])

        self._patch(monkeypatch, lambda *a, **k: _FakeResponse(payload=None))
        with pytest.raises(ProviderError):
            provider.embed(["x"])

        self._patch(monkeypatch, lambda *a, **k: _FakeResponse(payload={"data": []}))
        with pytest.raises(ProviderError):
            provider.embed(["x"])

        self._patch(
            monkeypatch,
            lambda *a, **k: _FakeResponse(payload={"data": [{"embedding": [0.0] * 4}]}),
        )
        with pytest.raises(ProviderError):
            provider.embed(["x"])

        for rows in ([[0.0] * 8, [0.0] * 7], [["x"] * 8, [0.0] * 8], [[0.0] * 8, [float("nan")] * 8]):
            self._patch(
                monkeypatch,
                lambda *a, rows=rows, **k: _FakeResponse(payload={"data": [{"embedding": r} for r in rows]}),
            )
            with pytest.raises(ProviderError, match="malformed embedding response from http://api.test/v1"):
                provider.embed(["x", "y"])

        import requests

        def boom(*a, **k):
            raise requests.ConnectionError("refused")

        self._patch(monkeypatch, boom)
        with pytest.raises(ProviderError):
            provider.embed(["x"])

    def test_empty_input(self):
        provider = HttpEmbeddingProvider("http://api.test/v1", dim=8)
        assert provider.embed([]).shape == (0, 8)


def test_now_honors_source_date_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "12345")
    assert ragstore._now() == 12345
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "not a number")
    with pytest.raises(DataError):
        ragstore._now()
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    assert ragstore._now() > 0
