import json
import re
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ontorag.ragstore as ragstore
from ontorag.errors import DataError, ProviderError
from ontorag.fixtures import fixture_text
from ontorag.ragstore import (
    Chunk,
    DeterministicEmbedder,
    HttpEmbeddingProvider,
    VectorStore,
    chunk_document,
    ingest,
    retrieve,
)


class TestDeterministicEmbed:
    def test_unit_norm(self):
        for text in ["fever", "a b c a", "", "   ", "many words in here now"]:
            vec = DeterministicEmbedder(32).embed([text])[0]
            assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_uses_first_basis_vector(self):
        vec = DeterministicEmbedder(16).embed([""])[0]
        assert vec[0] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_known_bucket(self):
        bucket = zlib.crc32(b"fever", 0x9E3779B9) % 8
        assert bucket == 3
        vec = DeterministicEmbedder(8).embed(["fever"])[0]
        assert vec[3] == 1.0

    def test_token_order_does_not_matter(self):
        a = DeterministicEmbedder(32).embed(["alpha beta gamma"])[0]
        b = DeterministicEmbedder(32).embed(["gamma beta alpha"])[0]
        np.testing.assert_array_equal(a, b)

    def test_case_and_punctuation_fold(self):
        a = DeterministicEmbedder(32).embed(["Fever!"])[0]
        b = DeterministicEmbedder(32).embed(["fever"])[0]
        np.testing.assert_array_equal(a, b)

    def test_minimum_width(self):
        with pytest.raises(DataError):
            DeterministicEmbedder(7).embed(["x"])[0]
        with pytest.raises(DataError):
            DeterministicEmbedder(dim=4)

    @given(st.text(max_size=60), st.sampled_from([8, 32, 256]))
    @example("", 8)
    @example("  --  !? ", 32)
    @example("a a a b", 8)
    def test_matches_per_token_reference(self, text, dim):
        got = DeterministicEmbedder(dim).embed([text])[0]
        assert got.dtype == np.float64
        assert got.tobytes() == oracles.embed(text, dim).tobytes()

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
            assert row.tobytes() == oracles.embed(text, dim).tobytes()

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
        np.testing.assert_array_equal(out[0], DeterministicEmbedder(16).embed(["a"])[0])


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
        # saving what was loaded reproduces the file's bytes
        data = loaded.to_jsonl()
        assert data == path.read_bytes()
        head, body = data.split(b"\n", 1)
        header = json.loads(head)
        assert header.keys() == {"dim", "provider", "created", "rows", "crc32"}
        assert header["rows"] == len(handbook_store)
        assert header["crc32"] == zlib.crc32(body)
        assert body[-handbook_store.matrix.nbytes :] == handbook_store.matrix.astype("<f8").tobytes()
        rows = _row_lines(path)
        assert len(rows) == len(handbook_store) and "" not in rows
        assert all(json.loads(line).keys() == {"id", "doc_id", "text"} for line in rows)

    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        _save(_mini_store(), path)
        loaded = VectorStore.load(str(path))
        assert len(loaded) == 0
        assert loaded.matrix.shape == (0, 8)
        assert loaded.to_jsonl() == path.read_bytes()

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
        _write_store(path, [], np.ones((0, 4)), dim=4)
        with pytest.raises(DataError, match=r"s\.jsonl:1: store dim must be >= 8"):
            VectorStore.load(str(path))
        _write_store(path, [{"id": "a"}], np.ones((1, 8)))
        with pytest.raises(DataError, match=r"s\.jsonl:2: chunk row needs"):
            VectorStore.load(str(path)).chunks
        _write_store(path, ['"a"'], np.ones((1, 8)))
        with pytest.raises(DataError, match=r"s\.jsonl:2: chunk row needs"):
            VectorStore.load(str(path)).chunks
        _write_store(path, [_ROW], np.ones((1, 8)), rows="1")
        with pytest.raises(DataError, match=r"s\.jsonl:1: store header needs exactly dim, provider, created, rows and crc32"):
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
            {"row": {"note": "x"}},
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad):
        rows = [{**_ROW, "id": cid} for cid in "abc"]
        rows[1].update(bad.get("row", {}))
        rows[1].pop(bad.get("drop"), None)
        matrix = np.ones((3, 8))
        matrix[1] = bad.get("vector", matrix[1])
        path = tmp_path / "s.jsonl"
        # a bad embedding fails the load, a bad row the decode of every row
        _write_store(path, rows, matrix)
        with pytest.raises(DataError, match=r"s\.jsonl:3: "):
            VectorStore.load(str(path)).chunks


def _save(store, path):
    path.write_bytes(store.to_jsonl())


_ROW = {"id": "a", "doc_id": "d", "text": "t"}


def _write_store(path, records, matrix, **header):
    """A hand-made store file: ``records`` as lines (a dict is dumped as JSON), then ``matrix``.

    ``header`` overrides the fields derived from the records and the matrix. The
    header is not padded, so the matrix need not be aligned.
    """
    lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
    # a lone surrogate stands for a byte that is not UTF-8
    rows_bytes = "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape")
    body = rows_bytes + np.asarray(matrix, dtype="<f8").tobytes()
    head = {"dim": 8, "provider": "p", "created": 1, "rows": len(lines), "crc32": zlib.crc32(body), **header}
    path.write_bytes(json.dumps(head, ensure_ascii=False).encode("utf-8", "surrogateescape") + b"\n" + body)


def _row_lines(path):
    """The row lines of the store file at ``path``: the lines between the header and the matrix."""
    head, body = Path(path).read_bytes().split(b"\n", 1)
    header = json.loads(head)
    rows = body[: len(body) - header["rows"] * header["dim"] * 8].decode("utf-8")
    # the rows end with a newline, so the last piece is not a line
    return rows.split("\n")[:-1]


def _flip(path, at):
    """Flip the low bit of the byte at ``at`` in the file at ``path``."""
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


class TestStorePair:
    """Every way a store file's header and body can disagree is a located DataError."""

    def test_row_crc_mismatch(self, tmp_path, handbook_store):
        # one byte of a row's text: rows that no query returns are checked too
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        data = path.read_bytes()
        _flip(path, data.rindex(b'"text": "') + len(b'"text": "'))
        with pytest.raises(DataError, match=r"store\.jsonl: crc32 [0-9a-f]{8} does not match .*re-ingest"):
            VectorStore.load(str(path))

    def test_crc_mismatch(self, tmp_path, handbook_store):
        # the last matrix byte flipped, then the last float cut off
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        _flip(path, -1)
        with pytest.raises(DataError, match=r"store\.jsonl: crc32 [0-9a-f]{8} does not match .*re-ingest"):
            VectorStore.load(str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match=r"store\.jsonl: crc32 [0-9a-f]{8} does not match .*re-ingest"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize("at", [0, 1000], ids=["first", "middle"])
    def test_flipped_matrix_byte_fails_the_crc(self, tmp_path, handbook_store, at):
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        nbytes = handbook_store.matrix.nbytes
        _flip(path, path.stat().st_size - nbytes + at % nbytes)
        with pytest.raises(DataError, match=r"store\.jsonl: crc32 [0-9a-f]{8} does not match .*re-ingest"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "keep, message",
        [
            (-1, r"store\.jsonl: crc32 .*re-ingest"),
            (400, r"store\.jsonl: crc32 .*re-ingest"),
            (1, r"store\.jsonl:1: bad store header"),
        ],
        ids=["last-byte", "in-rows", "in-header"],
    )
    def test_file_cut_short(self, tmp_path, handbook_store, keep, message):
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataError, match=message):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "header",
        [{"rows": 4}, {"dim": 64}, {"rows": 10**12, "dim": 10**12}, {"rows": -1}],
        ids=["rows", "dim", "huge", "negative"],
    )
    def test_matrix_larger_than_the_body(self, tmp_path, header):
        # the CRC matches, so only the size check stands between the header and a bad slice
        path = tmp_path / "s.jsonl"
        _write_store(path, [_ROW, {**_ROW, "id": "b"}], np.ones((2, 8)), **header)
        rows, dim = header.get("rows", 2), header.get("dim", 8)
        with pytest.raises(DataError, match=rf"s\.jsonl:1: header says {rows} rows of {dim} floats; the file holds \d+ bytes"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_wrong_row_count(self, tmp_path, rows):
        path = tmp_path / "s.jsonl"
        _write_store(path, [_ROW, {**_ROW, "id": "b"}], np.ones((rows, 8)), rows=rows)
        with pytest.raises(DataError, match=rf"s\.jsonl:1: header says {rows} rows, the file has 2 lines before the matrix"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize("matrix", [np.ones(7), np.ones(8, dtype=np.float32)], ids=["float-short", "float32"])
    def test_matrix_shorter_than_the_header_says(self, tmp_path, matrix):
        # the CRC matches and the sizes fit, but the last 64 bytes reach into the
        # row line, so the rows do not end on a newline
        path = tmp_path / "s.jsonl"
        body = (json.dumps(_ROW) + "\n").encode("utf-8") + matrix.tobytes()
        header = {"dim": 8, "provider": "p", "created": 1, "rows": 1, "crc32": zlib.crc32(body)}
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        with pytest.raises(DataError, match=r"s\.jsonl:1: header says 1 rows, the file has 0 lines before the matrix"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "provider, text, line", [("caf\udce9", "t", 1), ("p", "caf\udce9", 3)], ids=["header", "row"]
    )
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, provider, text, line):
        # a lone surrogate is written as the byte it escapes; the CRC matches,
        # so the decode is what fails
        path = tmp_path / "s.jsonl"
        row = json.dumps({**_ROW, "id": "b", "text": text}, ensure_ascii=False)
        _write_store(path, [_ROW, row], np.ones((2, 8)), provider=provider)
        with pytest.raises(DataError, match=rf"s\.jsonl:{line}: not UTF-8 text"):
            VectorStore.load(str(path))

    def test_nan_row_names_its_jsonl_line(self, tmp_path):
        matrix = np.ones((3, 8))
        matrix[2, 5] = np.nan
        path = tmp_path / "s.jsonl"
        _write_store(path, [{**_ROW, "id": cid} for cid in "abc"], matrix)
        with pytest.raises(DataError, match=r"s\.jsonl:4: embedding \(matrix row 2\) has a non-finite value"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "ids", ["acb", "abb", "aab", "ba"], ids=["swapped", "duplicate", "duplicate-first", "reversed"]
    )
    def test_rows_out_of_id_order_name_their_line(self, tmp_path, ids):
        # the first row that is not strictly after its predecessor is reported
        line = next(n for n in range(1, len(ids)) if ids[n] <= ids[n - 1]) + 2
        path = tmp_path / "s.jsonl"
        _write_store(path, [{**_ROW, "id": cid} for cid in ids], np.ones((len(ids), 8)))
        with pytest.raises(DataError, match=rf"s\.jsonl:{line}: chunk id '{ids[line - 2]}' does not follow"):
            VectorStore.load(str(path)).chunks

    _FIELDS = {"dim": 8, "provider": "p", "created": 1}
    # a bad row line, then a matrix of two rows
    _BODY = b"{not json\n" + np.ones((2, 8)).tobytes()

    @pytest.mark.parametrize(
        "header, message",
        [
            (_FIELDS, "store header needs exactly dim, provider, created, rows and crc32; re-ingest"),
            ({**_FIELDS, "rows": 1, "crc32": "0"}, "store header needs exactly dim, provider, created, rows and crc32"),
            ({**_FIELDS, "rows": 1, "crc32": zlib.crc32(_BODY), "note": 0}, "store header needs exactly .*; re-ingest"),
            ({**_FIELDS, "rows": 2, "crc32": zlib.crc32(_BODY)}, "header says 2 rows, the file has 1 lines"),
            ({**_FIELDS, "dim": 4, "rows": 1, "crc32": zlib.crc32(_BODY)}, "store dim must be >= 8"),
        ],
        ids=["no-rows", "string-crc32", "extra-key", "row-count", "narrow-dim"],
    )
    def test_header_is_checked_before_rows(self, tmp_path, header, message):
        path = tmp_path / "s.jsonl"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + self._BODY)
        with pytest.raises(DataError, match=rf"s\.jsonl:1: {message}"):
            VectorStore.load(str(path))

    def test_inline_embeddings_say_reingest(self, tmp_path):
        # the first single-file format: no rows or crc32, embeddings inside the
        # rows; its header is rejected before any row is read
        path = tmp_path / "old.jsonl"
        header = json.dumps({"dim": 8, "provider": "p", "created": 1})
        row = json.dumps({**_ROW, "embedding": [1.0] * 8})
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"old\.jsonl:1: store header needs exactly .*re-ingest"):
            VectorStore.load(str(path))
        path.write_text(f"{header}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"old\.jsonl:1: .*re-ingest"):
            VectorStore.load(str(path))

    def test_two_file_format_says_reingest(self, tmp_path, handbook_store):
        # PATH as the two-file format wrote it, its matrix in PATH.npy beside it
        rows = "".join(json.dumps(c._asdict(), ensure_ascii=False) + "\n" for c in handbook_store.chunks)
        header = {
            "dim": 256, "provider": "deterministic", "created": 1, "rows": len(handbook_store),
            "crc32": 0, "rows_crc32": zlib.crc32(rows.encode("utf-8")),
        }
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(header) + "\n" + rows, encoding="utf-8")
        with pytest.raises(DataError, match=r"store\.jsonl:1: store header needs exactly .*re-ingest"):
            VectorStore.load(str(path))

    @pytest.mark.parametrize(
        "provider, texts",
        [
            ("deterministic", []),
            ("deterministic", ["fever"]),
            ("deterministic", ["naïve café " * 7, "発熱", "x" * 63]),
            ("https://例え.jp/v1", ["fever", "naïve café"]),
        ],
        ids=["empty", "one", "mixed", "non-ascii-provider"],
    )
    def test_matrix_starts_on_a_64_byte_boundary(self, tmp_path, embedder, provider, texts):
        # the padding counts the header's UTF-8 bytes, not its characters
        store = VectorStore(dim=embedder.dim, provider_name=provider, created=1)
        embedder.name = provider
        ingest(store, [(f"d{i}", text) for i, text in enumerate(texts)], embedder, size=20, overlap=5)
        path = tmp_path / "s.jsonl"
        _save(store, path)
        offset = path.stat().st_size - len(store) * embedder.dim * 8
        assert offset % 64 == 0
        loaded = VectorStore.load(str(path))
        assert loaded.matrix.flags.aligned and loaded.matrix.flags.c_contiguous
        assert not loaded.matrix.flags.writeable and not loaded.matrix.flags.owndata
        assert loaded.matrix.tobytes() == store.matrix.tobytes()
        assert loaded.chunks == store.chunks


def _reference_rows(path):
    """The chunk rows of the store at ``path`` by the rules of one ``json.loads`` per line.

    Every line between the header and the matrix is a row. Returns the rows as
    ``(id, doc_id, text)`` tuples, or the text of the DataError that the first
    bad row gives.
    """
    chunks = []
    for lineno, line in enumerate(_row_lines(path), start=2):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"{path}:{lineno}: bad chunk row: {exc}"
        if not (
            isinstance(row, dict)
            and row.keys() == {"id", "doc_id", "text"}
            and all(type(value) is str for value in row.values())
        ):
            return f"{path}:{lineno}: chunk row needs exactly the string fields id, doc_id and text"
        if chunks and row["id"] <= chunks[-1][0]:
            return (
                f"{path}:{lineno}: chunk id {row['id']!r} does not follow {chunks[-1][0]!r}; "
                "rows must be sorted by id without duplicates"
            )
        chunks.append((row["id"], row["doc_id"], row["text"]))
    return chunks


@st.composite
def _mutated_row_lines(draw):
    """The row lines of a three-row store, each kept or changed in one way.

    A blank line is a row too, so a blank line before a row is one of the ways.
    """
    lines = []
    for cid in "abc":
        row = {**_ROW, "id": cid}
        how = draw(st.sampled_from(["keep", "lead", "trail", "bom", "two", "split", "drop", "extra", "blank"]))
        if how == "drop":
            del row[draw(st.sampled_from(sorted(row)))]
        elif how == "extra":
            row["note"] = "x"
        line = json.dumps(row, separators=draw(st.sampled_from([(", ", ": "), (",", ":")])))
        pad = draw(st.text(alphabet=" \t", min_size=1, max_size=3))
        if how == "lead":
            line = pad + line
        elif how == "trail":
            line += pad
        elif how == "bom":
            line = "\ufeff" + line
        elif how == "two":
            line += draw(st.sampled_from(["", " ", ",", ", "])) + json.dumps({**_ROW, "id": cid + "2"})
        elif how == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\f", " \f "])))
        if how == "split":
            at = draw(st.integers(1, len(line) - 1))
            lines += [line[:at], line[at:]]
        else:
            lines.append(line)
    return lines


class TestRowDecode:
    """``load`` decodes a row line exactly as ``json.loads`` of that line does."""

    def test_rows_joined_across_lines_are_rejected_at_their_line(self, tmp_path):
        # Three row lines for three rows, but line 2 holds two objects and rows
        # c spans lines 3 and 4. Decoding "[" + ",".join(lines) + "]" would
        # accept this file.
        lines = [
            '{"id":"a","doc_id":"d","text":"t"}, {"id":"b","doc_id":"d","text":"t"}',
            '{"id":"c","doc_id":"d"',
            '"text":"t"}',
        ]
        assert len(json.loads("[" + ",".join(lines) + "]")) == 3
        path = tmp_path / "s.jsonl"
        _write_store(path, lines, np.ones((len(lines), 8)))
        with pytest.raises(DataError, match=r"s\.jsonl:2: bad chunk row: Extra data"):
            VectorStore.load(str(path)).chunks

    @given(_mutated_row_lines())
    def test_load_accepts_what_per_line_json_loads_accepts(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.jsonl"
            _write_store(path, lines, np.ones((len(lines), 8)))
            want = _reference_rows(path)
            try:
                got = [(c.id, c.doc_id, c.text) for c in VectorStore.load(str(path)).chunks]
            except DataError as exc:
                got = str(exc)
        assert got == want

    def test_loaded_rows_are_chunks(self, tmp_path):
        path = tmp_path / "s.jsonl"
        _write_store(path, [{**_ROW, "id": cid} for cid in "ab"], np.ones((2, 8)))
        chunks = VectorStore.load(str(path)).chunks
        assert [type(c) for c in chunks] == [Chunk, Chunk]
        assert chunks[1] == Chunk(id="b", doc_id="d", text="t")
        assert (chunks[1].id, chunks[1].doc_id, chunks[1].text) == ("b", "d", "t")
        with pytest.raises(AttributeError):
            chunks[1].id = "c"


class TestLazyRows:
    """``load`` decodes no row; each row is decoded the first time it is needed, and only then."""

    def test_each_row_is_decoded_once(self, tmp_path, monkeypatch, embedder, handbook_store):
        path = tmp_path / "store.jsonl"
        _save(handbook_store, path)
        decoded = []
        decode = VectorStore._row

        def counting(store, i):
            decoded.append(store._lines[i])
            return decode(store, i)

        monkeypatch.setattr(VectorStore, "_row", counting)
        store = VectorStore.load(str(path))
        assert decoded == []
        query = embedder.embed(["constipation advice"])[0]
        hits = store.nearest(query, 4)
        assert len(decoded) == 4
        assert store.nearest(query, 4) == hits
        assert len(decoded) == 4
        assert store.chunks == handbook_store.chunks
        rows = _row_lines(path)
        assert sorted(decoded) == sorted(rows)
        store.to_jsonl()
        assert store.chunks == handbook_store.chunks
        assert len(decoded) == len(rows)

    def test_a_bad_row_fails_the_query_that_returns_it(self, tmp_path):
        rows = [{**_ROW, "id": "a"}, {"id": "b", "doc_id": "d"}, {**_ROW, "id": "c"}]
        path = tmp_path / "s.jsonl"
        _write_store(path, rows, np.eye(3, 8))
        store = VectorStore.load(str(path))
        assert [c.id for c, _ in store.nearest(np.eye(8)[0], 1)] == ["a"]
        with pytest.raises(DataError, match=r"s\.jsonl:3: chunk row needs"):
            store.nearest(np.eye(8)[1], 1)

    def test_ingest_onto_a_store_decodes_every_row(self, tmp_path, embedder):
        rows = [{**_ROW, "id": cid} for cid in "abc"]
        rows[1]["text"] = 5
        path = tmp_path / "s.jsonl"
        _write_store(path, rows, np.ones((3, embedder.dim)), provider=embedder.name, dim=embedder.dim)
        with pytest.raises(DataError, match=r"s\.jsonl:3: chunk row needs"):
            ingest(VectorStore.load(str(path)), [("new", "fever notes")], embedder)


_NORM_VALUES = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200, 1.7e154]),
)


@given(
    arrays(np.float64, st.tuples(st.integers(0, 600), st.integers(1, 24)), elements=_NORM_VALUES),
    st.integers(0, 600),
)
@example(np.full((3, 8), 1e200), 0)
@example(np.ones((0, 8)), 0)
def test_row_norms_match_np_linalg_norm(matrix, start):
    with np.errstate(over="ignore"):
        want = np.linalg.norm(matrix, axis=1)
    norms, bad = ragstore._row_norms(matrix)
    assert norms.tobytes() == want.tobytes()
    finite = np.isfinite(want)
    assert bad == (None if finite.all() else int(np.argmin(finite)))
    # a later range of rows, as add_chunks passes the new rows' positions
    _, bad = ragstore._row_norms(matrix, slice(start, None))
    assert bad == (None if finite[start:].all() else int(np.argmin(finite[start:])))


class TestIngest:
    def test_handbook_chunk_count(self, handbook_store):
        assert len(handbook_store) == 8
        assert {c.doc_id for c in handbook_store.chunks} == {"handbook"}
        # ids carry the grid offset
        assert "handbook:0" in {c.id for c in handbook_store.chunks}

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
            assert row.tobytes() == DeterministicEmbedder(embedder.dim).embed([chunk.text])[0].tobytes()

    def test_reingest_same_doc_rejected(self, handbook_store, embedder):
        with pytest.raises(DataError):
            ingest(handbook_store, [("handbook", fixture_text("handbook.txt"))], embedder)

    def test_retrieve_function(self, handbook_store, embedder):
        hits = retrieve(handbook_store, "constipation advice", embedder, k=2)
        assert len(hits) == 2
        assert "onstipation" in hits[0][0].text
        with pytest.raises(DataError):
            retrieve(handbook_store, "q", DeterministicEmbedder(dim=32), k=2)


def _length_rows(seen):
    """A reply whose row for each input is its length, eight times."""
    return 200, {"data": [{"embedding": [float(len(t))] * 8} for t in seen.body["input"]]}


class TestHttpEmbeddingProvider:
    def test_batching_preserves_order(self, http_stub, monkeypatch):
        monkeypatch.setattr(ragstore, "EMBED_BATCH_SIZE", 2)
        http_stub.reply = _length_rows
        provider = HttpEmbeddingProvider(http_stub.url, model="m2", dim=8)
        out = provider.embed(["a", "bb", "ccc", "dddd", "eeeee"])
        assert out.shape == (5, 8)
        assert [row[0] for row in out] == [1.0, 2.0, 3.0, 4.0, 5.0]
        # the pool may post the batches in any order
        assert sorted(seen.body["input"] for seen in http_stub.received) == [["a", "bb"], ["ccc", "dddd"], ["eeeee"]]
        for seen in http_stub.received:
            assert seen.path == "/v1"
            assert seen.headers["Content-Type"] == "application/json"
            assert seen.body["model"] == "m2"

    def test_batches_are_in_flight_at_once(self, http_stub, monkeypatch):
        monkeypatch.setattr(ragstore, "EMBED_BATCH_SIZE", 1)
        # Serial posting would leave the first request alone at the barrier.
        barrier = threading.Barrier(2, timeout=5)

        def reply(seen):
            barrier.wait()
            return _length_rows(seen)

        http_stub.reply = reply
        out = HttpEmbeddingProvider(http_stub.url, dim=8).embed(["a", "bb"])
        assert [row[0] for row in out] == [1.0, 2.0]

    def test_pool_only_for_several_batches(self, http_stub, monkeypatch):
        import concurrent.futures

        pools, threads = [], []
        make_pool = concurrent.futures.ThreadPoolExecutor
        post_json = ragstore.post_json

        def recording_pool(max_workers):
            pools.append(max_workers)
            return make_pool(max_workers)

        def recording_post(*args):
            threads.append(threading.get_ident())
            return post_json(*args)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(ragstore, "post_json", recording_post)
        monkeypatch.setattr(ragstore, "EMBED_BATCH_SIZE", 2)
        http_stub.reply = _length_rows
        provider = HttpEmbeddingProvider(http_stub.url, dim=8)
        provider.embed(["a", "bb"])
        assert pools == [] and threads == [threading.get_ident()]
        provider.embed(["a", "bb", "ccc"])
        assert pools == [ragstore.MAX_IN_FLIGHT]
        assert len(http_stub.received) == 3

    def test_one_failing_batch_fails_the_call(self, http_stub, monkeypatch):
        monkeypatch.setattr(ragstore, "EMBED_BATCH_SIZE", 2)
        http_stub.reply = lambda seen: (500, {}) if "bad" in seen.body["input"] else _length_rows(seen)
        provider = HttpEmbeddingProvider(http_stub.url, dim=8)
        with pytest.raises(ProviderError, match="returned status 500"):
            provider.embed(["a", "bb", "ccc", "bad", "eeeee"])

    def test_sends_bearer_token(self, http_stub, monkeypatch):
        http_stub.reply = _length_rows
        monkeypatch.setenv("EMBED_API_KEY", "sekrit")
        HttpEmbeddingProvider(http_stub.url, dim=8).embed(["x"])
        assert http_stub.received[0].headers["Authorization"] == "Bearer sekrit"

    def test_no_token_no_header(self, http_stub, monkeypatch):
        http_stub.reply = _length_rows
        monkeypatch.delenv("EMBED_API_KEY", raising=False)
        HttpEmbeddingProvider(http_stub.url, dim=8).embed(["x"])
        assert "Authorization" not in http_stub.received[0].headers

    def test_error_paths(self, http_stub, refused_url):
        provider = HttpEmbeddingProvider(http_stub.url, dim=8)
        url = re.escape(http_stub.url)

        http_stub.reply = lambda seen: (500, {})
        with pytest.raises(ProviderError, match=f"embedding request to {url} returned status 500"):
            provider.embed(["x"])

        http_stub.reply = lambda seen: (200, b"not json")
        with pytest.raises(ProviderError, match=f"malformed embedding response from {url}"):
            provider.embed(["x"])

        http_stub.reply = lambda seen: (200, {"data": []})
        with pytest.raises(ProviderError, match="has 0 rows for 1 inputs"):
            provider.embed(["x"])

        http_stub.reply = lambda seen: (200, {"data": [{"embedding": [0.0] * 4}]})
        with pytest.raises(ProviderError, match="has width 4, expected 8"):
            provider.embed(["x"])

        for rows in ([[0.0] * 8, [0.0] * 7], [["x"] * 8, [0.0] * 8], [[0.0] * 8, [float("nan")] * 8]):
            http_stub.reply = lambda seen, rows=rows: (200, {"data": [{"embedding": r} for r in rows]})
            with pytest.raises(ProviderError, match=f"malformed embedding response from {url}"):
                provider.embed(["x", "y"])

        with pytest.raises(ProviderError, match=f"embedding request to {re.escape(refused_url)} failed: .*refused"):
            HttpEmbeddingProvider(refused_url, dim=8).embed(["x"])

    @pytest.mark.parametrize(
        "url, reason",
        [("not a url", "unknown url type"), ("file:///dev/null", "unsupported URL scheme 'file'")],
    )
    def test_url_that_is_not_http_fails(self, url, reason):
        with pytest.raises(ProviderError, match=f"embedding request to {url} failed: .*{reason}"):
            HttpEmbeddingProvider(url, dim=8).embed(["x"])

    def test_empty_input(self):
        provider = HttpEmbeddingProvider("http://127.0.0.1:9/v1", dim=8)
        assert provider.embed([]).shape == (0, 8)


def test_now_honors_source_date_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "12345")
    assert ragstore.timestamp() == 12345
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "not a number")
    with pytest.raises(DataError):
        ragstore.timestamp()
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    assert ragstore.timestamp() > 0
