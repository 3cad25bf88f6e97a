"""Document chunking, embedding, and an exact-scan vector store.

A store is a pair of files, and only this module knows their layout. The
JSONL file holds one header object (embedding dimension, provider name,
creation timestamp, row count, the CRC-32 of the sidecar's bytes and the
CRC-32 of the row bytes below the header), then one ``{"id", "doc_id",
"text"}`` object per chunk, one per line, sorted by id. The sidecar, the JSONL
path plus ``.npy``, holds the float64 matrix whose row ``i`` is the embedding
of chunk ``i``. Retrieval is a full cosine scan (see ``_kernels``), so results
are exact and reproducible; ties break on ascending chunk id.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Protocol, Sequence

import numpy as np
import zlib

from ._kernels import cosine_scan, top_k
from .errors import DataError, ProviderError
from .model import label_tokens
from .parse import decode_utf8

CHUNK_SIZE = 512
CHUNK_OVERLAP = 64
# HTTP embedding: texts per request, requests of one call in flight, seconds per request.
EMBED_BATCH_SIZE = 64
MAX_IN_FLIGHT = 4
EMBED_TIMEOUT = 30.0
ALIGN_WINDOW = 20
MIN_DIM = 8
DEFAULT_DIM = 256
DEFAULT_K = 4
_HASH_SEED = 0x9E3779B9
MATRIX_SUFFIX = ".npy"
# json.dumps(obj, ensure_ascii=False) builds an encoder per call; this one is
# stateless and gives the same text.
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)
# Configured as the decoder json.loads uses. Its raw_decode skips the two
# whitespace scans that json.loads makes on every line; see VectorStore._row.
_JSON_DECODER = json.JSONDecoder()
# Rows per block of _row_norms: at width 256 the block's squares take 512 KB,
# where squaring the whole matrix at once would double its memory.
_NORM_BLOCK = 256


class EmbeddingProvider(Protocol):
    """Maps a batch of texts to row vectors of a fixed dimension."""

    name: str
    dim: int

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class DeterministicEmbedder:
    """Offline provider: feature-hashed token counts, L2-normalized.

    Each token lands in the CRC32 bucket ``crc32(token, seed) % dim`` (feature
    hashing, Weinberger et al., ICML 2009). Text with no tokens maps to the
    first basis vector so every embedding has unit norm. The embedder keeps
    each token's bucket, so a distinct token is hashed once per embedder.
    """

    name = "deterministic"

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim < MIN_DIM:
            raise DataError(f"embedding dim must be >= {MIN_DIM}, got {dim}")
        self.dim = dim
        self._buckets: dict[str, int] = {}

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        dim, buckets = self.dim, self._buckets
        out = np.empty((len(texts), dim), dtype=np.float64)
        for i, text in enumerate(texts):
            tokens = label_tokens(text)
            for tok in tokens:
                if tok not in buckets:
                    buckets[tok] = zlib.crc32(tok.encode("utf-8"), _HASH_SEED) % dim
            # A text with no tokens counts once in bucket 0. The counts are
            # integers, so their sum of squares is exact and the row is
            # bit-identical to dividing by the float norm.
            counts = np.bincount([buckets[tok] for tok in tokens] or [0], minlength=dim)
            out[i] = counts / math.sqrt(counts @ counts)
        return out


def post_json(url: str, body: dict, key_var: str, timeout: float, what: str, read: Callable[[Any], Any]):
    """POST ``body`` as JSON to ``url`` and return ``read`` of the decoded JSON reply.

    Sends ``Authorization: Bearer $key_var`` when that variable is set. A URL
    that is not http(s), a failed request, a status other than 200, a reply
    that is not JSON or one that ``read`` rejects with a KeyError, IndexError,
    TypeError or ValueError is a ProviderError about the ``what`` request.
    """
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    key = os.environ.get(key_var)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    try:
        # Request() raises ValueError on a URL it cannot parse.
        request = urllib.request.Request(url, json.dumps(body).encode("utf-8"), headers)
        if request.type not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme {request.type!r}")
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, raw = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise ProviderError(f"{what} request to {url} returned status {exc.code}") from exc
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise ProviderError(f"{what} request to {url} failed: {exc}") from exc
    if status != 200:
        raise ProviderError(f"{what} request to {url} returned status {status}")
    try:
        return read(json.loads(raw))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ProviderError(f"malformed {what} response from {url}: {exc}") from exc


class HttpEmbeddingProvider:
    """Embeddings over HTTP: POST {"model", "input"} -> {"data": [{"embedding"}]}.

    Sends ``Authorization: Bearer $EMBED_API_KEY`` when the variable is set.
    A call posts its texts in batches of ``EMBED_BATCH_SIZE``, up to
    ``MAX_IN_FLIGHT`` at once, and reassembles the rows in input order.
    """

    def __init__(self, url: str, model: str = "embed-default", dim: int = DEFAULT_DIM) -> None:
        if dim < MIN_DIM:
            raise DataError(f"embedding dim must be >= {MIN_DIM}, got {dim}")
        self.url = url
        self.model = model
        self.dim = dim
        self.name = url

    def _embed_batch(self, batch: Sequence[str]) -> list[list[float]]:
        body = {"model": self.model, "input": list(batch)}
        rows = post_json(
            self.url, body, "EMBED_API_KEY", EMBED_TIMEOUT, "embedding",
            lambda reply: [item["embedding"] for item in reply["data"]],
        )
        if len(rows) != len(batch):
            raise ProviderError(
                f"embedding response from {self.url} has {len(rows)} rows for {len(batch)} inputs"
            )
        return rows

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.empty((0, self.dim), dtype=np.float64)
        batches = [texts[i : i + EMBED_BATCH_SIZE] for i in range(0, len(texts), EMBED_BATCH_SIZE)]
        if len(batches) == 1:
            results = [self._embed_batch(batches[0])]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
                results = list(pool.map(self._embed_batch, batches))
        rows = [row for batch_rows in results for row in batch_rows]
        try:
            out = np.asarray(rows, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response from {self.url}: {exc}") from exc
        if out.ndim != 2 or out.shape[1] != self.dim:
            raise ProviderError(
                f"embedding response from {self.url} has width {out.shape[-1] if out.ndim == 2 else '?'}, expected {self.dim}"
            )
        # json accepts NaN and Infinity, which no embedding may hold.
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise ProviderError(
                f"malformed embedding response from {self.url}: row {int(np.argmin(finite))} "
                "has a non-finite value"
            )
        return out


def chunk_document(text: str, size: int = CHUNK_SIZE, overlap: int = CHUNK_OVERLAP) -> list[tuple[int, str]]:
    """Sliding-window chunks as (grid_offset, chunk_text).

    Window starts advance on a fixed grid of ``size - overlap``; each start is
    then pulled back up to ``ALIGN_WINDOW`` characters to the nearest
    whitespace so chunks begin on word boundaries. Ends stay on the grid, so
    consecutive chunks always overlap. Offsets name the grid position, which
    keeps chunk ids unique even after alignment.
    """
    if size < 1:
        raise DataError("chunk size must be >= 1")
    if not 0 <= overlap < size:
        raise DataError("chunk overlap must satisfy 0 <= overlap < size")
    step = size - overlap
    chunks: list[tuple[int, str]] = []
    start = 0
    while start < len(text):
        begin = start
        for j in range(start - 1, max(start - ALIGN_WINDOW, 0) - 1, -1):
            if text[j].isspace():
                begin = j + 1
                break
        chunks.append((start, text[begin : min(start + size, len(text))]))
        if start + size >= len(text):
            break
        start += step
    return chunks


class Chunk(NamedTuple):
    id: str
    doc_id: str
    text: str


@dataclass(eq=False)
class VectorStore:
    """In-memory chunk collection with an exact cosine scan.

    ``matrix`` is the only copy of the embeddings: row ``i`` is the vector of
    ``chunks[i]``, and both are kept in ascending chunk-id order, so a stable
    sort on score alone breaks ties on id.

    A loaded store keeps its rows as undecoded JSONL lines. A row is decoded
    the first time it is needed, and only once: :meth:`nearest` decodes the
    rows it returns, and ``chunks`` all the rest.
    """

    dim: int
    provider_name: str
    created: int
    matrix: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)
    # Row i's Chunk, or None until _row decodes _lines[i]. _lines is None once
    # every row is decoded and checked for id order; _path names the JSONL.
    _chunks: list = field(default_factory=list, init=False, repr=False)
    _lines: list[str] | None = field(default=None, init=False, repr=False)
    _path: str = field(default="", init=False, repr=False)

    def __post_init__(self) -> None:
        self.matrix = np.empty((0, self.dim), dtype=np.float64)
        self.norms = np.empty(0, dtype=np.float64)

    @classmethod
    def new(cls, provider: EmbeddingProvider) -> "VectorStore":
        return cls(dim=provider.dim, provider_name=provider.name, created=timestamp())

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def chunks(self) -> list[Chunk]:
        """Every chunk, in id order. The first read decodes a loaded store's remaining rows."""
        if self._lines is not None:
            last_id = None
            for i, chunk in enumerate(self._chunks):
                chunk = chunk or self._row(i)
                if last_id is not None and chunk.id <= last_id:
                    raise DataError(
                        f"{self._path}:{i + 2}: chunk id {chunk.id!r} does not follow {last_id!r}; "
                        "rows must be sorted by id without duplicates"
                    )
                last_id = chunk.id
            self._lines = None
        return self._chunks

    def _row(self, i: int) -> Chunk:
        """Decode row ``i`` from its JSONL line ``i + 2``, check its shape and keep it."""
        line = self._lines[i]
        # raw_decode reads one value from the first character. A line it does
        # not decode to its end (surrounding whitespace, a BOM, a second value
        # or bad JSON) goes to json.loads, which accepts or rejects it, and
        # words the error, exactly as for every line.
        try:
            row, end = _JSON_DECODER.raw_decode(line)
        except json.JSONDecodeError:
            end = -1
        if end != len(line):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{self._path}:{i + 2}: bad chunk row: {exc}") from exc
        # Three keys, all present: exactly id, doc_id and text.
        try:
            chunk_id, doc_id, text = row["id"], row["doc_id"], row["text"]
            shaped = len(row) == 3 and type(chunk_id) is str and type(doc_id) is str and type(text) is str
        except (KeyError, TypeError):
            shaped = False
        if not shaped:
            raise DataError(f"{self._path}:{i + 2}: chunk row needs exactly the string fields id, doc_id and text")
        chunk = self._chunks[i] = tuple.__new__(Chunk, (chunk_id, doc_id, text))
        return chunk

    def add_chunks(self, new_chunks: Sequence[Chunk], vectors: np.ndarray) -> None:
        """Validate then merge; the store is untouched if anything is wrong.

        ``vectors[i]`` is the embedding of ``new_chunks[i]``.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape != (len(new_chunks), self.dim):
            raise DataError(
                f"{len(new_chunks)} chunks need vectors of shape ({len(new_chunks)}, {self.dim}), "
                f"got {vectors.shape}"
            )
        old_chunks = self.chunks
        seen = {c.id for c in old_chunks}
        for chunk in new_chunks:
            if chunk.id in seen:
                raise DataError(f"duplicate chunk id {chunk.id}")
            seen.add(chunk.id)
        chunks = old_chunks + list(new_chunks)
        order = sorted(range(len(chunks)), key=lambda i: chunks[i].id)
        # Scatter old and new rows straight to their sorted places: one matrix
        # allocation, not a concatenated copy and then a reordered one.
        rank = np.empty(len(chunks), dtype=np.intp)
        rank[order] = np.arange(len(chunks))
        matrix = np.empty((len(chunks), self.dim), dtype=np.float64)
        matrix[rank[: len(old_chunks)]] = self.matrix
        matrix[rank[len(old_chunks) :]] = vectors
        norms, bad = _row_norms(matrix, rank[len(old_chunks) :])
        if bad is not None:
            raise DataError(
                f"chunk {new_chunks[bad].id}: embedding has a non-finite value or its norm overflows"
            )
        self._chunks = [chunks[i] for i in order]
        self.matrix = matrix
        self.norms = norms

    def nearest(self, query: np.ndarray, k: int) -> list[tuple[Chunk, float]]:
        """Top-k chunks by cosine similarity; ties break on ascending id.

        A query with a non-finite value, or whose norm overflows, is a
        DataError; a zero query scores 0.0 against every chunk.
        """
        if k < 1:
            raise DataError("k must be >= 1")
        chunks = self._chunks
        if not chunks:
            return []
        q = np.ascontiguousarray(np.asarray(query, dtype=np.float64).reshape(-1))
        if q.shape[0] != self.dim:
            raise DataError(f"query width {q.shape[0]} != store dim {self.dim}")
        # The same bits as np.linalg.norm, whose 1-D form is sqrt(q.dot(q)). An
        # overflow is reported below, so numpy's warning is silenced.
        with np.errstate(over="ignore"):
            qnorm = math.sqrt(q.dot(q))
        if not math.isfinite(qnorm):
            raise DataError("query embedding has a non-finite value or its norm overflows")
        ranked = top_k(cosine_scan(self.matrix, self.norms, q, qnorm), k)
        # A hit decoded before costs an index and a truth test: a Chunk is a
        # non-empty tuple, an undecoded row None.
        return [(chunks[i] or self._row(i), score) for i, score in ranked]

    def to_jsonl(self, path: str) -> list[tuple[str, str | bytes]]:
        """The files of a store saved at ``path``, as (path, content) in write order.

        The ``.npy`` comes first and the JSONL, whose header holds the CRC-32 of
        the ``.npy`` bytes, last: a crash between the two writes leaves a pair
        that :meth:`load` rejects. The header also holds the CRC-32 of the
        UTF-8 bytes of the rows below it, one line each and no blank line.
        """
        buf = io.BytesIO()
        np.save(buf, self.matrix, allow_pickle=False)
        npy = buf.getvalue()
        encode = _JSON_ENCODER.encode
        rows = "".join([encode({"id": c.id, "doc_id": c.doc_id, "text": c.text}) + "\n" for c in self.chunks])
        header = {
            "dim": self.dim,
            "provider": self.provider_name,
            "created": self.created,
            "rows": len(self._chunks),
            "crc32": zlib.crc32(npy),
            "rows_crc32": zlib.crc32(rows.encode("utf-8")),
        }
        return [(path + MATRIX_SUFFIX, npy), (path, encode(header) + "\n" + rows)]

    @classmethod
    def load(cls, path: str) -> "VectorStore":
        """Read and check the JSONL at ``path`` and its ``.npy``; a mismatched pair is a DataError.

        The header is line 1 and every line after it is a row: the writer puts
        no blank line in, and the header's ``rows_crc32`` covers the row bytes
        as written. Both CRCs, the row count and every embedding are checked
        here; a row line is decoded only when a hit or ``chunks`` needs it.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        text = decode_utf8(data, path)
        if not text or text.isspace():
            raise DataError(f"{path}: empty store file")
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:1: bad store header: {exc}") from exc
        if (
            not isinstance(header, dict)
            or not isinstance(header.get("dim"), int)
            or not isinstance(header.get("provider"), str)
            or not isinstance(header.get("created"), int)
        ):
            raise DataError(f"{path}:1: store header needs dim, provider, created")
        if header["dim"] < MIN_DIM:
            raise DataError(f"{path}:1: store dim must be >= {MIN_DIM}")
        # The whole header is checked before the rows, so an old store fails at line 1.
        rows, crc, rows_crc = header.get("rows"), header.get("crc32"), header.get("rows_crc32")
        if not isinstance(rows, int) or not isinstance(crc, int):
            raise DataError(
                f"{path}:1: store header needs rows and crc32; re-ingest a store "
                f"written without a {MATRIX_SUFFIX} matrix file"
            )
        if not isinstance(rows_crc, int):
            raise DataError(
                f"{path}:1: store header needs rows_crc32; re-ingest a store written before rows were checksummed"
            )
        # The rows are the bytes after the first newline; a file without one has none.
        newline = data.find(b"\n")
        got = zlib.crc32(memoryview(data)[newline + 1 :] if newline >= 0 else b"")
        if got != rows_crc:
            raise DataError(
                f"{path}: rows crc32 {got:08x} does not match the store header's {rows_crc:08x} "
                "(an edited or torn file; re-ingest)"
            )
        if rows != len(lines) - 1:
            raise DataError(f"{path}:1: header says {rows} rows, the file has {len(lines) - 1}")
        store = cls(dim=header["dim"], provider_name=header["provider"], created=header["created"])
        matrix = np.ascontiguousarray(_read_matrix(path + MATRIX_SUFFIX, crc, (rows, store.dim)))
        norms, row_no = _row_norms(matrix)
        if row_no is not None:
            raise DataError(
                f"{path}:{row_no + 2}: embedding (row {row_no} of {path}{MATRIX_SUFFIX}) "
                "has a non-finite value or its norm overflows"
            )
        store.matrix, store.norms = matrix, norms
        store._chunks, store._lines, store._path = [None] * rows, lines[1:], path
        return store


def _row_norms(matrix: np.ndarray, rows=slice(None)) -> tuple[np.ndarray, int | None]:
    """The L2 norm of each row, and the position in ``matrix[rows]`` of the first non-finite one.

    A NaN or infinite value makes a row's norm non-finite, and so does a finite
    row whose sum of squares overflows: either would score NaN. The caller
    reports such a row, so numpy's overflow warning is silenced. The norms are
    those of ``np.linalg.norm(matrix, axis=1)``, the same per-row sum of
    squares, taken over blocks of rows so that no full-size square is built.
    """
    norms = np.empty(matrix.shape[0], dtype=np.float64)
    with np.errstate(over="ignore"):
        for start in range(0, matrix.shape[0], _NORM_BLOCK):
            block = matrix[start : start + _NORM_BLOCK]
            np.sqrt(np.add.reduce(block * block, axis=1), out=norms[start : start + _NORM_BLOCK])
    finite = np.isfinite(norms[rows])
    return norms, None if finite.all() else int(np.argmin(finite))


def _read_matrix(path: str, crc: int, shape: tuple[int, int]) -> np.ndarray:
    """The float64 array in the ``.npy`` at ``path``, checked against the header.

    The array is a read-only view of the file's bytes, which np.load would copy.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DataError(f"{path}: the store's embedding matrix is missing; re-ingest") from None
    got = zlib.crc32(data)
    if got != crc:
        raise DataError(
            f"{path}: crc32 {got:08x} does not match the store header's {crc:08x} "
            "(a torn or mismatched pair; re-ingest)"
        )
    # The magic and header readers are the ones np.load calls. Only the
    # versions np.save writes for a float64 matrix, 1.0 and 2.0, are read.
    # Bytes after the array are ignored, as np.load ignores them.
    try:
        fp = io.BytesIO(data)
        version = np.lib.format.read_magic(fp)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported .npy format version {version}")
        read_header = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
        got_shape, fortran_order, dtype = read_header(fp)
        if dtype.hasobject:
            raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
        if dtype != np.float64 or got_shape != shape:
            raise DataError(f"{path}: expected a float64 array of shape {shape}, got {dtype} {got_shape}")
        flat = np.frombuffer(data, dtype=dtype, count=shape[0] * shape[1], offset=fp.tell())
    except ValueError as exc:  # not an .npy, a bad header, an object dtype or too few bytes
        raise DataError(f"{path}: not a plain .npy array: {exc}") from exc
    return flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)


def timestamp() -> int:
    """Seconds since the epoch, or ``$SOURCE_DATE_EPOCH`` when set, for reproducible files."""
    stamp = os.environ.get("SOURCE_DATE_EPOCH")
    if stamp:
        try:
            return int(stamp)
        except ValueError:
            raise DataError(f"SOURCE_DATE_EPOCH must be an integer, got {stamp!r}") from None
    return int(time.time())


def _check_provider(store: VectorStore, provider: EmbeddingProvider) -> None:
    """The provider must be the one the store names, at the store's width."""
    if provider.name != store.provider_name:
        raise DataError(
            f"provider {provider.name!r} does not match store provider {store.provider_name!r}"
        )
    if provider.dim != store.dim:
        raise DataError(f"provider dim {provider.dim} != store dim {store.dim}")


def ingest(
    store: VectorStore,
    docs: Sequence[tuple[str, str]],
    provider: EmbeddingProvider,
    size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
) -> int:
    """Chunk every ``(doc_id, text)`` of ``docs``, embed and add them; returns the new chunk count.

    Every doc id is checked before any work, all chunks go to the provider in
    one ``embed`` call and into the store in one merge, so the store is
    untouched if anything is wrong.
    """
    _check_provider(store, provider)
    seen: set[str] = set()
    for doc_id, _ in docs:
        if not doc_id or doc_id != doc_id.strip():
            raise DataError(f"doc_id must be non-empty without surrounding whitespace, got {doc_id!r}")
        if doc_id in seen:
            raise DataError(f"doc_id {doc_id!r} is given twice")
        seen.add(doc_id)
    new_chunks = [
        Chunk(id=f"{doc_id}:{offset}", doc_id=doc_id, text=piece)
        for doc_id, text in docs
        for offset, piece in chunk_document(text, size=size, overlap=overlap)
    ]
    if not new_chunks:
        return 0
    store.add_chunks(new_chunks, provider.embed([chunk.text for chunk in new_chunks]))
    return len(new_chunks)


def retrieve(
    store: VectorStore,
    query_text: str,
    provider: EmbeddingProvider,
    k: int = DEFAULT_K,
) -> list[tuple[Chunk, float]]:
    """Embed ``query_text`` with ``provider`` and scan the store; a provider other than the store's is a DataError."""
    _check_provider(store, provider)
    query = provider.embed([query_text])[0]
    return store.nearest(query, k)
