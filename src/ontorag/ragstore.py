"""Document chunking, embedding, and an exact-scan vector store.

A store is a pair of files, and only this module knows their layout. The
JSONL file holds one header object (embedding dimension, provider name,
creation timestamp, row count and the CRC-32 of the sidecar's bytes), then one
``{"id", "doc_id", "text"}`` object per chunk. The sidecar, the JSONL path plus
``.npy``, holds the float64 matrix whose row ``i`` is the embedding of chunk
``i``. Retrieval is a full cosine scan (see
``_kernels``), so results are exact and reproducible; ties break on ascending
chunk id.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np
import zlib

from ._kernels import cosine_scan, top_k
from .errors import DataError, ProviderError
from .model import label_tokens

CHUNK_SIZE = 512
CHUNK_OVERLAP = 64
# Batches of one HTTP embed call that are posted at once.
MAX_IN_FLIGHT = 4
ALIGN_WINDOW = 20
MIN_DIM = 8
DEFAULT_DIM = 256
DEFAULT_K = 4
_HASH_SEED = 0x9E3779B9
MATRIX_SUFFIX = ".npy"
# json.dumps(obj, ensure_ascii=False) builds an encoder per call; this one is
# stateless and gives the same text.
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)


class EmbeddingProvider(Protocol):
    """Maps a batch of texts to row vectors of a fixed dimension."""

    name: str
    dim: int

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


def deterministic_embed(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """The :class:`DeterministicEmbedder` row of one text."""
    return DeterministicEmbedder(dim).embed([text])[0]


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


def _post_json(url: str, body: dict, key_var: str, timeout: float, what: str):
    """POST ``body`` as JSON to ``url`` and return the decoded JSON reply.

    Sends ``Authorization: Bearer $key_var`` when that variable is set. A failed
    request, a status other than 200 or a reply that is not JSON is a
    ProviderError about the ``what`` request.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    key = os.environ.get(key_var)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    try:
        resp = requests.post(url, json=body, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise ProviderError(f"{what} request to {url} failed: {exc}") from exc
    if resp.status_code != 200:
        raise ProviderError(f"{what} request to {url} returned status {resp.status_code}")
    try:
        return resp.json()
    except ValueError as exc:
        raise ProviderError(f"malformed {what} response from {url}: {exc}") from exc


class HttpEmbeddingProvider:
    """Embeddings over HTTP: POST {"model", "input"} -> {"data": [{"embedding"}]}.

    Sends ``Authorization: Bearer $EMBED_API_KEY`` when the variable is set.
    A call with more than one batch posts up to ``MAX_IN_FLIGHT`` of them at
    once and reassembles the rows in input order.
    """

    def __init__(
        self,
        url: str,
        model: str = "embed-default",
        dim: int = DEFAULT_DIM,
        batch_size: int = 64,
        timeout: float = 30.0,
    ) -> None:
        if dim < MIN_DIM:
            raise DataError(f"embedding dim must be >= {MIN_DIM}, got {dim}")
        if batch_size < 1:
            raise DataError("batch_size must be >= 1")
        self.url = url
        self.model = model
        self.dim = dim
        self.batch_size = batch_size
        self.timeout = timeout
        self.name = f"http:{url}"

    def _embed_batch(self, batch: Sequence[str]) -> list[list[float]]:
        payload = _post_json(
            self.url, {"model": self.model, "input": list(batch)}, "EMBED_API_KEY", self.timeout, "embedding"
        )
        try:
            rows = [item["embedding"] for item in payload["data"]]
        except (KeyError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response from {self.url}: {exc}") from exc
        if len(rows) != len(batch):
            raise ProviderError(
                f"embedding response from {self.url} has {len(rows)} rows for {len(batch)} inputs"
            )
        return rows

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.empty((0, self.dim), dtype=np.float64)
        batches = [
            texts[i : i + self.batch_size] for i in range(0, len(texts), self.batch_size)
        ]
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
    if not text:
        return []
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


@dataclass(frozen=True)
class Chunk:
    id: str
    doc_id: str
    text: str


@dataclass(eq=False)
class VectorStore:
    """In-memory chunk collection with an exact cosine scan.

    ``matrix`` is the only copy of the embeddings: row ``i`` is the vector of
    ``chunks[i]``, and both are kept in ascending chunk-id order, so a stable
    sort on score alone breaks ties on id.
    """

    dim: int
    provider_name: str
    created: int
    chunks: list[Chunk] = field(default_factory=list, init=False)
    matrix: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.matrix = np.empty((0, self.dim), dtype=np.float64)
        self.norms = np.empty(0, dtype=np.float64)

    @classmethod
    def new(cls, provider: EmbeddingProvider) -> "VectorStore":
        return cls(dim=provider.dim, provider_name=provider.name, created=_now())

    def __len__(self) -> int:
        return len(self.chunks)

    def chunk_ids(self) -> set[str]:
        return {c.id for c in self.chunks}

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
        seen = self.chunk_ids()
        for chunk in new_chunks:
            if chunk.id in seen:
                raise DataError(f"duplicate chunk id {chunk.id}")
            seen.add(chunk.id)
        chunks = self.chunks + list(new_chunks)
        order = sorted(range(len(chunks)), key=lambda i: chunks[i].id)
        # Scatter old and new rows straight to their sorted places: one matrix
        # allocation, not a concatenated copy and then a reordered one.
        rank = np.empty(len(chunks), dtype=np.intp)
        rank[order] = np.arange(len(chunks))
        matrix = np.empty((len(chunks), self.dim), dtype=np.float64)
        matrix[rank[: len(self.chunks)]] = self.matrix
        matrix[rank[len(self.chunks) :]] = vectors
        norms, bad = _row_norms(matrix, rank[len(self.chunks) :])
        if bad is not None:
            raise DataError(
                f"chunk {new_chunks[bad].id}: embedding has a non-finite value or its norm overflows"
            )
        self.chunks = [chunks[i] for i in order]
        self.matrix = matrix
        self.norms = norms

    def nearest(self, query: np.ndarray, k: int) -> list[tuple[Chunk, float]]:
        """Top-k chunks by cosine similarity; ties break on ascending id.

        A query with a non-finite value, or whose norm overflows, is a
        DataError; a zero query scores 0.0 against every chunk.
        """
        if k < 1:
            raise DataError("k must be >= 1")
        if not self.chunks:
            return []
        q = np.ascontiguousarray(np.asarray(query, dtype=np.float64).reshape(-1))
        if q.shape[0] != self.dim:
            raise DataError(f"query width {q.shape[0]} != store dim {self.dim}")
        # The same bits as np.linalg.norm, whose 1-D form is sqrt(q.dot(q)).
        qnorm = math.sqrt(q.dot(q))
        if not math.isfinite(qnorm):
            raise DataError("query embedding has a non-finite value or its norm overflows")
        if qnorm == 0.0:
            return [(chunk, 0.0) for chunk in self.chunks[:k]]
        ranked = top_k(cosine_scan(self.matrix, self.norms, q, qnorm), k)
        return [(self.chunks[i], score) for i, score in ranked]

    def to_jsonl(self, path: str) -> list[tuple[str, str | bytes]]:
        """The files of a store saved at ``path``, as (path, content) in write order.

        The ``.npy`` comes first and the JSONL, whose header holds the CRC-32 of
        the ``.npy`` bytes, last: a crash between the two writes leaves a pair
        that :meth:`load` rejects.
        """
        buf = io.BytesIO()
        np.save(buf, self.matrix, allow_pickle=False)
        npy = buf.getvalue()
        header = {
            "dim": self.dim,
            "provider": self.provider_name,
            "created": self.created,
            "rows": len(self.chunks),
            "crc32": zlib.crc32(npy),
        }
        encode = _JSON_ENCODER.encode
        lines = [encode(header)]
        for chunk in self.chunks:
            lines.append(encode({"id": chunk.id, "doc_id": chunk.doc_id, "text": chunk.text}))
        return [(path + MATRIX_SUFFIX, npy), (path, "\n".join(lines) + "\n")]

    @classmethod
    def load(cls, path: str) -> "VectorStore":
        """Read the JSONL at ``path`` and its ``.npy``; a mismatched pair is a DataError."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, line) for n, line in enumerate(fh.read().split("\n"), start=1) if line]
        if not lines:
            raise DataError(f"{path}: empty store file")
        header_no, header_line = lines[0]
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{header_no}: bad store header: {exc}") from exc
        if (
            not isinstance(header, dict)
            or not isinstance(header.get("dim"), int)
            or not isinstance(header.get("provider"), str)
            or not isinstance(header.get("created"), int)
        ):
            raise DataError(f"{path}:{header_no}: store header needs dim, provider, created")
        if header["dim"] < MIN_DIM:
            raise DataError(f"{path}:{header_no}: store dim must be >= {MIN_DIM}")
        store = cls(dim=header["dim"], provider_name=header["provider"], created=header["created"])
        chunks: list[Chunk] = []
        for lineno, line in lines[1:]:
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: bad chunk row: {exc}") from exc
            if isinstance(row, dict) and "embedding" in row:
                raise DataError(
                    f"{path}:{lineno}: inline embedding: this store predates the {MATRIX_SUFFIX} "
                    "matrix file; re-ingest its documents"
                )
            try:
                chunk_id, doc_id, text = row["id"], row["doc_id"], row["text"]
            except (KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: chunk row needs id, doc_id, text") from exc
            if type(chunk_id) is not str or type(doc_id) is not str or type(text) is not str:
                raise DataError(f"{path}:{lineno}: chunk id, doc_id and text must be strings")
            if chunks and chunk_id <= chunks[-1].id:
                raise DataError(
                    f"{path}:{lineno}: chunk id {chunk_id!r} does not follow {chunks[-1].id!r}; "
                    "rows must be sorted by id without duplicates"
                )
            chunks.append(Chunk(id=chunk_id, doc_id=doc_id, text=text))
        rows, crc = header.get("rows"), header.get("crc32")
        if not isinstance(rows, int) or not isinstance(crc, int):
            raise DataError(
                f"{path}:{header_no}: store header needs rows and crc32; re-ingest a store "
                f"written without a {MATRIX_SUFFIX} matrix file"
            )
        if rows != len(chunks):
            raise DataError(f"{path}:{header_no}: header says {rows} rows, the file has {len(chunks)}")
        matrix = np.ascontiguousarray(_read_matrix(path + MATRIX_SUFFIX, crc, (rows, store.dim)))
        norms, row_no = _row_norms(matrix)
        if row_no is not None:
            raise DataError(
                f"{path}:{lines[row_no + 1][0]}: embedding (row {row_no} of {path}{MATRIX_SUFFIX}) "
                "has a non-finite value or its norm overflows"
            )
        store.chunks, store.matrix, store.norms = chunks, matrix, norms
        return store


def _row_norms(matrix: np.ndarray, rows=slice(None)) -> tuple[np.ndarray, int | None]:
    """The L2 norm of each row, and the position in ``matrix[rows]`` of the first non-finite one.

    A NaN or infinite value makes a row's norm non-finite, and so does a finite
    row whose sum of squares overflows: either would score NaN. The caller
    reports such a row, so numpy's overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    finite = np.isfinite(norms[rows])
    return norms, None if finite.all() else int(np.argmin(finite))


def _read_matrix(path: str, crc: int, shape: tuple[int, int]) -> np.ndarray:
    """The float64 array in the ``.npy`` at ``path``, checked against the header."""
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
    try:
        matrix = np.load(io.BytesIO(data), allow_pickle=False)
    except (ValueError, EOFError) as exc:  # pickled, object dtype or malformed
        raise DataError(f"{path}: not a plain .npy array: {exc}") from exc
    dtype, got_shape = getattr(matrix, "dtype", None), getattr(matrix, "shape", None)
    if dtype != np.float64 or got_shape != shape:
        raise DataError(f"{path}: expected a float64 array of shape {shape}, got {dtype} {got_shape}")
    return matrix


def _now() -> int:
    stamp = os.environ.get("SOURCE_DATE_EPOCH")
    if stamp:
        try:
            return int(stamp)
        except ValueError:
            raise DataError(f"SOURCE_DATE_EPOCH must be an integer, got {stamp!r}") from None
    return int(time.time())


def _check_provider(store: VectorStore, provider: EmbeddingProvider) -> None:
    if provider.name != store.provider_name:
        raise DataError(
            f"provider {provider.name!r} does not match store provider {store.provider_name!r}"
        )


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
    if provider.dim != store.dim:
        raise DataError(f"provider dim {provider.dim} != store dim {store.dim}")
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
    """Embed ``query_text`` with ``provider`` and scan the store."""
    _check_provider(store, provider)
    query = provider.embed([query_text])[0]
    return store.nearest(query, k)
