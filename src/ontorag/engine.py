"""Retrieval-augmented answering: infiltrate, retrieve, prompt, complete.

The prompt template is fixed: the system message carries the retrieved
chunks, the user message carries the (possibly infiltrated) question. The
bundled :class:`EchoLlm` simply returns both messages, which keeps the whole
pipeline runnable and measurable offline.
"""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Protocol, Sequence

from .errors import DataError, ProviderError
from .infiltrate import AugmentedPrompt, infiltrate
from .ragstore import DEFAULT_K, EmbeddingProvider, VectorStore, post_json, retrieve, timestamp
from .subsume import SubsumptionDictionary

SYSTEM_PREFIX = "Answer using only the context below.\nContext:\n"
USER_PREFIX = "Question: "
COMPLETE_TIMEOUT = 60.0  # seconds an HTTP completion request may take


class LlmProvider(Protocol):
    name: str

    def complete(self, system: str, user: str) -> str: ...


class EchoLlm:
    """Returns the rendered request verbatim; the offline default."""

    name = "echo"

    def complete(self, system: str, user: str) -> str:
        return f"{system}\n{user}"


class HttpLlm:
    """Chat-completions style HTTP provider.

    POSTs {"model", "messages"} and reads choices[0].message.content. Sends
    ``Authorization: Bearer $LLM_API_KEY`` when the variable is set.
    """

    def __init__(self, url: str, model: str = "chat-default") -> None:
        self.url = url
        self.model = model
        self.name = url

    def complete(self, system: str, user: str) -> str:
        messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
        body = {"model": self.model, "messages": messages}
        return post_json(self.url, body, "LLM_API_KEY", COMPLETE_TIMEOUT, "completion", _content)


def _content(payload) -> str:
    """The text of a chat-completions reply."""
    content = payload["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError("non-text content")
    return content


def render_request(question: str, context_texts: Sequence[str]) -> tuple[str, str]:
    """The (system, user) message pair sent to the model."""
    return SYSTEM_PREFIX + "\n\n".join(context_texts), USER_PREFIX + question


@dataclass(frozen=True)
class AnswerResult:
    """Everything produced while answering one question."""

    question: str
    augmented: str
    matched: tuple[str, ...]
    appended: tuple[str, ...]
    context_ids: tuple[str, ...]
    context_texts: tuple[str, ...]
    scores: tuple[float, ...]
    response: str


def answer(
    store: VectorStore,
    provider: EmbeddingProvider,
    llm: LlmProvider,
    question: str,
    dictionary: SubsumptionDictionary | None = None,
    k: int = DEFAULT_K,
    fuzzy: bool = False,
    bare: bool = False,
) -> AnswerResult:
    """Answer one question against the store.

    When a dictionary is given the question is infiltrated first and the
    augmented form drives retrieval. Provider failures surface as
    ProviderError naming the stage (embed, complete).
    """
    if not question.strip():
        raise DataError("question must be non-empty")
    if dictionary is not None:
        aug: AugmentedPrompt = infiltrate(question, dictionary, fuzzy=fuzzy, bare=bare)
    else:
        aug = AugmentedPrompt(original=question, augmented=question, matched=(), appended=())
    try:
        hits = retrieve(store, aug.augmented, provider, k)
    except DataError:
        raise
    except Exception as exc:
        raise ProviderError(f"embed stage failed: {exc}") from exc
    system, user = render_request(aug.augmented, [chunk.text for chunk, _ in hits])
    try:
        response = llm.complete(system, user)
    except Exception as exc:
        raise ProviderError(f"complete stage failed: {exc}") from exc
    return AnswerResult(
        question=aug.original,
        augmented=aug.augmented,
        matched=aug.matched,
        appended=aug.appended,
        context_ids=tuple(chunk.id for chunk, _ in hits),
        context_texts=tuple(chunk.text for chunk, _ in hits),
        scores=tuple(score for _, score in hits),
        response=response,
    )


def chat_repl(
    store: VectorStore,
    provider: EmbeddingProvider,
    llm: LlmProvider,
    dictionary: SubsumptionDictionary | None,
    input_stream: Iterable[str],
    output_stream: IO[str],
    k: int = DEFAULT_K,
    log_path: str | None = None,
    fuzzy: bool = False,
    bare: bool = False,
) -> list[AnswerResult]:
    """Line-oriented chat loop; `/quit` or EOF ends it.

    Blank lines are skipped. Every answer is echoed to ``output_stream`` and,
    when ``log_path`` is set, appended there as one JSON object per line. A
    ProviderError on one line is reported on stderr and that turn is dropped;
    the loop goes on with the next line.
    """
    results: list[AnswerResult] = []
    with open(log_path, "a", encoding="utf-8") if log_path else contextlib.nullcontext() as log_fh:
        for line in input_stream:
            question = line.strip()
            if not question:
                continue
            if question == "/quit":
                break
            try:
                result = answer(
                    store, provider, llm, question,
                    dictionary=dictionary, k=k, fuzzy=fuzzy, bare=bare,
                )
            except ProviderError as exc:
                print(f"provider error: {exc}", file=sys.stderr, flush=True)
                continue
            results.append(result)
            output_stream.write(result.response + "\n")
            output_stream.flush()
            if log_fh is not None:
                row = dict(ts=timestamp(), question=result.question, augmented=result.augmented,
                           answer=result.response, context_texts=result.context_texts)
                log_fh.write(json.dumps(row, ensure_ascii=False) + "\n")
                log_fh.flush()
    return results
