import io
import json
import re

import pytest

from ontorag.engine import (
    EchoLlm,
    HttpLlm,
    answer,
    chat_repl,
    render_request,
)
from ontorag.errors import DataError, ProviderError
from ontorag.ragstore import DeterministicEmbedder, ingest


def test_render_request():
    system, user = render_request("Why?", ["first chunk", "second chunk"])
    assert system == "Answer using only the context below.\nContext:\nfirst chunk\n\nsecond chunk"
    assert user == "Question: Why?"
    empty_system, _ = render_request("Why?", [])
    assert empty_system == "Answer using only the context below.\nContext:\n"


def test_echo_llm():
    assert EchoLlm().complete("sys", "usr") == "sys\nusr"
    assert EchoLlm().name == "echo"


def test_answer_without_dictionary(handbook_store, embedder):
    result = answer(handbook_store, embedder, EchoLlm(), "What helps mild nausea?", k=2)
    assert result.question == "What helps mild nausea?"
    assert result.augmented == result.question
    assert result.matched == () and result.appended == ()
    assert len(result.context_ids) == 2
    assert result.response.startswith("Answer using only the context below.")
    assert "Question: What helps mild nausea?" in result.response
    for text in result.context_texts:
        assert text in result.response


def test_answer_with_dictionary(handbook_store, embedder, fixture_dictionary):
    result = answer(
        handbook_store, embedder, EchoLlm(), "What helps mild nausea?",
        dictionary=fixture_dictionary, k=2,
    )
    assert result.augmented == "What helps mild nausea? (related: severe nausea)"
    assert result.matched == ("nausea",)
    assert result.appended == ("severe nausea",)
    assert "Question: What helps mild nausea? (related: severe nausea)" in result.response


def test_answer_retrieval_follows_augmented_prompt(handbook_store, embedder, fixture_dictionary):
    plain = answer(handbook_store, embedder, EchoLlm(), "constipation", k=1)
    infiltrated = answer(
        handbook_store, embedder, EchoLlm(), "constipation", dictionary=fixture_dictionary, k=1
    )
    # scores differ because the query embedding includes the appended terms
    assert infiltrated.scores != plain.scores


def test_answer_validation(handbook_store, embedder):
    with pytest.raises(DataError):
        answer(handbook_store, embedder, EchoLlm(), "   ")
    with pytest.raises(DataError):
        answer(handbook_store, DeterministicEmbedder(dim=32), EchoLlm(), "q")


def test_wrong_width_embedder_fails_before_embedding(handbook_store):
    calls = []

    class Counting(DeterministicEmbedder):
        def embed(self, texts):
            calls.append(list(texts))
            return super().embed(texts)

    narrow = Counting(dim=32)
    with pytest.raises(DataError, match="provider dim 32 != store dim 64"):
        ingest(handbook_store, [("more", "Fever notes.")], narrow)
    with pytest.raises(DataError, match="provider dim 32 != store dim 64"):
        answer(handbook_store, narrow, EchoLlm(), "q")
    assert calls == []


def test_answer_stage_errors(handbook_store, embedder):
    class BadEmbed(DeterministicEmbedder):
        def embed(self, texts):
            raise RuntimeError("socket closed")

    bad = BadEmbed(dim=handbook_store.dim)
    with pytest.raises(ProviderError) as err:
        answer(handbook_store, bad, EchoLlm(), "q")
    assert "embed stage" in str(err.value)

    class BadLlm:
        name = "bad"

        def complete(self, system, user):
            raise RuntimeError("model fell over")

    with pytest.raises(ProviderError) as err:
        answer(handbook_store, embedder, BadLlm(), "q")
    assert "complete stage" in str(err.value)


class TestHttpLlm:
    def test_success_and_request_shape(self, http_stub, monkeypatch):
        http_stub.reply = lambda seen: (200, {"choices": [{"message": {"content": "hi"}}]})
        monkeypatch.setenv("LLM_API_KEY", "topsecret")
        url = http_stub.url + "/chat"
        llm = HttpLlm(url, model="m1")
        assert llm.complete("sys", "usr") == "hi"
        [seen] = http_stub.received
        assert seen.path == "/v1/chat"
        assert seen.headers["Content-Type"] == "application/json"
        assert seen.body["model"] == "m1"
        assert seen.body["messages"][0] == {"role": "system", "content": "sys"}
        assert seen.body["messages"][1] == {"role": "user", "content": "usr"}
        assert seen.headers["Authorization"] == "Bearer topsecret"

    def test_error_paths(self, http_stub, monkeypatch):
        url = http_stub.url
        llm = HttpLlm(url)

        http_stub.reply = lambda seen: (429, {"error": "slow down"})
        with pytest.raises(ProviderError, match=f"completion request to {re.escape(url)} returned status 429"):
            llm.complete("s", "u")

        http_stub.reply = lambda seen: (200, {"choices": []})
        with pytest.raises(ProviderError, match="malformed completion response"):
            llm.complete("s", "u")

        http_stub.reply = lambda seen: (200, {"choices": [{"message": {"content": 7}}]})
        with pytest.raises(ProviderError, match="non-text content"):
            llm.complete("s", "u")

        # The reply waits until teardown, long after the client gave up.
        http_stub.reply = lambda seen: http_stub.hold.wait() and (200, {})
        monkeypatch.setattr("ontorag.engine.COMPLETE_TIMEOUT", 0.2)
        with pytest.raises(ProviderError, match=f"completion request to {re.escape(url)} failed: .*timed out"):
            HttpLlm(url).complete("s", "u")


def test_chat_repl(handbook_store, embedder, fixture_dictionary, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "777")
    log = tmp_path / "chat.jsonl"
    source = io.StringIO("What helps mild nausea?\n\nIs chest pain an emergency?\n/quit\nignored\n")
    sink = io.StringIO()
    turns = chat_repl(
        handbook_store, embedder, EchoLlm(), fixture_dictionary,
        source, sink, k=2, log_path=str(log),
    )
    assert len(turns) == 2
    assert turns[0].question == "What helps mild nausea?"
    assert turns[0].augmented.endswith("(related: severe nausea)")
    out = sink.getvalue()
    assert out.count("Answer using only the context below.") == 2
    rows = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert rows[0]["ts"] == 777
    # one row per turn, keys in a fixed order
    assert [list(row) for row in rows] == [["ts", "question", "augmented", "answer", "context_texts"]] * 2
    assert rows == [
        {
            "ts": 777,
            "question": t.question,
            "augmented": t.augmented,
            "answer": t.response,
            "context_texts": list(t.context_texts),
        }
        for t in turns
    ]
    # a turn log is self-contained: the retrieved texts travel with it
    assert rows[0]["context_texts"] == list(turns[0].context_texts)


def test_chat_repl_eof_and_append(handbook_store, embedder, tmp_path):
    log = tmp_path / "chat.jsonl"
    first = chat_repl(
        handbook_store, embedder, EchoLlm(), None,
        io.StringIO("one question\n"), io.StringIO(), log_path=str(log),
    )
    second = chat_repl(
        handbook_store, embedder, EchoLlm(), None,
        io.StringIO("another question\n"), io.StringIO(), log_path=str(log),
    )
    assert len(first) == len(second) == 1
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2


def test_chat_repl_survives_provider_error(handbook_store, embedder, tmp_path, capsys):
    class FlakyLlm:
        name = "flaky"

        def __init__(self):
            self.calls = 0

        def complete(self, system, user):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("model fell over")
            return "fine"

    log = tmp_path / "chat.jsonl"
    turns = chat_repl(
        handbook_store, embedder, FlakyLlm(), None,
        io.StringIO("first question\nsecond question\n"), io.StringIO(), log_path=str(log),
    )
    assert [t.question for t in turns] == ["second question"]
    assert len(log.read_text(encoding="utf-8").splitlines()) == 1
    assert "provider error: complete stage failed: model fell over" in capsys.readouterr().err


def test_chat_repl_no_log(handbook_store, embedder):
    turns = chat_repl(
        handbook_store, embedder, EchoLlm(), None, io.StringIO("/quit\n"), io.StringIO()
    )
    assert turns == []
