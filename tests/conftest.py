import json
import os
import socket
import sys
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

import pytest

import ontorag.align
from ontorag.align import LexicalScorer, align
from ontorag.fixtures import fixture_text
from ontorag.parse import parse_json_ontology, parse_obo
from ontorag.ragstore import DeterministicEmbedder, VectorStore, ingest
from ontorag.subsume import build_dictionary, build_subsumption_corpus, predict_subsumptions


@pytest.fixture(scope="session")
def source_onto():
    return parse_obo(fixture_text("symptoms.obo")).ontology


@pytest.fixture(scope="session")
def target_onto():
    return parse_json_ontology(fixture_text("clinical_signs.json")).ontology


@pytest.fixture(scope="session")
def fixture_mappings(source_onto, target_onto):
    return align(source_onto, target_onto)


@pytest.fixture(scope="session")
def fixture_dictionary(source_onto, target_onto, fixture_mappings):
    corpus = build_subsumption_corpus(source_onto, target_onto, fixture_mappings, seed=0)
    accepted = predict_subsumptions(corpus, LexicalScorer(), source_onto, target_onto)
    return build_dictionary(accepted, source_onto, target_onto)


@pytest.fixture()
def levenshtein_calls(monkeypatch):
    """Every (a, b) the align module passes to Levenshtein, in call order."""
    real = ontorag.align.levenshtein
    calls = []

    def counting(a, b, cutoff=None):
        calls.append((a, b))
        return real(a, b, cutoff)

    monkeypatch.setattr(ontorag.align, "levenshtein", counting)
    return calls


@pytest.fixture()
def embedder():
    return DeterministicEmbedder(dim=64)


@pytest.fixture()
def handbook_store(embedder):
    store = VectorStore(dim=embedder.dim, provider_name=embedder.name, created=1700000000)
    ingest(store, [("handbook", fixture_text("handbook.txt"))], embedder)
    return store


@pytest.fixture()
def child_pythonpath(monkeypatch):
    """Make Python child processes import the ontorag package under test.

    The absolute directory that holds the imported package goes first on
    PYTHONPATH, so a child neither depends on the working directory (a
    relative ``PYTHONPATH=src`` breaks after ``chdir``) nor picks up another
    installed copy.
    """
    root = str(Path(ontorag.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", root + os.pathsep + rest if rest else root)


@dataclass(frozen=True)
class StubRequest:
    """One request the HTTP stub received."""

    path: str
    headers: Any  # an http.client.HTTPMessage: header names match in any case
    body: Any  # the parsed JSON body


def _no_reply(seen):
    raise AssertionError(f"the test set no reply for the POST to {seen.path}")


@dataclass
class HttpStub:
    """A JSON endpoint on a loopback port; see the ``http_stub`` fixture."""

    url: str
    reply: Callable[[StubRequest], tuple[int, Any]] = _no_reply
    received: list[StubRequest] = field(default_factory=list)
    hold: threading.Event = field(default_factory=threading.Event)
    errors: list[BaseException] = field(default_factory=list)


class _StubServer(ThreadingHTTPServer):
    # server_close() joins every handler thread, so none outlives its test.
    daemon_threads = False

    def handle_error(self, request, client_address):
        exc = sys.exc_info()[1]
        # A client that timed out has hung up before the reply was written.
        if not isinstance(exc, ConnectionError):
            self.stub.errors.append(exc)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        stub = self.server.stub
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        seen = StubRequest(self.path, self.headers, json.loads(raw))
        stub.received.append(seen)
        status, payload = stub.reply(seen)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


def _drop_proxies(monkeypatch):
    # urllib sends even a loopback request through HTTP(S)_PROXY unless NO_PROXY
    # lists it; with no proxy variable set, the client talks to the port directly.
    for name in [n for n in os.environ if n.lower().endswith("_proxy")]:
        monkeypatch.delenv(name)


@pytest.fixture()
def http_stub(monkeypatch):
    """A threaded HTTP server on ``127.0.0.1`` that answers every POST.

    The test sets ``stub.reply`` to a function that takes the
    :class:`StubRequest` and returns ``(status, payload)``; a bytes payload is
    sent as it is, anything else as JSON. ``stub.received`` records each request
    in arrival order. A reply may wait on ``stub.hold``, which teardown sets.
    Teardown stops and closes the server and raises the first error a reply
    raised. Proxy variables are removed from the environment, which a child
    process the test starts inherits.
    """
    _drop_proxies(monkeypatch)
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    host, port = server.server_address[:2]
    stub = HttpStub(url=f"http://{host}:{port}/v1")
    server.stub = stub
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield stub
    finally:
        stub.hold.set()
        server.shutdown()
        thread.join()
        server.server_close()
    if stub.errors:
        raise stub.errors[0]


@pytest.fixture()
def refused_url(monkeypatch):
    """The URL of a loopback port that is bound but not listening: connecting is refused.

    Proxy variables are removed from the environment, as for ``http_stub``.
    """
    _drop_proxies(monkeypatch)
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        yield f"http://{host}:{port}/v1"
