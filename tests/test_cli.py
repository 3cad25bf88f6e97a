import argparse
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import zlib

import pytest

import ontorag.ragstore
from ontorag.cli import _atomic_write, build_parser, main
from ontorag.fixtures import export_fixtures
from ontorag.subsume import SubsumptionDictionary


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    export_fixtures(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _build_pipeline(capsys, workdir):
    steps = [
        ["align", "--source", "symptoms.obo", "--target", "clinical_signs.json", "--out", "mappings.tsv"],
        ["subsume", "--source", "symptoms.obo", "--target", "clinical_signs.json",
         "--mappings", "mappings.tsv", "--out", "corpus.tsv"],
        ["dict", "--source", "symptoms.obo", "--target", "clinical_signs.json",
         "--corpus", "corpus.tsv", "--out", "dict.json", "--accepted", "accepted.tsv"],
        ["ingest", "--store", "store.jsonl", "--doc", "handbook.txt"],
    ]
    for argv in steps:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_full_pipeline(capsys, workdir):
    _build_pipeline(capsys, workdir)
    assert (workdir / "mappings.tsv").exists()
    assert (workdir / "corpus.tsv").exists()
    assert (workdir / "accepted.tsv").exists()
    d = SubsumptionDictionary.from_json((workdir / "dict.json").read_text(encoding="utf-8"))
    assert "constipation" in d.entries

    code, out, _ = run(
        capsys, "infiltrate", "--dict", "dict.json",
        "--prompt", "What should I do about constipation?",
    )
    assert code == 0
    assert out.strip() == (
        "What should I do about constipation? (related: acute constipation, chronic constipation)"
    )

    code, out, err = run(
        capsys, "ask", "--store", "store.jsonl", "--dict", "dict.json",
        "--question", "What helps mild nausea?", "--show-context", "--k", "2",
    )
    assert code == 0
    assert out.startswith("Answer using only the context below.")
    assert "augmented: What helps mild nausea? (related: severe nausea)" in err
    assert err.count("context: handbook:") == 2

    code, out, _ = run(
        capsys, "eval", "--store", "store.jsonl", "--dict", "dict.json",
        "--records", "questions.jsonl", "--out", "summary.tsv",
    )
    assert code == 0
    assert "10 records" in out
    lines = (workdir / "summary.tsv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 10


def test_align_reruns_are_byte_identical(capsys, workdir):
    run(capsys, "align", "--source", "symptoms.obo", "--target", "clinical_signs.json", "--out", "a.tsv")
    run(capsys, "align", "--source", "symptoms.obo", "--target", "clinical_signs.json", "--out", "b.tsv")
    assert (workdir / "a.tsv").read_bytes() == (workdir / "b.tsv").read_bytes()


def test_ingest_is_reproducible(capsys, workdir):
    run(capsys, "ingest", "--store", "s1.jsonl", "--doc", "handbook.txt")
    run(capsys, "ingest", "--store", "s2.jsonl", "--doc", "handbook.txt")
    assert (workdir / "s1.jsonl").read_bytes() == (workdir / "s2.jsonl").read_bytes()
    assert (workdir / "s1.jsonl.npy").read_bytes() == (workdir / "s2.jsonl.npy").read_bytes()


def test_ingest_writes_matrix_then_jsonl(capsys, workdir, monkeypatch):
    import ontorag.cli

    written = []
    real = ontorag.cli._atomic_write

    def record(path, data):
        written.append((path, type(data)))
        real(path, data)

    monkeypatch.setattr(ontorag.cli, "_atomic_write", record)
    code, _, _ = run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt")
    assert code == 0
    assert written == [("s.jsonl.npy", bytes), ("s.jsonl", str)]


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_new_outputs_get_the_umask_mode(capsys, workdir, umask, mode):
    old = os.umask(umask)
    try:
        align = run(capsys, "align", "--source", "symptoms.obo", "--target", "clinical_signs.json", "--out", "m.tsv")
        ingest = run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt")
    finally:
        os.umask(old)
    assert align[0] == ingest[0] == 0
    assert [_mode(workdir / name) for name in ("m.tsv", "s.jsonl", "s.jsonl.npy")] == [mode] * 3
    assert not list(workdir.glob(".ontorag-*"))


def test_replaced_output_keeps_its_mode(capsys, workdir):
    keep = workdir / "keep.tsv"
    keep.write_text("old\n", encoding="utf-8")
    keep.chmod(0o640)
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "align", "--source", "symptoms.obo", "--target", "clinical_signs.json", "--out", "keep.tsv")
    finally:
        os.umask(old)
    assert code == 0
    assert keep.read_text(encoding="utf-8").startswith("source_iri\t")
    assert _mode(keep) == 0o640


def test_failed_write_leaves_nothing(workdir):
    with pytest.raises(TypeError):
        _atomic_write("x.tsv", 5)
    assert not (workdir / "x.tsv").exists()
    assert not list(workdir.glob(".ontorag-*"))


def _three_docs(workdir):
    """The handbook's paragraphs dealt into three files, given out of id order."""
    paragraphs = (workdir / "handbook.txt").read_text(encoding="utf-8").split("\n\n")
    names = ("gamma", "alpha", "beta")
    for i, name in enumerate(names):
        (workdir / f"{name}.txt").write_text("\n\n".join(paragraphs[i::3]), encoding="utf-8")
    return [arg for name in names for arg in ("--doc", f"{name}.txt")]


# SHA-256 of the store pair `_three_docs` ingests under SOURCE_DATE_EPOCH=1700000000.
THREE_DOC_SHA256 = {
    "s.jsonl": "78c077f1ac50c17186c249dcf6026cfac137de75a9451c7f56398c08d75d540a",
    "s.jsonl.npy": "a81fecc88b42168ca271847f27adc1ed309ac27f4b0f24d26bd9c11bf94c0f68",
}


def test_three_document_store_is_pinned(capsys, workdir):
    code, out, err = run(
        capsys, "ingest", "--store", "s.jsonl", *_three_docs(workdir), "--size", "200", "--overlap", "40",
    )
    assert code == 0, err
    assert "from 3 documents" in out
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in THREE_DOC_SHA256}
    assert digests == THREE_DOC_SHA256


def test_ingest_onto_a_loaded_store_is_pinned(capsys, workdir):
    # the second ingest merges into a loaded store, whose matrix is a read-only
    # view of the file's bytes, and writes the same pair as one ingest of all three
    docs = _three_docs(workdir)
    for batch in (docs[:4], docs[4:]):
        code, _, err = run(capsys, "ingest", "--store", "s.jsonl", *batch, "--size", "200", "--overlap", "40")
        assert code == 0, err
        assert not ontorag.ragstore.VectorStore.load("s.jsonl").matrix.flags.writeable
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in THREE_DOC_SHA256}
    assert digests == THREE_DOC_SHA256


def _count_calls(monkeypatch, *targets):
    """Count calls of each ``(class, method)`` in the ragstore module."""
    calls = {}
    for cls, name in targets:
        owner = getattr(ontorag.ragstore, cls)
        real = getattr(owner, name)
        key = f"{cls}.{name}"
        calls[key] = 0

        def counting(self, *args, _real=real, _key=key, **kwargs):
            calls[_key] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def test_ingest_embeds_and_merges_once(capsys, workdir, monkeypatch):
    calls = _count_calls(monkeypatch, ("DeterministicEmbedder", "embed"), ("VectorStore", "add_chunks"))
    code, out, err = run(capsys, "ingest", "--store", "s.jsonl", *_three_docs(workdir))
    assert code == 0, err
    assert "from 3 documents" in out
    assert calls == {"DeterministicEmbedder.embed": 1, "VectorStore.add_chunks": 1}


@pytest.mark.parametrize("bad_doc", ["trailing .txt", "sub/alpha.txt"], ids=["bad-last-id", "same-stem"])
def test_bad_ingest_leaves_store_pair_alone(capsys, workdir, monkeypatch, bad_doc):
    run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt")
    before = {name: (workdir / name).read_bytes() for name in ("s.jsonl", "s.jsonl.npy")}
    docs = _three_docs(workdir)
    (workdir / bad_doc).parent.mkdir(exist_ok=True)
    (workdir / bad_doc).write_text("Fever notes.", encoding="utf-8")
    calls = _count_calls(monkeypatch, ("DeterministicEmbedder", "embed"))
    code, _, err = run(capsys, "ingest", "--store", "s.jsonl", *docs, "--doc", bad_doc)
    assert code == 2
    assert "doc_id" in err
    assert calls == {"DeterministicEmbedder.embed": 0}
    assert {name: (workdir / name).read_bytes() for name in before} == before


def test_infiltrate_stdin_lines(capsys, workdir, monkeypatch):
    _build_pipeline(capsys, workdir)
    stdin = io.TextIOWrapper(io.BytesIO(b"fever problem\nnothing matching here\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run(capsys, "infiltrate", "--dict", "dict.json")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "fever problem (related: high fever)"
    assert lines[1] == "nothing matching here"


def test_infiltrate_file_output(capsys, workdir):
    _build_pipeline(capsys, workdir)
    (workdir / "prompts.txt").write_text("fever problem\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "infiltrate", "--dict", "dict.json",
        "--in", "prompts.txt", "--out", "aug.txt",
    )
    assert code == 0
    assert "1 of 1" in out
    assert (workdir / "aug.txt").read_text(encoding="utf-8") == "fever problem (related: high fever)\n"


# Each environment once broke stdin decoding: the C locale passed a bad byte
# through, and a strict IO encoding raised a traceback.
_STDIN_ENVIRONMENTS = pytest.mark.parametrize(
    "env", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}], ids=["c-locale", "strict-io"]
)


def _run_child(argv, stdin, env, cwd):
    """``ontorag argv`` in a child process with ``stdin`` bytes and only ``env`` setting its encoding."""
    child_env = {
        key: value for key, value in os.environ.items()
        if key not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8")
    }
    child_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ontorag.cli", *argv], input=stdin, capture_output=True, env=child_env, cwd=str(cwd)
    )


@_STDIN_ENVIRONMENTS
def test_infiltrate_stdin_that_is_not_utf8_names_its_line(capsys, workdir, child_pythonpath, env):
    _build_pipeline(capsys, workdir)
    out = _run_child(["infiltrate", "--dict", "dict.json"], b"cough\n\xe9\n", env, workdir)
    assert (out.returncode, out.stdout, out.stderr) == (2, b"", b"error: <stdin>:2: not UTF-8 text\n")


@_STDIN_ENVIRONMENTS
def test_chat_answers_the_lines_before_one_that_is_not_utf8(capsys, workdir, child_pythonpath, env):
    _build_pipeline(capsys, workdir)
    stdin = b"What helps mild nausea?\nWhat helps a cough?\n\xe9\nfever\n"
    argv = ["chat", "--store", "store.jsonl", "--dict", "dict.json", "--log", "chat.jsonl"]
    out = _run_child(argv, stdin, env, workdir)
    assert (out.returncode, out.stderr) == (2, b"error: <stdin>:3: not UTF-8 text\n")
    assert out.stdout.count(b"Answer using only the context below.") == 2
    rows = [json.loads(line) for line in (workdir / "chat.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [row["question"] for row in rows] == ["What helps mild nausea?", "What helps a cough?"]


def test_chat_command(capsys, workdir, monkeypatch):
    _build_pipeline(capsys, workdir)
    stdin = io.TextIOWrapper(io.BytesIO(b"What helps mild nausea?\n/quit\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(
        capsys, "chat", "--store", "store.jsonl", "--dict", "dict.json", "--log", "chat.jsonl",
    )
    assert code == 0
    assert "Answer using only the context below." in out
    assert "1 turns" in err
    row = json.loads((workdir / "chat.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert row["ts"] == 1700000000


# SHA-256 of the log `ontorag chat` writes on the fixture pipeline for
# "What helps mild nausea?" then "/quit", under SOURCE_DATE_EPOCH=1700000000.
CHAT_LOG_SHA256 = "17564fbf0a1408569e8a55a203e8bd9a10ba38578ab6683d56989d2e805f4eaa"


def test_chat_log_is_pinned(capsys, workdir, monkeypatch):
    _build_pipeline(capsys, workdir)
    stdin = io.TextIOWrapper(io.BytesIO(b"What helps mild nausea?\n/quit\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, _, _ = run(capsys, "chat", "--store", "store.jsonl", "--dict", "dict.json", "--log", "turns.jsonl")
    assert code == 0
    assert hashlib.sha256((workdir / "turns.jsonl").read_bytes()).hexdigest() == CHAT_LOG_SHA256


def test_eval_to_stdout(capsys, workdir):
    _build_pipeline(capsys, workdir)
    code, out, _ = run(
        capsys, "eval", "--store", "store.jsonl", "--dict", "dict.json",
        "--records", "questions.jsonl",
    )
    assert code == 0
    assert out.startswith("table\tmeasure\t")


@pytest.mark.parametrize(
    "argv", [["infiltrate", "--dict", "dict.json"], ["chat", "--store", "store.jsonl"]], ids=["infiltrate", "chat"]
)
def test_closed_stdin_is_data_error(capsys, workdir, child_pythonpath, argv):
    _build_pipeline(capsys, workdir)
    # The shell closes file descriptor 0 before the interpreter starts, so sys.stdin is None.
    cmd = ["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m", "ontorag.cli", *argv]
    out = subprocess.run(cmd, capture_output=True, cwd=str(workdir))
    assert (out.returncode, out.stdout, out.stderr) == (2, b"", b"error: <stdin>: standard input is closed\n")


def test_http_store_answers_through_the_provider_its_header_names(capsys, workdir, http_stub):
    _build_pipeline(capsys, workdir)
    embedder = ontorag.ragstore.DeterministicEmbedder(16)
    http_stub.reply = lambda seen: (
        200, {"data": [{"embedding": row} for row in embedder.embed(seen.body["input"]).tolist()]}
    )
    code, _, err = run(
        capsys, "ingest", "--store", "h.jsonl", "--doc", "handbook.txt", "--provider", http_stub.url, "--dim", "16",
    )
    assert code == 0, err
    header = json.loads((workdir / "h.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["provider"] == http_stub.url
    del http_stub.received[:]
    code, out, err = run(capsys, "ask", "--store", "h.jsonl", "--question", "What helps a cough?")
    assert code == 0, err
    assert "Question: What helps a cough?" in out
    assert [seen.body["input"] for seen in http_stub.received] == [["What helps a cough?"]]
    del http_stub.received[:]
    code, out, err = run(capsys, "eval", "--store", "h.jsonl", "--dict", "dict.json", "--records", "questions.jsonl")
    assert code == 0, err
    assert out.startswith("table\tmeasure\t")
    assert http_stub.received


@pytest.mark.parametrize("command", ["ask", "chat", "eval"])
def test_rag_commands_have_no_provider_option(capsys, workdir, command):
    _build_pipeline(capsys, workdir)
    argv = {"ask": ["--question", "q"], "chat": [], "eval": ["--dict", "dict.json", "--records", "questions.jsonl"]}
    code, out, err = run(
        capsys, command, "--store", "store.jsonl", *argv[command], "--provider", "deterministic",
    )
    assert code == 1
    assert "usage error: unrecognized arguments: --provider deterministic" in err
    assert out == ""


def test_provider_env_does_not_reach_ask(capsys, workdir, monkeypatch):
    _build_pipeline(capsys, workdir)
    monkeypatch.setenv("ONTORAG_PROVIDER", "banana")
    code, out, err = run(capsys, "ask", "--store", "store.jsonl", "--dict", "dict.json", "--question", "cough")
    assert code == 0, err
    assert "Question: cough" in out


def test_reingest_into_http_store_uses_its_header(capsys, workdir, http_stub):
    embedder = ontorag.ragstore.DeterministicEmbedder(16)
    http_stub.reply = lambda seen: (
        200, {"data": [{"embedding": row} for row in embedder.embed(seen.body["input"]).tolist()]}
    )
    code, _, err = run(
        capsys, "ingest", "--store", "h.jsonl", "--doc", "handbook.txt", "--provider", http_stub.url, "--dim", "16",
    )
    assert code == 0, err
    del http_stub.received[:]
    (workdir / "more.txt").write_text("Rest and fluids help a mild fever.", encoding="utf-8")
    code, out, err = run(capsys, "ingest", "--store", "h.jsonl", "--doc", "more.txt")
    assert code == 0, err
    assert "ingested 1 chunks from 1 documents; store has 9" in out
    assert [seen.body["input"] for seen in http_stub.received] == [["Rest and fluids help a mild fever."]]


def test_provider_env_does_not_reach_an_existing_store(capsys, workdir, monkeypatch):
    run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt")
    monkeypatch.setenv("ONTORAG_PROVIDER", "banana")
    code, out, err = run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt", "--doc-id", "more")
    assert code == 0, err
    assert "store has 16" in out


def test_typed_dim_must_match_an_existing_store(capsys, workdir):
    run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt")
    before = {name: (workdir / name).read_bytes() for name in ("s.jsonl", "s.jsonl.npy")}
    code, out, err = run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt", "--doc-id", "h2", "--dim", "16")
    assert (code, out, err) == (2, "", "error: provider dim 16 != store dim 256\n")
    assert {name: (workdir / name).read_bytes() for name in before} == before
    code, out, err = run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt", "--doc-id", "h2", "--dim", "0")
    assert (code, out, err) == (2, "", "error: embedding dim must be >= 8, got 0\n")
    assert {name: (workdir / name).read_bytes() for name in before} == before
    code, out, err = run(
        capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt", "--doc-id", "h2",
        "--provider", "deterministic", "--dim", "256",
    )
    assert code == 0, err
    assert "store has 16" in out


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys, workdir):
        code, _, err = run(
            capsys, "align", "--source", "absent.obo",
            "--target", "clinical_signs.json", "--out", "x.tsv",
        )
        assert code == 2
        assert "absent.obo" in err

    # BAD in argv stands for a copy of `valid` with the byte 0xE9 at the end of line 3.
    @pytest.mark.parametrize(
        "valid, argv",
        [
            ("symptoms.obo", ["align", "--source", "BAD", "--target", "clinical_signs.json", "--out", "x.tsv"]),
            ("clinical_signs.json", ["align", "--source", "symptoms.obo", "--target", "BAD", "--out", "x.tsv"]),
            ("mappings.tsv", ["subsume", "--source", "symptoms.obo", "--target", "clinical_signs.json",
                              "--mappings", "BAD", "--out", "x.tsv"]),
            ("corpus.tsv", ["dict", "--source", "symptoms.obo", "--target", "clinical_signs.json",
                            "--corpus", "BAD", "--out", "x.json"]),
            ("dict.json", ["infiltrate", "--dict", "BAD", "--prompt", "cough"]),
            ("questions.jsonl", ["eval", "--store", "store.jsonl", "--dict", "dict.json", "--records", "BAD"]),
            ("store.jsonl", ["ask", "--store", "BAD", "--question", "cough"]),
            ("handbook.txt", ["ingest", "--store", "new.jsonl", "--doc", "BAD"]),
            ("prompts.txt", ["infiltrate", "--dict", "dict.json", "--in", "BAD"]),
        ],
        ids=["obo", "json-ontology", "mappings", "corpus", "dict", "records", "store", "doc", "in"],
    )
    def test_input_that_is_not_utf8_names_its_line(self, capsys, workdir, valid, argv):
        _build_pipeline(capsys, workdir)
        (workdir / "prompts.txt").write_text("cough\nfever\nnausea\n", encoding="utf-8")
        lines = (workdir / valid).read_bytes().split(b"\n")
        lines[2] += b"\xe9"
        bad = "bad" + os.path.splitext(valid)[1]
        (workdir / bad).write_bytes(b"\n".join(lines))
        code, _, err = run(capsys, *[bad if arg == "BAD" else arg for arg in argv])
        assert code == 2
        assert err == f"error: {bad}:3: not UTF-8 text\n"

    def test_input_below_a_file_is_data_error(self, capsys, workdir):
        code, _, err = run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt/x")
        assert code == 2
        assert err.startswith("error: cannot access handbook.txt/x: ")

    def test_output_in_missing_directory_names_the_output(self, capsys, workdir):
        code, _, err = run(
            capsys, "align", "--source", "symptoms.obo", "--target", "clinical_signs.json",
            "--out", os.path.join("nodir", "x.tsv"),
        )
        assert code == 2
        assert err.startswith(f"error: cannot access {os.path.join('nodir', 'x.tsv')}: ")
        assert not list(workdir.rglob(".ontorag-*"))

    def test_mistyped_json_ontology_is_data_error(self, capsys, workdir):
        doc = {"id": "x", "classes": [{"iri": "http://x/A", "label": 5}]}
        (workdir / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(
            capsys, "align", "--source", "symptoms.obo", "--target", "bad.json", "--out", "x.tsv",
        )
        assert code == 2
        assert 'class http://x/A: "label" must be a string' in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, text, argv, message",
        [
            ("bad.obo", "format-version: 1.2\n", ["align", "--source", "symptoms.obo", "--target", "bad.obo", "--out", "x.tsv"],
             "error: bad.obo: no terms parsed from OBO input"),
            ("bad.json", json.dumps({"id": "x", "classes": [{"iri": "http://x/A", "label": 5}]}),
             ["align", "--source", "symptoms.obo", "--target", "bad.json", "--out", "x.tsv"],
             'error: bad.json: class http://x/A: "label" must be a string'),
            ("d.json", '{"entries": []}', ["infiltrate", "--dict", "d.json", "--prompt", "What helps a cough?"],
             'error: d.json: dictionary JSON must be an object with an "entries" object'),
        ],
        ids=["empty-obo", "mistyped-json", "dictionary-shape"],
    )
    def test_input_error_names_its_file(self, capsys, workdir, name, text, argv, message):
        (workdir / name).write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert message in err
        assert out == ""

    def test_bad_flag_is_usage_error(self, capsys, workdir):
        code, _, err = run(capsys, "align", "--nonsense")
        assert code == 1
        assert "usage error" in err

    def test_bad_provider_spec_is_usage_error(self, capsys, workdir):
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
            "--provider", "banana",
        )
        assert code == 1
        assert "banana" in err

    def test_http_colon_provider_spec_is_usage_error(self, capsys, workdir, refused_url):
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt", "--provider", f"http:{refused_url}",
        )
        assert code == 1
        assert "usage error: unknown embedding provider" in err
        assert not (workdir / "s.jsonl").exists()

    def test_scorer_typo_names_every_accepted_form(self, capsys, workdir):
        code, _, err = run(
            capsys, "align", "--source", "symptoms.obo", "--target", "clinical_signs.json",
            "--out", "x.tsv", "--scorer", "lexcial",
        )
        assert code == 1
        assert err == (
            "usage error: unknown scorer 'lexcial': use 'lexical', 'deterministic' or an http(s) URL\n"
        )

    def test_max_append_is_not_an_option(self, capsys, workdir):
        code, out, err = run(capsys, "infiltrate", "--dict", "dict.json", "--max-append", "2", "--prompt", "cough")
        assert code == 1
        assert "usage error" in err and "--max-append" in err
        assert out == ""

    def test_doc_id_with_many_docs_is_usage_error(self, capsys, workdir):
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
            "--doc", "questions.jsonl", "--doc-id", "x",
        )
        assert code == 1

    def test_prompt_with_infile_is_usage_error(self, capsys, workdir):
        (workdir / "prompts.txt").write_text("What helps a cough?\n", encoding="utf-8")
        code, out, err = run(
            capsys, "infiltrate", "--dict", "absent.json",
            "--prompt", "What helps mild nausea?", "--in", "prompts.txt",
        )
        assert code == 1
        assert "usage error" in err and "--in" in err
        assert out == ""

    def test_corrupt_store_is_data_error(self, capsys, workdir):
        (workdir / "broken.jsonl").write_text("{oops\n", encoding="utf-8")
        code, _, err = run(
            capsys, "ask", "--store", "broken.jsonl", "--question", "q",
        )
        assert code == 2

    def test_missing_matrix_is_data_error(self, capsys, workdir):
        _build_pipeline(capsys, workdir)
        (workdir / "store.jsonl.npy").unlink()
        code, _, err = run(
            capsys, "ask", "--store", "store.jsonl", "--question", "q",
        )
        assert code == 2
        assert "error: store.jsonl.npy: " in err

    def test_bad_row_among_the_hits_names_its_line(self, capsys, workdir):
        # every row loses its text; the header's rows_crc32 is made to match
        _build_pipeline(capsys, workdir)
        path = workdir / "store.jsonl"
        head, _, body = path.read_text(encoding="utf-8").partition("\n")
        body = body.replace('"text":', '"txt":')
        header = json.loads(head)
        header["rows_crc32"] = zlib.crc32(body.encode("utf-8"))
        path.write_text(json.dumps(header) + "\n" + body, encoding="utf-8")
        code, out, err = run(capsys, "ask", "--store", "store.jsonl", "--question", "nausea")
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: store\.jsonl:\d+: chunk row needs exactly the string fields id, doc_id and text\n", err)

    def test_provider_failure_maps_to_3(self, capsys, workdir, refused_url):
        _build_pipeline(capsys, workdir)
        code, _, err = run(
            capsys, "ask", "--store", "store.jsonl", "--question", "q",
            "--llm", refused_url,
        )
        assert code == 3
        assert "provider error" in err
        assert f"completion request to {refused_url} failed" in err

    def test_malformed_embeddings_map_to_3(self, capsys, workdir, http_stub):
        def ragged(seen):
            rows = [[0.0] * 256] * (len(seen.body["input"]) - 1) + [[0.0] * 7]
            return 200, {"data": [{"embedding": row} for row in rows]}

        http_stub.reply = ragged
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
            "--provider", http_stub.url,
        )
        assert code == 3
        assert f"malformed embedding response from {http_stub.url}" in err

    def test_non_finite_embeddings_map_to_3(self, capsys, workdir, http_stub):
        # json writes the NaN token, which the client reads back as a float
        http_stub.reply = lambda seen: (
            200, {"data": [{"embedding": [0.5] * 255 + [float("nan")]}] * len(seen.body["input"])}
        )
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
            "--provider", http_stub.url,
        )
        assert code == 3
        assert f"malformed embedding response from {http_stub.url}: row 0" in err
        assert not (workdir / "s.jsonl").exists()

    def test_no_command_prints_help(self, capsys, workdir):
        code, _, err = run(capsys)
        assert code == 1
        assert "command" in err

    def test_mismatched_store_provider_is_data_error(self, capsys, workdir, refused_url):
        _build_pipeline(capsys, workdir)
        before = {name: (workdir / name).read_bytes() for name in ("store.jsonl", "store.jsonl.npy")}
        code, _, err = run(
            capsys, "ingest", "--store", "store.jsonl", "--doc", "handbook.txt",
            "--provider", refused_url,
        )
        assert code == 2
        assert "provider" in err
        assert {name: (workdir / name).read_bytes() for name in before} == before

    def test_store_provider_that_is_not_a_spec_is_data_error(self, capsys, workdir, refused_url):
        # A store written while an HTTP provider was named "http:" + URL.
        _build_pipeline(capsys, workdir)
        path = workdir / "store.jsonl"
        path.write_text(
            path.read_text(encoding="utf-8").replace('"deterministic"', json.dumps(f"http:{refused_url}"), 1),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "ask", "--store", "store.jsonl", "--question", "q")
        assert code == 2
        assert err == f"error: store.jsonl: 'http:{refused_url}' is not a provider spec; re-ingest the store\n"
        assert out == ""

    def test_ingest_into_store_whose_provider_is_not_a_spec_is_data_error(self, capsys, workdir, refused_url):
        _build_pipeline(capsys, workdir)
        path = workdir / "store.jsonl"
        path.write_text(
            path.read_text(encoding="utf-8").replace('"deterministic"', json.dumps(f"http:{refused_url}"), 1),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "ingest", "--store", "store.jsonl", "--doc", "handbook.txt", "--doc-id", "more")
        assert code == 2
        assert err == f"error: store.jsonl: 'http:{refused_url}' is not a provider spec; re-ingest the store\n"
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["align", "--out", "x.tsv"],
            ["dict", "--corpus", "corpus.tsv", "--out", "x.json"],
        ],
        ids=["align", "dict"],
    )
    def test_non_finite_threshold_is_data_error(self, capsys, workdir, argv, value):
        _build_pipeline(capsys, workdir)
        code, out, err = run(
            capsys, *argv, "--source", "symptoms.obo", "--target", "clinical_signs.json", f"--threshold={value}",
        )
        assert code == 2
        assert err == f"error: threshold must be a finite number, got {value}\n"
        assert out == ""
        assert not (workdir / argv[-1]).exists()


def test_json_warnings_name_the_class_entry(capsys, workdir):
    classes = [{"iri": "http://x/#a", "label": "fever"}, {"iri": "http://x/#a", "label": "cough"}]
    (workdir / "dup.json").write_text(json.dumps({"id": "d", "classes": classes}), encoding="utf-8")
    code, _, err = run(capsys, "align", "--source", "symptoms.obo", "--target", "dup.json", "--out", "x.tsv")
    assert code == 0
    assert "warning: dup.json: class entry 1 (http://x/#a): duplicate iri" in err


def test_parser_defines_each_option_once(monkeypatch):
    # Every option that subcommands share has one definition, in a parent
    # parser; a copy per subcommand would push the count up
    calls = []
    real = argparse._ActionsContainer.add_argument

    def count(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", count)
    build_parser()
    assert len(calls) <= 48


def test_env_defaults_are_read(capsys, workdir, monkeypatch):
    monkeypatch.setenv("ONTORAG_PROVIDER", "banana")
    code, _, err = run(capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt")
    assert code == 1 and "banana" in err
    # an explicit flag beats the environment
    code, _, _ = run(
        capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
        "--provider", "deterministic",
    )
    assert code == 0


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert "ontorag" in out + err


def test_import_leaves_out_http_machinery(child_pythonpath):
    # Only HTTP providers need these; offline commands should not pay for them.
    modules = ("concurrent.futures", "requests", "urllib.request", "http.client")
    probe = f"import sys, ontorag.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, encoding="utf-8")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_http_provider_runs_without_requests(http_stub, child_pythonpath):
    # None in sys.modules makes any import of requests raise ImportError.
    probe = (
        "import sys; sys.modules['requests'] = None\n"
        "from ontorag.ragstore import HttpEmbeddingProvider\n"
        "print(HttpEmbeddingProvider(sys.argv[1], dim=8).embed(['a', 'bb']).tolist())"
    )
    http_stub.reply = lambda seen: (
        200, {"data": [{"embedding": [float(len(t))] * 8} for t in seen.body["input"]]}
    )
    out = subprocess.run([sys.executable, "-c", probe, http_stub.url], capture_output=True, encoding="utf-8")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[1.0] * 8, [2.0] * 8]
    assert [seen.body["input"] for seen in http_stub.received] == [["a", "bb"]]


def test_console_script_smoke(workdir, child_pythonpath):
    out = subprocess.run(
        [sys.executable, "-m", "ontorag.cli", "--version"], capture_output=True, encoding="utf-8"
    )
    assert out.returncode == 0

    pipeline = subprocess.run(
        [
            sys.executable, "-m", "ontorag.cli", "align",
            "--source", "symptoms.obo", "--target", "clinical_signs.json",
            "--out", "sub.tsv",
        ],
        capture_output=True,
        encoding="utf-8",
        cwd=str(workdir),
    )
    assert pipeline.returncode == 0, pipeline.stderr
    assert "12 mappings" in pipeline.stdout
