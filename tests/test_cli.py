import hashlib
import importlib
import io
import json
import subprocess
import sys

import pytest

from ontorag.cli import main
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


def _three_docs(workdir):
    """The handbook's paragraphs dealt into three files, given out of id order."""
    paragraphs = (workdir / "handbook.txt").read_text(encoding="utf-8").split("\n\n")
    names = ("gamma", "alpha", "beta")
    for i, name in enumerate(names):
        (workdir / f"{name}.txt").write_text("\n\n".join(paragraphs[i::3]), encoding="utf-8")
    return [arg for name in names for arg in ("--doc", f"{name}.txt")]


# SHA-256 of the store pair `_three_docs` ingests under SOURCE_DATE_EPOCH=1700000000.
THREE_DOC_SHA256 = {
    "s.jsonl": "96d8f13528380511823a01aee126d4b16b1e408bbdb65b1f55d45e35933a4ed6",
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


def _count_calls(monkeypatch, *targets):
    """Count calls of each ``(class, method)`` in the ragstore module."""
    # look the module up by name, as the package re-exports some functions under module names
    ragstore = importlib.import_module("ontorag.ragstore")
    calls = {}
    for cls, name in targets:
        owner = getattr(ragstore, cls)
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
    monkeypatch.setattr(sys, "stdin", io.StringIO("fever problem\nnothing matching here\n"))
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


def test_chat_command(capsys, workdir, monkeypatch):
    _build_pipeline(capsys, workdir)
    monkeypatch.setattr(sys, "stdin", io.StringIO("What helps mild nausea?\n/quit\n"))
    code, out, err = run(
        capsys, "chat", "--store", "store.jsonl", "--dict", "dict.json", "--log", "chat.jsonl",
    )
    assert code == 0
    assert "Answer using only the context below." in out
    assert "1 turns" in err
    row = json.loads((workdir / "chat.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert row["ts"] == 1700000000


def test_eval_to_stdout(capsys, workdir):
    _build_pipeline(capsys, workdir)
    code, out, _ = run(
        capsys, "eval", "--store", "store.jsonl", "--dict", "dict.json",
        "--records", "questions.jsonl",
    )
    assert code == 0
    assert out.startswith("table\tmeasure\t")


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys, workdir):
        code, _, err = run(
            capsys, "align", "--source", "absent.obo",
            "--target", "clinical_signs.json", "--out", "x.tsv",
        )
        assert code == 2
        assert "absent.obo" in err

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

    def test_doc_id_with_many_docs_is_usage_error(self, capsys, workdir):
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
            "--doc", "questions.jsonl", "--doc-id", "x",
        )
        assert code == 1

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

    def test_provider_failure_maps_to_3(self, capsys, workdir, monkeypatch):
        _build_pipeline(capsys, workdir)
        import requests

        def refuse(*a, **k):
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests, "post", refuse)
        code, _, err = run(
            capsys, "ask", "--store", "store.jsonl", "--question", "q",
            "--llm", "http://llm.invalid/v1",
        )
        assert code == 3
        assert "provider error" in err

    def test_malformed_embeddings_map_to_3(self, capsys, workdir, monkeypatch):
        import requests

        class Ragged:
            status_code = 200

            def __init__(self, n):
                self.rows = [[0.0] * 256] * (n - 1) + [[0.0] * 7]

            def json(self):
                return {"data": [{"embedding": row} for row in self.rows]}

        monkeypatch.setattr(requests, "post", lambda url, json=None, **k: Ragged(len(json["input"])))
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
            "--provider", "http://embed.invalid/v1",
        )
        assert code == 3
        assert "malformed embedding response from http://embed.invalid/v1" in err

    def test_non_finite_embeddings_map_to_3(self, capsys, workdir, monkeypatch):
        import requests

        class WithNaN:
            status_code = 200

            def __init__(self, n):
                self.text = json.dumps({"data": [{"embedding": [0.5] * 255 + [float("nan")]}] * n})

            def json(self):
                return json.loads(self.text)  # json reads the NaN token back as a float

        monkeypatch.setattr(requests, "post", lambda url, json=None, **k: WithNaN(len(json["input"])))
        code, _, err = run(
            capsys, "ingest", "--store", "s.jsonl", "--doc", "handbook.txt",
            "--provider", "http://embed.invalid/v1",
        )
        assert code == 3
        assert "malformed embedding response from http://embed.invalid/v1: row 0" in err
        assert not (workdir / "s.jsonl").exists()

    def test_no_command_prints_help(self, capsys, workdir):
        code, _, err = run(capsys)
        assert code == 1
        assert "command" in err

    def test_mismatched_store_provider_is_data_error(self, capsys, workdir):
        _build_pipeline(capsys, workdir)
        code, _, err = run(
            capsys, "ask", "--store", "store.jsonl", "--question", "q",
            "--provider", "http://embed.invalid/v1",
        )
        assert code == 2
        assert "provider" in err


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
    probe = "import sys, ontorag.cli; print([m for m in ('concurrent.futures', 'requests') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_console_script_smoke(workdir, child_pythonpath):
    out = subprocess.run(
        [sys.executable, "-m", "ontorag.cli", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0

    pipeline = subprocess.run(
        [
            sys.executable, "-m", "ontorag.cli", "align",
            "--source", "symptoms.obo", "--target", "clinical_signs.json",
            "--out", "sub.tsv",
        ],
        capture_output=True,
        text=True,
        cwd=str(workdir),
    )
    assert pipeline.returncode == 0, pipeline.stderr
    assert "12 mappings" in pipeline.stdout
