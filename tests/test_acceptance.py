"""Acceptance gate for the full pipeline.

Eight criteria, each reported as its own `ACCEPTANCE n PASS` (or `FAIL`)
line so the verdicts stay visible in the pytest stream:

1. hallucination_index reproduces the reference score table.
2. relative_change reproduces the headline reduction figures.
3. The fixture pipeline is byte-reproducible and augmentation raises
   mean contextual cosine similarity.
4. Corpus construction agrees with a brute-force closure oracle.
5. Retrieval agrees with a brute-force ranking oracle.
6. The similarity metrics satisfy their defining properties.
7. Ontology parsing and serialization reach a fixed point.
8. Infiltration respects its bounds, traceability, and idempotence.
"""

import contextlib
import hashlib
import json
import math
import random

import numpy as np

from ontorag.align import Mapping
from ontorag.cli import main as cli_main
from ontorag.evaluate import (
    MEASURE_COSINE,
    TABLE_CONTEXTUAL,
    SimilarityReport,
    cosine_similarity,
    dot_product,
    euclidean_distance,
    hallucination_index,
    relative_change,
)
from ontorag.fixtures import export_fixtures
from ontorag.infiltrate import MAX_APPEND_TOTAL, infiltrate
from ontorag.model import Ontology, OntologyClass
from ontorag.parse import parse_json_ontology, parse_obo, parse_ontology_file, serialize_ontology
from ontorag.ragstore import Chunk, VectorStore
from ontorag.subsume import SubsumptionDictionary, build_subsumption_corpus


@contextlib.contextmanager
def criterion(capsys, number: int, title: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} FAIL  {title}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} PASS  {title}")


# Reference score table: contextual similarity, factual accuracy, and the
# index derived from them, each with and without subsumption augmentation.
REF_CONTEXTUAL = {
    "with": SimilarityReport(cosine=74.8498, dot=67.376, euclidean=6.79553),
    "without": SimilarityReport(cosine=68.4832, dot=59.4732, euclidean=7.43475),
}
REF_FACTUAL = {
    "with": SimilarityReport(cosine=90.7507, dot=71.7345, euclidean=3.81129),
    "without": SimilarityReport(cosine=89.4618, dot=71.2838, euclidean=4.00964),
}
REF_INDEX = {
    "with": SimilarityReport(cosine=82.8003, dot=69.5553, euclidean=5.30341),
    "without": SimilarityReport(cosine=78.9725, dot=65.3785, euclidean=5.72219),
}
# The reference index is rounded to four decimals, so one mean lands exactly
# 5e-5 from the rounded figure; the 1e-12 absorbs float noise on that edge.
TABLE_TOL = 5e-5 + 1e-12


def test_criterion_1_index_table_arithmetic(capsys):
    with criterion(capsys, 1, "hallucination index reproduces the reference table"):
        for arm in ("with", "without"):
            got = hallucination_index(REF_CONTEXTUAL[arm], REF_FACTUAL[arm])
            want = REF_INDEX[arm]
            assert abs(got.cosine - want.cosine) <= TABLE_TOL, (arm, "cosine", got)
            assert abs(got.dot - want.dot) <= TABLE_TOL, (arm, "dot", got)
            assert abs(got.euclidean - want.euclidean) <= TABLE_TOL, (arm, "euclidean", got)


def test_criterion_2_headline_reduction_figures(capsys):
    with criterion(capsys, 2, "relative change reproduces the headline figures"):
        index_change = relative_change(REF_INDEX["with"].cosine, REF_INDEX["without"].cosine)
        assert abs(index_change - 4.847) <= 1e-3, index_change
        factual_change = relative_change(REF_FACTUAL["with"].cosine, REF_FACTUAL["without"].cosine)
        assert abs(factual_change - 1.4407) <= 1e-3, factual_change


def _run_pipeline(fixture_dir, out_dir):
    src = str(fixture_dir / "symptoms.obo")
    tgt = str(fixture_dir / "clinical_signs.json")

    def out(name):
        return str(out_dir / name)

    steps = [
        ["align", "--source", src, "--target", tgt, "--out", out("mappings.tsv")],
        ["subsume", "--source", src, "--target", tgt,
         "--mappings", out("mappings.tsv"), "--out", out("corpus.tsv")],
        ["dict", "--source", src, "--target", tgt,
         "--corpus", out("corpus.tsv"), "--out", out("dict.json")],
        ["ingest", "--store", out("store.jsonl"), "--doc", str(fixture_dir / "handbook.txt")],
        ["eval", "--store", out("store.jsonl"), "--dict", out("dict.json"),
         "--records", str(fixture_dir / "questions.jsonl"), "--out", out("summary.tsv")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv


# SHA-256 of the fixture pipeline's artifacts under SOURCE_DATE_EPOCH=1700000000.
PIPELINE_SHA256 = {
    "mappings.tsv": "10dcb1a48d70b2a55bcfff023b516fc61af9cc3c20e0564201b1d109cd4cba67",
    "corpus.tsv": "7f1a99e78a04d9094b13c513ce2203c32aba3d60004fa8d31e6ef1a2ad920b77",
    "dict.json": "f4f10ff5221114328880e10761ac2609a43ed9fd185b91844478277ba1f58e7d",
    "store.jsonl": "82ff2af47ba219f0098e1812ae4866bd36b563defd01ac6fefe33d004fd8d7b1",
    "summary.tsv": "a84e934e92a0c389f0ae928483b6e32f8f731dcc5286dd0cadfa2b3df2727538",
}


def test_criterion_3_pipeline_reproducible_and_improving(capsys, tmp_path, monkeypatch):
    with criterion(capsys, 3, "fixture pipeline is byte-identical and improves contextual cosine"):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        fixture_dir = tmp_path / "fixtures"
        fixture_dir.mkdir()
        export_fixtures(str(fixture_dir))

        artifacts = ("mappings.tsv", "corpus.tsv", "dict.json", "store.jsonl", "summary.tsv")
        runs = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            out_dir.mkdir()
            _run_pipeline(fixture_dir, out_dir)
            runs.append({a: (out_dir / a).read_bytes() for a in artifacts})
        capsys.readouterr()
        assert runs[0] == runs[1]
        digests = {a: hashlib.sha256(runs[0][a]).hexdigest() for a in PIPELINE_SHA256}
        assert digests == PIPELINE_SHA256

        summary = runs[0]["summary.tsv"].decode("utf-8")
        row = next(
            line.split("\t")
            for line in summary.strip().split("\n")[1:]
            if line.startswith(f"{TABLE_CONTEXTUAL}\t{MEASURE_COSINE}\t")
        )
        with_score, without_score = float(row[2]), float(row[3])
        assert with_score > without_score, (with_score, without_score)


def _toy_ontology(rng: random.Random, prefix: str, n_classes: int) -> Ontology:
    classes = {}
    iris = []
    for i in range(n_classes):
        iri = f"http://example.org/{prefix}#{prefix}_{i:03d}"
        parents = set()
        if i > 0 and rng.random() < 0.6:
            for _ in range(rng.choice((1, 1, 2))):
                parents.add(iris[rng.randrange(i)])
        classes[iri] = OntologyClass(
            iri=iri, label=f"{prefix} term {i}", parents=frozenset(parents)
        )
        iris.append(iri)
    return Ontology(id=prefix, classes=classes)


def _brute_closure(onto: Ontology, root: str) -> set[str]:
    """Fixpoint reachability over parent links; the root itself is excluded."""
    member = {root}
    changed = True
    while changed:
        changed = False
        for cls in onto.classes.values():
            if cls.iri not in member and cls.parents & member:
                member.add(cls.iri)
                changed = True
    member.discard(root)
    return member


def test_criterion_4_corpus_matches_closure_oracle(capsys):
    with criterion(capsys, 4, "subsumption corpus equals the brute-force closure oracle"):
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            source = _toy_ontology(rng, "src", rng.randrange(20, 51))
            target = _toy_ontology(rng, "tgt", rng.randrange(20, 51))
            parents_in_use = sorted({p for c in target.classes.values() for p in c.parents})
            mapped_sources = rng.sample(sorted(source.classes), k=min(6, len(parents_in_use)))
            mappings = [
                Mapping(source=s, target=t, score=1.0)
                for s, t in zip(mapped_sources, rng.sample(parents_in_use, k=len(mapped_sources)))
            ]

            oracle = set()
            for m in mappings:
                oracle |= {(m.source, d) for d in _brute_closure(target, m.target)}

            corpus = build_subsumption_corpus(source, target, mappings, seed=seed)
            positives = {(p.concept, p.candidate) for p in corpus if p.label}
            negatives = [(p.concept, p.candidate) for p in corpus if not p.label]
            assert positives == oracle
            assert len(negatives) == len(positives)
            assert not (set(negatives) & oracle)
            assert {c for c, _ in negatives} <= {m.source for m in mappings}

            again = build_subsumption_corpus(source, target, mappings, seed=seed)
            assert again == corpus
            other = build_subsumption_corpus(source, target, mappings, seed=seed + 10)
            assert [(p.concept, p.candidate) for p in other if not p.label] != negatives


def test_criterion_5_retrieval_matches_ranking_oracle(capsys):
    with criterion(capsys, 5, "retrieval equals the brute-force ranking oracle"):
        rng = np.random.default_rng(7)
        dim, n = 32, 500
        matrix = rng.normal(size=(n, dim))
        for dup in (5, 17, 130, 481):  # duplicated vectors force score ties
            matrix[dup] = matrix[0]

        store = VectorStore(dim=dim, provider_name="deterministic", created=1)
        ids = [f"d{i % 7}:{i:04d}" for i in range(n)]
        store.add_chunks(
            [Chunk(id=ids[i], doc_id=ids[i].split(":")[0], text=f"chunk {i}") for i in range(n)],
            matrix,
        )

        norms = np.linalg.norm(matrix, axis=1)
        for _ in range(100):
            query = rng.normal(size=dim)
            scores = (matrix @ query) / (norms * np.linalg.norm(query))
            order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
            for k in (1, 4, 16):
                got = store.nearest(query, k)
                assert [c.id for c, _ in got] == [ids[i] for i in order[:k]]
                for (_, got_score), i in zip(got, order[:k]):
                    assert abs(got_score - scores[i]) <= 1e-9


def test_criterion_6_metric_property_suite(capsys):
    with criterion(capsys, 6, "similarity metrics satisfy their defining properties"):
        assert abs(cosine_similarity((1, 2, 3), (4, 5, 6)) - 100 * 32 / math.sqrt(14 * 77)) <= 1e-9
        assert dot_product((1, 2, 3), (4, 5, 6)) == 32.0
        assert abs(euclidean_distance((1, 2, 3), (4, 5, 6)) - math.sqrt(27)) <= 1e-9
        assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0
        assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == 0.0

        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 33))
            a, b, c = (rng.normal(size=dim) for _ in range(3))
            scale = float(rng.uniform(0.1, 50.0))
            assert abs(cosine_similarity(a, scale * b) - cosine_similarity(a, b)) <= 1e-9
            assert abs(dot_product(a, b + c) - (dot_product(a, b) + dot_product(a, c))) <= 1e-9
            assert euclidean_distance(a, c) <= (
                euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9
            )
            assert euclidean_distance(a, b) == euclidean_distance(b, a)
            assert abs(cosine_similarity(a, a) - 100.0) <= 1e-9


def _assert_fixed_point(onto: Ontology) -> None:
    first = serialize_ontology(onto)
    reparsed = parse_json_ontology(first)
    assert reparsed.warnings == []
    assert reparsed.ontology == onto
    assert serialize_ontology(reparsed.ontology) == first


def test_criterion_7_parser_round_trip(capsys, tmp_path):
    with criterion(capsys, 7, "parse and serialize reach a fixed point"):
        export_fixtures(str(tmp_path))
        for name in ("symptoms.obo", "clinical_signs.json"):
            _assert_fixed_point(parse_ontology_file(str(tmp_path / name)).ontology)

        rng = random.Random(13)
        doc = {"id": "generated", "classes": []}
        for i in range(200):
            entry = {"iri": f"http://example.org/gen#G_{i:04d}", "label": f"generated term {i}"}
            if rng.random() < 0.3:
                entry["synonyms"] = [f"alias {i}", f"variant {rng.randrange(1000)}"]
            if i > 0 and rng.random() < 0.7:
                entry["parents"] = sorted(
                    {f"http://example.org/gen#G_{rng.randrange(i):04d}"
                     for _ in range(rng.choice((1, 1, 2)))}
                )
            doc["classes"].append(entry)
        generated = parse_json_ontology(json.dumps(doc)).ontology
        assert len(generated.classes) == 200
        _assert_fixed_point(generated)

        report = parse_obo(
            "format-version: 1.2\n"
            "ontology: toy\n\n"
            "[Term]\nid: T:1\nname: kept\n\n"
            "[Term]\nid: T:2\nname: gone\nis_obsolete: true\n\n"
            "[Term]\nname: nameless\n"
        )
        assert len(report.ontology.classes) == 1
        assert len(report.warnings) == 1 and "id" in report.warnings[0][1]


def test_criterion_8_infiltration_bounds(capsys, fixture_dictionary):
    with criterion(capsys, 8, "infiltration keeps its bounds and is idempotent"):
        anchors = sorted(fixture_dictionary.entries)
        vocab = ["please", "my", "has", "what", "helps", "patient", "the", "with",
                 "since", "morning", "bad", "mild"] + [w for a in anchors for w in a.split()]
        empty = SubsumptionDictionary(entries={})
        rng = random.Random(42)

        for _ in range(500):
            words = [rng.choice(vocab) for _ in range(rng.randrange(1, 12))]
            if rng.random() < 0.5:
                words.insert(rng.randrange(len(words) + 1), rng.choice(anchors))
            prompt = " ".join(words)

            out = infiltrate(prompt, fixture_dictionary)
            assert out.original == prompt
            assert len(out.appended) <= MAX_APPEND_TOTAL
            allowed = set()
            for anchor in out.matched:
                assert anchor in fixture_dictionary.entries, anchor
                allowed.update(fixture_dictionary.entries[anchor])
            assert set(out.appended) <= allowed

            assert infiltrate(prompt, empty).augmented == prompt
            again = infiltrate(out.augmented, fixture_dictionary)
            assert again.augmented == out.augmented
