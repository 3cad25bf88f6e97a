import math

import numpy as np
import pytest

from ontorag.engine import EchoLlm, answer, render_request
from ontorag.errors import DataError
from ontorag.evaluate import (
    EvalRecord,
    SimilarityReport,
    cosine_similarity,
    dot_product,
    euclidean_distance,
    evaluate_batch,
    hallucination_index,
    mean_report,
    read_records,
    relative_change,
    render_summary_tsv,
    similarity_report,
)
from ontorag.fixtures import fixture_text


U = np.array([1.0, 2.0, 3.0])
V = np.array([4.0, 5.0, 6.0])


def test_measures_known_values():
    assert cosine_similarity(U, V) == pytest.approx(97.46318461970762, abs=1e-12)
    assert dot_product(U, V) == 32.0
    assert euclidean_distance(U, V) == pytest.approx(math.sqrt(27.0), abs=1e-12)


def test_measures_identity_and_opposites():
    assert cosine_similarity(U, U) == pytest.approx(100.0)
    assert cosine_similarity(U, -U) == pytest.approx(-100.0)
    assert euclidean_distance(U, U) == 0.0


def test_measures_validation():
    with pytest.raises(DataError):
        cosine_similarity(U, np.ones(4))
    with pytest.raises(DataError):
        dot_product(U, np.ones(2))
    with pytest.raises(DataError):
        euclidean_distance(U, np.ones(5))
    with pytest.raises(DataError):
        cosine_similarity(U, np.zeros(3))
    with pytest.raises(DataError):
        cosine_similarity(np.array([]), np.array([]))


def test_hallucination_index_is_componentwise_mean():
    contextual = SimilarityReport(cosine=80.0, dot=10.0, euclidean=2.0)
    factual = SimilarityReport(cosine=90.0, dot=30.0, euclidean=4.0)
    h = hallucination_index(contextual, factual)
    assert h == SimilarityReport(cosine=85.0, dot=20.0, euclidean=3.0)


def test_mean_report():
    a = SimilarityReport(cosine=10.0, dot=1.0, euclidean=0.5)
    b = SimilarityReport(cosine=30.0, dot=3.0, euclidean=1.5)
    assert mean_report([a, b]) == SimilarityReport(cosine=20.0, dot=2.0, euclidean=1.0)
    assert mean_report([a]) == a
    with pytest.raises(DataError):
        mean_report([])


def test_relative_change():
    assert relative_change(110.0, 100.0) == pytest.approx(10.0)
    assert relative_change(90.0, 100.0) == pytest.approx(-10.0)
    assert relative_change(5.0, 5.0) == 0.0
    with pytest.raises(DataError):
        relative_change(1.0, 0.0)


def test_similarity_report_with_embedder(embedder):
    same = similarity_report("the same words", "the same words", embedder)
    assert same.cosine == pytest.approx(100.0)
    assert same.euclidean == pytest.approx(0.0, abs=1e-12)
    other = similarity_report("fever", "completely different topic", embedder)
    assert other.cosine < 100.0


def test_eval_record_validation():
    EvalRecord(prompt="p", ground_truth="g")
    with pytest.raises(DataError):
        EvalRecord(prompt=" ", ground_truth="g")
    with pytest.raises(DataError):
        EvalRecord(prompt="p", ground_truth="")


def test_read_records_fixture(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text(fixture_text("questions.jsonl"), encoding="utf-8")
    records = read_records(str(path))
    assert len(records) == 10
    assert records[0].prompt == "What should I do about constipation?"


def test_read_records_validation(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        read_records(str(path))
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_records(str(path))
    path.write_text('{"prompt": "p"}\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_records(str(path))
    path.write_text('{"prompt": "p", "ground_truth": 3}\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_records(str(path))


def test_evaluate_batch_structure(handbook_store, embedder, fixture_dictionary):
    records = [
        EvalRecord("What should I do about constipation?", "Fluids, fibre, and exercise."),
        EvalRecord("What helps mild nausea?", "Ginger and small bland meals."),
    ]
    summary = evaluate_batch(records, handbook_store, embedder, EchoLlm(), fixture_dictionary, k=2)
    assert summary.n_records == 2
    assert summary.augmented_count == 2
    assert summary.with_index == hallucination_index(summary.with_contextual, summary.with_factual)
    assert summary.without_index == hallucination_index(
        summary.without_contextual, summary.without_factual
    )
    assert summary.index_change.cosine == pytest.approx(
        relative_change(summary.with_index.cosine, summary.without_index.cosine)
    )
    with pytest.raises(DataError):
        evaluate_batch([], handbook_store, embedder, EchoLlm(), fixture_dictionary)


def test_evaluate_batch_contextual_uses_original_prompt(handbook_store, embedder, fixture_dictionary):
    record = EvalRecord("What helps mild nausea?", "Ginger and small bland meals.")
    summary = evaluate_batch([record], handbook_store, embedder, EchoLlm(), fixture_dictionary, k=2)
    infiltrated = answer(
        handbook_store, embedder, EchoLlm(), record.prompt, dictionary=fixture_dictionary, k=2
    )
    expected = similarity_report(infiltrated.response, record.prompt, embedder)
    assert summary.with_contextual == expected
    against_augmented = similarity_report(infiltrated.response, infiltrated.augmented, embedder)
    assert summary.with_contextual != against_augmented


def test_evaluate_batch_without_arm_matches_plain_pipeline(handbook_store, embedder, fixture_dictionary):
    record = EvalRecord("Which rash needs urgent review?", "A rash that does not fade under glass.")
    summary = evaluate_batch([record], handbook_store, embedder, EchoLlm(), fixture_dictionary, k=3)
    plain = answer(handbook_store, embedder, EchoLlm(), record.prompt, dictionary=None, k=3)
    system, user = render_request(record.prompt, [t for t in plain.context_texts])
    assert plain.response == f"{system}\n{user}"
    assert summary.without_factual == similarity_report(plain.response, record.ground_truth, embedder)


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct-records", "shared-prompt-and-truth"])
def test_evaluate_batch_embeds_each_distinct_text_once(
    handbook_store, embedder, fixture_dictionary, monkeypatch, repeat
):
    records = [
        EvalRecord("What should I do about constipation?", "Fluids, fibre, and exercise."),
        EvalRecord("What helps mild nausea?", "Ginger and small bland meals."),
    ]
    if repeat:
        # a second record with the first one's prompt and ground truth adds no text
        records.append(EvalRecord(records[0].prompt, records[0].ground_truth))
    answered = [
        (
            record,
            answer(handbook_store, embedder, EchoLlm(), record.prompt, dictionary=fixture_dictionary, k=2),
            answer(handbook_store, embedder, EchoLlm(), record.prompt, dictionary=None, k=2),
        )
        for record in records
    ]
    distinct = {
        text
        for record, infiltrated, plain in answered
        for text in (infiltrated.response, plain.response, record.prompt, record.ground_truth)
    }
    calls = []
    real_embed = embedder.embed
    monkeypatch.setattr(embedder, "embed", lambda texts: calls.append(list(texts)) or real_embed(texts))

    summary = evaluate_batch(records, handbook_store, embedder, EchoLlm(), fixture_dictionary, k=2)

    # two one-text queries per record from answer(), then one call for the whole batch
    assert len(calls) == 2 * len(records) + 1
    assert all(len(texts) == 1 for texts in calls[:-1])
    batch = calls[-1]
    assert len(batch) == len(set(batch)) == len(distinct)
    assert set(batch) == distinct
    for field, reference, arm in (
        ("with_contextual", "prompt", 1),
        ("without_contextual", "prompt", 2),
        ("with_factual", "ground_truth", 1),
        ("without_factual", "ground_truth", 2),
    ):
        expected = mean_report(
            [similarity_report(row[arm].response, getattr(row[0], reference), embedder) for row in answered]
        )
        assert getattr(summary, field) == expected, field


def test_render_summary_tsv(handbook_store, embedder, fixture_dictionary):
    records = [EvalRecord("What helps mild nausea?", "Ginger and small bland meals.")]
    summary = evaluate_batch(records, handbook_store, embedder, EchoLlm(), fixture_dictionary, k=2)
    rendered = render_summary_tsv(summary)
    lines = rendered.strip().split("\n")
    assert lines[0] == "table\tmeasure\twith_subsumptions\twithout_subsumptions\trelative_change_pct"
    assert len(lines) == 10
    tables = {line.split("\t")[0] for line in lines[1:]}
    assert tables == {"Contextual Similarity", "Factual Accuracy", "Hallucination Index"}
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == 5
        for cell in fields[2:]:
            float(cell)  # every numeric cell parses back
    first = lines[1].split("\t")
    assert first[2] == "%.6g" % summary.with_contextual.cosine
