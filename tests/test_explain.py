"""Word-impact attributions and explanation reports."""

import json

import numpy as np
import pytest

from subspace_lvq.embedding import EmbeddingTable, WordMatrix
from subspace_lvq.errors import DataError
from subspace_lvq.explain import (ExplanationReport, WordImpact, explanation_report,
                                  word_impacts, write_reports_jsonl)
from subspace_lvq.geometry import qr_retract
from subspace_lvq.model import ModelState
from subspace_lvq.subspace import compute_subspace


def tiny_model(bases, labels, relevances=None, beta=5.0):
    d = bases[0].shape[1]
    return ModelState(
        prototypes=np.array(bases, float),
        prototype_labels=tuple(labels),
        relevances=np.full(d, 1.0 / d) if relevances is None else relevances,
        sigmoid_slope=beta,
        distance_kind="chordal",
    )


def word_matrix(tokens, table):
    cols = np.column_stack([table.entries[t] for t in tokens])
    return WordMatrix(doc_id="doc", columns=cols, tokens=list(tokens))


class TestWordImpacts:
    def test_word_on_winning_prototype_axis(self):
        # rank-1 prototypes on e1 (class p) and e2 (class c); a document of a
        # single word along e1 gets impact lambda_1 * (1 - 0)
        model = tiny_model([np.eye(4)[:, [0]], np.eye(4)[:, [1]]], ["p", "c"],
                           relevances=np.array([1.0]))
        matrix = WordMatrix(doc_id="d", columns=np.eye(4)[:, [0]] * 2.5, tokens=["home"])
        doc = compute_subspace(matrix, d=1)
        impacts = word_impacts(matrix, doc, model)
        assert len(impacts) == 1
        assert impacts[0].word == "home"
        assert impacts[0].impact == pytest.approx(1.0, abs=1e-12)

    def test_word_orthogonal_to_both_prototypes(self):
        model = tiny_model([np.eye(5)[:, [0]], np.eye(5)[:, [1]]], ["p", "c"],
                           relevances=np.array([1.0]))
        cols = np.column_stack([np.eye(5)[:, 0], np.eye(5)[:, 4]])
        matrix = WordMatrix(doc_id="d", columns=cols, tokens=["aligned", "stray"])
        doc = compute_subspace(matrix, d=2)
        impacts = {wi.word: wi.impact for wi in word_impacts(matrix, doc, model)}
        assert impacts["stray"] == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_recomputation_on_toy_document(self):
        # independently rebuild the alignment energies from explicitly
        # materialized principal directions (eigendecomposition route)
        rng = np.random.default_rng(0)
        dim, d = 8, 3
        model = tiny_model(
            [qr_retract(rng.standard_normal((dim, d))) for _ in range(2)],
            ["p", "c"],
            relevances=np.array([0.5, 0.3, 0.2]),
        )
        table = EmbeddingTable.from_vectors(dim, {
            f"w{i}": rng.standard_normal(dim) for i in range(5)})
        tokens = [f"w{i}" for i in range(5)]
        matrix = word_matrix(tokens, table)
        doc = compute_subspace(matrix, d=d)

        from subspace_lvq.model import classify
        predicted, dists = classify(doc, model)
        winner = int(np.argmin(dists))
        competitor = 1 - winner
        lam = model.relevances

        def energy(word_vec, proto_basis):
            m_mat = doc.basis.T @ proto_basis
            evals, evecs = np.linalg.eigh(m_mat.T @ m_mat)
            order = np.argsort(evals)[::-1]
            directions = proto_basis @ evecs[:, order]  # unit principal vectors
            v = word_vec / np.linalg.norm(word_vec)
            return sum(lam[i] * float(v @ directions[:, i]) ** 2
                       for i in range(directions.shape[1]))

        impacts = {wi.word: wi.impact for wi in word_impacts(matrix, doc, model)}
        for j, tok in enumerate(tokens):
            expected = (energy(matrix.columns[:, j], model.prototypes[winner])
                        - energy(matrix.columns[:, j], model.prototypes[competitor]))
            assert impacts[tok] == pytest.approx(expected, abs=1e-10)

    def test_word_order_permutation_invariance(self):
        rng = np.random.default_rng(1)
        dim, d = 10, 3
        model = tiny_model(
            [qr_retract(rng.standard_normal((dim, d))) for _ in range(2)], ["p", "c"])
        table = EmbeddingTable.from_vectors(dim, {
            f"w{i}": rng.standard_normal(dim) for i in range(8)})
        tokens = [f"w{i}" for i in range(8)]
        matrix = word_matrix(tokens, table)
        doc = compute_subspace(matrix, d=d)
        base = {wi.word: wi.impact for wi in word_impacts(matrix, doc, model)}

        perm = rng.permutation(8)
        permuted_tokens = [tokens[int(i)] for i in perm]
        matrix_p = word_matrix(permuted_tokens, table)
        doc_p = compute_subspace(matrix_p, d=d)
        shuffled = {wi.word: wi.impact for wi in word_impacts(matrix_p, doc_p, model)}
        for word in tokens:
            assert shuffled[word] == pytest.approx(base[word], abs=1e-10)

    def test_duplicate_words_aggregate_to_double_impact(self):
        rng = np.random.default_rng(2)
        dim, d = 6, 2
        model = tiny_model(
            [qr_retract(rng.standard_normal((dim, d))) for _ in range(2)], ["p", "c"])
        table = EmbeddingTable.from_vectors(dim, {
            "dup": rng.standard_normal(dim), "other": rng.standard_normal(dim)})
        single = word_matrix(["dup", "other"], table)
        doubled = word_matrix(["dup", "other", "dup"], table)
        doc_s = compute_subspace(single, d=d)
        doc_d = compute_subspace(doubled, d=d)
        # same span either way (duplicate column), so energies are identical
        imp_s = {wi.word: wi for wi in word_impacts(single, doc_s, model)}
        imp_d = {wi.word: wi for wi in word_impacts(doubled, doc_d, model)}
        assert imp_d["dup"].occurrences == 2
        assert imp_d["dup"].impact == pytest.approx(2 * imp_s["dup"].impact, abs=1e-10)

    def test_prototype_reparameterization_invariance(self):
        rng = np.random.default_rng(3)
        dim, d = 9, 3
        bases = [qr_retract(rng.standard_normal((dim, d))) for _ in range(2)]
        table = EmbeddingTable.from_vectors(dim, {
            f"w{i}": rng.standard_normal(dim) for i in range(6)})
        matrix = word_matrix(list(table.entries), table)
        doc = compute_subspace(matrix, d=d)
        base_model = tiny_model(bases, ["p", "c"])
        base = {wi.word: wi.impact for wi in word_impacts(matrix, doc, base_model)}

        rotations = [qr_retract(rng.standard_normal((d, d))) for _ in range(2)]
        rotated_model = tiny_model([b @ r for b, r in zip(bases, rotations)], ["p", "c"])
        rotated = {wi.word: wi.impact for wi in word_impacts(matrix, doc, rotated_model)}
        for word, value in base.items():
            assert rotated[word] == pytest.approx(value, abs=1e-10)

    def test_sorted_by_absolute_impact_with_alphabetical_ties(self):
        rng = np.random.default_rng(4)
        dim, d = 7, 2
        model = tiny_model(
            [qr_retract(rng.standard_normal((dim, d))) for _ in range(2)], ["p", "c"])
        vec = rng.standard_normal(dim)
        table = EmbeddingTable.from_vectors(dim, {"bbb": vec, "aaa": vec.copy(),
                                                  "zzz": rng.standard_normal(dim)})
        matrix = word_matrix(["bbb", "aaa", "zzz"], table)
        doc = compute_subspace(matrix, d=d)
        impacts = word_impacts(matrix, doc, model)
        magnitudes = [abs(wi.impact) for wi in impacts]
        assert magnitudes == sorted(magnitudes, reverse=True)
        tied = [wi.word for wi in impacts if wi.word in ("aaa", "bbb")]
        assert tied == ["aaa", "bbb"]


class TestExplanationReport:
    def test_top_k_clamps_to_vocabulary(self, trained):
        rec = trained.test_records[0]
        report = explanation_report(rec, trained.model, trained.corpus.table,
                                    trained.stoplist, k=10_000)
        distinct = len(set(rec.text.split()))
        assert len(report.impacts) == distinct
        assert report.top_k == 10_000

    def test_deterministic(self, trained):
        rec = trained.test_records[1]
        a = explanation_report(rec, trained.model, trained.corpus.table,
                               trained.stoplist, k=12)
        b = explanation_report(rec, trained.model, trained.corpus.table,
                               trained.stoplist, k=12)
        assert a == b

    def test_metadata_fields(self, trained):
        rec = trained.test_records[2]
        report = explanation_report(rec, trained.model, trained.corpus.table,
                                    trained.stoplist, k=5)
        assert report.doc_id == rec.case_id
        assert report.predicted_label in trained.model.class_labels
        assert report.runner_up_label != report.predicted_label
        assert report.score is not None and 0.0 < report.score < 1.0
        assert len(report.impacts) == 5

    def test_fixed_positive_label_score(self, trained):
        rec = [r for r in trained.test_records if r.label == "topic_b"][0]
        report = explanation_report(rec, trained.model, trained.corpus.table,
                                    trained.stoplist, k=3, positive_label="topic_a")
        # correctly classified topic_b case scores low for topic_a
        assert report.predicted_label == "topic_b"
        assert report.score < 0.5

    def test_invalid_k(self, trained):
        with pytest.raises(DataError):
            explanation_report(trained.test_records[0], trained.model,
                               trained.corpus.table, trained.stoplist, k=0)

    def test_planted_words_dominate_positive_impacts(self, trained):
        planted = {lab: set(ws)
                   for lab, ws in trained.corpus.discriminative_words.items()}
        hits = []
        for rec in trained.test_records[:50]:
            report = explanation_report(rec, trained.model, trained.corpus.table,
                                        trained.stoplist,
                                        k=len(set(rec.text.split())))
            positive = sorted((wi for wi in report.impacts if wi.impact > 0),
                              key=lambda wi: (-wi.impact, wi.word))[:10]
            hits.append(sum(1 for wi in positive
                            if wi.word in planted[report.predicted_label]))
        assert np.mean(hits) >= 8.0


def test_report_with_non_ascii_words_is_written_raw(tmp_path):
    report = ExplanationReport(doc_id="expulsión", predicted_label="pos", runner_up_label="neg",
                               score=None, top_k=2,
                               impacts=[WordImpact("Wohnung", 0.25, 2),
                                        WordImpact("expulsión", -0.125, 1)])
    path = tmp_path / "explanations.jsonl"
    write_reports_jsonl([report], path)
    raw = path.read_bytes()
    assert "expulsión".encode() in raw and b"\\u" not in raw
    assert json.loads(raw.decode("utf-8")) == {
        "doc_id": "expulsión", "predicted_label": "pos", "runner_up_label": "neg",
        "score": None, "top_k": 2, "impacts": [["Wohnung", 0.25, 2], ["expulsión", -0.125, 1]]}
