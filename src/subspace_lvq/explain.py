"""Per-word impact attributions for classified documents.

A word's impact is its relevance-weighted squared alignment with the
principal directions of the winning prototype minus the same quantity for
the strongest competing prototype of another class.  Positive impact
supports the predicted class.  The measure depends only on subspace spans,
so it is invariant to word order and to re-parameterizations of the bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CaseRecord, prepare_document, write_csv, write_records
from .embedding import EmbeddingTable, WordMatrix
from .errors import DataError
from .model import ModelState, _positive_probability, check_positive_label, classify
from .geometry import principal_system
from .subspace import Subspace


@dataclass
class WordImpact:
    word: str
    impact: float
    occurrences: int


@dataclass
class ExplanationReport:
    doc_id: str
    predicted_label: str
    runner_up_label: str
    score: float | None            # probability of the scored class (binary models)
    impacts: list[WordImpact]      # sorted by |impact| descending, ties alphabetical
    top_k: int


def _alignment_energy(unit_words: np.ndarray, doc: Subspace, proto_stack, weights) -> np.ndarray:
    """Per-word sum_i w_i (v_j . q_i)^2 over each stacked prototype's matched directions."""
    system = principal_system(doc.basis, proto_stack)
    m = system.cosines.shape[-1]
    proj = unit_words.T @ (proto_stack @ system.right_vectors)  # (P, n_words, m)
    return proj**2 @ weights[:m]


def word_impacts(matrix: WordMatrix, doc: Subspace, model: ModelState) -> list[WordImpact]:
    """Signed impact of every distinct word on the document's classification.

    Word vectors are unit-normalized first so frequent long-vector words do
    not dominate by magnitude; repeated occurrences are aggregated (impacts
    summed, occurrences counted).
    """
    _, dists = classify(doc, model)
    return _impacts(matrix, doc, model, dists)[1]


def _impacts(matrix: WordMatrix, doc: Subspace, model: ModelState, dists: np.ndarray):
    """Runner-up prototype index and :func:`word_impacts`, given ``classify``'s distances."""
    labels = model.prototype_labels
    winner_idx = int(np.argmin(dists))
    competitor_idx = min(
        (i for i, lab in enumerate(labels) if lab != labels[winner_idx]),
        key=lambda i: dists[i],
    )

    norms = np.linalg.norm(matrix.columns, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    unit_words = matrix.columns / safe

    support, oppose = _alignment_energy(
        unit_words, doc, model.prototypes[[winner_idx, competitor_idx]], model.relevances)
    per_occurrence = support - oppose

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for token, value in zip(matrix.tokens, per_occurrence):
        totals[token] = totals.get(token, 0.0) + float(value)
        counts[token] = counts.get(token, 0) + 1
    impacts = [WordImpact(word=w, impact=totals[w], occurrences=counts[w]) for w in totals]
    impacts.sort(key=lambda wi: (-abs(wi.impact), wi.word))
    return competitor_idx, impacts


def explanation_report(
    case: CaseRecord, model: ModelState, table: EmbeddingTable, stoplist,
    k: int, positive_label: str | None = None,
) -> ExplanationReport:
    """Full pipeline explanation of one case: top-k word impacts plus metadata.

    For binary models the report carries a probability score: of
    ``positive_label`` when given, otherwise of the predicted class.
    """
    if k < 1:
        raise DataError(f"top-k must be positive, got {k}")
    matrix, sub = prepare_document(case.case_id, case.text, table, stoplist,
                                   model.subspace_dim)
    predicted, dists = classify(sub, model)
    prob = None
    if len(model.class_labels) == 2:
        scored_label = positive_label if positive_label is not None else predicted
        check_positive_label(model, scored_label)
        prob = _positive_probability(dists, model, scored_label)
    runner_up, impacts = _impacts(matrix, sub, model, dists)
    return ExplanationReport(
        doc_id=case.case_id,
        predicted_label=predicted,
        runner_up_label=model.prototype_labels[runner_up],
        score=prob,
        impacts=impacts[:k],
        top_k=k,
    )


def write_reports_jsonl(reports: list[ExplanationReport], path) -> None:
    """One structured record per document."""
    write_records(({
        "doc_id": rep.doc_id,
        "predicted_label": rep.predicted_label,
        "runner_up_label": rep.runner_up_label,
        "score": rep.score,
        "top_k": rep.top_k,
        "impacts": [[wi.word, wi.impact, wi.occurrences] for wi in rep.impacts],
    } for rep in reports), path)


def write_reports_csv(reports: list[ExplanationReport], path) -> None:
    """Flat (doc, word, impact) table for external plotting."""
    rows = ([rep.doc_id, rep.predicted_label, wi.word, format(wi.impact, ".17g"), wi.occurrences]
            for rep in reports for wi in rep.impacts)
    write_csv((["doc_id", "predicted_label", "word", "impact", "occurrences"], rows), path)
