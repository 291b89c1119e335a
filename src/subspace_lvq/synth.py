"""Synthetic two-class corpus generator for tests and end-to-end checks.

Two word banks share a block of common words; the rest of each bank is
exclusive to its class and recorded as ground-truth discriminative
vocabulary.  Embeddings are random unit vectors, documents draw 90% of
their words from the exclusive block and 10% from the shared block, so the
classes are nearly linearly separable by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CaseRecord, write_annotations, write_corpus
from .embedding import EmbeddingTable, save_embeddings

CLASS_LABELS = ("topic_a", "topic_b")

# Share of a document's words drawn from its class's exclusive block.
_EXCLUSIVE_RATE = 0.9
# Words in each class's bank; _SHARED_SIZE of them are common to both classes.
_BANK_SIZE = 100
_SHARED_SIZE = 30


@dataclass
class SyntheticCorpus:
    records: list[CaseRecord]
    table: EmbeddingTable
    discriminative_words: dict[str, list[str]]  # label -> exclusive vocabulary
    shared_words: list[str]


def generate(
    docs_per_class: int = 200,
    dim: int = 50,
    seed: int = 7,
    doc_length: tuple[int, int] = (80, 300),
) -> SyntheticCorpus:
    """Build a deterministic two-class corpus with planted vocabulary."""
    rng = np.random.default_rng(seed)
    shared = [f"shared{i:03d}" for i in range(_SHARED_SIZE)]
    exclusive = {
        label: [f"{label}_w{i:03d}" for i in range(_BANK_SIZE - _SHARED_SIZE)]
        for label in CLASS_LABELS
    }
    vocab = shared + [w for label in CLASS_LABELS for w in exclusive[label]]

    entries = {}
    for word in vocab:
        vec = rng.standard_normal(dim)
        entries[word] = vec / np.linalg.norm(vec)
    table = EmbeddingTable.from_vectors(dim, entries)

    records = []
    lo, hi = doc_length
    for label in CLASS_LABELS:
        own = exclusive[label]
        for i in range(docs_per_class):
            n_words = int(rng.integers(lo, hi + 1))
            words = [
                own[int(rng.integers(len(own)))]
                if rng.random() < _EXCLUSIVE_RATE
                else shared[int(rng.integers(len(shared)))]
                for _ in range(n_words)
            ]
            records.append(CaseRecord(
                case_id=f"{label}-{i:04d}",
                text=" ".join(words),
                label=label,
            ))
    return SyntheticCorpus(
        records=records,
        table=table,
        discriminative_words=exclusive,
        shared_words=shared,
    )


def write_synthetic(corpus: SyntheticCorpus, out_dir) -> dict[str, Path]:
    """Write embeddings, corpus, ground truth and annotations; returns the file paths.

    The annotations mark every record of the first class positive, as an
    annotator judging that class would.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "embeddings": out / "embeddings.txt",
        "corpus": out / "corpus.jsonl",
        "truth": out / "truth.json",
        "annotations": out / "annotations.jsonl",
    }
    save_embeddings(corpus.table, paths["embeddings"])
    write_corpus(corpus.records, paths["corpus"])
    paths["truth"].write_text(json.dumps({
        "discriminative_words": corpus.discriminative_words,
        "shared_words": corpus.shared_words,
    }, indent=2) + "\n", encoding="utf-8")
    write_annotations({r.case_id: r.label == CLASS_LABELS[0] for r in corpus.records},
                      paths["annotations"])
    return paths
