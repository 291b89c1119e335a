"""Workload shapes and the seeded input generator.

Each workload fixes the shape of one batch-triage job: embedding and
subspace dimension, prototypes per class, distance kind, document length,
vocabulary size, and how many documents are trained on, scored and
explained.  ``generate`` turns a shape and a seed into files; the program
under test only ever sees those files.

Run as a script to write one workload's inputs::

    python3 perfbench/workloads.py --workload quickstart --seed 1 --out DIR --src src
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

POSITIVE_LABEL = "topic_a"
# Every workload scores against the same bands; they tile [0, 100).
CALIBRATION_BANDS = "90:100,80:90,70:80,60:70,50:60,40:50,30:40,20:30,10:20,0:10"
SAMPLE_BANDS = "90:100,45:55,0:10"
SAMPLE_PER_BAND = 5
TRAIN_FRACTION = 0.8
TOP_K = 100  # at least the distinct words of any synthetic document


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int                       # D, embedding dimension
    subspace_dim: int              # d
    per_class: int                 # prototypes per class (P = 2 * per_class)
    distance: str
    epochs: int
    train_docs_per_class: int      # labelled set, split 80/20 by ``train``
    score_docs_per_class: int      # unlabelled corpus given to ``score-corpus``
    explain_docs: int              # drawn from the scoring corpus
    doc_length: tuple[int, int]    # tokens per synthetic document, before noise
    table_words: int               # embedding-table rows, distractors included
    stopword_rate: float = 0.0     # stop words inserted per synthetic token
    oov_rate: float = 0.0          # out-of-vocabulary tokens per synthetic token
    all_oov_score: int = 0         # planted records with no embeddable token
    all_oov_explain: int = 0


# The synthetic vocabulary is 70 exclusive words per class plus 30 shared.
SYNTH_VOCAB = 170

WORKLOADS = {
    w.name: w
    for w in (
        # Training-bound: many principal-angle systems per SGD step (P=4).  Its
        # long documents repeat words, so a distinct-word SVD would act here.
        Workload("quickstart", dim=50, subspace_dim=10, per_class=2, distance="chordal",
                 epochs=15, train_docs_per_class=100, score_docs_per_class=150,
                 explain_docs=80, doc_length=(80, 300), table_words=SYNTH_VOCAB),
        # Load-bound: a 20k-word table, short noisy documents, planted skips.
        # Few repeated words, so a distinct-word SVD would save nothing here.
        Workload("embload", dim=300, subspace_dim=10, per_class=1, distance="chordal",
                 epochs=3, train_docs_per_class=100, score_docs_per_class=250,
                 explain_docs=40, doc_length=(10, 30), table_words=20_000,
                 stopword_rate=0.3, oov_rate=0.1, all_oov_score=12, all_oov_explain=3),
    )
}


def _stopwords() -> list[str]:
    from subspace_lvq.embedding import load_stopwords

    return sorted(load_stopwords())


def _oov_word(rng, taken) -> str:
    # Consonant strings never match a table word (those carry digits or vowels).
    letters = np.array(list("bcdfghjklmnpqrstvwxz"))
    while True:
        word = "".join(rng.choice(letters, size=8))
        if word not in taken:
            return word


def _noisy_text(words, rng, workload, stopwords, taken) -> str:
    out = []
    for word in words:
        if rng.random() < workload.stopword_rate:
            out.append(stopwords[int(rng.integers(len(stopwords)))])
        if rng.random() < workload.oov_rate:
            out.append(_oov_word(rng, taken))
        out.append(word)
    return " ".join(out)


def _write_table(words: list[str], vectors: np.ndarray, path: Path) -> None:
    """Text embedding table with six decimals, as published tables are."""
    buf = io.StringIO()
    np.savetxt(buf, vectors, fmt="%.6f")
    rows = buf.getvalue().splitlines()
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(f"{w} {r}\n" for w, r in zip(words, rows))


def _write_jsonl(rows, path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(r) + "\n" for r in rows)


def generate(workload: Workload, seed: int, out_dir) -> dict:
    """Write the workload's inputs for ``seed`` under ``out_dir``.

    Returns the truth record (also written as ``truth.json``): labels of the
    scoring corpus, planted vocabulary, and which records are planted to be
    skipped.  The same seed always gives byte-identical files.
    """
    from subspace_lvq.synth import generate as synth_generate

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    synth = synth_generate(
        docs_per_class=workload.train_docs_per_class + workload.score_docs_per_class,
        dim=workload.dim, seed=seed, doc_length=workload.doc_length,
    )
    rng = np.random.default_rng([seed, 1])
    stopwords = _stopwords()

    words = list(synth.table.entries)
    vectors = [synth.table.entries[w] for w in words]
    if workload.table_words > len(words):
        # Real tables embed stop words too, and mostly words a corpus never uses.
        extra = [w for w in stopwords if w not in synth.table.entries]
        extra += [f"lex{i:05d}" for i in range(workload.table_words - len(words) - len(extra))]
        words += extra
        raw = rng.standard_normal((len(extra), workload.dim))
        vectors += list(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    order = rng.permutation(len(words))
    words = [words[int(i)] for i in order]
    vectors = np.vstack([vectors[int(i)] for i in order])
    taken = set(words)
    _write_table(words, vectors, out / "embeddings.txt")

    train_rows, score_pool = [], []
    per_label_seen: dict[str, int] = {}
    for rec in synth.records:
        n = per_label_seen.get(rec.label, 0)
        per_label_seen[rec.label] = n + 1
        text = _noisy_text(rec.text.split(), rng, workload, stopwords, taken)
        if n < workload.train_docs_per_class:
            train_rows.append({"case_id": rec.case_id, "text": text, "label": rec.label})
        else:
            score_pool.append((text, rec.label))

    planted = []
    for _ in range(workload.all_oov_score):
        length = int(rng.integers(workload.doc_length[0], workload.doc_length[1] + 1))
        tokens = [_oov_word(rng, taken) for _ in range(length)]
        planted.append((_noisy_text(tokens, rng, workload, stopwords, taken), None))
    pool = score_pool + planted
    order = rng.permutation(len(pool))
    score_rows, labels, planted_ids = [], {}, []
    for n, i in enumerate(order):
        text, label = pool[int(i)]
        case_id = f"case-{n:05d}"
        score_rows.append({"case_id": case_id, "text": text})
        if label is None:
            planted_ids.append(case_id)
        else:
            labels[case_id] = label

    labelled_ids = sorted(labels)
    chosen = rng.choice(len(labelled_ids), size=workload.explain_docs, replace=False)
    explain_ids = {labelled_ids[int(i)] for i in chosen}
    planted_chosen = rng.choice(len(planted_ids), size=workload.all_oov_explain, replace=False)
    explain_ids |= {planted_ids[int(i)] for i in planted_chosen}
    explain_rows = [r for r in score_rows if r["case_id"] in explain_ids]

    _write_jsonl(train_rows, out / "train.jsonl")
    _write_jsonl(score_rows, out / "corpus.jsonl")
    _write_jsonl(explain_rows, out / "explain.jsonl")
    # Annotations come from the true labels of every record that can be scored.
    _write_jsonl(({"case_id": c, "positive": labels[c] == POSITIVE_LABEL} for c in labelled_ids),
                 out / "annotations.jsonl")

    truth = {
        "workload": asdict(workload),
        "seed": seed,
        "positive_label": POSITIVE_LABEL,
        "labels": labels,
        "planted_skips": sorted(planted_ids),
        "explain_ids": sorted(explain_ids),
        "planted_words": synth.discriminative_words,
        "table_bytes": (out / "embeddings.txt").stat().st_size,
    }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the subspace_lvq package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
