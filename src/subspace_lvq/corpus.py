"""Corpus handling and the triage pipeline.

Ingestion of case collections (JSON-lines records or a directory of plain
text files), stratified train/test splitting, batch probability scoring,
ranking with percentiles, annotation sampling per percentile band, and
precision calibration against manual annotations.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import EmbeddingTable, PreprocessedDoc, WordMatrix, embed, preprocess
from .errors import DataError, DimensionError, EmptyDocumentError, FormatError, map_records
from .model import ModelState, _positive_probability, check_positive_label, classify
from .subspace import LabeledSubspace, Subspace, compute_subspace


@dataclass
class CaseRecord:
    case_id: str
    text: str
    label: str | None = None
    tags: list[str] | None = None


@dataclass
class ScoredCase:
    case_id: str
    score: float
    predicted_label: str
    percentile: float | None = None  # filled by rank()


@dataclass
class CalibrationBand:
    lo: float                 # percentile bounds, [lo, hi)
    hi: float
    score_low: float | None   # score range of the band's members
    score_high: float | None
    case_count: int
    annotated_count: int
    positive_count: int
    fraction_positive: float | None  # None when no member is annotated


@dataclass
class CalibrationReport:
    bands: list[CalibrationBand]       # descending by score
    target_precision: float | None
    threshold_score: float | None      # lowest band boundary meeting the target


def ingest(path) -> list[CaseRecord]:
    """Load a corpus from a JSON-lines file or a directory of .txt files.

    JSON-lines records carry ``case_id``, ``text``, optional ``label`` and
    optional ``tags``.  For a directory, each file's stem becomes the case
    id.  Duplicate ids and empty corpora are errors.
    """
    path = Path(path)
    records: list[CaseRecord] = []
    if path.is_dir():
        for file in sorted(path.glob("*.txt")):
            text = file.read_text(encoding="utf-8")
            if not text.strip():
                raise FormatError("empty case text", path=file)
            records.append(CaseRecord(case_id=file.stem, text=text))
    else:
        try:
            handle = path.open("r", encoding="utf-8")
        except OSError as exc:
            raise FormatError(f"cannot read corpus: {exc}", path=path) from exc
        with handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                records.append(_parse_record(line, path, lineno))
    if not records:
        raise DataError(f"{path}: empty corpus")
    seen = set()
    for rec in records:
        if rec.case_id in seen:
            raise DataError(f"duplicate case id {rec.case_id!r}")
        seen.add(rec.case_id)
    return records


def _parse_record(line: str, path, lineno: int) -> CaseRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed record: {exc}", path=path, line=lineno) from exc
    if not isinstance(obj, dict):
        raise FormatError("record is not an object", path=path, line=lineno)
    case_id = obj.get("case_id")
    text = obj.get("text")
    if not isinstance(case_id, str) or not case_id:
        raise FormatError("missing or invalid 'case_id'", path=path, line=lineno)
    if not isinstance(text, str) or not text.strip():
        raise FormatError("missing or empty 'text'", path=path, line=lineno)
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise FormatError("'label' must be a string", path=path, line=lineno)
    tags = obj.get("tags")
    if tags is not None and not (
        isinstance(tags, list) and all(isinstance(t, str) for t in tags)
    ):
        raise FormatError("'tags' must be an array of strings", path=path, line=lineno)
    return CaseRecord(case_id=case_id, text=text, label=label, tags=tags)


def write_corpus(records: list[CaseRecord], path) -> None:
    """Write records in the JSON-lines corpus format."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for rec in records:
            obj = {"case_id": rec.case_id, "text": rec.text}
            if rec.label is not None:
                obj["label"] = rec.label
            if rec.tags is not None:
                obj["tags"] = rec.tags
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


def split(records: list[CaseRecord], train_fraction: float, seed) -> tuple[list[CaseRecord], list[CaseRecord]]:
    """Seeded stratified split.

    The total train size is round(train_fraction * n); it is apportioned per
    class by largest remainder, so every class stays within one record of
    its exact proportional share.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train fraction must be in (0, 1), got {train_fraction}")
    unlabeled = [r.case_id for r in records if r.label is None]
    if unlabeled:
        raise DataError(f"{len(unlabeled)} records lack labels (first: {unlabeled[0]!r})")
    labels = sorted({r.label for r in records})
    groups = {lab: [r for r in records if r.label == lab] for lab in labels}
    for lab, group in groups.items():
        if len(group) < 2:
            raise DataError(f"class {lab!r} has fewer than 2 records")

    total_train = int(np.floor(train_fraction * len(records) + 0.5))
    floors = {lab: int(np.floor(train_fraction * len(groups[lab]))) for lab in labels}
    remainders = {lab: train_fraction * len(groups[lab]) - floors[lab] for lab in labels}
    leftover = total_train - sum(floors.values())
    # hand out the leftover seats by largest remainder, ties by class order
    for lab in sorted(labels, key=lambda l: (-remainders[l], labels.index(l)))[:leftover]:
        floors[lab] += 1

    rng = np.random.default_rng(seed)
    train: list[CaseRecord] = []
    test: list[CaseRecord] = []
    for lab in labels:
        group = groups[lab]
        order = rng.permutation(len(group))
        n_train = floors[lab]
        train.extend(group[int(i)] for i in order[:n_train])
        test.extend(group[int(i)] for i in order[n_train:])
    return train, test


def prepare_document(
    case_id: str, text: str, table: EmbeddingTable, stoplist, d: int
) -> tuple[PreprocessedDoc, WordMatrix, Subspace]:
    """Tokenize, embed and reduce one document to its subspace."""
    doc = preprocess(case_id, text, stoplist)
    if not doc.kept_tokens:
        raise EmptyDocumentError(case_id, f"document {case_id!r} is empty after preprocessing")
    matrix = embed(doc, table)
    return doc, matrix, compute_subspace(matrix, d)


def corpus_to_subspaces(
    records: list[CaseRecord], table: EmbeddingTable, stoplist, d: int,
) -> tuple[list[LabeledSubspace], list[tuple[str, str]]]:
    """Pipeline a labeled corpus into subspaces; skip and report failures."""
    for rec in records:
        if rec.label is None:
            raise DataError(f"record {rec.case_id!r} lacks a label")

    def subspace_of(rec):
        _, _, sub = prepare_document(rec.case_id, rec.text, table, stoplist, d)
        return LabeledSubspace(subspace=sub, label=rec.label)

    return map_records(records, subspace_of)


def batch_score(
    records: list[CaseRecord], model: ModelState, table: EmbeddingTable,
    stoplist, positive_label: str,
) -> tuple[list[ScoredCase], list[tuple[str, str]]]:
    """Score every record against the positive class.

    Records that cannot be embedded (all tokens out of vocabulary) are
    skipped and reported rather than silently given a score, which would
    corrupt downstream calibration.  Each record is scored independently,
    so the output multiset does not depend on processing order.  A
    non-binary model or an unknown positive label fails the whole call.
    """
    if table.dim != model.embedding_dim:
        raise DimensionError(
            f"embedding dimension {table.dim} does not match model "
            f"dimension {model.embedding_dim}"
        )
    check_positive_label(model, positive_label)

    def score_one(rec):
        _, _, sub = prepare_document(rec.case_id, rec.text, table, stoplist, model.subspace_dim)
        predicted, dists = classify(sub, model)
        return ScoredCase(case_id=rec.case_id, predicted_label=predicted,
                          score=_positive_probability(dists, model, positive_label))

    return map_records(records, score_one)


def rank(scored: list[ScoredCase]) -> list[ScoredCase]:
    """Sort by descending score (ties by case id) and fill percentiles.

    percentile = 100 * (#cases with strictly lower score) / n, so tied
    scores share a percentile and the minimum is always at 0.  Idempotent.
    """
    if not scored:
        raise DataError("nothing to rank")
    ordered = sorted(scored, key=lambda s: (-s.score, s.case_id))
    ascending = sorted(s.score for s in scored)
    n = len(scored)
    return [
        dataclasses.replace(s, percentile=100.0 * bisect.bisect_left(ascending, s.score) / n)
        for s in ordered
    ]


def count_above(scored: list[ScoredCase], threshold: float) -> int:
    """Number of cases scoring strictly above the threshold."""
    return sum(1 for s in scored if s.score > threshold)


def _band_members(scored, lo, hi):
    return [s for s in scored if s.percentile is not None and lo <= s.percentile < hi]


def _check_bands(bands):
    for lo, hi in bands:
        if not (0.0 <= lo < hi <= 100.0):
            raise DataError(f"invalid percentile band [{lo}, {hi})")
    ordered = sorted(bands)
    for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:]):
        if hi1 > lo2:
            raise DataError(f"overlapping bands [{lo1}, {hi1}) and [{lo2}, {hi2})")


def sample_for_annotation(
    scored: list[ScoredCase], bands: list[tuple[float, float]], per_band: int, seed,
) -> dict[tuple[float, float], list[str]]:
    """Uniform seeded sample of case ids from each percentile band.

    Bands are half-open ``[lo, hi)`` percentile intervals and must be
    disjoint; each must hold at least ``per_band`` ranked cases.
    """
    if any(s.percentile is None for s in scored):
        raise DataError("cases must be ranked before sampling")
    _check_bands(bands)
    rng = np.random.default_rng(seed)
    out: dict[tuple[float, float], list[str]] = {}
    for lo, hi in bands:
        ids = sorted(s.case_id for s in _band_members(scored, lo, hi))
        if per_band > len(ids):
            raise DataError(
                f"band [{lo}, {hi}) holds {len(ids)} cases, cannot sample {per_band}"
            )
        chosen = rng.choice(len(ids), size=per_band, replace=False)
        out[(lo, hi)] = [ids[int(i)] for i in chosen]
    return out


def calibrate(
    scored: list[ScoredCase], annotations: dict[str, bool],
    bands: list[tuple[float, float]], target_precision: float | None = None,
) -> CalibrationReport:
    """Per-band positive fractions from manual annotations.

    Only annotated members contribute to a band's fraction; a band without
    annotated members reports ``None`` rather than 0.  With a target
    precision, the threshold is the lowest band score boundary whose band
    fraction meets the target (``None`` when no band qualifies).  Fractions
    are reported as observed; monotonicity is not enforced.
    """
    if any(s.percentile is None for s in scored):
        raise DataError("cases must be ranked before calibration")
    _check_bands(bands)
    known = {s.case_id for s in scored}
    unknown = sorted(set(annotations) - known)
    if unknown:
        raise DataError(f"annotations refer to unscored cases (first: {unknown[0]!r})")
    report_bands = []
    for lo, hi in bands:
        members = _band_members(scored, lo, hi)
        annotated = [annotations[s.case_id] for s in members if s.case_id in annotations]
        positives = sum(annotated)
        report_bands.append(CalibrationBand(
            lo=lo,
            hi=hi,
            score_low=min(s.score for s in members) if members else None,
            score_high=max(s.score for s in members) if members else None,
            case_count=len(members),
            annotated_count=len(annotated),
            positive_count=positives,
            fraction_positive=positives / len(annotated) if annotated else None,
        ))
    report_bands.sort(key=lambda b: (b.score_high is None, -(b.score_high or 0.0)))
    threshold = None
    if target_precision is not None:
        qualifying = [
            b.score_low for b in report_bands
            if b.fraction_positive is not None and b.fraction_positive >= target_precision
            and b.score_low is not None
        ]
        threshold = min(qualifying) if qualifying else None
    return CalibrationReport(
        bands=report_bands, target_precision=target_precision, threshold_score=threshold
    )


# ---------------------------------------------------------------------------
# File formats: scored tables and annotation records
# ---------------------------------------------------------------------------

def write_scored(scored: list[ScoredCase], path) -> None:
    """CSV with case_id, score (17 significant digits), percentile, label."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "score", "percentile", "predicted_label"])
        for s in scored:
            writer.writerow([
                s.case_id,
                format(s.score, ".17g"),
                "" if s.percentile is None else format(s.percentile, ".17g"),
                s.predicted_label,
            ])


def read_scored(path) -> list[ScoredCase]:
    path = Path(path)
    out = []
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise FormatError(f"cannot read scored file: {exc}", path=path) from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[:2] != ["case_id", "score"]:
            raise FormatError("not a scored-cases file", path=path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                out.append(ScoredCase(
                    case_id=row[0],
                    score=float(row[1]),
                    percentile=float(row[2]) if row[2] else None,
                    predicted_label=row[3],
                ))
            except (IndexError, ValueError) as exc:
                raise FormatError(f"malformed row: {exc}", path=path, line=lineno) from exc
    if not out:
        raise DataError(f"{path}: no scored cases")
    return out


def read_annotations(path) -> dict[str, bool]:
    """JSON-lines annotations: {"case_id": ..., "positive": true|false}."""
    path = Path(path)
    out: dict[str, bool] = {}
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read annotations: {exc}", path=path) from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                case_id = obj["case_id"]
                positive = obj["positive"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"malformed annotation: {exc}", path=path, line=lineno) from exc
            if not isinstance(case_id, str) or not isinstance(positive, bool):
                raise FormatError("annotation fields must be a string and a boolean",
                                  path=path, line=lineno)
            if case_id in out:
                raise DataError(f"duplicate annotation for {case_id!r}")
            out[case_id] = positive
    return out


def write_annotations(annotations: dict[str, bool], path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for case_id, positive in annotations.items():
            handle.write(json.dumps({"case_id": case_id, "positive": positive}) + "\n")
