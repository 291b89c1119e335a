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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import EmbeddingTable, WordMatrix, embed, preprocess
from .errors import (DataError, DimensionError, EmptyDocumentError, FormatError, UsageError,
                     map_records, reading, strict_json)
from .model import ModelState, _decision, check_positive_label, classify
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


def read_records(path, what: str):
    """Yield ``(line number, object)`` for each record of a JSON-lines file.

    Blank lines are skipped.  Every other line must be a :func:`strict_json`
    object with a non-empty string ``case_id`` that no earlier line holds; a
    line that is not raises :class:`FormatError` (a repeated id :class:`DataError`)
    naming ``path`` and the line.  ``what`` names the file in a read error.
    """
    path = Path(path)
    seen: set[str] = set()
    with reading(path, what), path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = strict_json(line, path, lineno)
            except json.JSONDecodeError as exc:
                raise FormatError(f"malformed record: {exc}", path=path, line=lineno) from exc
            if not isinstance(obj, dict):
                raise FormatError("record is not an object", path=path, line=lineno)
            case_id = obj.get("case_id")
            if not isinstance(case_id, str) or not case_id:
                raise FormatError("missing or invalid 'case_id'", path=path, line=lineno)
            if case_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate case id {case_id!r}")
            seen.add(case_id)
            yield lineno, obj


def write_records(objects, path) -> None:
    """Write each object as one line of JSON, non-ASCII text as raw UTF-8."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for obj in objects:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


def ingest(path) -> list[CaseRecord]:
    """Load a corpus from a JSON-lines file or a directory of .txt files.

    JSON-lines records follow :func:`read_records` and carry ``text``,
    optional ``label`` and optional ``tags``.  For a directory, each file's
    stem becomes the case id.  Duplicate ids and empty corpora are errors.
    """
    path = Path(path)
    records: list[CaseRecord] = []
    if path.is_dir():
        for file in sorted(path.glob("*.txt")):
            with reading(file, "case file"):
                text = file.read_text(encoding="utf-8")
            if not text.strip():
                raise FormatError("empty case text", path=file)
            records.append(CaseRecord(case_id=file.stem, text=text))
    else:
        records = [_parse_record(obj, path, lineno)
                   for lineno, obj in read_records(path, "corpus")]
    if not records:
        raise DataError(f"{path}: empty corpus")
    return records


def _parse_record(obj: dict, path, lineno: int) -> CaseRecord:
    text = obj.get("text")
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
    return CaseRecord(case_id=obj["case_id"], text=text, label=label, tags=tags)


def write_corpus(records: list[CaseRecord], path) -> None:
    """Write records in the JSON-lines corpus format."""
    write_records(({key: value for key, value in vars(rec).items()
                    if value is not None} for rec in records), path)


def check_train_fraction(train_fraction: float) -> float:
    """The fraction of records :func:`split` puts in the train set; it lies in (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train fraction must be in (0, 1), got {train_fraction}")
    return train_fraction


def split(records: list[CaseRecord], train_fraction: float, seed) -> tuple[list[CaseRecord], list[CaseRecord]]:
    """Seeded stratified split.

    The total train size is round(train_fraction * n); it is apportioned per
    class by largest remainder, so every class stays within one record of
    its exact proportional share.
    """
    check_train_fraction(train_fraction)
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
) -> tuple[WordMatrix, Subspace]:
    """Tokenize, embed and reduce one document to its word matrix and subspace."""
    doc = preprocess(case_id, text, stoplist)
    if not doc.kept_tokens:
        raise EmptyDocumentError(case_id, f"document {case_id!r} is empty after preprocessing")
    matrix = embed(doc, table)
    return matrix, compute_subspace(matrix, d)


def corpus_to_subspaces(
    records: list[CaseRecord], table: EmbeddingTable, stoplist, d: int,
) -> tuple[list[LabeledSubspace], list[tuple[str, str]]]:
    """Pipeline a labeled corpus into subspaces; skip and report failures."""
    for rec in records:
        if rec.label is None:
            raise DataError(f"record {rec.case_id!r} lacks a label")

    def subspace_of(rec):
        _, sub = prepare_document(rec.case_id, rec.text, table, stoplist, d)
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
        _, sub = prepare_document(rec.case_id, rec.text, table, stoplist, model.subspace_dim)
        predicted, dists = classify(sub, model)
        return ScoredCase(case_id=rec.case_id, predicted_label=predicted,
                          score=_decision(dists, model, positive_label)[2])

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


def parse_bands(text: str) -> list[tuple[float, float]]:
    """Comma-separated half-open percentile ranges, e.g. '87:88,88:89', that pass
    :func:`_check_bands`."""
    bands = []
    for part in filter(None, (piece.strip() for piece in text.split(","))):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise UsageError(f"band {part!r} is not of the form lo:hi")
        try:
            bands.append((float(pieces[0]), float(pieces[1])))
        except ValueError as exc:
            raise UsageError(f"band {part!r}: {exc}") from exc
    if not bands:
        raise UsageError("no percentile bands given")
    _check_bands(bands)
    return bands


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
    precision, the bands are walked from the highest scores down, and the
    run of bands whose fraction meets the target ends at the first band
    that does not, or that has no annotations.  The threshold is the
    lowest ``score_low`` of that run (``None`` when the highest band does
    not qualify), so a qualifying band below a failing one never lowers it.
    Fractions are reported as observed; monotonicity is not enforced.
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
        for band in report_bands:
            if band.fraction_positive is None or band.fraction_positive < target_precision:
                break
            threshold = band.score_low if threshold is None else min(threshold, band.score_low)
    return CalibrationReport(
        bands=report_bands, target_precision=target_precision, threshold_score=threshold
    )


# ---------------------------------------------------------------------------
# File formats: scored tables and annotation records
# ---------------------------------------------------------------------------

def write_csv(table, path) -> None:
    """Write a ``(header, rows)`` table as CSV to a file, or to an open text handle."""
    if not isinstance(path, (str, os.PathLike)):
        writer = csv.writer(path)
        writer.writerow(table[0])
        writer.writerows(table[1])
        return
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        write_csv(table, handle)


_SCORED_HEADER = ["case_id", "score", "percentile", "predicted_label"]


def write_scored(scored: list[ScoredCase], path) -> None:
    """CSV with case_id, score (17 significant digits), percentile, label; see :func:`write_csv`."""
    rows = ([s.case_id, format(s.score, ".17g"),
             "" if s.percentile is None else format(s.percentile, ".17g"), s.predicted_label]
            for s in scored)
    write_csv((_SCORED_HEADER, rows), path)


def read_scored(path) -> list[ScoredCase]:
    """Read a :func:`write_scored` file, checking every row.

    The header must be exactly the four columns :func:`write_scored`
    writes, and every row must have four fields.  A case id must be
    non-empty and unique, a score a finite value in [0, 1], and a
    percentile, when present, a finite value in [0, 100].  A row that
    breaks a rule raises :class:`FormatError` naming the file line it ends on.
    """
    path = Path(path)
    out = []
    seen: set[str] = set()
    with reading(path, "scored file"), path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _SCORED_HEADER:
            raise FormatError("not a scored-cases file", path=path)
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(_SCORED_HEADER):
                raise FormatError(f"malformed row: {len(row)} fields, expected "
                                  f"{len(_SCORED_HEADER)}", path=path, line=lineno)
            try:
                case = ScoredCase(
                    case_id=row[0],
                    score=float(row[1]),
                    percentile=float(row[2]) if row[2] else None,
                    predicted_label=row[3],
                )
            except ValueError as exc:
                raise FormatError(f"malformed row: {exc}", path=path, line=lineno) from exc
            # The ranges are tested as "not inside", so NaN fails them too.
            if not case.case_id:
                raise FormatError("empty case id", path=path, line=lineno)
            if case.case_id in seen:
                raise FormatError(f"repeated case id {case.case_id!r}", path=path, line=lineno)
            if not 0.0 <= case.score <= 1.0:
                raise FormatError(f"score {row[1]!r} is not a finite value in [0, 1]",
                                  path=path, line=lineno)
            if case.percentile is not None and not 0.0 <= case.percentile <= 100.0:
                raise FormatError(f"percentile {row[2]!r} is not a finite value in [0, 100]",
                                  path=path, line=lineno)
            seen.add(case.case_id)
            out.append(case)
    if not out:
        raise DataError(f"{path}: no scored cases")
    return out


def read_annotations(path) -> dict[str, bool]:
    """JSON-lines annotations: :func:`read_records` objects with a boolean ``positive``."""
    out: dict[str, bool] = {}
    for lineno, obj in read_records(path, "annotations"):
        positive = obj.get("positive")
        if not isinstance(positive, bool):
            raise FormatError("'positive' must be a boolean", path=path, line=lineno)
        out[obj["case_id"]] = positive
    return out


def write_annotations(annotations: dict[str, bool], path) -> None:
    write_records(({"case_id": case_id, "positive": positive}
                   for case_id, positive in annotations.items()), path)
