"""Corpus ingestion, splitting, scoring, ranking, sampling, calibration."""

import json
import logging

import numpy as np
import pytest

from subspace_lvq.corpus import (
    CaseRecord,
    ScoredCase,
    batch_score,
    calibrate,
    count_above,
    ingest,
    rank,
    read_annotations,
    read_scored,
    sample_for_annotation,
    split,
    write_annotations,
    write_corpus,
    write_scored,
)
from subspace_lvq.errors import (DataError, EmptyDocumentError, FormatError, UsageError,
                                 map_records)
from subspace_lvq.model import score
from subspace_lvq.corpus import check_train_fraction, parse_bands, prepare_document


class TestIngest:
    def test_jsonl_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"case_id": "c1", "text": "some words", "label": "pos"}) + "\n"
            + json.dumps({"case_id": "c2", "text": "more words",
                          "tags": ["art8"]}) + "\n")
        records = ingest(path)
        assert len(records) == 2
        assert records[0].label == "pos"
        assert records[1].tags == ["art8"]

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = json.dumps({"case_id": "dup", "text": "x"})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DataError, match="dup"):
            ingest(path)

    def test_duplicate_id_names_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"case_id": c, "text": "x"}) for c in ("dup", "other", "dup")]
        path.write_text(lines[0] + "\n\n" + lines[1] + "\n" + lines[2] + "\n")
        with pytest.raises(DataError, match=r"corpus.jsonl:4: duplicate case id 'dup'"):
            ingest(path)

    def test_directory_of_text_files(self, tmp_path):
        for name in ["c1", "c2", "c3"]:
            (tmp_path / f"{name}.txt").write_text(f"text of {name}")
        records = ingest(tmp_path)
        assert [r.case_id for r in records] == ["c1", "c2", "c3"]
        assert records[1].text == "text of c2"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"case_id": "a", "text": "x"}) + "\n{oops\n")
        with pytest.raises(FormatError, match="2"):
            ingest(path)

    @pytest.mark.parametrize("record, message", [
        (["c1", "text"], "record is not an object"),
        ({"text": "words"}, "missing or invalid 'case_id'"),
        ({"case_id": "c1", "text": " "}, "missing or empty 'text'"),
        ({"case_id": "c1", "text": "words", "label": 1}, "'label' must be a string"),
        ({"case_id": "c1", "text": "words", "tags": ["art8", 3]},
         "'tags' must be an array of strings"),
    ], ids=["not-object", "no-case-id", "empty-text", "label-not-string", "tags-not-strings"])
    def test_bad_record_rejected(self, tmp_path, record, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"case_id": "a", "text": "x"}) + "\n"
                        + json.dumps(record) + "\n")
        with pytest.raises(FormatError, match=rf"corpus.jsonl:2: {message}"):
            ingest(path)

    @pytest.mark.parametrize("line, message", [
        ('{"case_id": "a", "text": "first", "case_id": "b"}', "repeated key 'case_id'"),
        ('{"case_id": "c", "text": "x", "tags": [{"k": 1, "k": 2}]}', "repeated key 'k'"),
        ('{"case_id": "x\\ud800", "text": "hello"}', r"string holds a lone surrogate, U\+D800"),
        ('{"case_id": "c", "text": "x", "tags": ["t\\udfff"]}',
         r"string holds a lone surrogate, U\+DFFF"),
        ('{"case_id": "c", "text": "x", "\\udc00": 1}', r"string holds a lone surrogate, U\+DC00"),
    ], ids=["repeated-case-id", "repeated-nested-key", "surrogate-id", "surrogate-tag",
            "surrogate-key"])
    def test_line_that_json_would_half_accept_rejected(self, tmp_path, line, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"case_id": "a", "text": "x"}) + "\n" + line + "\n")
        with pytest.raises(FormatError, match=rf"corpus.jsonl:2: {message}"):
            ingest(path)

    def test_escaped_surrogate_pair_is_one_character(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"case_id": "a\\ud83d\\ude00", "text": "x"}\n')
        assert [rec.case_id for rec in ingest(path)] == ["a\U0001F600"]

    def test_empty_case_file_rejected(self, tmp_path):
        (tmp_path / "c1.txt").write_text("text of c1")
        (tmp_path / "c2.txt").write_text(" \n")
        with pytest.raises(FormatError, match=r"c2.txt: empty case text"):
            ingest(tmp_path)

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            ingest(path)

    def test_roundtrip(self, tmp_path):
        records = [CaseRecord("a", "first text", "pos", ["t1"]),
                   CaseRecord("b", "second text")]
        path = tmp_path / "out.jsonl"
        write_corpus(records, path)
        assert ingest(path) == records


def labeled_records(n_pos, n_neg):
    return (
        [CaseRecord(f"p{i}", "x", "pos") for i in range(n_pos)]
        + [CaseRecord(f"n{i}", "x", "neg") for i in range(n_neg)]
    )


class TestSplit:
    def test_balanced_ten_records(self):
        train, test = split(labeled_records(5, 5), 0.8, seed=0)
        assert len(train) == 8 and len(test) == 2
        assert sum(r.label == "pos" for r in train) == 4
        assert sum(r.label == "pos" for r in test) == 1

    def test_same_seed_reproduces(self):
        records = labeled_records(20, 12)
        a = split(records, 0.75, seed=5)
        b = split(records, 0.75, seed=5)
        assert [r.case_id for r in a[0]] == [r.case_id for r in b[0]]
        assert [r.case_id for r in a[1]] == [r.case_id for r in b[1]]

    def test_large_corpus_proportions(self):
        # 1,615 labeled records at 0.8 must give exactly 1,292 / 323
        train, test = split(labeled_records(928, 687), 0.8, seed=1)
        assert len(train) == 1292
        assert len(test) == 323
        # per class within one record of the exact share
        assert abs(sum(r.label == "pos" for r in train) - 0.8 * 928) <= 1
        assert abs(sum(r.label == "neg" for r in train) - 0.8 * 687) <= 1

    def test_stratification_never_off_by_more_than_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n_a = int(rng.integers(5, 200))
            n_b = int(rng.integers(5, 200))
            frac = float(rng.uniform(0.3, 0.9))
            train, _ = split(labeled_records(n_a, n_b), frac, seed=int(rng.integers(1e6)))
            assert abs(sum(r.label == "pos" for r in train) - frac * n_a) <= 1
            assert abs(sum(r.label == "neg" for r in train) - frac * n_b) <= 1

    def test_unlabeled_and_tiny_classes_rejected(self):
        with pytest.raises(DataError):
            split([CaseRecord("a", "x")], 0.8, seed=0)
        with pytest.raises(DataError):
            split([CaseRecord("a", "x", "pos"), CaseRecord("b", "x", "neg"),
                   CaseRecord("c", "x", "neg")], 0.8, seed=0)
        with pytest.raises(DataError):
            split(labeled_records(5, 5), 1.2, seed=0)


def scored(values):
    return [ScoredCase(case_id=f"c{i}", score=v, predicted_label="pos")
            for i, v in enumerate(values)]


class TestRank:
    def test_percentiles_by_definition(self):
        ranked = rank(scored([0.9, 0.5, 0.1]))
        assert [round(s.percentile, 2) for s in ranked] == [66.67, 33.33, 0.0]
        assert [s.score for s in ranked] == [0.9, 0.5, 0.1]

    def test_all_ties_share_percentile_zero(self):
        ranked = rank(scored([0.4, 0.4, 0.4]))
        assert all(s.percentile == 0.0 for s in ranked)
        # stable tie order: ascending case id
        assert [s.case_id for s in ranked] == ["c0", "c1", "c2"]

    def test_extremes(self):
        ranked = rank(scored([0.3, 0.8, 0.1, 0.5]))
        assert ranked[-1].percentile == 0.0
        assert ranked[0].percentile == 100.0 * 3 / 4

    def test_idempotent(self):
        once = rank(scored([0.2, 0.9, 0.9, 0.05]))
        twice = rank(once)
        assert once == twice

    def test_oracle_recount_on_random_scores(self):
        rng = np.random.default_rng(3)
        values = rng.random(1000)
        ranked = rank(scored(list(values)))
        by_id = {s.case_id: s for s in ranked}
        for i, v in enumerate(values):
            lower = sum(1 for w in values if w < v)
            assert by_id[f"c{i}"].percentile == pytest.approx(100.0 * lower / 1000, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            rank([])


class TestCountAbove:
    def test_bounds(self):
        cases = scored([0.2, 0.5, 0.8])
        assert count_above(cases, 1.0) == 0
        assert count_above(cases, 0.0) == 3
        assert count_above(cases, 0.5) == 1  # strictly above

    def test_matches_linear_recount(self):
        rng = np.random.default_rng(4)
        values = list(rng.random(1000))
        cases = scored(values)
        for threshold in rng.random(20):
            expected = 0
            for v in values:
                if v > threshold:
                    expected += 1
            assert count_above(cases, float(threshold)) == expected


class TestSampling:
    def ranked_cases(self, n=100, seed=5):
        rng = np.random.default_rng(seed)
        return rank(scored(list(rng.random(n))))

    def test_full_band_returns_everything(self):
        ranked = self.ranked_cases(20)
        out = sample_for_annotation(ranked, [(0.0, 100.0)], per_band=20, seed=0)
        assert sorted(out[(0.0, 100.0)]) == sorted(s.case_id for s in ranked)

    def test_same_seed_reproduces(self):
        ranked = self.ranked_cases()
        a = sample_for_annotation(ranked, [(90.0, 100.0)], per_band=5, seed=3)
        b = sample_for_annotation(ranked, [(90.0, 100.0)], per_band=5, seed=3)
        assert a == b

    def test_members_respect_band_bounds(self):
        ranked = self.ranked_cases()
        bands = [(90.0, 100.0), (50.0, 60.0), (0.0, 10.0)]
        out = sample_for_annotation(ranked, bands, per_band=6, seed=1)
        by_id = {s.case_id: s for s in ranked}
        for (lo, hi), ids in out.items():
            assert len(ids) == 6
            for case_id in ids:
                assert lo <= by_id[case_id].percentile < hi

    def test_underpopulated_band_rejected(self):
        ranked = self.ranked_cases(10)
        with pytest.raises(DataError):
            sample_for_annotation(ranked, [(90.0, 100.0)], per_band=5, seed=0)

    def test_overlapping_bands_rejected(self):
        ranked = self.ranked_cases()
        with pytest.raises(DataError):
            sample_for_annotation(ranked, [(10.0, 30.0), (20.0, 40.0)], per_band=1, seed=0)

    def test_unranked_cases_rejected(self):
        with pytest.raises(DataError, match="cases must be ranked before sampling"):
            sample_for_annotation(scored([0.2, 0.8]), [(0.0, 100.0)], per_band=1, seed=0)


class TestOptionRules:
    """The band and train-fraction rules that the CLI applies to its options."""

    def test_parse_bands_keeps_order(self):
        assert parse_bands(" 80:100, 0:20 ") == [(80.0, 100.0), (0.0, 20.0)]

    @pytest.mark.parametrize("text, message", [
        ("50:40", "invalid percentile band [50.0, 40.0)"),
        ("0:101", "invalid percentile band [0.0, 101.0)"),
        ("nan:5", "invalid percentile band [nan, 5.0)"),
        ("10:30,20:40", "overlapping bands [10.0, 30.0) and [20.0, 40.0)"),
    ])
    def test_parse_bands_checks_every_band(self, text, message):
        with pytest.raises(DataError) as err:
            parse_bands(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("a:b", "band 'a:b': could not convert string to float: 'a'"),
        (" , ", "no percentile bands given"),
    ], ids=["not-a-number", "no-bands"])
    def test_parse_bands_rejects_text_without_numeric_bands(self, text, message):
        with pytest.raises(UsageError) as err:
            parse_bands(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_train_fraction_outside_open_unit_interval(self, fraction):
        with pytest.raises(DataError, match=r"train fraction must be in \(0, 1\)"):
            check_train_fraction(fraction)
        records = [CaseRecord(f"c{i}", "text", label="ab"[i % 2]) for i in range(4)]
        with pytest.raises(DataError, match=r"train fraction must be in \(0, 1\)"):
            split(records, fraction, seed=0)


class TestCalibrate:
    def test_unranked_cases_rejected(self):
        with pytest.raises(DataError, match="cases must be ranked before calibration"):
            calibrate(scored([0.2, 0.8]), {"c0": True}, [(0.0, 100.0)])

    def test_all_positive_annotations(self):
        ranked = rank(scored([0.9, 0.7, 0.5, 0.3]))
        annotations = {s.case_id: True for s in ranked}
        report = calibrate(ranked, annotations, [(50.0, 100.0), (0.0, 50.0)])
        assert all(b.fraction_positive == 1.0 for b in report.bands)

    def test_threshold_for_constructed_ground_truth(self):
        # scores 0.005..0.995; positives are exactly the scores above 0.7
        values = [(i + 0.5) / 100.0 for i in range(100)]
        ranked = rank(scored(values))
        annotations = {s.case_id: s.score > 0.7 for s in ranked}
        bands = [(float(lo), float(lo + 10)) for lo in range(0, 100, 10)]
        report = calibrate(ranked, annotations, bands, target_precision=1.0)
        # the qualifying bands are exactly those entirely above 0.7
        assert report.threshold_score == pytest.approx(0.705, abs=1e-12)
        assert all(s.score > 0.7 for s in ranked if s.score >= report.threshold_score)

    def test_threshold_run_starts_at_the_top_band(self):
        """A qualifying band below a failing one does not lower the threshold."""
        ranked = rank(scored([(i + 0.5) / 100.0 for i in range(100)]))
        top = [s for s in ranked if s.percentile >= 90.0]
        middle = [s for s in ranked if 50.0 <= s.percentile < 60.0]
        annotations = {s.case_id: i < 6 for i, s in enumerate(top)}
        annotations[middle[0].case_id] = True
        report = calibrate(ranked, annotations, [(90.0, 100.0), (50.0, 60.0)],
                           target_precision=0.9)
        assert [b.fraction_positive for b in report.bands] == [0.6, 1.0]
        assert report.threshold_score is None

    def test_band_without_annotations_ends_the_run(self):
        ranked = rank(scored([(i + 0.5) / 100.0 for i in range(100)]))
        annotations = {s.case_id: True for s in ranked
                       if s.percentile >= 80.0 or s.percentile < 70.0}
        report = calibrate(ranked, annotations,
                           [(90.0, 100.0), (80.0, 90.0), (70.0, 80.0), (60.0, 70.0)],
                           target_precision=1.0)
        assert [b.fraction_positive for b in report.bands] == [1.0, 1.0, None, 1.0]
        assert report.threshold_score == pytest.approx(0.805, abs=1e-12)

    def test_band_without_annotations_is_undefined_not_zero(self):
        ranked = rank(scored([0.9, 0.1]))
        report = calibrate(ranked, {"c0": True}, [(50.0, 100.0), (0.0, 50.0)])
        top, bottom = report.bands
        assert top.fraction_positive == 1.0
        assert bottom.fraction_positive is None
        assert bottom.annotated_count == 0

    def test_non_monotone_fractions_are_reported_as_observed(self):
        ranked = rank(scored([0.9, 0.8, 0.6, 0.5, 0.3, 0.2]))
        annotations = {"c0": True, "c1": False, "c2": True, "c3": True,
                       "c4": False, "c5": False}
        report = calibrate(
            ranked, annotations,
            [(66.0, 100.0), (33.0, 66.0), (0.0, 33.0)])
        fractions = [b.fraction_positive for b in report.bands]
        assert fractions == [0.5, 1.0, 0.0]

    def test_unknown_annotation_id_rejected(self):
        ranked = rank(scored([0.9]))
        with pytest.raises(DataError):
            calibrate(ranked, {"ghost": True}, [(0.0, 100.0)])

    def test_bands_ordered_by_descending_score(self):
        ranked = rank(scored(list(np.linspace(0.01, 0.99, 40))))
        report = calibrate(ranked, {}, [(0.0, 25.0), (75.0, 100.0), (25.0, 75.0)])
        highs = [b.score_high for b in report.bands]
        assert highs == sorted(highs, reverse=True)


class TestBatchScore(object):
    def test_empty_records(self, trained):
        out, skipped = batch_score([], trained.model, trained.corpus.table,
                                   trained.stoplist, "topic_a")
        assert out == [] and skipped == []

    def test_matches_single_document_scoring_bit_exactly(self, trained):
        records = trained.test_records[:50]
        out, skipped = batch_score(records, trained.model, trained.corpus.table,
                                   trained.stoplist, "topic_a")
        assert not skipped
        by_id = {s.case_id: s.score for s in out}
        for rec in records:
            _, sub = prepare_document(rec.case_id, rec.text, trained.corpus.table,
                                      trained.stoplist, trained.model.subspace_dim)
            assert by_id[rec.case_id] == score(sub, trained.model, "topic_a")

    def test_positive_documents_score_above_half(self, trained):
        records = [r for r in trained.test_records if r.label == "topic_a"][:20]
        out, _ = batch_score(records, trained.model, trained.corpus.table,
                             trained.stoplist, "topic_a")
        assert all(s.score > 0.5 for s in out)

    def test_all_oov_record_is_skipped_and_reported(self, trained):
        records = [CaseRecord("ghost", "zzzz qqqq wwww")]
        out, skipped = batch_score(records, trained.model, trained.corpus.table,
                                   trained.stoplist, "topic_a")
        assert out == []
        assert skipped and skipped[0][0] == "ghost"

    def test_permutation_invariant_outputs(self, trained):
        records = trained.test_records[:20]
        fwd, _ = batch_score(records, trained.model, trained.corpus.table,
                             trained.stoplist, "topic_a")
        rev, _ = batch_score(records[::-1], trained.model, trained.corpus.table,
                             trained.stoplist, "topic_a")
        assert sorted((s.case_id, s.score) for s in fwd) == \
            sorted((s.case_id, s.score) for s in rev)


class TestMapRecords:
    """Only a document's own fault skips a record; any other error ends the run."""

    def test_document_fault_is_skipped(self):
        def fn(rec):
            if rec.case_id == "b":
                raise EmptyDocumentError("b")
            return rec.case_id

        results, skipped = map_records([CaseRecord("a", "x"), CaseRecord("b", "y")], fn)
        assert results == ["a"]
        assert skipped == [("b", "document 'b' has no embeddable tokens")]

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_one_summary_line_after_a_batch_with_skips(self, caplog, as_generator):
        def fn(rec):
            if rec.text == "":
                raise EmptyDocumentError(rec.case_id)
            return rec.case_id

        records = [CaseRecord("a", "x"), CaseRecord("b", ""), CaseRecord("c", "z"),
                   CaseRecord("d", "")]
        with caplog.at_level(logging.WARNING, logger="subspace_lvq.errors"):
            map_records((r for r in records) if as_generator else records, fn)
        assert [r.getMessage() for r in caplog.records] == [
            "skipping b: document 'b' has no embeddable tokens",
            "skipping d: document 'd' has no embeddable tokens",
            "skipped 2 of 4 records",
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="subspace_lvq.errors"):
            map_records(iter(records[::2]) if as_generator else records[::2], fn)
        assert caplog.records == []

    def test_plain_data_error_propagates(self):
        def fn(rec):
            raise DataError("run-level rule")

        with pytest.raises(DataError, match="run-level rule"):
            map_records([CaseRecord("a", "x"), CaseRecord("b", "y")], fn)


class TestScoredFiles:
    def test_roundtrip(self, tmp_path):
        ranked = rank(scored([0.25, 0.5, 0.75]))
        path = tmp_path / "scored.csv"
        write_scored(ranked, path)
        back = read_scored(path)
        assert back == ranked

    def rejected_at_line_3(self, tmp_path, bad_row, match):
        path = tmp_path / "scored.csv"
        path.write_text("case_id,score,percentile,predicted_label\n"
                        f"a,0.9,50,pos\n{bad_row}\nc,0.1,0,neg\n")
        with pytest.raises(FormatError, match=rf"scored.csv:3: .*{match}") as info:
            read_scored(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, value):
        self.rejected_at_line_3(tmp_path, f"b,{value},40,pos", r"score .* not a finite value")

    @pytest.mark.parametrize("value", ["7.5", "-0.25", "1.0000001"])
    def test_score_outside_unit_interval_rejected(self, tmp_path, value):
        self.rejected_at_line_3(tmp_path, f"b,{value},40,pos", r"not a finite value in \[0, 1\]")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "100.5"])
    def test_bad_percentile_rejected(self, tmp_path, value):
        self.rejected_at_line_3(tmp_path, f"b,0.5,{value},pos",
                                r"percentile .* not a finite value in \[0, 100\]")

    def test_empty_case_id_rejected(self, tmp_path):
        self.rejected_at_line_3(tmp_path, ",0.5,40,pos", "empty case id")

    def test_repeated_case_id_rejected(self, tmp_path):
        self.rejected_at_line_3(tmp_path, "a,0.9,50,pos", "repeated case id 'a'")

    def test_short_row_rejected(self, tmp_path):
        self.rejected_at_line_3(tmp_path, "b,0.5", "malformed row")

    def test_non_numeric_score_rejected(self, tmp_path):
        self.rejected_at_line_3(tmp_path, "b,high,40,pos", "malformed row: could not convert")

    @pytest.mark.parametrize("extra", [",x", ",x,y"])
    def test_row_with_extra_fields_rejected(self, tmp_path, extra):
        self.rejected_at_line_3(tmp_path, "b,0.5,40,pos" + extra, "malformed row")

    def test_error_names_the_physical_line_after_a_quoted_newline(self, tmp_path):
        path = tmp_path / "nl.csv"
        path.write_text('case_id,score,percentile,predicted_label\n'
                        '"a\nb",0.9,50,pos\nc,7,40,pos\n')
        with pytest.raises(FormatError, match=r"nl.csv:4: score '7' is not a finite value"):
            read_scored(path)

    def test_extra_header_column_rejected(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("case_id,score,percentile,predicted_label,extra\n"
                        "a,0.9,50,pos,x\nb,0.5,40,pos,x,y\n")
        with pytest.raises(FormatError, match="scored.csv: not a scored-cases file"):
            read_scored(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("case_id,probability,percentile,predicted_label\na,0.9,50,pos\n")
        with pytest.raises(FormatError, match="scored.csv: not a scored-cases file"):
            read_scored(path)

    def test_file_without_rows_rejected(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("case_id,score,percentile,predicted_label\n")
        with pytest.raises(DataError, match="scored.csv: no scored cases"):
            read_scored(path)

    def test_boundary_values_accepted(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("case_id,score,percentile,predicted_label\n"
                        "a,1,0,pos\nb,0,100,neg\nc,0.5,,pos\n")
        assert [(s.score, s.percentile) for s in read_scored(path)] == \
            [(1.0, 0.0), (0.0, 100.0), (0.5, None)]

    def test_annotations_roundtrip(self, tmp_path):
        annotations = {"a": True, "b": False}
        path = tmp_path / "ann.jsonl"
        write_annotations(annotations, path)
        assert read_annotations(path) == annotations

    def test_bad_annotation_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"case_id": "a", "positive": "yes"}\n')
        with pytest.raises(FormatError):
            read_annotations(path)

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "record is not an object"),
        ("5", "record is not an object"),
        ('{"case_id": "", "positive": true}', "missing or invalid 'case_id'"),
        ('{"case_id": "b"}', "'positive' must be a boolean"),
    ], ids=["array", "number", "empty-case-id", "no-positive"])
    def test_annotation_line_breaking_a_record_rule_names_its_line(self, tmp_path, line,
                                                                     message):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"case_id": "a", "positive": true}\n' + line + "\n")
        with pytest.raises(FormatError, match=rf"ann.jsonl:2: {message}"):
            read_annotations(path)

    @pytest.mark.parametrize("write, read, value", [
        (write_corpus, ingest, [CaseRecord("expulsión", "Wohnung geräumt", "Räumung", ["art8"])]),
        (write_annotations, read_annotations, {"expulsión": True, "Wohnung": False}),
    ], ids=["corpus", "annotations"])
    def test_non_ascii_text_is_written_raw_and_read_back(self, tmp_path, write, read, value):
        path = tmp_path / "records.jsonl"
        write(value, path)
        raw = path.read_bytes()
        assert "expulsión".encode() in raw and b"\\u" not in raw
        assert read(path) == value

    def test_repeated_annotation_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_annotations({"a": True, "b": False}, path)
        with path.open("a") as handle:
            handle.write('{"case_id": "a", "positive": false}\n')
        with pytest.raises(DataError, match="duplicate case id 'a'"):
            read_annotations(path)

    def test_repeated_annotation_names_its_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"case_id": "a", "positive": true}\n\n'
                        '{"case_id": "a", "positive": false}\n')
        with pytest.raises(DataError, match="ann.jsonl:3: duplicate case id 'a'"):
            read_annotations(path)


class TestDimensionGuards:
    def test_batch_score_rejects_mismatched_table(self, trained):
        from subspace_lvq.embedding import EmbeddingTable
        from subspace_lvq.errors import DimensionError
        small = EmbeddingTable.from_vectors(3, {"w": np.zeros(3)})
        with pytest.raises(DimensionError):
            batch_score([CaseRecord("c", "w")], trained.model, small,
                        trained.stoplist, "topic_a")
