"""Command-line wiring: subcommand flows, manifests, determinism, errors."""

import csv
import json
import logging
import shlex
from pathlib import Path

import pytest

from subspace_lvq import cli
from subspace_lvq.cli import main, parse_bands, read_config_file
from subspace_lvq.corpus import ingest, prepare_document, read_scored, split
from subspace_lvq.embedding import load_embeddings, load_stopwords
from subspace_lvq.model import classify
from subspace_lvq.model_io import load_model
from subspace_lvq.errors import UsageError


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-data + train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["synth-data", "--out", str(data), "--seed", "7",
                 "--docs-per-class", "30", "--dim", "25"]) == 0
    assert main(["train",
                 "--embeddings", str(data / "embeddings.txt"),
                 "--corpus", str(data / "corpus.jsonl"),
                 "--out", str(run),
                 "--d", "6", "--epochs", "8", "--seed", "3",
                 "--train-fraction", "0.8"]) == 0
    return {"root": root, "data": data, "run": run}


class TestTrainFlow:
    def test_artifacts_written(self, workspace):
        run = workspace["run"]
        assert (run / "model.bin").exists()
        assert (run / "training_log.csv").exists()
        assert (run / "train.jsonl").exists()
        assert (run / "test.jsonl").exists()

    def test_manifest_finalized_with_checksum(self, workspace):
        manifest = json.loads((workspace["run"] / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["command"] == "train"
        assert len(manifest["model_checksum"]) == 64
        assert manifest["config"]["seed"] == 3
        assert "started_at" in manifest and "finished_at" in manifest

    def test_manifest_counts_skipped_training_and_test_records(self, workspace, tmp_path):
        data = workspace["data"]
        lines = (data / "corpus.jsonl").read_text().splitlines()
        labels = sorted({json.loads(line)["label"] for line in lines})
        planted = [json.dumps({"case_id": f"oov{i}", "text": "zzqq xxyy", "label": labels[i % 2]})
                   for i in range(10)]   # every word out of the table's vocabulary
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines + planted) + "\n")
        expected = tuple(sum(rec.case_id.startswith("oov") for rec in part)
                         for part in split(ingest(corpus), 0.8, 4))
        assert min(expected) >= 1 and sum(expected) == 10
        manifests = []
        for name, extra in (("split", ["--train-fraction", "0.8"]), ("all", [])):
            out = tmp_path / name
            assert main(["train", "--embeddings", str(data / "embeddings.txt"),
                         "--corpus", str(corpus), "--out", str(out),
                         "--d", "6", "--epochs", "1", "--seed", "4"] + extra) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert (manifests[0]["skipped"], manifests[0]["test_skipped"]) == expected
        assert manifests[1]["skipped"] == 10 and "test_skipped" not in manifests[1]

    def test_training_log_has_epoch_zero(self, workspace):
        with (workspace["run"] / "training_log.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["epoch", "mean_cost", "train_accuracy"]
        assert rows[1][0] == "0"
        assert len(rows) == 10  # header + epochs 0..8

    def test_evaluate_prints_accuracy(self, workspace, capsys):
        data, run = workspace["data"], workspace["run"]
        assert main(["evaluate",
                     "--model", str(run / "model.bin"),
                     "--corpus", str(run / "test.jsonl"),
                     "--embeddings", str(data / "embeddings.txt")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")
        accuracy = float(out.splitlines()[0].split()[1])
        assert 0.0 <= accuracy <= 1.0

    def test_identical_runs_produce_identical_bytes(self, workspace, tmp_path):
        data = workspace["data"]
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train",
                         "--embeddings", str(data / "embeddings.txt"),
                         "--corpus", str(data / "corpus.jsonl"),
                         "--out", str(out),
                         "--d", "6", "--epochs", "3", "--seed", "11",
                         "--train-fraction", "0.8"]) == 0
            outs.append(out)
        assert (outs[0] / "model.bin").read_bytes() == (outs[1] / "model.bin").read_bytes()
        assert (outs[0] / "training_log.csv").read_bytes() == \
            (outs[1] / "training_log.csv").read_bytes()


class TestScoringFlow:
    def test_score_corpus_and_rank(self, workspace, tmp_path, capsys):
        data, run = workspace["data"], workspace["run"]
        scored_dir = tmp_path / "scored"
        assert main(["score-corpus",
                     "--model", str(run / "model.bin"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--embeddings", str(data / "embeddings.txt"),
                     "--positive-label", "topic_a",
                     "--threshold", "0.5",
                     "--out", str(scored_dir)]) == 0
        out = capsys.readouterr().out
        assert "above_threshold" in out
        scored = read_scored(scored_dir / "scored.csv")
        assert len(scored) == 60
        assert all(s.percentile is not None for s in scored)
        # ranked descending
        values = [s.score for s in scored]
        assert values == sorted(values, reverse=True)

    def test_document_of_zero_vectors_is_skipped(self, workspace, tmp_path):
        data = workspace["data"]
        table = (data / "embeddings.txt").read_text()
        dim = len(table.split("\n", 1)[0].split()) - 1
        embeddings = tmp_path / "embeddings.txt"
        embeddings.write_text(table + "nullword" + " 0.0" * dim + "\n")
        corpus = tmp_path / "corpus.jsonl"
        kept = (data / "corpus.jsonl").read_text().splitlines()[:3]
        corpus.write_text("\n".join(kept) + "\n"
                          + json.dumps({"case_id": "z1", "text": "nullword nullword"}) + "\n")
        out = tmp_path / "scored"
        assert main(["score-corpus", "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(corpus), "--embeddings", str(embeddings),
                     "--positive-label", "topic_a", "--out", str(out)]) == 0
        with (out / "skipped.csv").open() as handle:
            assert list(csv.reader(handle)) == [["case_id", "reason"],
                                                ["z1", "document 'z1': zero word matrix"]]
        assert len(read_scored(out / "scored.csv")) == 3

    def test_document_of_stop_words_is_skipped(self, workspace, tmp_path):
        data = workspace["data"]
        corpus = tmp_path / "corpus.jsonl"
        kept = (data / "corpus.jsonl").read_text().splitlines()[:3]
        corpus.write_text("\n".join(kept) + "\n"
                          + json.dumps({"case_id": "s1", "text": "The and of the"}) + "\n")
        out = tmp_path / "scored"
        assert main(["score-corpus", "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(corpus), "--embeddings", str(data / "embeddings.txt"),
                     "--positive-label", "topic_a", "--out", str(out)]) == 0
        with (out / "skipped.csv").open() as handle:
            assert list(csv.reader(handle)) == [
                ["case_id", "reason"], ["s1", "document 's1' is empty after preprocessing"]]
        assert len(read_scored(out / "scored.csv")) == 3

    def test_rank_three_case_file(self, tmp_path, capsys):
        path = tmp_path / "scored.csv"
        path.write_text(
            "case_id,score,percentile,predicted_label\n"
            "x,0.5,,p\n"
            "y,0.9,,p\n"
            "z,0.1,,n\n")
        assert main(["rank", "--scored", str(path)]) == 0
        rows = [line.split(",") for line in
                capsys.readouterr().out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["y", "x", "z"]
        percentiles = [float(r[2]) for r in rows]
        assert percentiles == pytest.approx([200 / 3, 100 / 3, 0.0])

    def test_rank_stdout_matches_ranked_file(self, tmp_path, capsys):
        path = tmp_path / "scored.csv"
        path.write_text("case_id,score,percentile,predicted_label\n"
                        "x,0.5,,p\ny,0.90000000000000002,,p\nz,0.5,,n\nw,0.1,17,n\n")
        assert main(["rank", "--scored", str(path)]) == 0
        printed = capsys.readouterr().out
        assert main(["rank", "--scored", str(path), "--out", str(tmp_path / "r")]) == 0
        assert printed.encode("utf-8") == (tmp_path / "r" / "ranked.csv").read_bytes()

    def test_sample_and_calibrate(self, workspace, tmp_path, capsys):
        data, run = workspace["data"], workspace["run"]
        scored_dir = tmp_path / "scored"
        assert main(["score-corpus",
                     "--model", str(run / "model.bin"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--embeddings", str(data / "embeddings.txt"),
                     "--positive-label", "topic_a",
                     "--out", str(scored_dir)]) == 0
        sample_dir = tmp_path / "sample"
        assert main(["sample", "--scored", str(scored_dir / "scored.csv"),
                     "--bands", "80:100,0:20", "--per-band", "4",
                     "--seed", "5", "--out", str(sample_dir)]) == 0
        with (sample_dir / "sample.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 8

        annotations = tmp_path / "ann.jsonl"
        scored = read_scored(scored_dir / "scored.csv")
        with annotations.open("w") as handle:
            for s in scored:
                handle.write(json.dumps(
                    {"case_id": s.case_id, "positive": s.score > 0.5}) + "\n")
        cal_dir = tmp_path / "cal"
        capsys.readouterr()
        assert main(["calibrate", "--scored", str(scored_dir / "scored.csv"),
                     "--annotations", str(annotations),
                     "--bands", "50:100,0:50", "--target-precision", "1.0",
                     "--out", str(cal_dir)]) == 0
        out = capsys.readouterr().out
        assert "threshold_score" in out
        report = json.loads((cal_dir / "calibration.json").read_text())
        assert report["bands"][0]["fraction_positive"] == 1.0

    def test_explain_and_predict(self, workspace, tmp_path):
        data, run = workspace["data"], workspace["run"]
        exp_dir = tmp_path / "exp"
        assert main(["explain", "--model", str(run / "model.bin"),
                     "--corpus", str(run / "test.jsonl"),
                     "--embeddings", str(data / "embeddings.txt"),
                     "--top-k", "5", "--out", str(exp_dir)]) == 0
        lines = (exp_dir / "explanations.jsonl").read_text().strip().splitlines()
        record = json.loads(lines[0])
        assert set(record) == {"doc_id", "predicted_label", "runner_up_label",
                               "score", "top_k", "impacts"}
        assert len(record["impacts"]) <= 5

        pred_dir = tmp_path / "pred"
        assert main(["predict", "--model", str(run / "model.bin"),
                     "--corpus", str(run / "test.jsonl"),
                     "--embeddings", str(data / "embeddings.txt"),
                     "--out", str(pred_dir)]) == 0
        with (pred_dir / "predictions.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["case_id", "predicted_label"]
        assert len(rows) > 1

    def test_predict_lists_every_prototype_distance_in_stack_order(self, workspace, tmp_path):
        data, run = workspace["data"], workspace["run"]
        emb = str(data / "embeddings.txt")
        assert main(["train", "--embeddings", emb, "--corpus", str(run / "train.jsonl"),
                     "--out", str(tmp_path / "train"), "--d", "6", "--epochs", "2",
                     "--seed", "3", "--per-class", "2"]) == 0
        model_path = tmp_path / "train" / "model.bin"
        assert main(["predict", "--model", str(model_path), "--corpus", str(run / "test.jsonl"),
                     "--embeddings", emb, "--out", str(tmp_path / "pred")]) == 0
        with (tmp_path / "pred" / "predictions.csv").open() as handle:
            header, *rows = list(csv.reader(handle))

        model = load_model(model_path)
        assert model.prototype_labels == ("topic_a", "topic_a", "topic_b", "topic_b")
        assert header == ["case_id", "predicted_label", "dist_0_topic_a", "dist_1_topic_a",
                          "dist_2_topic_b", "dist_3_topic_b"]
        table, stoplist = load_embeddings(emb), load_stopwords()
        records = {rec.case_id: rec for rec in ingest(run / "test.jsonl")}
        assert [row[0] for row in rows] == list(records)
        for case_id, predicted, *dists in rows:
            _, sub = prepare_document(case_id, records[case_id].text, table, stoplist,
                                      model.subspace_dim)
            label, expected = classify(sub, model)
            assert predicted == label
            assert dists == [format(v, ".17g") for v in expected]


class TestGradCheckCommand:
    def test_passes_and_prints_error(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "max_relative_error" in out
        assert "grad_check PASS" in out

    def test_error_above_tolerance_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_gradient_checks", lambda base_seed: ([], 1.0, 0.0))
        assert main(["grad-check"]) == 1
        assert "grad_check FAIL (tolerance 1e-05)" in capsys.readouterr().out


def assert_config_failure(out, message):
    """The manifest a run leaves when its config file cannot be read; returned for more checks."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]["category"] == "usage"
    assert manifest["error"]["message"].startswith(message)
    assert manifest["outputs"] == []
    return manifest


class TestConfigAndErrors:
    def test_config_file_supplies_options_and_flags_win(self, tmp_path, workspace):
        data = workspace["data"]
        config = tmp_path / "run.conf"
        config.write_text(
            "# training configuration\n"
            f"embeddings = {data / 'embeddings.txt'}\n"
            f"corpus = {data / 'corpus.jsonl'}\n"
            "d = 6\n"
            "epochs = 2\n"
            "seed = 21\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--epochs", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1   # flag beats file
        assert manifest["config"]["seed"] == 21    # file beats default

    def test_config_value_outside_choices_is_usage_error(self, tmp_path, workspace, capsys):
        data = workspace["data"]
        config = tmp_path / "run.conf"
        config.write_text("distance = cosine\n")
        code = main(["train", "--config", str(config), "--seed", "1",
                     "--embeddings", str(data / "embeddings.txt"),
                     "--corpus", str(data / "corpus.jsonl"), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "cosine" in err

    def test_config_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"seed = 1\n# caf\xe9\n")
        out = tmp_path / "out"
        code = main(["synth-data", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: cannot read config file {config}: ")
        assert_config_failure(out, f"cannot read config file {config}: ")

    def test_config_line_without_equals_leaves_failed_manifest(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("seed 1\n")
        scored = tmp_path / "s.csv"
        scored.write_text("case_id,score,percentile,count_above\n")
        out = tmp_path / "out"
        code = main(["rank", "--scored", str(scored), "--out", str(out),
                     "--config", str(config)])
        assert code == 1
        message = f"{config}:1: expected 'key = value'"
        assert capsys.readouterr().err == f"error: usage: {message}\n"
        manifest = assert_config_failure(out, message)
        assert manifest["config"]["scored"] == str(scored)   # flags still resolve

    def test_missing_config_file_leaves_failed_manifest(self, tmp_path, capsys):
        config = tmp_path / "missing.conf"
        out = tmp_path / "out"
        code = main(["synth-data", "--config", str(config), "--seed", "3", "--out", str(out)])
        assert code == 1
        message = f"cannot read config file {config}: "
        assert capsys.readouterr().err.startswith(f"error: usage: {message}")
        manifest = assert_config_failure(out, message)
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["dim"] == cli._FLAGS["dim"].default

    def test_out_set_only_in_an_unreadable_config_leaves_no_manifest(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text(f"out = {tmp_path / 'out'}\nseed 1\n")
        assert main(["synth-data", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: usage: {config}:2: expected 'key = value'\n"
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("nonsense = 1\n")
        with pytest.raises(UsageError):
            read_config_file(config)

    def test_config_line_without_equals(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("# comment\nseed 1\n")
        with pytest.raises(UsageError, match="bad.conf:2: expected 'key = value'"):
            read_config_file(config)

    def test_config_key_set_twice(self, tmp_path):
        config = tmp_path / "twice.conf"
        config.write_text("seed = 1\nepochs = 3\nseed = 2\n")
        with pytest.raises(UsageError, match="twice.conf:3: config key 'seed' is set twice"):
            read_config_file(config)

    def test_missing_seed_is_usage_error(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        code = main(["train", "--embeddings", str(data / "embeddings.txt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: usage:" in capsys.readouterr().err

    def test_missing_file_reports_category(self, tmp_path, capsys):
        code = main(["evaluate", "--model", str(tmp_path / "nope.bin"),
                     "--corpus", "whatever", "--embeddings", "whatever"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: format:")

    def test_parse_bands(self):
        assert parse_bands("87:88,88:89") == [(87.0, 88.0), (88.0, 89.0)]
        with pytest.raises(UsageError):
            parse_bands("87-88")


class TestDimensionMismatch:
    def test_evaluate_reports_dimension_category(self, workspace, tmp_path, capsys):
        run = workspace["run"]
        bad = tmp_path / "bad_emb.txt"
        bad.write_text("word 1.0 2.0 3.0\n")
        code = main(["evaluate", "--model", str(run / "model.bin"),
                     "--corpus", str(run / "test.jsonl"),
                     "--embeddings", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: dimension:")

    @pytest.mark.parametrize("command, extra", [
        ("predict", []),
        ("explain", []),
        ("score-corpus", ["--positive-label", "topic_a"]),
    ], ids=["predict", "explain", "score-corpus"])
    def test_model_command_leaves_failed_manifest(self, command, extra, workspace, tmp_path,
                                                  capsys):
        bad = tmp_path / "bad_emb.txt"
        bad.write_text("word 1.0 2.0 3.0\n")
        out = tmp_path / "out"
        code = main([command, "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(workspace["run"] / "test.jsonl"),
                     "--embeddings", str(bad), "--out", str(out)] + extra)
        assert code == 1
        message = f"{bad}: embedding dimension 3 does not match expected 25"
        assert capsys.readouterr().err == f"error: dimension: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"category": "dimension", "message": message}
        assert manifest["outputs"] == []


class TestFailedRuns:
    def test_score_corpus_that_scores_nothing_keeps_its_skip_list(self, workspace, tmp_path,
                                                                  capsys):
        corpus = tmp_path / "oov.jsonl"
        corpus.write_text(json.dumps({"case_id": "o1", "text": "qzxv wqrt"}) + "\n"
                          + json.dumps({"case_id": "o2", "text": "zzkq"}) + "\n")
        out = tmp_path / "scored"
        code = main(["score-corpus", "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(corpus),
                     "--embeddings", str(workspace["data"] / "embeddings.txt"),
                     "--positive-label", "topic_a", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: data: nothing to rank\n"
        with (out / "skipped.csv").open() as handle:
            assert list(csv.reader(handle)) == [
                ["case_id", "reason"],
                ["o1", "document 'o1' has no embeddable tokens"],
                ["o2", "document 'o2' has no embeddable tokens"]]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["skipped"] == 2
        assert "scored" not in manifest
        assert manifest["outputs"] == [str(out / "skipped.csv")]
        assert not (out / "scored.csv").exists()

    def test_evaluate_on_an_unlabeled_record(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "unlabeled.jsonl"
        corpus.write_text((workspace["run"] / "test.jsonl").read_text()
                          + json.dumps({"case_id": "u1", "text": "shared001 shared002"}) + "\n")
        code = main(["evaluate", "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(corpus),
                     "--embeddings", str(workspace["data"] / "embeddings.txt")])
        assert code == 1
        assert capsys.readouterr().err == "error: data: record 'u1' lacks a label\n"

    def test_format_error_finalizes_manifest_as_failed(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad_emb.txt"
        bad.write_text("word 1.0 oops\n")
        out = tmp_path / "run"
        code = main(["train", "--embeddings", str(bad),
                     "--corpus", str(workspace["data"] / "corpus.jsonl"),
                     "--out", str(out), "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: format:")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["category"] == "format"
        assert "malformed float" in manifest["error"]["message"]
        assert "finished_at" in manifest

    def test_corpus_that_is_not_utf8_is_a_format_error(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"case_id": "c1", "text": "caf\xe9"}\n')
        out = tmp_path / "scored"
        code = main(["score-corpus", "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(corpus),
                     "--embeddings", str(workspace["data"] / "embeddings.txt"),
                     "--positive-label", "topic_a", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: format: {corpus}: not UTF-8 text: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["category"] == "format"
        assert manifest["outputs"] == []

    def test_out_that_names_a_file_is_usage_error(self, tmp_path, capsys):
        scored = tmp_path / "scored.csv"
        scored.write_text("case_id,score,percentile,predicted_label\nx,0.5,,p\n")
        out = tmp_path / "outfile"
        out.write_text("not a directory\n")
        assert main(["rank", "--scored", str(scored), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: cannot create output directory {out}: ")
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, extra", [
        ("sample", ["--seed", "1"]),
        ("calibrate", ["--annotations", "missing.jsonl"]),   # never read
    ])
    def test_bad_band_is_reported_before_input_is_read(self, command, extra, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        code = main([command, "--scored", str(tmp_path / "missing.csv"), "--bands", "5",
                     "--out", str(out)] + extra)
        assert code == 1
        message = "band '5' is not of the form lo:hi"
        assert capsys.readouterr().err == f"error: usage: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"category": "usage", "message": message}

    def test_unwritable_final_manifest_is_a_warning(self, tmp_path, monkeypatch, caplog,
                                                    capsys):
        write_json = cli._write_json

        def refuse_failed(obj, path, sort_keys=True):
            if obj["status"] == "failed":
                raise OSError("disk full")
            write_json(obj, path, sort_keys)

        monkeypatch.setattr(cli, "_write_json", refuse_failed)
        scored, out = tmp_path / "missing.csv", tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="subspace_lvq.cli"):
            assert main(["rank", "--scored", str(scored), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: format: {scored}: cannot read scored file: ")
        assert [r.getMessage() for r in caplog.records] == [
            f"cannot finalize {out}/manifest.json: disk full"]
        assert json.loads((out / "manifest.json").read_text())["status"] == "running"

    def test_interrupt_finalizes_manifest_and_propagates(self, workspace, tmp_path,
                                                         monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "batch_score", interrupted)
        out = tmp_path / "scored"
        with pytest.raises(KeyboardInterrupt):
            main(["score-corpus", "--model", str(workspace["run"] / "model.bin"),
                  "--corpus", str(workspace["data"] / "corpus.jsonl"),
                  "--embeddings", str(workspace["data"] / "embeddings.txt"),
                  "--positive-label", "topic_a", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["category"] == "interrupted"
        assert "finished_at" in manifest


    # command -> (arguments after the command, error category)
    FAILING = {
        "synth-data": ([], "usage"),   # no --seed
        "train": (["--embeddings", "{tmp}/bad_emb.txt", "--corpus", "{data}/corpus.jsonl",
                   "--seed", "1"], "format"),
        "evaluate": (["--model", "{model}", "--corpus", "{tmp}/oov.jsonl",
                      "--embeddings", "{data}/embeddings.txt"], "data"),
        "predict": (["--model", "{tmp}/missing.bin", "--corpus", "{data}/corpus.jsonl",
                     "--embeddings", "{data}/embeddings.txt"], "format"),
        "explain": (["--model", "{model}", "--corpus", "{data}/corpus.jsonl",
                     "--embeddings", "{tmp}/bad_emb.txt"], "format"),
        "score-corpus": (["--model", "{model}", "--corpus", "{data}/corpus.jsonl",
                          "--embeddings", "{tmp}/bad_emb.txt", "--positive-label", "topic_a"],
                         "format"),
        "rank": (["--scored", "{tmp}/bad_scored.csv"], "format"),
        "sample": (["--scored", "{tmp}/bad_scored.csv", "--bands", "0:50", "--seed", "1"],
                   "format"),
        "calibrate": (["--scored", "{tmp}/scored.csv", "--annotations", "{tmp}/bad_ann.jsonl",
                       "--bands", "0:50"], "format"),
    }

    def test_every_command_with_out_is_covered(self):
        takes_out = [c for c, entry in cli._COMMANDS.items() if "out" in entry[2]]
        assert sorted(self.FAILING) == sorted(takes_out)

    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_bad_input_leaves_failed_manifest(self, command, workspace, tmp_path, capsys):
        (tmp_path / "bad_emb.txt").write_text("word 1.0 oops\n")
        (tmp_path / "oov.jsonl").write_text(
            json.dumps({"case_id": "c1", "text": "zzzq", "label": "topic_a"}) + "\n")
        (tmp_path / "scored.csv").write_text("case_id,score,percentile,predicted_label\n"
                                             "x,0.5,,p\ny,0.9,,p\n")
        (tmp_path / "bad_scored.csv").write_text("case_id,score,percentile,predicted_label\n"
                                                 "x,1.5,,p\n")
        (tmp_path / "bad_ann.jsonl").write_text('{"case_id": "x"}\n')
        places = {"data": workspace["data"], "model": workspace["run"] / "model.bin",
                  "tmp": tmp_path}
        args, category = self.FAILING[command]
        out = tmp_path / "out"
        code = main([command] + [a.format(**places) for a in args] + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {category}:")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["status"] == "failed"
        assert manifest["error"]["category"] == category
        assert manifest["outputs"] == []
        assert "finished_at" in manifest


class TestPositiveIntFlags:
    """A count below 1 fails the run as a usage error before any input is read."""

    @pytest.mark.parametrize("command, argv, config, named", [
        ("explain", ["--top-k", "0"], "", "--top-k 0"),
        ("explain", [], "top_k = 0\n", "top_k = '0'"),
        ("sample", ["--per-band", "-1"], "", "--per-band -1"),
        ("sample", ["--per-band", "0"], "", "--per-band 0"),
        ("sample", [], "per_band = -3\n", "per_band = '-3'"),
        ("synth-data", ["--dim", "0"], "", "--dim 0"),
        ("synth-data", ["--docs-per-class", "0"], "", "--docs-per-class 0"),
        ("synth-data", ["--docs-per-class", "-1"], "", "--docs-per-class -1"),
    ], ids=["explain-flag", "explain-config", "sample-flag-negative", "sample-flag-zero",
            "sample-config", "synth-dim-zero", "synth-docs-zero", "synth-docs-negative"])
    def test_below_one_is_usage_error(self, command, argv, config, named, tmp_path, capsys):
        missing = str(tmp_path / "missing")   # reading any input would be a format error
        inputs = {"explain": ["--model", missing, "--corpus", missing, "--embeddings", missing],
                  "sample": ["--scored", missing, "--bands", "0:50", "--seed", "1"],
                  "synth-data": ["--seed", "1"]}
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        out = tmp_path / "out"
        code = main([command, "--config", str(conf)] + inputs[command] + argv
                    + ["--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and named in err
        assert "must be a positive integer" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["category"] == "usage"
        assert manifest["outputs"] == []
        # every value but the rejected one stays on record
        rejected = named.split()[0].lstrip("-").replace("-", "_")
        names = cli._COMMANDS[command][2]
        assert set(manifest["config"]) == set(names) - {rejected}
        assert manifest["config"]["out"] == str(out)


class TestTrainOptions:
    """A bad training option ends the run before any input is read."""

    @pytest.mark.parametrize("flag, value, category, message", [
        ("--per-class", "0", "data", "prototypes_per_class must be positive"),
        ("--beta", "0", "data", "beta must be positive"),
        ("--lr-w", "0", "data", "prototype learning rate must be positive"),
        ("--lr-lambda", "-1", "data", "relevance learning rate must be nonnegative"),
        ("--epochs", "-1", "data", "epochs must be nonnegative"),
        ("--d", "0", "dimension", "subspace_dim must be positive"),
    ])
    def test_rejected_with_missing_inputs(self, flag, value, category, message, tmp_path,
                                          capsys):
        missing = str(tmp_path / "missing")
        out = tmp_path / "out"
        code = main(["train", "--embeddings", missing, "--corpus", missing, "--seed", "1",
                     flag, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {category}: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"category": category, "message": message}
        assert manifest["outputs"] == []
        names = cli._COMMANDS["train"][2]
        assert set(manifest["config"]) == set(names)
        assert manifest["config"][flag[2:].replace("-", "_")] == float(value)
        assert manifest["config"]["corpus"] == missing

    def test_d_above_table_dimension(self, workspace, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        out = tmp_path / "out"
        code = main(["train", "--embeddings", str(workspace["data"] / "embeddings.txt"),
                     "--corpus", missing, "--seed", "1", "--d", "26", "--out", str(out)])
        assert code == 1
        message = "subspace dimension 26 exceeds embedding dimension 25"
        assert capsys.readouterr().err == f"error: dimension: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"category": "dimension", "message": message}
        assert manifest["outputs"] == []

    def test_d_equal_to_table_dimension(self, workspace, tmp_path, capsys):
        """A d = D prototype spans the whole space and would train a chance-level model."""
        data, out = workspace["data"], tmp_path / "out"
        code = main(["train", "--embeddings", str(data / "embeddings.txt"),
                     "--corpus", str(data / "corpus.jsonl"), "--seed", "1", "--d", "25",
                     "--epochs", "1", "--out", str(out)])
        assert code == 1
        message = ("subspace dimension 25 equals embedding dimension 25, so every prototype "
                   "spans the whole space; lower --d below 25")
        assert capsys.readouterr().err == f"error: dimension: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"category": "dimension", "message": message}
        assert manifest["outputs"] == []
        assert list(out.iterdir()) == [out / "manifest.json"]


class TestPositiveLabel:
    """An unknown positive label fails the whole run, not each record."""

    def assert_failed_on_label(self, code, out, capsys):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "'zzz'" in err
        assert "skipping" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["category"] == "data"
        assert "'zzz'" in manifest["error"]["message"]

    def test_score_corpus_unknown_label(self, workspace, tmp_path, capsys):
        data, out = workspace["data"], tmp_path / "scored"
        code = main(["score-corpus", "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--embeddings", str(data / "embeddings.txt"),
                     "--positive-label", "zzz", "--out", str(out)])
        self.assert_failed_on_label(code, out, capsys)

    def test_explain_unknown_label(self, workspace, tmp_path, capsys):
        data, out = workspace["data"], tmp_path / "exp"
        code = main(["explain", "--model", str(workspace["run"] / "model.bin"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--embeddings", str(data / "embeddings.txt"),
                     "--positive-label", "zzz", "--out", str(out)])
        self.assert_failed_on_label(code, out, capsys)


class TestSubcommandFlags:
    """Each subcommand takes its own flags; its manifest snapshots exactly those."""

    INPUTS = ["model", "corpus", "embeddings", "stopwords", "out"]
    EXPECTED = {
        "synth-data": ["seed", "docs_per_class", "dim", "out"],
        "train": ["embeddings", "stopwords", "corpus", "out", "d", "beta", "distance",
                  "epochs", "lr_w", "lr_lambda", "per_class", "seed", "train_fraction"],
        "evaluate": INPUTS,
        "predict": INPUTS,
        "explain": INPUTS + ["top_k", "positive_label"],
        "score-corpus": INPUTS + ["positive_label", "threshold"],
        "rank": ["scored", "out"],
        "sample": ["scored", "bands", "per_band", "seed", "out"],
        "calibrate": ["scored", "annotations", "bands", "target_precision", "out"],
    }

    @pytest.mark.parametrize("argv", [["rank", "--epochs", "5"], ["explain", "--seed", "1"]])
    def test_foreign_flag_is_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def config_of(self, out):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        return manifest["config"]

    def test_manifest_config_keys(self, workspace, tmp_path):
        data, run = workspace["data"], workspace["run"]
        seen = {"synth-data": self.config_of(data), "train": self.config_of(run)}
        inputs = ["--model", str(run / "model.bin"), "--corpus", str(run / "test.jsonl"),
                  "--embeddings", str(data / "embeddings.txt")]
        scored = tmp_path / "score-corpus" / "scored.csv"
        annotations = tmp_path / "ann.jsonl"
        commands = {
            "score-corpus": inputs + ["--positive-label", "topic_a"],
            "evaluate": inputs,
            "predict": inputs,
            "explain": inputs + ["--top-k", "3"],
            "rank": ["--scored", str(scored)],
            "sample": ["--scored", str(scored), "--bands", "0:50", "--per-band", "2",
                       "--seed", "1"],
            "calibrate": ["--scored", str(scored), "--annotations", str(annotations),
                          "--bands", "0:50,50:100"],
        }
        for command, argv in commands.items():
            out = tmp_path / command
            assert main([command] + argv + ["--out", str(out)]) == 0
            seen[command] = self.config_of(out)
            if command == "score-corpus":
                annotations.write_text("".join(
                    json.dumps({"case_id": s.case_id, "positive": s.score > 0.5}) + "\n"
                    for s in read_scored(scored)))
        assert {c: sorted(cfg) for c, cfg in seen.items()} == \
            {c: sorted(keys) for c, keys in self.EXPECTED.items()}
        assert [len(self.EXPECTED[c]) for c in ("train", "score-corpus", "explain", "sample",
                                                "calibrate", "predict", "evaluate", "rank",
                                                "synth-data")] == [13, 7, 7, 5, 5, 5, 5, 2, 4]

    def test_config_file_may_hold_other_commands_keys(self, tmp_path, capsys):
        path = tmp_path / "scored.csv"
        path.write_text("case_id,score,percentile,predicted_label\nx,0.5,,p\ny,0.9,,p\n")
        config = tmp_path / "shared.conf"
        config.write_text("epochs = 5\nseed = 1\ntop_k = 3\n"
                          f"scored = {path}\n")
        out = tmp_path / "ranked"
        assert main(["rank", "--config", str(config), "--out", str(out)]) == 0
        assert self.config_of(out) == {"scored": str(path), "out": str(out)}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_shows_every_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    names = cli._COMMANDS[command][2]
    for name in names:
        flag = cli._FLAGS[name]
        if flag.default is not None:
            assert f"{flag.help} (default {flag.default})" in text, name
    for name in cli._COMMANDS[command][3]:
        assert f"{cli._FLAGS[name].help} (required)" in text, name


class TestOptionsResolvedFirst:
    """Every option is resolved and checked before any input is read.

    The embedding table given is real and every other input path is
    missing, so reading any input would fail with a different error, and
    loading the table would write its ``.slvq-cache``.
    """

    VALUES = {"seed": "1", "positive_label": "topic_a", "bands": "0:50"}
    REQUIRED = [(command, name) for command, entry in sorted(cli._COMMANDS.items())
                for name in entry[3]]

    def argv(self, command, tmp_path, omit=None):
        table = tmp_path / "table.txt"
        table.write_text("alpha 1.0 0.0\nbeta 0.0 1.0\n")
        values = {**self.VALUES, "embeddings": str(table), "out": str(tmp_path / "out")}
        _, _, names, required = cli._COMMANDS[command]
        argv = [command]
        for name in [n for n in names if n in required or n == "out"]:
            if name != omit:
                argv += ["--" + name.replace("_", "-"),
                         values.get(name, str(tmp_path / f"missing-{name}"))]
        return argv

    def assert_failed_early(self, tmp_path, capsys, category, message):
        assert capsys.readouterr().err == f"error: {category}: {message}\n"
        assert not list(tmp_path.glob("*.slvq-cache"))
        out = tmp_path / "out"
        if not out.exists():
            return None
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=lambda name: pytest.fail(name))
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"category": category, "message": message}
        assert manifest["outputs"] == []
        return manifest["config"]

    def test_table_is_consistent(self):
        for command, entry in cli._COMMANDS.items():
            assert len(entry) == 4, command
            _, _, names, required = entry
            assert set(required) <= set(names), command
            for name in required:
                assert cli._FLAGS[name].default is None, (command, name)

    @pytest.mark.parametrize("command, missing", REQUIRED,
                             ids=[f"{c}-{n}" for c, n in REQUIRED])
    def test_missing_required_flag(self, command, missing, tmp_path, capsys):
        assert main(self.argv(command, tmp_path, omit=missing)) == 1
        flag = "--" + missing.replace("_", "-")
        config = self.assert_failed_early(tmp_path, capsys, "usage",
                                          f"missing required option {flag}")
        if missing == "out":
            assert config is None
        else:
            assert config[missing] is None
            assert set(config) == set(cli._COMMANDS[command][2])

    @pytest.mark.parametrize("command, argv, category, message", [
        ("train", ["--train-fraction", "1.5"], "data",
         "train fraction must be in (0, 1), got 1.5"),
        ("sample", ["--bands", "50:40"], "data", "invalid percentile band [50.0, 40.0)"),
        ("calibrate", ["--bands", "0:50,40:60"], "data",
         "overlapping bands [0.0, 50.0) and [40.0, 60.0)"),
        ("calibrate", ["--target-precision", "7"], "usage",
         "--target-precision 7.0: must be in [0, 1]"),
    ], ids=["train-fraction", "inverted-band", "overlapping-bands", "target-precision"])
    def test_rule_of_a_value(self, command, argv, category, message, tmp_path, capsys):
        assert main(self.argv(command, tmp_path) + argv) == 1
        config = self.assert_failed_early(tmp_path, capsys, category, message)
        rejected = argv[0][2:].replace("-", "_")
        assert set(config) == set(cli._COMMANDS[command][2]) - {rejected}

    @pytest.mark.parametrize("command, flag", [
        ("train", "--beta"), ("train", "--lr-w"), ("train", "--lr-lambda"),
        ("train", "--train-fraction"), ("score-corpus", "--threshold"),
        ("calibrate", "--target-precision"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag(self, command, flag, value, tmp_path, capsys):
        assert main(self.argv(command, tmp_path) + [f"{flag}={value}"]) == 1
        config = self.assert_failed_early(tmp_path, capsys, "usage",
                                          f"{flag} {float(value)!r}: must be a finite number")
        assert set(config) == set(cli._COMMANDS[command][2]) - {flag[2:].replace("-", "_")}

    @pytest.mark.parametrize("command", ["synth-data", "train", "sample", "grad-check"])
    def test_negative_seed(self, command, tmp_path, capsys):
        assert main(self.argv(command, tmp_path) + ["--seed", "-1"]) == 1
        config = self.assert_failed_early(tmp_path, capsys, "usage",
                                          "--seed -1: must be a non-negative integer")
        if command != "grad-check":
            assert set(config) == set(cli._COMMANDS[command][2]) - {"seed"}

    @pytest.mark.parametrize("argv, seed", [([], 20240), (["--seed", "0"], 0)])
    def test_grad_check_seed(self, argv, seed, monkeypatch, capsys):
        seeds = []

        def checks(base_seed):
            seeds.append(base_seed)
            return [], 0.0, 0.0

        monkeypatch.setattr(cli, "run_gradient_checks", checks)
        assert main(["grad-check", *argv]) == 0
        assert seeds == [seed]

    def test_non_finite_config_value(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("beta = nan\n")
        assert main(self.argv("train", tmp_path) + ["--config", str(conf)]) == 1
        self.assert_failed_early(tmp_path, capsys, "usage",
                                 "config value beta = 'nan': must be a finite number")

    def test_manifest_records_parsed_bands(self, tmp_path, capsys):
        assert main(self.argv("sample", tmp_path) + ["--bands", "80:100, 0:20"]) == 1
        message = f"{tmp_path / 'missing-scored'}: cannot read scored file: "
        assert capsys.readouterr().err.startswith(f"error: format: {message}")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["bands"] == [[80.0, 100.0], [0.0, 20.0]]


def readme_quickstart() -> list[list[str]]:
    """The README quickstart block as argument lists, one per command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "subspace-lvq", line
            commands.append(words[1:])
    return commands


def test_readme_quickstart_runs_as_written(tmp_path, monkeypatch):
    commands = readme_quickstart()
    assert [c[0] for c in commands] == ["synth-data", "train", "evaluate", "explain",
                                        "score-corpus", "sample", "calibrate", "grad-check"]
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == 0, args


def test_readme_python_api_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert main(["synth-data", "--seed", "7", "--out", "data"]) == 0
    capsys.readouterr()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
    assert len(namespace["ranked"]) + len(namespace["skipped"]) == len(namespace["records"])
