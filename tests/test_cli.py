"""Command-line wiring: subcommand flows, manifests, determinism, errors."""

import csv
import json

import pytest

from subspace_lvq import cli
from subspace_lvq.cli import main, parse_bands, read_config_file
from subspace_lvq.corpus import read_scored
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


class TestGradCheckCommand:
    def test_passes_and_prints_error(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "max_relative_error" in out
        assert "grad_check PASS" in out


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

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("nonsense = 1\n")
        with pytest.raises(UsageError):
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


class TestFailedRuns:
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
