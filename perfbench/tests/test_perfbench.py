"""Tests of the benchmark itself: tiny runs, the checks, and the span recorder.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pipeline
import run as bench_run
import tracing
from workloads import WORKLOADS, generate
from subspace_lvq import cli

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "quickstart": dict(epochs=3, train_docs_per_class=25, score_docs_per_class=30, explain_docs=8),
    "embload": dict(epochs=2, train_docs_per_class=25, score_docs_per_class=25, explain_docs=6,
                    table_words=1500, all_oov_score=3, all_oov_explain=1),
}
SEED = 5


def tiny_run(name, base: Path, recorder=None):
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    truth = generate(workload, SEED, base / "inputs")
    if recorder is None:
        rep = pipeline.run_repeat(cli, workload, SEED, truth, base / "inputs", base / "out")
    else:
        with tracing.traced(recorder) as absent:
            rep = pipeline.run_repeat(cli, workload, SEED, truth, base / "inputs", base / "out",
                                      recorder)
        assert absent == []
    return workload, truth, rep


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_every_check(name, tmp_path):
    recorder = tracing.SpanRecorder()
    _, truth, traced = tiny_run(name, tmp_path, recorder)
    _, _, plain = tiny_run(name, tmp_path)
    assert traced.problems == [] and plain.problems == []
    assert plain.failed == 0
    assert plain.attempted == len(truth["labels"]) + len(truth["planted_skips"]) + len(truth["explain_ids"])
    assert pipeline.check_identical([traced, plain]) == []

    # Exact values depend on the program (2, 3, 0.5 and 1.0 at the baseline),
    # so only what any correct implementation gives is asserted here.
    metrics = tracing.layer_metrics(recorder, list(pipeline.COMMANDS))
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace.overhead_frac"}
    assert metrics["model.classify_per_scored_doc"] >= 1.0
    assert metrics["model.classify_per_explained_doc"] >= 1.0
    assert 0.0 < metrics["model.update_used_ratio"] <= 1.0
    assert metrics["embedding.load_calls"] >= 1
    assert metrics["corpus.skipped"] == len(truth["planted_skips"])
    assert (metrics["embedding.oov_tokens"] > 0) == (name == "embload")
    assert recorder.probe_errors == []


@pytest.fixture(scope="module")
def quickstart_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("quickstart")
    _, truth, rep = tiny_run("quickstart", base)
    assert rep.problems == []
    return base / "out", truth, rep


def corrupt_copy(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def scored_problems(out: Path, truth) -> tuple[int, list[str]]:
    submitted = set(truth["labels"]) | set(truth["planted_skips"])
    return pipeline.check_scored(out / "score", submitted, set(truth["planted_skips"]))


def test_dropped_scored_row_is_caught(quickstart_outputs, tmp_path):
    out, truth, _ = quickstart_outputs
    copy = corrupt_copy(out, tmp_path)
    path = copy / "score" / "scored.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]), encoding="utf-8")
    handled, problems = scored_problems(copy, truth)
    assert any("submitted" in p for p in problems)
    assert handled == len(truth["labels"]) - 1


def test_out_of_range_score_is_caught(quickstart_outputs, tmp_path):
    out, truth, _ = quickstart_outputs
    copy = corrupt_copy(out, tmp_path)
    path = copy / "score" / "scored.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    case_id, _, percentile, label = lines[1].rstrip("\r\n").split(",")
    lines[1] = f"{case_id},1.5,{percentile},{label}\r\n"
    path.write_text("".join(lines), encoding="utf-8")
    _, problems = scored_problems(copy, truth)
    assert any("outside [0, 1]" in p for p in problems)


def test_broken_percentile_is_caught(quickstart_outputs, tmp_path):
    out, truth, _ = quickstart_outputs
    copy = corrupt_copy(out, tmp_path)
    path = copy / "score" / "scored.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    case_id, score, _, label = lines[1].rstrip("\r\n").split(",")
    lines[1] = f"{case_id},{score},100,{label}\r\n"
    path.write_text("".join(lines), encoding="utf-8")
    _, problems = scored_problems(copy, truth)
    assert any("strictly-lower" in p for p in problems)


def test_flipped_model_byte_is_caught(quickstart_outputs, tmp_path):
    out, _, rep = quickstart_outputs
    copy = corrupt_copy(out, tmp_path)
    path = copy / "train" / "model.bin"
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    path.write_bytes(bytes(blob))
    flipped = dataclasses.replace(rep, hashes={"model.bin": pipeline.sha256(path),
                                               "scored.csv": rep.hashes["scored.csv"]})
    assert pipeline.check_identical([rep, rep]) == []
    assert pipeline.check_identical([rep, flipped]) == ["model.bin differs across repeats of one run"]


def test_missing_outputs_fail_every_record(quickstart_outputs, tmp_path):
    _, truth, _ = quickstart_outputs
    rep = pipeline.Repeat(seconds={}, exit_codes={c: 0 for c in pipeline.COMMANDS})
    pipeline.check_repeat(rep, truth, tmp_path / "nothing", {})
    assert len(rep.problems) == 5
    assert rep.failed == rep.attempted > 0


def test_low_accuracy_and_missing_planted_words_are_caught(quickstart_outputs):
    out, truth, _ = quickstart_outputs
    assert pipeline.check_train("test_accuracy 0.9\n")[1]
    assert pipeline.check_train("train_accuracy 1.0\n")[1]
    reports = [json.loads(line) for line in (out / "explain" / "explanations.jsonl").open()]
    swapped = {"topic_a": truth["planted_words"]["topic_b"],
               "topic_b": truth["planted_words"]["topic_a"]}
    assert pipeline.planted_share(reports, truth["planted_words"]) >= pipeline.PLANTED_MIN_SHARE
    assert pipeline.planted_share(reports, swapped) < pipeline.PLANTED_MIN_SHARE


def test_rejected_flag_fails_the_command_and_the_run(monkeypatch, capsys):
    seconds, codes, _ = pipeline.run_commands(cli, [("train", ["train", "--no-such-flag"]),
                                                    ("sample", ["sample", "--no-such-flag"])])
    assert codes == {"train": 2, "sample": 2} and set(seconds) == {"train", "sample"}

    command_lines = pipeline.command_lines

    def with_bad_flag(*args):
        return [(name, argv + ["--no-such-flag"] if name == "train" else argv)
                for name, argv in command_lines(*args)]

    monkeypatch.setattr(pipeline, "command_lines", with_bad_flag)
    code = bench_run.main(["--workload", "quickstart", "--seed", "1", "--seconds", "1",
                           "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_self_times_add_up_to_parent_spans():
    recorder = tracing.SpanRecorder()

    def leaf():
        time.sleep(0.002)

    leaf_w = recorder.wrap("leaf", leaf)

    def middle():
        leaf_w()
        time.sleep(0.001)
        leaf_w()

    middle_w = recorder.wrap("middle", middle)

    def root():
        middle_w()
        leaf_w()
        time.sleep(0.001)

    recorder.wrap("root", root)()
    name, parent, _, dur, self_t = recorder.arrays()
    assert [recorder.names[i] for i in name] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert list(parent) == [-1, 0, 1, 1, 0]
    for i in range(len(dur)):
        children = dur[parent == i].sum()
        assert self_t[i] == pytest.approx(dur[i] - children, abs=1e-12)
        assert self_t[i] >= 0.0
    # Self times partition the root span.
    assert self_t.sum() == pytest.approx(dur[0], abs=1e-9)


def test_traced_restores_and_reports_absent_names(monkeypatch):
    from subspace_lvq import corpus, model

    original = corpus.classify
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder) as absent:
        assert corpus.classify is not original and corpus.classify.__wrapped__ is original
        assert model.classify is corpus.classify
    assert corpus.classify is original and absent == []

    monkeypatch.delattr(model, "_pass_stats")
    with tracing.traced(tracing.SpanRecorder()) as absent:
        pass
    assert absent == ["model._pass_stats"]
    metrics = tracing.layer_metrics(tracing.SpanRecorder(), list(pipeline.COMMANDS))
    assert metrics["model.pass_stats_s"] == 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (n, u, b) for n, (u, b) in bench_run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, (u, b) in tracing.LAYER_METRICS.items()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests", "baseline"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quickstart",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
