"""The user's command sequence, run in-process, and the checks on its outputs.

One repeat runs ``train`` -> ``score-corpus`` -> ``sample`` -> ``calibrate``
-> ``explain`` through ``subspace_lvq.cli.main`` on a workload's files, then
checks every output against the generator's truth record.  The checks read
the output files with the standard library only, so they do not trust the
code they check.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (CALIBRATION_BANDS, SAMPLE_BANDS, SAMPLE_PER_BAND, TOP_K, TRAIN_FRACTION,
                       Workload)

COMMANDS = ("train", "score-corpus", "sample", "calibrate", "explain")
MIN_TEST_ACCURACY = 0.95
PLANTED_TOP = 10          # acceptance criterion 07: planted words fill >= 8 of
PLANTED_MIN_SHARE = 0.8   # the top-10 positive impacts, on average
SETUP_ROUNDS = 5          # setup samples after each untraced repeat, at most
SETUP_BUDGET_S = 1.0      # and no new sample once this is spent
# What reading a missing or malformed output file can raise.
MALFORMED = (OSError, ValueError, KeyError, IndexError, TypeError)


@dataclass
class Repeat:
    """Timings and check results of one run of the command sequence."""

    seconds: dict[str, float]
    exit_codes: dict[str, int | None]
    test_accuracy: float | None = None
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    traced: bool = False

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds.values())


def command_lines(workload: Workload, seed: int, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    emb = str(inputs / "embeddings.txt")
    model = str(out / "train" / "model.bin")
    scored = str(out / "score" / "scored.csv")
    return [
        ("train", ["train", "--embeddings", emb, "--corpus", str(inputs / "train.jsonl"),
                   "--out", str(out / "train"), "--d", str(workload.subspace_dim),
                   "--epochs", str(workload.epochs), "--seed", str(seed),
                   "--train-fraction", str(TRAIN_FRACTION),
                   "--per-class", str(workload.per_class), "--distance", workload.distance]),
        ("score-corpus", ["score-corpus", "--model", model, "--corpus", str(inputs / "corpus.jsonl"),
                          "--embeddings", emb, "--positive-label", "topic_a",
                          "--threshold", "0.5", "--out", str(out / "score")]),
        ("sample", ["sample", "--scored", scored, "--bands", SAMPLE_BANDS,
                    "--per-band", str(SAMPLE_PER_BAND), "--seed", str(seed),
                    "--out", str(out / "sample")]),
        ("calibrate", ["calibrate", "--scored", scored,
                       "--annotations", str(inputs / "annotations.jsonl"),
                       "--bands", CALIBRATION_BANDS, "--target-precision", "0.95",
                       "--out", str(out / "calibrate")]),
        ("explain", ["explain", "--model", model, "--corpus", str(inputs / "explain.jsonl"),
                     "--embeddings", emb, "--top-k", str(TOP_K), "--positive-label", "topic_a",
                     "--out", str(out / "explain")]),
    ]


def run_commands(cli, lines, recorder=None):
    """Run each command line through ``cli.main``; returns (seconds, exit codes, stdout).

    A command that raises instead of returning an exit code counts as failed
    (code ``None``); its traceback goes to stderr and the sequence goes on.
    ``SystemExit``, as argparse raises on an argument it rejects, gives the
    code the process would have exited with.
    """
    seconds, codes, stdout = {}, {}, {}
    for index, (name, argv) in enumerate(lines):
        if recorder is not None:
            recorder.invocation_id = index
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                codes[name] = cli.main(argv)
        except SystemExit as exc:
            codes[name] = 0 if exc.code is None else exc.code
        except Exception:  # noqa: BLE001 - a crashing command is a failed command
            traceback.print_exc()
            codes[name] = None
        seconds[name] = time.perf_counter() - start
        stdout[name] = buf.getvalue()
    return seconds, codes, stdout


def measure_setup(inputs: Path, model_path: Path) -> list[float]:
    """Seconds for load_embeddings + load_stopwords + load_model, repeated.

    Runs after the commands, so the files are as warm as a user's next
    command finds them.  Stops after ``SETUP_ROUNDS`` samples or once
    ``SETUP_BUDGET_S`` is spent, with at least one sample.
    """
    from subspace_lvq import embedding, model_io

    samples = []
    deadline = time.perf_counter() + SETUP_BUDGET_S
    while not samples or (len(samples) < SETUP_ROUNDS and time.perf_counter() < deadline):
        start = time.perf_counter()
        embedding.load_embeddings(inputs / "embeddings.txt")
        embedding.load_stopwords()
        model_io.load_model(model_path)
        samples.append(time.perf_counter() - start)
    return samples


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run_repeat(cli, workload, seed, truth, inputs: Path, out: Path, recorder=None) -> Repeat:
    """One checked run of the command sequence in a fresh output directory."""
    shutil.rmtree(out, ignore_errors=True)
    seconds, codes, stdout = run_commands(cli, command_lines(workload, seed, inputs, out), recorder)
    rep = Repeat(seconds=seconds, exit_codes=codes, traced=recorder is not None)
    check_repeat(rep, truth, out, stdout)
    rep.hashes = {"model.bin": sha256(out / "train" / "model.bin"),
                  "scored.csv": sha256(out / "score" / "scored.csv")}
    return rep


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of problems; an empty list means it passed.
# ---------------------------------------------------------------------------

def check_repeat(rep: Repeat, truth: dict, out: Path, stdout: dict[str, str]) -> None:
    """Fill ``rep`` with the accuracy, problems and record counts of one repeat."""
    for name, code in rep.exit_codes.items():
        if code != 0:
            rep.problems.append(f"{name} exited with {code!r}")

    rep.test_accuracy, problems = check_train(stdout.get("train", ""))
    rep.problems += problems

    corpus_ids = set(truth["labels"]) | set(truth["planted_skips"])
    handled, problems = check_scored(out / "score", corpus_ids, set(truth["planted_skips"]))
    rep.problems += problems
    rep.attempted += len(corpus_ids)
    rep.failed += len(corpus_ids) - (handled if rep.exit_codes.get("score-corpus") == 0 else 0)

    if rep.exit_codes.get("score-corpus") == 0:
        rep.problems += check_sample(out / "sample" / "sample.csv", out / "score" / "scored.csv",
                                     SAMPLE_BANDS, SAMPLE_PER_BAND)
        rep.problems += check_calibration(out / "calibrate" / "calibration.json",
                                          len(truth["labels"]))

    explain_ids = set(truth["explain_ids"])
    handled, problems = check_explain(out / "explain", explain_ids, set(truth["planted_skips"]),
                                      truth["planted_words"])
    rep.problems += problems
    rep.attempted += len(explain_ids)
    rep.failed += len(explain_ids) - (handled if rep.exit_codes.get("explain") == 0 else 0)


def check_train(stdout: str) -> tuple[float | None, list[str]]:
    for line in stdout.splitlines():
        if line.startswith("test_accuracy "):
            accuracy = float(line.split()[1])
            if not accuracy >= MIN_TEST_ACCURACY:
                return accuracy, [f"test accuracy {accuracy} is below {MIN_TEST_ACCURACY}"]
            return accuracy, []
    return None, ["train printed no test_accuracy"]


def read_scored(path: Path) -> list[tuple[str, float, float, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["case_id", "score", "percentile", "predicted_label"]:
        raise ValueError(f"{path}: unexpected header")
    return [(r[0], float(r[1]), float(r[2]), r[3]) for r in rows[1:]]


def check_scored(score_dir: Path, submitted: set[str], planted: set[str]) -> tuple[int, list[str]]:
    """Every record scored or skipped as planted; scores and percentiles valid.

    Returns the number of records handled as expected and the problems.
    """
    skipped = []
    skip_path = score_dir / "skipped.csv"
    try:
        rows = read_scored(score_dir / "scored.csv")
        if skip_path.exists():
            with skip_path.open(encoding="utf-8", newline="") as handle:
                skipped = [r[0] for r in list(csv.reader(handle))[1:] if r]
    except MALFORMED as exc:
        return 0, [f"scored output unreadable: {exc}"]

    problems = []
    scored_ids = [r[0] for r in rows]
    if len(set(scored_ids)) != len(scored_ids):
        problems.append("scored.csv repeats a case id")
    if set(scored_ids) & set(skipped):
        problems.append("a record is both scored and skipped")
    unknown = (set(scored_ids) | set(skipped)) - submitted
    if unknown:
        problems.append(f"{len(unknown)} output ids were never submitted")
    if len(scored_ids) + len(skipped) != len(submitted):
        problems.append(f"scored {len(scored_ids)} + skipped {len(skipped)} "
                        f"!= submitted {len(submitted)}")
    if set(skipped) - planted:
        problems.append(f"{len(set(skipped) - planted)} skips are not planted all-OOV records")
    if planted & set(scored_ids):
        problems.append(f"{len(planted & set(scored_ids))} planted all-OOV records were scored")

    scores = [r[1] for r in rows]
    if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores):
        problems.append("a score lies outside [0, 1]")
    ascending = sorted(scores)
    n = len(rows)
    for case_id, score, percentile, _ in rows:
        expected = 100.0 * bisect.bisect_left(ascending, score) / n
        if abs(percentile - expected) > 1e-9:
            problems.append(f"percentile of {case_id} is {percentile}, strictly-lower rule "
                            f"gives {expected}")
            break
    if [(-r[1], r[0]) for r in rows] != sorted((-r[1], r[0]) for r in rows):
        problems.append("scored.csv is not ranked by descending score")

    handled = len((set(scored_ids) - planted) & submitted) + len(set(skipped) & planted)
    return handled, problems


def check_sample(sample_path: Path, scored_path: Path, bands: str, per_band: int) -> list[str]:
    try:
        with sample_path.open(encoding="utf-8", newline="") as handle:
            rows = [(float(lo), float(hi), case_id) for lo, hi, case_id in list(csv.reader(handle))[1:]]
        percentile = {r[0]: r[2] for r in read_scored(scored_path)}
    except MALFORMED as exc:
        return [f"sample unreadable: {exc}"]
    n_bands = len(bands.split(","))
    problems = []
    if len(rows) != n_bands * per_band:
        problems.append(f"sample has {len(rows)} rows, expected {n_bands * per_band}")
    if len({r[2] for r in rows}) != len(rows):
        problems.append("sample repeats a case id")
    for lo, hi, case_id in rows:
        p = percentile.get(case_id)
        if p is None or not lo <= p < hi:
            problems.append(f"sampled {case_id} is outside its band {lo:g}:{hi:g}")
            break
    return problems


def check_calibration(path: Path, labelled: int) -> list[str]:
    """Bands tile [0, 100) and every scoreable record is annotated."""
    try:
        bands = json.loads(path.read_text(encoding="utf-8"))["bands"]
        cases = sum(b["cases"] for b in bands)
        annotated = sum(b["annotated"] for b in bands)
    except MALFORMED as exc:
        return [f"calibration.json unreadable: {exc}"]
    problems = []
    if cases != labelled:
        problems.append("calibration bands do not cover every scored case")
    if annotated != labelled:
        problems.append("calibration bands do not count every annotation")
    return problems


def planted_share(reports: list[dict], planted_words: dict[str, list[str]]) -> float:
    """Mean share of planted words among each report's top positive impacts.

    Criterion 07 asks for >= 8 of the top 10.  Short documents may have fewer
    than 10 positive impacts; then the share is over the ones they have.
    """
    planted = {label: set(words) for label, words in planted_words.items()}
    shares = []
    for rep in reports:
        positive = sorted((i for i in rep["impacts"] if i[1] > 0), key=lambda i: (-i[1], i[0]))
        top = positive[:PLANTED_TOP]
        hits = sum(1 for word, _, _ in top if word in planted[rep["predicted_label"]])
        shares.append(hits / len(top) if top else 0.0)
    return sum(shares) / len(shares) if shares else 0.0


def check_explain(explain_dir: Path, submitted: set[str], planted: set[str],
                  planted_words: dict[str, list[str]]) -> tuple[int, list[str]]:
    try:
        with (explain_dir / "explanations.jsonl").open(encoding="utf-8") as handle:
            reports = [json.loads(line) for line in handle if line.strip()]
        skipped = int(json.loads((explain_dir / "manifest.json").read_text(encoding="utf-8"))["skipped"])
        ids = [r["doc_id"] for r in reports]
        share = planted_share(reports, planted_words)
    except MALFORMED as exc:
        return 0, [f"explanations unreadable: {exc}"]
    problems = []
    expected = submitted - planted
    if len(ids) != len(set(ids)) or set(ids) != expected:
        problems.append(f"explained {len(set(ids) & expected)} of {len(expected)} explainable records")
    if skipped != len(submitted & planted):
        problems.append(f"explain skipped {skipped}, planted {len(submitted & planted)}")
    if share < PLANTED_MIN_SHARE:
        problems.append(f"planted words fill {share:.3f} of the top positive impacts, "
                        f"below {PLANTED_MIN_SHARE}")
    handled = len(set(ids) & expected) + min(skipped, len(submitted & planted))
    return handled, problems


def check_identical(repeats: list[Repeat]) -> list[str]:
    """model.bin and scored.csv must be byte-identical across repeats."""
    problems = []
    for name in ("model.bin", "scored.csv"):
        digests = {r.hashes.get(name) for r in repeats}
        if len(digests) != 1 or None in digests:
            problems.append(f"{name} differs across repeats of one run")
    accuracies = {r.test_accuracy for r in repeats}
    if len(accuracies) != 1:
        problems.append("test accuracy differs across repeats of one run")
    return problems
