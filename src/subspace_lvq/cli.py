"""Command-line entry point.

One executable exposes the full pipeline: synthetic data generation,
training, evaluation, prediction, explanation, corpus scoring, ranking,
annotation sampling, calibration, and an analytic-gradient self check.

Each subcommand accepts only the flags it reads (``_COMMANDS``).  Options
may also come from a flat ``key = value`` config file (``--config``), which
may set any known option; explicit flags win over file values.  :func:`main`
checks every option (:class:`Options`), then runs the command inside one
:class:`Run`, which owns the ``--out`` directory and its run manifest.  Logs
go to stderr; data goes to stdout or files, never interleaved.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .corpus import (
    batch_score,
    calibrate,
    check_train_fraction,
    corpus_to_subspaces,
    count_above,
    ingest,
    parse_bands,
    prepare_document,
    rank,
    read_annotations,
    read_scored,
    sample_for_annotation,
    split,
    write_corpus,
    write_csv,
    write_scored,
)
from .embedding import load_embeddings, load_stopwords
from .errors import ToolkitError, UsageError, map_records
from .explain import explanation_report, write_reports_csv, write_reports_jsonl
from .geometry import DISTANCE_KINDS
from .model import (
    GRAD_CHECK_SEED,
    TrainConfig,
    check_positive_label,
    classify,
    evaluate,
    run_gradient_checks,
    train,
)
from .model_io import load_model, model_checksum, save_model
from .subspace import check_subspace_dim
from .synth import generate as generate_synthetic, write_synthetic

log = logging.getLogger("subspace_lvq.cli")

GRAD_CHECK_TOLERANCE = 1e-5


class _Flag(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple | None = None
    check: Callable | None = None   # typed value -> value used; ValueError if it breaks the rule


def _positive_int(value: int) -> int:
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _non_negative_int(value: int) -> int:
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _unit_interval(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError("must be in [0, 1]")
    return value


# Every option: ``--name`` on the command line (``_`` spelled ``-``) and
# ``name`` in a config file.  A subcommand accepts the flags in its
# ``_COMMANDS`` entry; a config file may set any of them.  A ``float`` value
# must also be finite.
_FLAGS = {
    "embeddings": _Flag(str, None, "embedding file (word + floats per line)"),
    "stopwords": _Flag(str, None, "stop-word file (default: packaged English list)"),
    "corpus": _Flag(str, None, "corpus JSON-lines file or directory of .txt files"),
    "model": _Flag(str, None, "model file"),
    "out": _Flag(str, None, "output directory"),
    "scored": _Flag(str, None, "scored-cases CSV (from score-corpus/rank)"),
    "annotations": _Flag(str, None, "annotation JSON-lines file"),
    "d": _Flag(int, 50, "subspace dimension"),
    "beta": _Flag(float, TrainConfig.beta, "sigmoid slope"),
    "distance": _Flag(str, TrainConfig.distance_kind, "distance kind", DISTANCE_KINDS),
    "epochs": _Flag(int, TrainConfig.epochs, "training epochs"),
    "lr_w": _Flag(float, TrainConfig.lr_prototype, "prototype learning rate"),
    "lr_lambda": _Flag(float, TrainConfig.lr_relevance, "relevance learning rate"),
    "seed": _Flag(int, None, "random seed", check=_non_negative_int),
    "train_fraction": _Flag(float, None, "train split fraction in (0,1)",
                            check=check_train_fraction),
    "positive_label": _Flag(str, None, "positive class label"),
    "threshold": _Flag(float, None, "score threshold"),
    "top_k": _Flag(int, 20, "words per explanation", check=_positive_int),
    "bands": _Flag(str, None, "percentile bands, e.g. '87:88,88:89'", check=parse_bands),
    "per_band": _Flag(int, 20, "samples per band", check=_positive_int),
    "per_class": _Flag(int, TrainConfig.prototypes_per_class, "prototypes per class"),
    "target_precision": _Flag(float, None, "calibration target precision",
                              check=_unit_interval),
    "docs_per_class": _Flag(int, 200, "synthetic documents per class", check=_positive_int),
    "dim": _Flag(int, 50, "synthetic embedding dimension", check=_positive_int),
}


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; ``#`` comments and blank lines ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FLAGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(name: str, value, text: str | None):
    """One option: the flag's ``value`` (typed by argparse), else the config
    file's ``text``, else the default; then its choices, finiteness and rule."""
    flag = _FLAGS[name]
    shown, source = value, "--" + name.replace("_", "-")
    if value is None and text is not None:
        shown, source = text, f"config value {name} ="
    if shown is None:
        return flag.default
    try:
        if value is None:
            value = flag.type(text)
        if flag.choices is not None and value not in flag.choices:
            raise ValueError(f"must be one of {'/'.join(flag.choices)}")
        if flag.type is float and not math.isfinite(value):
            raise ValueError("must be a finite number")
        return value if flag.check is None else flag.check(value)
    except ValueError as exc:
        raise UsageError(f"{source} {shown!r}: {exc}") from exc


class Options:
    """Each option of a command, resolved once: ``values`` (None if unset, a
    rejected one left out) and ``error``, the first rejected or missing one."""

    def __init__(self, args: argparse.Namespace):
        _, _, names, required = _COMMANDS[args.command]
        file = read_config_file(args.config) if args.config else {}
        self.command = args.command
        self.values = {}
        self.error = None
        for name in names:
            try:
                self.values[name] = _resolve(name, getattr(args, name), file.get(name))
                if self.values[name] is None and name in required:
                    raise UsageError(f"missing required option --{name.replace('_', '-')}")
            except ToolkitError as exc:
                self.error = self.error or exc

    def get(self, name, default=None):
        return default if self.values[name] is None else self.values[name]


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(obj, path: Path, sort_keys=True) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8")


class Run:
    """One command's output directory and manifest; :func:`main` starts and ends it.

    With ``--out`` the directory is created and the manifest written, with
    status "running" and the command's resolved options, before the command
    reads any input; an option error then ends it as failed.  Commands only
    name their outputs and set extra manifest fields.  Without ``--out``
    (where the command does not require it) there is no manifest and
    :meth:`write` sends the data to stdout.
    """

    def __init__(self, opts: Options):
        out = opts.values.get("out")
        self.out = None if out is None else Path(out)
        if self.out is not None:
            self.manifest = {
                "command": opts.command,
                "config": dict(opts.values),
                "started_at": _utcnow(),
                "status": "running",
                "outputs": [],
            }
            try:
                self.out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot create output directory {self.out}: {exc}") from exc
            _write_json(self.manifest, self.out / "manifest.json")
        if opts.error is not None:
            self.end(opts.error)
            raise opts.error

    def set(self, **fields) -> None:
        """Extra manifest fields, such as counts and checksums."""
        if self.out is not None:
            self.manifest.update(fields)

    def output(self, path: Path) -> Path:
        """List a file written under ``--out`` among the run's outputs."""
        self.manifest["outputs"].append(str(path))
        return path

    def write(self, name: str, writer, data) -> Path | None:
        """``writer(data, path)`` for the output ``name``; to stdout without ``--out``."""
        if self.out is None:
            writer(data, sys.stdout)
            return None
        path = self.out / name
        writer(data, path)
        return self.output(path)

    def csv(self, name: str, header, rows) -> Path | None:
        return self.write(name, write_csv, (header, rows))

    def json(self, name: str, obj, sort_keys=False) -> Path:
        path = self.out / name
        _write_json(obj, path, sort_keys)
        return self.output(path)

    def end(self, exc: BaseException | None = None) -> None:
        """Finish the manifest as complete, or as failed with ``exc``'s category."""
        if self.out is None:
            return
        self.manifest["finished_at"] = _utcnow()
        if exc is None:
            self.manifest["status"] = "complete"
            _write_json(self.manifest, self.out / "manifest.json")
            return
        category = ("interrupted" if isinstance(exc, KeyboardInterrupt)
                    else getattr(exc, "category", "internal"))
        self.manifest.update(status="failed", error={"category": category, "message": str(exc)})
        try:
            _write_json(self.manifest, self.out / "manifest.json")
        except OSError as write_exc:
            log.warning("cannot finalize %s/manifest.json: %s", self.out, write_exc)


def _model_inputs(opts):
    """Model, embedding table, stop words and corpus of a command that applies a model."""
    model = load_model(opts.get("model"))
    table = load_embeddings(opts.get("embeddings"), expected_dim=model.embedding_dim)
    stoplist = load_stopwords(opts.get("stopwords"))
    return model, table, stoplist, ingest(opts.get("corpus"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth_data(opts: Options, run: Run) -> int:
    corpus = generate_synthetic(
        docs_per_class=opts.get("docs_per_class"),
        dim=opts.get("dim"),
        seed=opts.get("seed"),
    )
    paths = write_synthetic(corpus, run.out)
    for path in paths.values():
        run.output(path)
    for name in ("corpus", "embeddings", "truth", "annotations"):
        print(f"{name} {paths[name]}")
    return 0


def _train_config(opts) -> TrainConfig:
    return TrainConfig(
        subspace_dim=opts.get("d"),
        seed=opts.get("seed"),
        beta=opts.get("beta"),
        distance_kind=opts.get("distance"),
        lr_prototype=opts.get("lr_w"),
        lr_relevance=opts.get("lr_lambda"),
        epochs=opts.get("epochs"),
        prototypes_per_class=opts.get("per_class"),
    )


def cmd_train(opts: Options, run: Run) -> int:
    config = _train_config(opts)
    table = load_embeddings(opts.get("embeddings"))
    stoplist = load_stopwords(opts.get("stopwords"))
    check_subspace_dim(config.subspace_dim, table.dim)
    records = ingest(opts.get("corpus"))

    fraction = opts.get("train_fraction")
    train_records, test_records = records, None
    if fraction is not None:
        train_records, test_records = split(records, fraction, config.seed)
        run.write("train.jsonl", write_corpus, train_records)
        run.write("test.jsonl", write_corpus, test_records)
        log.info("split: %d train / %d test", len(train_records), len(test_records))

    examples, skipped = corpus_to_subspaces(train_records, table, stoplist, config.subspace_dim)
    if skipped:
        log.warning("%d training records skipped", len(skipped))
    state = train(examples, config)

    model_path = run.write("model.bin", save_model, state)
    run.csv("training_log.csv", ["epoch", "mean_cost", "train_accuracy"],
            ([epoch, format(cost, ".17g"), format(acc, ".17g")]
             for epoch, cost, acc in state.training_log))
    run.set(model_checksum=model_checksum(model_path))

    print(f"model {model_path}")
    print(f"train_accuracy {state.training_log[-1][2]!r}")

    if test_records is not None:
        test_examples, test_skipped = corpus_to_subspaces(
            test_records, table, stoplist, config.subspace_dim)
        if test_skipped:
            log.warning("%d test records skipped", len(test_skipped))
        report = evaluate(state, test_examples)
        print(f"test_accuracy {report.accuracy!r}")
    return 0


def cmd_evaluate(opts: Options, run: Run) -> int:
    state, table, stoplist, records = _model_inputs(opts)
    examples, skipped = corpus_to_subspaces(records, table, stoplist, state.subspace_dim)
    if skipped:
        log.warning("%d records skipped", len(skipped))
    report = evaluate(state, examples)
    print(f"accuracy {report.accuracy!r}")
    for label in sorted(report.per_class):
        metrics = report.per_class[label]
        print(f"class {label} precision {metrics['precision']!r} "
              f"recall {metrics['recall']!r} support {int(metrics['support'])}")
    if run.out is not None:
        run.json("evaluation.json", {
            "accuracy": report.accuracy,
            "per_class": report.per_class,
            "confusion": [[t, p, c] for (t, p), c in sorted(report.confusion.items())],
            "skipped": skipped,
        }, sort_keys=True)
    return 0


def cmd_predict(opts: Options, run: Run) -> int:
    state, table, stoplist, records = _model_inputs(opts)

    def predict_one(rec):
        _, _, sub = prepare_document(rec.case_id, rec.text, table, stoplist, state.subspace_dim)
        label, dists = classify(sub, state)
        return [rec.case_id, label] + [format(v, ".17g") for v in dists]

    rows, skipped = map_records(records, predict_one)
    header = ["case_id", "predicted_label"] + [
        f"dist_{i}_{p.label}" for i, p in enumerate(state.prototypes)
    ]
    path = run.csv("predictions.csv", header, rows)
    run.set(skipped=len(skipped))
    if path is not None:
        print(f"predictions {path}")
    return 0


def cmd_explain(opts: Options, run: Run) -> int:
    state, table, stoplist, records = _model_inputs(opts)
    top_k = opts.get("top_k")
    positive = opts.get("positive_label")
    if positive is not None:
        check_positive_label(state, positive)
    reports, skipped = map_records(
        records, lambda rec: explanation_report(rec, state, table, stoplist, top_k, positive))
    jsonl_path = run.write("explanations.jsonl", write_reports_jsonl, reports)
    run.write("explanations.csv", write_reports_csv, reports)
    run.set(skipped=len(skipped))
    print(f"explanations {jsonl_path}")
    print(f"explained {len(reports)}")
    return 0


def cmd_score_corpus(opts: Options, run: Run) -> int:
    state, table, stoplist, records = _model_inputs(opts)
    scored, skipped = batch_score(records, state, table, stoplist, opts.get("positive_label"))
    ranked = rank(scored)
    path = run.write("scored.csv", write_scored, ranked)
    if skipped:
        run.csv("skipped.csv", ["case_id", "reason"], skipped)
    run.set(scored=len(ranked), skipped=len(skipped))
    print(f"scored {path}")
    threshold = opts.get("threshold")
    if threshold is not None:
        print(f"above_threshold {count_above(ranked, threshold)}")
    return 0


def cmd_rank(opts: Options, run: Run) -> int:
    ranked = rank(read_scored(opts.get("scored")))
    path = run.write("ranked.csv", write_scored, ranked)
    if path is not None:
        print(f"ranked {path}")
    return 0


def cmd_sample(opts: Options, run: Run) -> int:
    scored = rank(read_scored(opts.get("scored")))
    sampled = sample_for_annotation(scored, opts.get("bands"), opts.get("per_band"),
                                    opts.get("seed"))
    path = run.csv("sample.csv", ["band_lo", "band_hi", "case_id"],
                   ([format(lo, "g"), format(hi, "g"), case_id]
                    for (lo, hi), ids in sampled.items() for case_id in ids))
    run.set(sampled=sum(len(v) for v in sampled.values()))
    print(f"sample {path}")
    return 0


def cmd_calibrate(opts: Options, run: Run) -> int:
    scored = rank(read_scored(opts.get("scored")))
    annotations = read_annotations(opts.get("annotations"))
    target = opts.get("target_precision")
    report = calibrate(scored, annotations, opts.get("bands"), target)
    path = run.json("calibration.json", {
        "target_precision": report.target_precision,
        "threshold_score": report.threshold_score,
        "bands": [{
            "percentile_lo": b.lo,
            "percentile_hi": b.hi,
            "score_low": b.score_low,
            "score_high": b.score_high,
            "cases": b.case_count,
            "annotated": b.annotated_count,
            "positive": b.positive_count,
            "fraction_positive": b.fraction_positive,
        } for b in report.bands],
    })
    print(f"calibration {path}")
    for b in report.bands:
        fraction = "undefined" if b.fraction_positive is None else repr(b.fraction_positive)
        print(f"band {b.lo:g}:{b.hi:g} cases {b.case_count} "
              f"annotated {b.annotated_count} fraction_positive {fraction}")
    if target is not None:
        print(f"threshold_score "
              f"{'none' if report.threshold_score is None else repr(report.threshold_score)}")
    return 0


def cmd_grad_check(opts: Options, run: Run) -> int:
    seed = opts.get("seed", default=GRAD_CHECK_SEED)
    results, worst, elapsed = run_gradient_checks(base_seed=seed)
    for r in results:
        log.info("dim=%d d=%d kind=%s seed=%d rel_error=%.3e",
                 r.embedding_dim, r.subspace_dim, r.kind, r.seed, r.rel_error)
    print(f"max_relative_error {worst:.6e}")
    print(f"elapsed_seconds {elapsed:.2f}")
    if worst < GRAD_CHECK_TOLERANCE:
        print(f"grad_check PASS (tolerance {GRAD_CHECK_TOLERANCE:g})")
        return 0
    print(f"grad_check FAIL (tolerance {GRAD_CHECK_TOLERANCE:g})")
    return 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_APPLY = ("model", "corpus", "embeddings")   # inputs of a command that applies a model

# name -> (function, help, flags it accepts (its manifest config), flags it requires)
_COMMANDS = {
    "synth-data": (cmd_synth_data, "generate the synthetic two-class corpus",
                   ("seed", "docs_per_class", "dim", "out"), ("seed", "out")),
    "train": (cmd_train, "train a classifier on a labeled corpus",
              ("embeddings", "stopwords", "corpus", "out", "d", "beta", "distance", "epochs",
               "lr_w", "lr_lambda", "per_class", "seed", "train_fraction"),
              ("embeddings", "corpus", "seed", "out")),
    "evaluate": (cmd_evaluate, "accuracy and per-class metrics on a labeled corpus",
                 _APPLY + ("stopwords", "out"), _APPLY),
    "predict": (cmd_predict, "nearest-prototype labels for a corpus",
                _APPLY + ("stopwords", "out"), _APPLY),
    "explain": (cmd_explain, "per-word impact reports for a corpus",
                _APPLY + ("stopwords", "top_k", "positive_label", "out"), _APPLY + ("out",)),
    "score-corpus": (cmd_score_corpus, "probability-score and rank a corpus",
                     _APPLY + ("stopwords", "positive_label", "threshold", "out"),
                     _APPLY + ("positive_label", "out")),
    "rank": (cmd_rank, "sort a scored file and fill percentiles", ("scored", "out"), ("scored",)),
    "calibrate": (cmd_calibrate, "per-band positive fractions from annotations",
                  ("scored", "annotations", "bands", "target_precision", "out"),
                  ("scored", "annotations", "bands", "out")),
    "sample": (cmd_sample, "sample cases per percentile band for annotation",
               ("scored", "bands", "per_band", "seed", "out"), ("scored", "bands", "seed", "out")),
    "grad-check": (cmd_grad_check, "verify analytic gradients against finite differences",
                   ("seed",), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-lvq",
        description="Prototype-based subspace document classification and corpus triage.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names, required) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file; flags override")
        for name in names:
            flag = _FLAGS[name]
            tail = (" (required)" if name in required
                    else "" if flag.default is None else f" (default {flag.default})")
            # argparse applies only the type; Options applies the rest (_resolve).
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=flag.type,
                           choices=flag.choices, help=flag.help + tail)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    run = None
    try:
        opts = Options(args)
        run = Run(opts)
        code = args.func(opts, run)
    except BaseException as exc:
        if run is not None:
            run.end(exc)
        if not isinstance(exc, ToolkitError):
            raise
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    run.end()
    return code


if __name__ == "__main__":
    sys.exit(main())
