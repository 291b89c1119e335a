"""Command-line entry point.

One executable exposes the full pipeline: synthetic data generation,
training, evaluation, prediction, explanation, corpus scoring, ranking,
annotation sampling, calibration, and an analytic-gradient self check.

Each subcommand accepts only the flags it reads (``_COMMANDS``).  Options
may also come from a flat ``key = value`` config file (``--config``), which
may set any known option; explicit flags win over file values.  Commands
that write files require ``--out`` and leave a run manifest there: written
with status "running" before long work starts, finalized as "complete" on
success and as "failed" (with the error) when the command raises or is
interrupted.
Logs go to stderr; data goes to stdout or files, never interleaved.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .corpus import (
    batch_score,
    calibrate,
    corpus_to_subspaces,
    count_above,
    ingest,
    prepare_document,
    rank,
    read_annotations,
    read_scored,
    sample_for_annotation,
    split,
    write_corpus,
    write_scored,
)
from .embedding import load_embeddings, load_stopwords
from .errors import DimensionError, ToolkitError, UsageError, map_records
from .explain import explanation_report, write_reports_csv, write_reports_jsonl
from .geometry import DISTANCE_KINDS
from .model import (
    TrainConfig,
    check_positive_label,
    classify,
    evaluate,
    run_gradient_checks,
    train,
)
from .model_io import load_model, model_checksum, save_model
from .synth import generate as generate_synthetic, write_synthetic

log = logging.getLogger("subspace_lvq.cli")

GRAD_CHECK_TOLERANCE = 1e-5


class _Flag(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple | None = None


# Every option: ``--name`` on the command line (``_`` spelled ``-``) and
# ``name`` in a config file.  A subcommand accepts the flags in its
# ``_COMMANDS`` entry; a config file may set any of them.
_FLAGS = {
    "embeddings": _Flag(str, None, "embedding file (word + floats per line)"),
    "stopwords": _Flag(str, None, "stop-word file (default: packaged English list)"),
    "corpus": _Flag(str, None, "corpus JSON-lines file or directory of .txt files"),
    "model": _Flag(str, None, "model file"),
    "out": _Flag(str, None, "output directory"),
    "scored": _Flag(str, None, "scored-cases CSV (from score-corpus/rank)"),
    "annotations": _Flag(str, None, "annotation JSON-lines file"),
    "d": _Flag(int, 50, "subspace dimension (default 50)"),
    "beta": _Flag(float, 5.0, "sigmoid slope (default 5)"),
    "distance": _Flag(str, "chordal", "distance kind", DISTANCE_KINDS),
    "epochs": _Flag(int, 100, "training epochs (default 100)"),
    "lr_w": _Flag(float, 0.05, "prototype learning rate"),
    "lr_lambda": _Flag(float, 0.005, "relevance learning rate"),
    "seed": _Flag(int, None, "random seed"),
    "train_fraction": _Flag(float, None, "train split fraction in (0,1)"),
    "positive_label": _Flag(str, None, "positive class label"),
    "threshold": _Flag(float, None, "score threshold"),
    "top_k": _Flag(int, 20, "words per explanation"),
    "bands": _Flag(str, None, "percentile bands, e.g. '87:88,88:89'"),
    "per_band": _Flag(int, 20, "samples per band"),
    "per_class": _Flag(int, 1, "prototypes per class"),
    "target_precision": _Flag(float, None, "calibration target precision"),
    "docs_per_class": _Flag(int, 200, "synthetic documents per class"),
    "dim": _Flag(int, 50, "synthetic embedding dimension"),
}


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; ``#`` comments and blank lines ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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


class Options:
    """Merged view of flags, config file and defaults; flags win.

    Also holds the run manifest once the command has started one, so that
    :func:`main` can finalize it if the command fails.
    """

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self.command = args.command
        config_path = self._args.get("config")
        self._file = read_config_file(config_path) if config_path else {}
        self.manifest: Manifest | None = None

    def get(self, name, default=None, required=False):
        flag = _FLAGS[name]
        value = self._args.get(name)
        if value is None and name in self._file:
            raw = self._file[name]
            try:
                value = flag.type(raw)
            except ValueError as exc:
                raise UsageError(f"config value {name} = {raw!r}: {exc}") from exc
        if value is None:
            value = default if flag.default is None else flag.default
        if value is None and required:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        return value


def parse_bands(text: str) -> list[tuple[float, float]]:
    """Comma-separated half-open percentile ranges, e.g. '87:88,88:89'."""
    bands = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 2:
            raise UsageError(f"band {part!r} is not of the form lo:hi")
        try:
            bands.append((float(pieces[0]), float(pieces[1])))
        except ValueError as exc:
            raise UsageError(f"band {part!r}: {exc}") from exc
    if not bands:
        raise UsageError("no percentile bands given")
    return bands


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Manifest:
    """Run manifest under the output directory."""

    def __init__(self, out_dir: Path, command: str, snapshot: dict):
        self.path = out_dir / "manifest.json"
        self.data = {
            "command": command,
            "config": snapshot,
            "started_at": _utcnow(),
            "status": "running",
            "outputs": [],
        }
        self._write()

    def _write(self):
        self.path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")

    def add_output(self, path: Path):
        self.data["outputs"].append(str(path))

    def finalize(self, **extra):
        self.data.update(extra)
        self.data["finished_at"] = _utcnow()
        self.data["status"] = "complete"
        self._write()

    def fail(self, exc: BaseException):
        """Record a run that raised before :meth:`finalize` as failed."""
        if self.data["status"] != "running":
            return
        if isinstance(exc, KeyboardInterrupt):
            category = "interrupted"
        else:
            category = getattr(exc, "category", "internal")
        self.data["error"] = {"category": category, "message": str(exc)}
        self.data["finished_at"] = _utcnow()
        self.data["status"] = "failed"
        try:
            self._write()
        except OSError as write_exc:
            log.warning("cannot finalize %s: %s", self.path, write_exc)


def _out_dir(opts, required=True) -> Path | None:
    out = opts.get("out", required=required)
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _start_manifest(opts: Options, out: Path) -> Manifest:
    """Write the manifest with a snapshot of the command's flags; see :class:`Options`."""
    _, _, names = _COMMANDS[opts.command]
    opts.manifest = Manifest(out, opts.command, {k: opts.get(k) for k in names})
    return opts.manifest


def _load_pipeline_inputs(opts, model=None):
    table = load_embeddings(opts.get("embeddings", required=True))
    stoplist = load_stopwords(opts.get("stopwords"))
    if model is not None and table.dim != model.embedding_dim:
        raise DimensionError(
            f"embedding dimension {table.dim} does not match model "
            f"dimension {model.embedding_dim}"
        )
    return table, stoplist


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth_data(opts: Options) -> int:
    seed = opts.get("seed", required=True)
    out = _out_dir(opts)
    manifest = _start_manifest(opts, out)
    corpus = generate_synthetic(
        docs_per_class=opts.get("docs_per_class"),
        dim=opts.get("dim"),
        seed=seed,
    )
    paths = write_synthetic(corpus, out)
    for p in paths.values():
        manifest.add_output(p)
    manifest.finalize()
    print(f"corpus {paths['corpus']}")
    print(f"embeddings {paths['embeddings']}")
    print(f"truth {paths['truth']}")
    return 0


def _train_config(opts) -> TrainConfig:
    kind = opts.get("distance")
    if kind not in DISTANCE_KINDS:
        raise UsageError(f"--distance must be one of {'/'.join(DISTANCE_KINDS)}")
    return TrainConfig(
        subspace_dim=opts.get("d"),
        seed=opts.get("seed", required=True),
        beta=opts.get("beta"),
        distance_kind=kind,
        lr_prototype=opts.get("lr_w"),
        lr_relevance=opts.get("lr_lambda"),
        epochs=opts.get("epochs"),
        prototypes_per_class=opts.get("per_class"),
    )


def cmd_train(opts: Options) -> int:
    config = _train_config(opts)
    out = _out_dir(opts)
    manifest = _start_manifest(opts, out)
    table, stoplist = _load_pipeline_inputs(opts)
    if config.subspace_dim > table.dim:
        raise DimensionError(
            f"subspace dimension {config.subspace_dim} exceeds embedding "
            f"dimension {table.dim}"
        )
    records = ingest(opts.get("corpus", required=True))

    fraction = opts.get("train_fraction")
    test_records = None
    if fraction is not None:
        train_records, test_records = split(records, fraction, config.seed)
        write_corpus(train_records, out / "train.jsonl")
        write_corpus(test_records, out / "test.jsonl")
        manifest.add_output(out / "train.jsonl")
        manifest.add_output(out / "test.jsonl")
        log.info("split: %d train / %d test", len(train_records), len(test_records))
    else:
        train_records = records

    examples, skipped = corpus_to_subspaces(train_records, table, stoplist, config.subspace_dim)
    if skipped:
        log.warning("%d training records skipped", len(skipped))
    state = train(examples, config)

    model_path = out / "model.bin"
    save_model(state, model_path)
    manifest.add_output(model_path)

    log_path = out / "training_log.csv"
    _write_csv(log_path, ["epoch", "mean_cost", "train_accuracy"],
               ([epoch, format(cost, ".17g"), format(acc, ".17g")]
                for epoch, cost, acc in state.training_log))
    manifest.add_output(log_path)

    print(f"model {model_path}")
    print(f"train_accuracy {state.training_log[-1][2]!r}")

    if test_records is not None:
        test_examples, test_skipped = corpus_to_subspaces(
            test_records, table, stoplist, config.subspace_dim)
        if test_skipped:
            log.warning("%d test records skipped", len(test_skipped))
        report = evaluate(state, test_examples)
        print(f"test_accuracy {report.accuracy!r}")

    manifest.finalize(model_checksum=model_checksum(model_path))
    return 0


def cmd_evaluate(opts: Options) -> int:
    state = load_model(opts.get("model", required=True))
    table, stoplist = _load_pipeline_inputs(opts, model=state)
    records = ingest(opts.get("corpus", required=True))
    examples, skipped = corpus_to_subspaces(records, table, stoplist, state.subspace_dim)
    if skipped:
        log.warning("%d records skipped", len(skipped))
    report = evaluate(state, examples)
    print(f"accuracy {report.accuracy!r}")
    for label in sorted(report.per_class):
        metrics = report.per_class[label]
        print(f"class {label} precision {metrics['precision']!r} "
              f"recall {metrics['recall']!r} support {int(metrics['support'])}")
    out = _out_dir(opts, required=False)
    if out is not None:
        manifest = _start_manifest(opts, out)
        path = out / "evaluation.json"
        path.write_text(json.dumps({
            "accuracy": report.accuracy,
            "per_class": report.per_class,
            "confusion": [[t, p, c] for (t, p), c in sorted(report.confusion.items())],
            "skipped": skipped,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        manifest.add_output(path)
        manifest.finalize()
    return 0


def cmd_predict(opts: Options) -> int:
    state = load_model(opts.get("model", required=True))
    table, stoplist = _load_pipeline_inputs(opts, model=state)
    records = ingest(opts.get("corpus", required=True))

    def predict_one(rec):
        _, _, sub = prepare_document(rec.case_id, rec.text, table, stoplist, state.subspace_dim)
        label, dists = classify(sub, state)
        return [rec.case_id, label] + [format(v, ".17g") for v in dists]

    rows, skipped = map_records(records, predict_one)
    header = ["case_id", "predicted_label"] + [
        f"dist_{i}_{p.label}" for i, p in enumerate(state.prototypes)
    ]
    out = _out_dir(opts, required=False)
    if out is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        manifest = _start_manifest(opts, out)
        path = out / "predictions.csv"
        _write_csv(path, header, rows)
        manifest.add_output(path)
        manifest.finalize(skipped=len(skipped))
        print(f"predictions {path}")
    return 0


def cmd_explain(opts: Options) -> int:
    state = load_model(opts.get("model", required=True))
    table, stoplist = _load_pipeline_inputs(opts, model=state)
    records = ingest(opts.get("corpus", required=True))
    top_k = opts.get("top_k")
    positive = opts.get("positive_label")
    out = _out_dir(opts)
    manifest = _start_manifest(opts, out)
    if positive is not None:
        check_positive_label(state, positive)
    reports, skipped = map_records(
        records, lambda rec: explanation_report(rec, state, table, stoplist, top_k, positive))
    jsonl_path = out / "explanations.jsonl"
    csv_path = out / "explanations.csv"
    write_reports_jsonl(reports, jsonl_path)
    write_reports_csv(reports, csv_path)
    manifest.add_output(jsonl_path)
    manifest.add_output(csv_path)
    manifest.finalize(skipped=len(skipped))
    print(f"explanations {jsonl_path}")
    print(f"explained {len(reports)}")
    return 0


def cmd_score_corpus(opts: Options) -> int:
    state = load_model(opts.get("model", required=True))
    positive = opts.get("positive_label", required=True)
    table, stoplist = _load_pipeline_inputs(opts, model=state)
    records = ingest(opts.get("corpus", required=True))
    out = _out_dir(opts)
    manifest = _start_manifest(opts, out)
    scored, skipped = batch_score(records, state, table, stoplist, positive)
    ranked = rank(scored)
    path = out / "scored.csv"
    write_scored(ranked, path)
    manifest.add_output(path)
    if skipped:
        skip_path = out / "skipped.csv"
        _write_csv(skip_path, ["case_id", "reason"], skipped)
        manifest.add_output(skip_path)
    manifest.finalize(scored=len(ranked), skipped=len(skipped))
    print(f"scored {path}")
    threshold = opts.get("threshold")
    if threshold is not None:
        print(f"above_threshold {count_above(ranked, threshold)}")
    return 0


def cmd_rank(opts: Options) -> int:
    scored = read_scored(opts.get("scored", required=True))
    ranked = rank(scored)
    out = _out_dir(opts, required=False)
    if out is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(["case_id", "score", "percentile", "predicted_label"])
        for s in ranked:
            writer.writerow([s.case_id, format(s.score, ".17g"),
                             format(s.percentile, ".17g"), s.predicted_label])
    else:
        manifest = _start_manifest(opts, out)
        path = out / "ranked.csv"
        write_scored(ranked, path)
        manifest.add_output(path)
        manifest.finalize()
        print(f"ranked {path}")
    return 0


def cmd_sample(opts: Options) -> int:
    seed = opts.get("seed", required=True)
    scored = rank(read_scored(opts.get("scored", required=True)))
    bands = parse_bands(opts.get("bands", required=True))
    per_band = opts.get("per_band")
    out = _out_dir(opts)
    manifest = _start_manifest(opts, out)
    sampled = sample_for_annotation(scored, bands, per_band, seed)
    path = out / "sample.csv"
    _write_csv(path, ["band_lo", "band_hi", "case_id"],
               ([format(lo, "g"), format(hi, "g"), case_id]
                for (lo, hi), ids in sampled.items() for case_id in ids))
    manifest.add_output(path)
    manifest.finalize(sampled=sum(len(v) for v in sampled.values()))
    print(f"sample {path}")
    return 0


def cmd_calibrate(opts: Options) -> int:
    scored = rank(read_scored(opts.get("scored", required=True)))
    annotations = read_annotations(opts.get("annotations", required=True))
    bands = parse_bands(opts.get("bands", required=True))
    target = opts.get("target_precision")
    out = _out_dir(opts)
    manifest = _start_manifest(opts, out)
    report = calibrate(scored, annotations, bands, target)
    path = out / "calibration.json"
    path.write_text(json.dumps({
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
    }, indent=2) + "\n", encoding="utf-8")
    manifest.add_output(path)
    manifest.finalize()
    print(f"calibration {path}")
    for b in report.bands:
        fraction = "undefined" if b.fraction_positive is None else repr(b.fraction_positive)
        print(f"band {b.lo:g}:{b.hi:g} cases {b.case_count} "
              f"annotated {b.annotated_count} fraction_positive {fraction}")
    if target is not None:
        print(f"threshold_score "
              f"{'none' if report.threshold_score is None else repr(report.threshold_score)}")
    return 0


def cmd_grad_check(opts: Options) -> int:
    seed = opts.get("seed", default=20240)
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

# name -> (function, help, flags it accepts; also its manifest config snapshot)
_COMMANDS = {
    "synth-data": (cmd_synth_data, "generate the synthetic two-class corpus",
                   ("seed", "docs_per_class", "dim", "out")),
    "train": (cmd_train, "train a classifier on a labeled corpus",
              ("embeddings", "stopwords", "corpus", "out", "d", "beta", "distance", "epochs",
               "lr_w", "lr_lambda", "per_class", "seed", "train_fraction")),
    "evaluate": (cmd_evaluate, "accuracy and per-class metrics on a labeled corpus",
                 ("model", "corpus", "embeddings", "stopwords", "out")),
    "predict": (cmd_predict, "nearest-prototype labels for a corpus",
                ("model", "corpus", "embeddings", "stopwords", "out")),
    "explain": (cmd_explain, "per-word impact reports for a corpus",
                ("model", "corpus", "embeddings", "stopwords", "top_k", "positive_label", "out")),
    "score-corpus": (cmd_score_corpus, "probability-score and rank a corpus",
                     ("model", "corpus", "embeddings", "stopwords", "positive_label",
                      "threshold", "out")),
    "rank": (cmd_rank, "sort a scored file and fill percentiles", ("scored", "out")),
    "calibrate": (cmd_calibrate, "per-band positive fractions from annotations",
                  ("scored", "annotations", "bands", "target_precision", "out")),
    "sample": (cmd_sample, "sample cases per percentile band for annotation",
               ("scored", "bands", "per_band", "seed", "out")),
    "grad-check": (cmd_grad_check, "verify analytic gradients against finite differences",
                   ("seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-lvq",
        description="Prototype-based subspace document classification and corpus triage.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file; flags override")
        for name in names:
            flag = _FLAGS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=flag.type,
                           choices=flag.choices, help=flag.help)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = None
    try:
        opts = Options(args)
        return args.func(opts)
    except BaseException as exc:
        if opts is not None and opts.manifest is not None:
            opts.manifest.fail(exc)
        if not isinstance(exc, ToolkitError):
            raise
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
