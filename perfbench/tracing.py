"""Spans around the package's functions, recorded from outside the package.

``traced`` rebinds every reference that a ``subspace_lvq`` module holds to a
public function of a layer module (plus the private stages named in
``PRIVATE``) to a wrapper that records a span: name, start, end, parent span
and the command invocation it belongs to.  Nothing under ``src/`` changes and
the originals are restored on exit.  Spans stay in memory in flat arrays; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

PACKAGE = "subspace_lvq"
# ``synth`` only generates inputs and is never timed.
LAYERS = ("embedding", "subspace", "geometry", "model", "corpus", "explain", "model_io", "cli")
PRIVATE = ("model._pass_stats", "model._distances")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counters taken at layer boundaries, from the arguments and result of a call.
def _count_load(counters, args, kwargs, result):
    counters["embedding.load_bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _count_embed(counters, args, kwargs, result):
    doc = _arg(args, kwargs, 0, "doc")
    counters["embedding.tokens"] += len(doc.kept_tokens)
    counters["embedding.oov_tokens"] += doc.dropped_oov


def _count_subspace(counters, args, kwargs, result):
    counters["subspace.svd_cols"] += _arg(args, kwargs, 0, "matrix").columns.shape[1]
    if result is not None and result.effective_dim < _arg(args, kwargs, 1, "d"):
        counters["subspace.rank_deficient_docs"] += 1


def _count_batch(counters, args, kwargs, result):
    counters["corpus.records"] += len(_arg(args, kwargs, 0, "records"))
    if result is not None:
        counters["corpus.skipped"] += len(result[1])


def _count_report(counters, args, kwargs, result):
    counters["explain.reports"] += result is not None


def _count_save(counters, args, kwargs, result):
    counters["model_io.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


PROBES = {
    "embedding.load_embeddings": _count_load,
    "embedding.embed": _count_embed,
    "subspace.compute_subspace": _count_subspace,
    "corpus.batch_score": _count_batch,
    "explain.explanation_report": _count_report,
    "model_io.save_model": _count_save,
}


class SpanRecorder:
    """In-memory spans of one traced run, one flat array per field."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.invocation = array("l")
        self.start = array("d")
        self.end = array("d")
        self.invocation_id = -1
        self.counters: Counter = Counter()
        self.probe_errors: list[str] = []
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None):
        nid = self.name_id(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, invocations = self.name, self.parent, self.invocation
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            invocations.append(self.invocation_id)
            ends.append(0.0)
            stack.append(idx)
            result = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()
                if probe is not None:
                    try:
                        probe(self.counters, args, kwargs, result)
                    except Exception as exc:  # noqa: BLE001 - a stale probe must not break the run
                        self.probe_errors.append(f"{name}: {exc!r}")

        return wrapper

    def arrays(self):
        """(name ids, parent ids, invocation ids, durations, self times)."""
        name, parent, inv = (np.array(a, dtype=np.int64)
                             for a in (self.name, self.parent, self.invocation))
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name, parent, inv, dur, dur - covered

    def write_csv(self, handle, tag: str) -> None:
        for i in range(len(self.start)):
            handle.write(f"{tag},{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.invocation[i]}\n")


def targets(modules) -> dict:
    """Functions to wrap in the given ``name -> module`` map, mapped to span names."""
    found = {}
    for layer in LAYERS:
        mod = modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                found[obj] = f"{layer}.{attr}"
    for name in PRIVATE:
        layer, attr = name.split(".")
        obj = getattr(modules.get(f"{PACKAGE}.{layer}"), attr, None)
        if inspect.isfunction(obj):
            found[obj] = name
    return found


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Wrap the package's functions for the duration of the block.

    Yields the names that were expected but not found, so a refactor that
    removes a wrapped function is reported instead of failing the run.
    """
    modules = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
    found = targets(modules)
    wrappers = {fn: recorder.wrap(name, fn, PROBES.get(name)) for fn, name in found.items()}
    absent = sorted(set(METRIC_SPANS) - set(found.values()))
    patched = []
    try:
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    patched.append((mod, attr, obj))
        yield absent
    finally:
        for mod, attr, obj in reversed(patched):
            setattr(mod, attr, obj)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Spans the per-layer metrics read; one that is not found is reported absent.
METRIC_SPANS = (
    "embedding.load_embeddings", "embedding.preprocess", "embedding.embed",
    "subspace.compute_subspace",
    "geometry.principal_system", "geometry.qr_retract", "geometry.project_simplex",
    "geometry.weighted_distance", "geometry.distance_gradient_basis",
    "geometry.distance_gradient_weights",
    "model.train", "model._pass_stats", "model.init_prototypes", "model._distances",
    "model.classify",
    "corpus.ingest", "corpus.batch_score", "corpus.rank", "corpus.write_scored",
    "explain.word_impacts", "explain.explanation_report",
    "model_io.save_model", "model_io.load_model",
    "cli.main",
)

GEOMETRY_STAGES = {
    "principal_system": ("geometry.principal_system",),
    "qr_retract": ("geometry.qr_retract",),
    "project_simplex": ("geometry.project_simplex",),
    "weighted_distance": ("geometry.weighted_distance",),
    "gradient": ("geometry.distance_gradient_basis", "geometry.distance_gradient_weights"),
}

# name -> (unit, better); the order is the order they are reported in.
LAYER_METRICS = {
    "embedding.load_s": ("s", "lower"),
    "embedding.load_calls": ("count", "lower"),
    "embedding.load_mb_per_s": ("MiB/s", "higher"),
    "embedding.preprocess_s": ("s", "lower"),
    "embedding.embed_s": ("s", "lower"),
    "embedding.tokens": ("count", "higher"),
    "embedding.oov_tokens": ("count", "lower"),
    "subspace.compute_s": ("s", "lower"),
    "subspace.docs": ("count", "lower"),
    "subspace.svd_cols_per_doc": ("cols/doc", "lower"),
    "subspace.rank_deficient_docs": ("count", "lower"),
    **{f"geometry.{stage}_{suffix}": (unit, "lower")
       for stage in GEOMETRY_STAGES for suffix, unit in (("s", "s"), ("calls", "count"))},
    "model.train_self_s": ("s", "lower"),
    "model.pass_stats_s": ("s", "lower"),
    "model.init_s": ("s", "lower"),
    "model.update_used_ratio": ("ratio", "higher"),
    "model.distance_evals": ("count", "lower"),
    "model.classify_per_scored_doc": ("calls/doc", "lower"),
    "model.classify_per_explained_doc": ("calls/doc", "lower"),
    "corpus.ingest_s": ("s", "lower"),
    "corpus.batch_score_self_s": ("s", "lower"),
    "corpus.rank_s": ("s", "lower"),
    "corpus.write_scored_s": ("s", "lower"),
    "corpus.records": ("count", "higher"),
    "corpus.skipped": ("count", "lower"),
    "explain.word_impacts_s": ("s", "lower"),
    "explain.report_self_s": ("s", "lower"),
    "model_io.save_s": ("s", "lower"),
    "model_io.load_s": ("s", "lower"),
    "model_io.bytes": ("count", "lower"),
    **{f"cli.{command}.self_s": ("s", "lower")
       for command in ("train", "score-corpus", "sample", "calibrate", "explain")},
    "trace.overhead_frac": ("fraction", "lower"),
}


def _inside(start, end, outer_start, outer_end) -> np.ndarray:
    """Mask of spans that lie within one of the (non-overlapping) outer spans."""
    order = np.argsort(outer_start)
    o_start, o_end = outer_start[order], outer_end[order]
    j = np.searchsorted(o_start, start, side="right") - 1
    ok = j >= 0
    ok[ok] = end[ok] <= o_end[j[ok]]
    return ok


def layer_metrics(rec: SpanRecorder, commands: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced run of ``commands`` (invocation order).

    ``trace.overhead_frac`` needs an untraced run too; the caller adds it.
    """
    name, parent, inv, dur, self_t = rec.arrays()
    start, end = np.asarray(rec.start), np.asarray(rec.end)
    def mask(*names):
        wanted = [rec.names.index(n) for n in names if n in rec.names]
        return np.isin(name, wanted)

    def total(*names):
        return float(dur[mask(*names)].sum())

    def calls(*names):
        return int(mask(*names).sum())

    def self_of(*names):
        return float(self_t[mask(*names)].sum())

    def command_mask(command):
        return inv == commands.index(command) if command in commands else np.zeros(inv.size, bool)

    c = rec.counters
    m: dict[str, float] = {}
    m["embedding.load_s"] = total("embedding.load_embeddings")
    m["embedding.load_calls"] = calls("embedding.load_embeddings")
    m["embedding.load_mb_per_s"] = (c["embedding.load_bytes"] / 2**20 / m["embedding.load_s"]
                                    if m["embedding.load_s"] else 0.0)
    m["embedding.preprocess_s"] = total("embedding.preprocess")
    m["embedding.embed_s"] = total("embedding.embed")
    m["embedding.tokens"] = c["embedding.tokens"]
    m["embedding.oov_tokens"] = c["embedding.oov_tokens"]
    m["subspace.compute_s"] = total("subspace.compute_subspace")
    m["subspace.docs"] = calls("subspace.compute_subspace")
    m["subspace.svd_cols_per_doc"] = c["subspace.svd_cols"] / max(m["subspace.docs"], 1)
    m["subspace.rank_deficient_docs"] = c["subspace.rank_deficient_docs"]
    for stage, names in GEOMETRY_STAGES.items():
        m[f"geometry.{stage}_s"] = total(*names)
        m[f"geometry.{stage}_calls"] = calls(*names)

    train = mask("model.train")
    in_train = _inside(start, end, start[train], end[train])
    systems = int((mask("geometry.principal_system") & in_train).sum())
    retractions = int((mask("geometry.qr_retract") & in_train).sum())
    m["model.train_self_s"] = self_of("model.train")
    m["model.pass_stats_s"] = total("model._pass_stats")
    m["model.init_s"] = total("model.init_prototypes")
    # Two QR retractions per update: this is 2 * updates / systems computed.
    m["model.update_used_ratio"] = retractions / systems if systems else 0.0
    distances = mask("model._distances")
    in_distances = np.zeros(name.size, bool)
    has_parent = parent >= 0
    in_distances[has_parent] = distances[parent[has_parent]]
    m["model.distance_evals"] = int((mask("geometry.weighted_distance") & in_distances).sum())
    scored = c["corpus.records"] - c["corpus.skipped"]
    m["model.classify_per_scored_doc"] = (
        int((mask("model.classify") & command_mask("score-corpus")).sum()) / scored if scored else 0.0)
    explained = c["explain.reports"]
    m["model.classify_per_explained_doc"] = (
        int((mask("model.classify") & command_mask("explain")).sum()) / explained if explained else 0.0)

    m["corpus.ingest_s"] = total("corpus.ingest")
    m["corpus.batch_score_self_s"] = self_of("corpus.batch_score")
    m["corpus.rank_s"] = total("corpus.rank")
    m["corpus.write_scored_s"] = total("corpus.write_scored")
    m["corpus.records"] = c["corpus.records"]
    m["corpus.skipped"] = c["corpus.skipped"]
    m["explain.word_impacts_s"] = total("explain.word_impacts")
    m["explain.report_self_s"] = self_of("explain.explanation_report")
    m["model_io.save_s"] = total("model_io.save_model")
    m["model_io.load_s"] = total("model_io.load_model")
    m["model_io.bytes"] = c["model_io.bytes"]

    cli_names = [n for n in rec.names if n.startswith("cli.")]
    for command in commands:
        m[f"cli.{command}.self_s"] = float(self_t[mask(*cli_names) & command_mask(command)].sum())
    return m
