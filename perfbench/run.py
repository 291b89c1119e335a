"""Benchmark of the batch-triage command sequence.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 55 --trace 0

Generates the workload's inputs from the seed in a child process, then runs
``train`` -> ``score-corpus`` -> ``sample`` -> ``calibrate`` -> ``explain``
in-process, again and again until ``--seconds`` are spent.  The first repeat
warms up and is not counted.  Every repeat's outputs are checked.

``--trace 0`` reports the end-to-end metrics as medians over the repeats.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics (medians over the traced repeats) and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment record and the
per-repeat detail go to ``.perfbench/results/`` and, as an ``env`` line, to
standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 3            # one warm-up plus at least two measured

# name -> (unit, better); BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "score_docs_per_s": ("docs/s", "higher"),
    "explain_docs_per_s": ("docs/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "test_accuracy": ("fraction", "higher"),
    "completed_frac": ("fraction", "higher"),
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Benchmark of the batch-triage command sequence.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=20, check=True).stdout.strip()


def src_digest() -> str:
    """SHA-256 over the package's source files, names included.

    Tells runs of one git rev apart when ``src/`` has uncommitted changes.
    """
    digest = hashlib.sha256()
    package = SRC / "subspace_lvq"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment(workload, seed) -> dict:
    import platform

    import numpy as np

    rev = dirty = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            rev = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--", "src"))
        except (OSError, subprocess.SubprocessError) as exc:
            rev = dirty = f"unknown: {exc}"
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy older than 1.26 prints its config instead
        blas = {}
    return {
        "git_rev": rev,
        "src_dirty": dirty,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads_runtime": blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": asdict(workload),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(measured, truth, attempted, failed) -> dict[str, float]:
    import resource

    n_scored = len(truth["labels"]) + len(truth["planted_skips"])
    n_explained = len(truth["explain_ids"])
    return {
        "setup_s": median([s for r in measured for s in r.setup_s]),
        "train_s": median([r.seconds["train"] for r in measured]),
        "score_docs_per_s": median([n_scored / r.seconds["score-corpus"] for r in measured]),
        "explain_docs_per_s": median([n_explained / r.seconds["explain"] for r in measured]),
        "pipeline_s": median([r.pipeline_s for r in measured]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_accuracy": median([r.test_accuracy or 0.0 for r in measured]),
        "completed_frac": (attempted - failed) / attempted,
    }


def measure(args, workload, truth, inputs: Path, out: Path, cli):
    """Repeat the checked command sequence until ``args.seconds`` are spent.

    Returns the repeats (the first is the warm-up), the span recorders of the
    traced ones, and the span names found absent.
    """
    import pipeline
    import tracing

    repeats, recorders, absent = [], [], set()
    longest = 0.0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        began = time.perf_counter()
        if traced:
            recorder = tracing.SpanRecorder()
            with tracing.traced(recorder) as missing:
                rep = pipeline.run_repeat(cli, workload, args.seed, truth, inputs, out, recorder)
            absent.update(missing)
            recorders.append(recorder)
        else:
            rep = pipeline.run_repeat(cli, workload, args.seed, truth, inputs, out)
            if not args.trace and rep.exit_codes["train"] == 0:
                rep.setup_s = pipeline.measure_setup(inputs, out / "train" / "model.bin")
        repeats.append(rep)
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(repeats) >= MIN_REPEATS and elapsed + longest > args.seconds:
            break

    return repeats, recorders, absent


def run(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload.name,
                    "--seed", str(args.seed), "--out", str(inputs), "--src", str(SRC)],
                   check=True, timeout=150)
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    import subspace_lvq
    from subspace_lvq import cli

    if Path(subspace_lvq.__file__).resolve().parent != (SRC / "subspace_lvq").resolve():
        print(f"error: imported {subspace_lvq.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    import pipeline
    import tracing

    repeats, recorders, absent = measure(args, workload, truth, inputs, out, cli)
    measured = repeats[1:]   # the first repeat warms up
    untraced = [r for r in measured if not r.traced]
    problems = sorted({p for r in repeats for p in r.problems}) + pipeline.check_identical(repeats)
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)

    if args.trace:
        per_layer = [tracing.layer_metrics(rec, list(pipeline.COMMANDS)) for rec in recorders]
        values = {name: median([m[name] for m in per_layer]) for name in per_layer[0]}
        traced_s = median([r.pipeline_s for r in measured if r.traced])
        values["trace.overhead_frac"] = traced_s / median([r.pipeline_s for r in untraced]) - 1.0
        spec = tracing.LAYER_METRICS
    else:
        values = end_to_end(measured, truth, attempted, failed)
        spec = END_TO_END

    env = environment(workload, args.seed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "env": env,
        "seconds": args.seconds,
        "problems": problems,
        "absent": sorted(absent),
        "probe_errors": sorted({e for rec in recorders for e in rec.probe_errors}),
        "repeats": [{"traced": r.traced, "seconds": r.seconds, "setup_s": r.setup_s,
                     "test_accuracy": r.test_accuracy, "exit_codes": r.exit_codes,
                     "hashes": r.hashes, "problems": r.problems} for r in repeats],
        "metrics": values,
    }
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    if recorders:
        with (results / f"{stem}-spans.csv").open("w", encoding="utf-8") as handle:
            handle.write("repeat,id,name,start,end,parent,invocation\n")
            for i, rec in enumerate(recorders):
                rec.write_csv(handle, str(i))
    shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name in sorted(absent):
        print(f"absent: {name} was not found to wrap", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (unit, _) in spec.items():
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in spec.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    # Pinned before numpy loads, here and in the generator it starts.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    args = parse_args(argv)
    if not (SRC / "subspace_lvq" / "__init__.py").is_file():
        print(f"error: no subspace_lvq package under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
