"""Run the benchmark over several seeds and summarize the spread.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --workloads quickstart,embload --seeds 1-10 \
        --trace 0 --out perfbench/baseline/end_to_end.json

Each run is a separate process, as in a full evaluation, and lasts the
``run_seconds`` of ``BENCHMARK.json``.  For every metric the summary gives
the median, the quartiles and the spread (interquartile distance over the
median) of the per-run values, and for each bounded metric whether the
spread stays under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                if result is None:
                    continue
            env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
            summary.setdefault("env", env)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.5g} {m['unit']}" for n, m in result["metrics"].items()),
                file=sys.stderr)
        rows = {name: {"unit": units[name], **summarize(values)} for name, values in per_metric.items()}
        for name, row in rows.items():
            bound = bounds.get(name)
            if bound is not None and row["spread"] is not None:
                row["bound"] = bound
                row["steady"] = row["spread"] < bound / 3
        summary["workloads"][workload] = {"runs": runs, "metrics": rows}
        for name, row in rows.items():
            if "bound" in row:
                print(f"{workload:10s} {name:20s} median {row['median']:.5g} "
                      f"spread {row['spread']:.4f} bound {row['bound']} "
                      f"{'steady' if row['steady'] else 'NOT steady'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
