"""Regenerates the recorded workload results under ``results/`` by running
the benchmark itself, so every recorded figure can be re-checked:

    python3 bench/record.py traced [--seed 1]             # results/traced.json
    python3 bench/record.py spread [--seeds 401 ... 410]  # results/workloads.json

``traced`` runs ``run.py --trace 1`` once per workload and keeps its metrics
and the per-job-group self-time shares that run prints.  ``spread`` runs
``run.py --trace 0`` once per seed and workload and records each end-to-end
metric's median and quartile spread beside its bound.  Both use the run
length of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")

sys.path.insert(0, BENCH)
from workloads import JOB_GROUPS, WORKLOADS  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    """The result object of one run and, when traced, its job-group shares."""
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    groups = next((json.loads(line[len("groups "):]) for line in lines if line.startswith("groups ")), None)
    print(f"{workload} seed {seed}: {lines[-1][:120]}", file=sys.stderr)
    return json.loads(lines[-1]), groups


def _machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def _write(name: str, doc: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def traced(seed: int, seconds: int) -> None:
    doc = {"command": f"python3 bench/run.py --workload W --seed {seed} --seconds {seconds} --trace 1",
           "machine": _machine(), "workloads": {}, "groups": {}}
    for workload in WORKLOADS:
        result, groups = _run(workload, seed, seconds, 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        own = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s") and v}
        total = sum(own.values())
        doc["workloads"][workload] = {
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "self_share": {g: round(v / total, 4) for g, v in sorted(own.items(), key=lambda x: -x[1])},
            "metrics": metrics,
        }
        for group, _ in JOB_GROUPS[workload]:
            g = groups[group]
            doc["groups"][group] = {
                "workload": workload, "focus_layers": g["focus_layers"],
                "focus_share": round(g["focus_share"], 4),
                "self_share": {k: round(v, 4) for k, v in g["self_share"].items()},
            }
    _write("traced.json", doc)


def spread(seeds: list[int], seconds: int, bounds: dict) -> None:
    doc = {"command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
           "machine": _machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = []
        for seed in seeds:
            result, _ = _run(workload, seed, seconds, 0)
            attempted.append(result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        out = {}
        for name, vs in values.items():
            q1, median, q3 = statistics.quantiles(vs, n=4)
            out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                         "bound": bounds[name], "values": vs}
        out["attempted"] = attempted
        doc["workloads"][workload] = out
    _write("workloads.json", doc)


def main() -> int:
    ap = argparse.ArgumentParser(description="regenerate results/traced.json or results/workloads.json")
    ap.add_argument("what", choices=("traced", "spread"))
    ap.add_argument("--seed", type=int, default=1, help="seed of the traced runs")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(401, 411)),
                    help="seeds of the spread runs")
    args = ap.parse_args()
    spec = _spec()
    if args.what == "traced":
        traced(args.seed, spec["run_seconds"])
    else:
        spread(args.seeds, spec["run_seconds"], {m["name"]: m["bound"] for m in spec["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
