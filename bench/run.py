"""The coarsekit benchmark: one seeded workload, run as a closed loop with
one client, from the root of a source checkout.

    python3 bench/run.py --workload ingest-certify --seed 1 --seconds 55 --trace 0

Inputs are generated as files by a separate process before timing starts,
so the program receives only files and arguments.  Each pass runs every job
of the workload once, in a seeded order, through ``coarsekit.cli.run`` (or,
in ``cone``, the public library call a Python user makes); passes repeat
until ``--seconds`` have gone by.  Every job is checked against the answer
its construction fixed, and a job that runs again must repeat its machine
output byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
warm-up pass, then alternates untraced passes with passes that put spans
around every layer's public functions, and prints the per-layer metrics;
a line before the last gives each job group's self-time shares.  The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from checks import check_cli, check_lib, output_digest
from spans import LAYERS, Tracer, inclusive_times, self_times
from workloads import JOB_GROUPS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_LAUNCHES = 5
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import coarsekit.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)
# enough jobs that at least ten lie beyond the 90th percentile
MIN_JOBS = 100
# alternations of the --jobs 1 / --jobs 2 phi-suite walls behind cli.jobs2_speedup
SPEEDUP_REPEATS = 3

# span-group prefixes of the layers each job group was chosen to stress
FOCUS = {
    "ingest": ("io.parse_family", "metric.validate_metric"),
    "certify": ("covers.", "decomposition.check_"),
    "cone": ("cone.", "phisuite."),
    "emit": ("io.write", "decomposition.search_decomposition", "constructions.", "metric.construct"),
}


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of numpy and of coarsekit.cli in fresh interpreters,
    after one untimed launch that leaves the bytecode cache warm."""
    numpy_s, coarsekit_s = [], []
    for k in range(SETUP_LAUNCHES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
                              text=True, timeout=120, check=True)
        a, b = (float(v) for v in done.stdout.split())
        if k:
            numpy_s.append(a)
            coarsekit_s.append(b)
    return numpy_s, coarsekit_s


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs the passes of one manifest and checks every job's output."""

    def __init__(self, manifest: dict):
        from coarsekit import cli, cone, io

        self.cli, self.cone = cli, cone
        self.jobs = manifest["jobs"]
        self.counts = manifest["counts"]
        self.calls = []
        for job in self.jobs:
            if "argv" in job:
                self.calls.append(self._cli_call(job["argv"]))
                continue
            args = job["lib"]
            with open(args["family"], encoding="utf-8") as fh:
                y = io.parse_family(fh.read()).members[0]
            rho = cone.parse_rho(args["rho"])
            self.calls.append(self._lib_call(job["cmd"][4:], rho, y, args))
        self.tracer = None  # while set, each job's spans are filed under its group
        self.group_spans: dict[str, list] = {}
        self.first: dict[str, tuple] = {}  # job id -> (digest, output, document path)
        self.matched: dict[str, int] = {}
        self.attempted = 0
        self.raised = 0
        self.failed = 0
        self.errors: list[str] = []

    def _cli_call(self, argv):
        return lambda: self.cli.run(argv)  # looked up per call, so tracing sees it

    def _lib_call(self, fn, rho, y, args):
        heights = args["heights"]
        if fn == "chain_oracle":
            a = self.cone.ConePoint(*args["a"])
            b = self.cone.ConePoint(*args["b"])
            return lambda: self.cone.chain_oracle(rho, y, a, b, heights)
        return lambda: self.cone.cone_sample(rho, y, heights)

    def run_pass(self) -> list[float]:
        """One pass over the jobs; returns the wall time of each job."""
        times = []
        for job, call in zip(self.jobs, self.calls):
            first_span = len(self.tracer.spans) if self.tracer else 0
            t0 = perf_counter()
            try:
                result = call()
            except Exception as exc:  # a job that raises counts as failed
                result = exc
            times.append(perf_counter() - t0)
            if self.tracer:  # a job's spans, worker threads' too, end before it returns
                self.group_spans.setdefault(job["group"], []).extend(self.tracer.spans[first_span:])
            self._record(job, result)
        return times

    def _record(self, job, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            self.raised += 1
            self.failed += 1
            self.errors.append(f"{job['id']}: raised {type(result).__name__}: {result}")
            return
        doc = job["out"] if job["out"] and os.path.exists(job["out"]) else None
        if isinstance(result, tuple):  # (report, exit code) of cli.run
            digest = f"{result[1]}\n{result[0]}{_sha(doc) if doc else ''}"
        else:
            digest = output_digest(result)
        first = self.first.get(job["id"])
        if first is None:
            kept = None
            if doc:
                kept = doc + ".first"
                os.replace(doc, kept)
            self.first[job["id"]] = (digest, result, kept)
            self.matched[job["id"]] = 1
        elif digest == first[0]:
            self.matched[job["id"]] += 1
        else:
            self.failed += 1
            self.errors.append(f"{job['id']}: output differs from its first run")

    def verify(self) -> None:
        """Check each job's first output; every repeat that matched it
        shares its verdict."""
        for job in self.jobs:
            if job["id"] not in self.first:
                continue
            _, result, doc = self.first[job["id"]]
            try:
                if isinstance(result, tuple):
                    err = check_cli(job, result[1], result[0], doc)
                else:
                    err = check_lib(job, result)
            except Exception as exc:  # a malformed output is a failed job, not a crash
                err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                self.failed += self.matched[job["id"]]
                self.errors.append(f"{job['id']}: {err}")

    def bytes_written(self) -> int:
        """Bytes of the documents one pass writes."""
        return sum(os.path.getsize(doc) for _, _, doc in self.first.values() if doc)


def run_passes(runner: Runner, seconds: float, min_jobs: int = 0) -> list[list[float]]:
    """Whole passes until ``seconds`` have gone by and ``min_jobs`` jobs have
    run; the last pass starts only when it would end nearer the target
    than stopping now."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(runner.run_pass())
        elapsed = perf_counter() - start
        if (elapsed + (elapsed / len(passes)) / 2.0 >= seconds
                and sum(map(len, passes)) >= min_jobs):
            return passes


def phi_suite_speedup(runner: Runner) -> tuple[float, float, bool]:
    """Median wall of the workload's phi-suite jobs at --jobs 1 and at
    --jobs 2, alternating, and whether their machine outputs agree."""
    suites = [job["argv"] for job in runner.jobs if job["cmd"] == "phi-suite"]
    if not suites:
        return 0.0, 0.0, True
    walls = {1: [], 2: []}
    outputs = {}
    for _ in range(SPEEDUP_REPEATS):
        for jobs in (1, 2):
            t0 = perf_counter()
            for argv in suites:
                k = argv.index("--jobs") + 1
                outputs.setdefault(tuple(argv), set()).add(runner.cli.run(argv[:k] + [str(jobs)] + argv[k + 1:]))
            walls[jobs].append(perf_counter() - t0)
    same = all(len(v) == 1 for v in outputs.values())
    return statistics.median(walls[1]), statistics.median(walls[2]), same


def end_to_end(runner: Runner, seconds: float, setup) -> dict:
    passes = run_passes(runner, seconds, MIN_JOBS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [t for p in passes for t in p]
    completed = runner.attempted - runner.raised
    runner.verify()
    numpy_s, coarsekit_s = setup
    return {
        "setup_s": (statistics.median(a + b for a, b in zip(numpy_s, coarsekit_s)), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "jobs_per_s": (completed / sum(times), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "correct_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def interleaved_passes(runner: Runner, tracer: Tracer, seconds: float):
    """Untraced and traced passes in the order U T T U, repeated, until
    ``seconds`` have gone by and both kinds have run equally often, so that
    drift of the machine's speed falls on both kinds alike."""
    untraced, traced = [], []
    start = perf_counter()
    k = 0
    while k < 2 or k % 2 or perf_counter() - start < seconds:
        if k % 4 in (1, 2):
            tracer.install()
            runner.tracer = tracer
            try:
                traced.append(runner.run_pass())
            finally:
                runner.tracer = None
                tracer.uninstall()
        else:
            untraced.append(runner.run_pass())
        k += 1
    return untraced, traced


def group_shares(runner: Runner, k: int) -> dict:
    """Per job group: self seconds per pass of each layer, their shares,
    and the share held by the layers the group was chosen for."""
    out = {}
    for group, spans in sorted(runner.group_spans.items()):
        own = self_times(spans)
        total = sum(own.values())
        out[group] = {
            "focus_layers": list(FOCUS[group]),
            "focus_share": sum(v for g, v in own.items() if g.startswith(FOCUS[group])) / total,
            "self_s": {g: v / k for g, v in sorted(own.items(), key=lambda x: -x[1])},
            "self_share": {g: v / total for g, v in sorted(own.items(), key=lambda x: -x[1])},
        }
    return out


def per_layer(runner: Runner, seconds: float, setup, workload: str) -> tuple[dict, dict, bool]:
    start = perf_counter()
    runner.run_pass()  # warm-up, in neither half of the overhead ratio
    jobs1_s, jobs2_s, same = phi_suite_speedup(runner)  # 0 where no phi-suite job runs
    tracer = Tracer()
    untraced, traced = interleaved_passes(runner, tracer, seconds - (perf_counter() - start))
    runner.verify()
    k = len(traced)
    own = {g: v / k for g, v in self_times(tracer.spans).items()}
    inclusive = inclusive_times(tracer.spans)
    traced_wall = sum(map(sum, traced)) / k
    c = dict(runner.counts)
    c.update({key: v / k for key, v in tracer.counts.items()})

    def rate(count: float, group: str) -> float:
        return count / own[group] if own.get(group) else 0.0

    numpy_s, coarsekit_s = setup
    cd_total, cd_calls = inclusive.get("cone.cone_distance", (0.0, 0))
    found, attempts = c.get("decomposition.search_found", 0), c.get("decomposition.search_attempts", 0)
    focus = tuple(p for group, _ in JOB_GROUPS[workload] for p in FOCUS[group])
    m = {
        "setup.numpy_import_s": (statistics.median(numpy_s), "s"),
        "setup.coarsekit_import_s": (statistics.median(coarsekit_s), "s"),
        "cli.jobs2_speedup": (jobs1_s / jobs2_s if jobs2_s else 0.0, "ratio"),
        "cli.phi_suite_jobs1_s": (jobs1_s, "s"),
        "cli.phi_suite_jobs2_s": (jobs2_s, "s"),
        "io.tokens": (c.get("io.tokens", 0), "count"),
        "io.tokens_per_s": (rate(c.get("io.tokens", 0), "io.parse_family"), "1/s"),
        "io.bytes_written": (runner.bytes_written(), "B"),
        "io.write_bytes_per_s": (rate(runner.bytes_written(), "io.write"), "B/s"),
        "metric.triangle_triples": (c.get("metric.triangle_triples", 0), "count"),
        "metric.triples_per_s": (rate(c.get("metric.triangle_triples", 0), "metric.validate_metric"), "1/s"),
        "decomposition.edges": (c.get("decomposition.edges", 0), "count"),
        "decomposition.piece_pairs": (c.get("decomposition.piece_pairs", 0), "count"),
        "decomposition.search_attempts": (attempts, "count"),
        "decomposition.search_found_ratio": (found / attempts if attempts else 0.0, "ratio"),
        "covers.element_pairs": (c.get("covers.element_pairs", 0), "count"),
        "cone.phi.calls": (c.get("cone.phi.calls", 0), "count"),
        "cone.phi.evals": (c.get("cone.phi.evals", 0), "count"),
        "cone.cone_distance.per_call_us": (1e6 * cd_total / cd_calls if cd_calls else 0.0, "us"),
        "trace.overhead_ratio": (traced_wall / (sum(map(sum, untraced)) / len(untraced)), "ratio"),
        "trace.self_sum_ratio": (sum(own.values()) / traced_wall, "ratio"),
        "trace.focus_share": (sum(v for g, v in own.items() if g.startswith(focus))
                              / sum(own.values()), "ratio"),
    }
    groups = group_shares(runner, k)
    for group in FOCUS:  # 0 for the groups of the other workload
        m[f"trace.{group}.focus_share"] = (groups[group]["focus_share"] if group in groups else 0.0,
                                           "ratio")
    for group in LAYERS:
        m[f"{group}.self_s"] = (own.get(group, 0.0), "s")
    return m, groups, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coarsekit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coarsekit", "cli.py")):
        print(f"error: no coarsekit sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        subprocess.run([sys.executable, os.path.join(BENCH, "workloads.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", workdir, "--src", SRC],
                       timeout=170, check=True)
        setup = measure_setup()
        sys.path[:0] = [SRC, BENCH]
        import coarsekit

        if not os.path.abspath(coarsekit.__file__).startswith(SRC + os.sep):
            print(f"error: imported coarsekit from {coarsekit.__file__}", file=sys.stderr)
            return 2
        with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
            runner = Runner(json.load(fh))
        groups = None
        if args.trace:
            metrics, groups, consistent = per_layer(runner, args.seconds, setup, args.workload)
        else:
            metrics, consistent = end_to_end(runner, args.seconds, setup), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in runner.errors[:20]:
        print("FAILED " + err)
    if not consistent:
        print("FAILED phi-suite machine output differs between --jobs 1 and --jobs 2")
    if groups is not None:
        print("groups " + json.dumps(groups))
    print(json.dumps({
        "correct": runner.failed == 0 and consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
