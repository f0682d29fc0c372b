"""Reference pass: every row of the ROADMAP North-star table, measured once
at its stated size, with per-layer self times for the two end-to-end CLI
rows.  It is not part of the gated benchmark runs.

    python3 bench/reference.py [--out bench/results/reference.json]

It takes about a minute on a 2-core machine and writes one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _timed(fn, repeat: int = 1) -> float:
    """Median wall time of ``fn()`` over ``repeat`` calls."""
    walls = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def _traced_cli(argv) -> tuple[float, dict]:
    from coarsekit import cli
    from spans import Tracer, self_times

    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        cli.run(argv)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    return wall, {g: round(v, 4) for g, v in sorted(self_times(tracer.spans).items(), key=lambda x: -x[1])}


def reference(workdir: str) -> list[dict]:
    import numpy as np
    from coarsekit import cone, decomposition as dec, generators as gen, io, metric, phisuite
    from run import measure_setup
    from workloads import family_text, integer_points, path_stages

    rng = np.random.default_rng(0)
    rows = []

    def row(what, size, seconds, **extra):
        rows.append({"what": what, "size": size, "seconds": round(seconds, 6), **extra})
        print(f"{what:34s} {size:26s} {seconds:10.4f} s", file=sys.stderr)

    numpy_s, coarsekit_s = measure_setup()
    row("import coarsekit.cli", "-", statistics.median(a + b for a, b in zip(numpy_s, coarsekit_s)),
        numpy_import_s=round(statistics.median(numpy_s), 6))
    texts = {}
    for n in (500, 1000, 2000):
        labels, d = integer_points(rng, n, "l1")
        texts[n] = family_text(f"cloud{n}", [("X", labels, d)])
    for n in (1000, 2000):
        row("parse_family", f"{n} pts", _timed(lambda: io.parse_family(texts[n])))
    fam1000 = io.parse_family(texts[1000])
    row("write_family", "1000 pts", _timed(lambda: io.write_family(fam1000)))
    for n in (500, 1000):
        space = io.parse_family(texts[n]).members[0]
        row("validate_metric", f"{n} pts", _timed(lambda: metric.validate_metric(space)))
    path = gen.unit_path(2000, "path")
    pfam = metric.MetricFamily("path2000", (path,))
    cert = path_stages(pfam, (3,))
    row("check_decomposition", "2000-pt path, r=3", _timed(lambda: dec.check_decomposition(cert, pfam)))
    y = fam1000.members[0]
    a, b = cone.ConePoint(0, 1.5), cone.ConePoint(7, 0.25)
    for literal in ("affine:3,2", "step:0:0.5,2:3,5:40,9:200", "exp"):
        rho = cone.parse_rho(literal)
        row("cone_distance, one scalar call", literal, _timed(lambda: cone.cone_distance(rho, y, a, b), 201))
    labels, d = integer_points(rng, 30, "l1")
    base = metric.FiniteMetricSpace("Y", labels, d)
    step = cone.parse_rho("step:0:0.5,2:3,5:40,9:200")
    heights = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0, 15.0)
    row("chain_oracle", "30 pts x 10 heights, step rho",
        _timed(lambda: cone.chain_oracle(step, base, cone.ConePoint(0, 0.0), cone.ConePoint(29, 15.0), heights)))
    row("run_phi_suite", "7 rhos x 1000 samples", _timed(lambda: phisuite.run_phi_suite(samples=1000)))
    fpath = os.path.join(workdir, "cloud1000.txt")
    with open(fpath, "w", encoding="utf-8") as fh:
        fh.write(texts[1000])
    wall, layers = _traced_cli(["validate", fpath, "--format", "machine"])
    row("CLI validate end to end", "1000 pts", wall, self_s=layers)
    ppath = os.path.join(workdir, "path2000.txt")
    cpath = os.path.join(workdir, "path2000-cert.txt")
    with open(ppath, "w", encoding="utf-8") as fh:
        fh.write(family_text(pfam.id, [(path.id, path.points, path.dist)]))
    with open(cpath, "w", encoding="utf-8") as fh:
        fh.write(io.write_decomposition_certificate(cert, pfam))
    wall, layers = _traced_cli(["check-cert", ppath, cpath, "--format", "machine"])
    row("CLI check-cert end to end", "2000-pt path, r=3", wall, self_s=layers)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description="ROADMAP North-star reference pass")
    ap.add_argument("--out", default=os.path.join(BENCH, "results", "reference.json"))
    args = ap.parse_args()
    sys.path[:0] = [SRC, BENCH]
    workdir = os.path.join(ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        rows = reference(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "processor": platform.processor() or platform.machine()},
           "rows": rows}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
