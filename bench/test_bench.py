"""Tests of the benchmark itself (not part of the repository's test suite):

    python3 -m pytest -q bench/test_bench.py

They check that a seed fixes the inputs, that another seed keeps the size
profile and job mix, that the work counters repeat exactly across two runs
of one seed, that self-time attribution adds up (per layer and per job
group), and that the known-answer checks reject a wrong output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import self_times  # noqa: E402

# counters that depend on sizes alone, not on coordinates or defect locations
SIZE_COUNTERS = ("metric.triangle_triples", "decomposition.piece_pairs", "covers.element_pairs",
                 "decomposition.search_attempts", "decomposition.search_found")


def _generate(tmp_path, workload, seed, name):
    d = tmp_path / name
    manifest = workloads.generate(workload, seed, str(d))
    files = {f: (d / "in" / f).read_bytes() for f in sorted(os.listdir(d / "in"))}
    text = json.dumps(manifest["jobs"]).replace(str(d), "<dir>")
    return manifest, files, text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_counters(tmp_path, workload):
    m1, f1, t1 = _generate(tmp_path, workload, 5, "a")
    m2, f2, t2 = _generate(tmp_path, workload, 5, "b")
    assert f1 == f2
    assert t1 == t2
    assert m1["counts"] == m2["counts"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_keeps_size_profile_and_job_mix(tmp_path, workload):
    m1, f1, _ = _generate(tmp_path, workload, 5, "a")
    m2, f2, _ = _generate(tmp_path, workload, 6, "b")
    assert sorted(j["id"] for j in m1["jobs"]) == sorted(j["id"] for j in m2["jobs"])
    assert sorted(f1) == sorted(f2)
    for key in SIZE_COUNTERS:
        assert m1["counts"].get(key) == m2["counts"].get(key), key
    assert f1 != f2  # seeded coordinates: other inputs of the same shapes
    assert [j["id"] for j in m1["jobs"]] != [j["id"] for j in m2["jobs"]]


def _traced_counters(workload, seed):
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
                          capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], done.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    groups = json.loads(next(line for line in lines if line.startswith("groups "))[len("groups "):])
    # every traced second of a job is filed under that job's group
    assert sorted(groups) == sorted(g for g, _ in workloads.JOB_GROUPS[workload])
    layer_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert sum(sum(g["self_s"].values()) for g in groups.values()) == pytest.approx(layer_total)
    for name, g in groups.items():
        assert metrics[f"trace.{name}.focus_share"] == g["focus_share"]
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "B")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_across_runs(workload):
    first = _traced_counters(workload, 7)
    assert first == _traced_counters(workload, 7)
    assert first["io.tokens"] > 0


def test_self_times_add_up_and_split_concurrent_spans():
    spans = [
        ("leaf", 2.0, 3.0, 3, 2),       # inside "mid"
        ("mid", 1.0, 4.0, 2, 1),
        ("worker", 3.0, 6.0, 4, 1),     # another thread, overlapping "mid" on [3, 4]
        ("root", 0.0, 10.0, 1, 0),
    ]
    own = self_times(spans)
    assert own["leaf"] == pytest.approx(1.0)
    assert own["mid"] == pytest.approx(1.0 + 0.5)     # [1, 2] and half of [3, 4]
    assert own["worker"] == pytest.approx(0.5 + 2.0)  # half of [3, 4] and [4, 6]
    assert own["root"] == pytest.approx(1.0 + 4.0)    # [0, 1] and [6, 10]
    assert sum(own.values()) == pytest.approx(10.0)


def test_checks_reject_wrong_outputs(tmp_path):
    from coarsekit import cli

    manifest = workloads.generate("cone-emit", 3, str(tmp_path / "w"))
    job = next(j for j in manifest["jobs"] if j["id"] == "product1")
    report, code = cli.run(job["argv"])
    assert checks.check_cli(job, code, report, job["out"]) is None
    with open(job["out"], encoding="utf-8") as fh:
        doc = fh.read()
    lines = doc.splitlines(keepends=True)
    lines[-1] = lines[-1].replace(lines[-1].split()[0], "0.5", 1)
    wrong = "".join(lines)
    assert checks.CLI_CHECKS["product"](job, checks.machine_pairs(report), wrong) is not None
    with open(job["out"], "w", encoding="utf-8") as fh:
        fh.write(wrong)
    assert checks.check_cli(job, code, report, job["out"]) is not None  # digest mismatch
    assert checks.check_cli(job, 1, report, None) is not None

    manifest = workloads.generate("ingest-certify", 3, str(tmp_path / "i"))
    job = next(j for j in manifest["jobs"] if j["expect"].get("kind") == "triangle")
    report, code = cli.run(job["argv"])
    assert checks.check_cli(job, code, report, None) is None
    wrong = dict(job, expect=dict(job["expect"], violations=job["expect"]["violations"] + 2))
    assert checks.check_cli(wrong, code, report, None) is not None


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ingest-certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
