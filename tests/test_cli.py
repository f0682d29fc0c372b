import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coarsekit
from coarsekit.cli import build_parser, run
from coarsekit.generators import (
    grid_projection_fixture,
    path_an_certificate,
    path_asdim_certificate,
    unit_path,
)
from coarsekit.io import (
    ActionDocument,
    parse_family,
    write_action,
    write_an_certificate,
    write_asdim_certificate,
    write_family,
    write_fibering_witness,
    write_map,
    write_subsets,
)
from coarsekit.maps import FamilyMap, MapFunction
from coarsekit.metric import MetricFamily, PointSubset
from support import family_of, line_space, space_from_matrix


@pytest.fixture()
def files(tmp_path):
    def save(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return save, tmp_path


def test_validate_good_family(files):
    save, _ = files
    fam = family_of(unit_path(5, "p"), family_id="F")
    path = save("fam.txt", write_family(fam))
    out, code = run(["validate", path])
    assert code == 0
    assert "ok" in out


def test_validate_triangle_violation_exits_one_with_witness(files):
    save, _ = files
    bad = space_from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]], space_id="bad")
    path = save("fam.txt", write_family(family_of(bad, family_id="F")))
    out, code = run(["validate", path])
    assert code == 1
    assert "triangle" in out and "(a,b,c)" in out.replace(" ", "")


def test_parse_error_exits_two(files):
    save, _ = files
    path = save("fam.txt", "family f\nmember m\npoints a b c\n1\n2 3 4\n")
    out, code = run(["validate", path])
    assert code == 2
    assert "line 5" in out


@pytest.mark.parametrize("name, content", [("absent.txt", None), ("latin1.txt", b"family \xe9\n")])
def test_unreadable_input_file_exits_two(files, name, content):
    _, tmp = files
    if content is not None:
        (tmp / name).write_bytes(content)
    out, code = run(["validate", str(tmp / name)])
    assert code == 2
    assert out.startswith("error: cannot read") and name in out


@pytest.mark.parametrize("literal", ["affine:1", "step:1"])
def test_malformed_rho_literal_exits_two(literal):
    out, code = run(["phi", "--rho", literal, "--t", "0", "--r", "1"])
    assert code == 2
    assert f"bad rho literal '{literal}'" in out


@pytest.mark.parametrize(
    "text, where",
    [
        ("family f\nmember m\npoints a b\n" + "1" * 400 + "\n", "line 4, column 1"),
        ("family f\nmember m\npoints a b c\nnan\n1 1\n", "line 4, column 1"),
        ("family f\nmember m\npoints a a\n1\n", "line 3, column 10"),
        ("family f\nmember m\npoints a b c\n1\n2 -1e400\n", "line 5, column 3"),
    ],
    ids=["out-of-range-integer", "nan", "repeated-label", "out-of-range-decimal"],
)
def test_rejected_family_document_exits_two(files, text, where):
    save, _ = files
    out, code = run(["validate", save("fam.txt", text)])
    assert code == 2
    assert where in out


def test_components_lists_blocks(files):
    save, _ = files
    fam = family_of(line_space([0, 1, 5, 6], space_id="s"), family_id="F")
    path = save("fam.txt", write_family(fam))
    out, code = run(["components", path, "--r", "2", "--format", "machine"])
    assert code == 0
    assert "member.s.blocks=2" in out
    assert "member.s.block.0=0,1" in out
    assert "member.s.block.1=5,6" in out


def test_phi_exp_example(files):
    out, code = run(["phi", "--rho", "exp", "--t", "0", "--r", str(2 * math.e), "--format", "machine"])
    assert code == 0
    value = float(dict(l.split("=", 1) for l in out.splitlines())["value"])
    assert abs(value - 4.0) <= 1e-7


@pytest.mark.parametrize("t, r", [("0", "1"), ("0", "2"), ("1.5", "42"), ("3", "1e-9"), ("0.25", "1e6")])
def test_phi_exp_value_is_the_closed_form(t, r):
    out, code = run(["phi", "--rho", "exp", "--t", t, "--r", r, "--format", "machine"])
    kv = dict(l.split("=", 1) for l in out.splitlines())
    assert code == 0
    assert kv["value"] == kv["closed-form"]


def test_cover_check_pass_and_fail(files):
    save, _ = files
    fam = MetricFamily("paths", (unit_path(24, "p"),))
    cert = path_asdim_certificate(fam, [1, 2])
    fam_path = save("fam.txt", write_family(fam))
    cert_path = save("cert.txt", write_asdim_certificate(cert, fam))
    out, code = run(["cover-check", fam_path, cert_path])
    assert code == 0 and "PASS" in out
    bad = write_asdim_certificate(cert, fam).replace("n 1", "n 0")
    bad_path = save("bad.txt", bad)
    out, code = run(["cover-check", fam_path, bad_path, "--format", "machine"])
    assert code == 1
    assert "dimension=fail" in out


@pytest.mark.parametrize("command, build, write", [
    ("cover-check", path_asdim_certificate, write_asdim_certificate),
    ("an-check", path_an_certificate, write_an_certificate),
], ids=["cover-check", "an-check"])
def test_entry_paths_keep_member_ids(files, command, build, write):
    save, _ = files
    fam = MetricFamily("F", (unit_path(12, "entry0m"),))
    cert = build(fam, [1, 2])
    out, code = run([command, save("fam.txt", write_family(fam)),
                     save("cert.txt", write(cert, fam)), "--format", "machine"])
    assert code == 0
    assert "check.entry1.entry0m.mesh=pass\n" in out
    assert "entry1m" not in out


def test_quotient_cover_emits_reparseable_documents(files):
    save, tmp = files
    s = line_space([-2, -1, 0, 1, 2], space_id="z")
    fam = family_of(s, family_id="F")
    cert = path_asdim_certificate(fam, [1])
    action = ActionDocument(
        "flip", ("e", "g"), ((0, 1), (1, 0)), {"z": {"e": (0, 1, 2, 3, 4), "g": (4, 3, 2, 1, 0)}}
    )
    fam_path = save("fam.txt", write_family(fam))
    act_path = save("act.txt", write_action(action))
    cert_path = save("cert.txt", write_asdim_certificate(cert, fam))
    out_path = str(tmp / "pushed.txt")
    out, code = run(["quotient-cover", fam_path, act_path, cert_path, "--out", out_path])
    assert code == 0
    emitted = open(out_path).read()
    fam_text, cert_text = emitted.split("asdim-certificate", 1)
    pushed_fam = parse_family(fam_text)
    assert pushed_fam.members[0].points == ("F·-2", "F·-1", "F·0")


def test_product_document_round_trips(files):
    save, tmp = files
    a = line_space([0, 3], space_id="a", labels=("u", "v"))
    b = line_space([0, 4], space_id="b", labels=("x", "y"))
    fam = MetricFamily("F", (a, b))
    fam_path = save("fam.txt", write_family(fam))
    out_path = str(tmp / "prod.txt")
    out, code = run(["product", fam_path, "--p", "2", "--out", out_path])
    assert code == 0
    prod = parse_family(open(out_path).read())
    m = prod.members[0]
    assert m.points == ("u,x", "u,y", "v,x", "v,y")
    assert m.d(0, 3) == 5


def test_decompose_and_check_cert(files):
    save, tmp = files
    fam = family_of(unit_path(12, "p"), unit_path(9, "q"), family_id="F")
    fam_path = save("fam.txt", write_family(fam))
    out_path = str(tmp / "cert.txt")
    out, code = run(["decompose", fam_path, "--r", "2", "--n", "1", "--bound", "2", "--out", out_path])
    assert code == 0 and "found" in out
    out, code = run(["check-cert", fam_path, out_path])
    assert code == 0 and "PASS" in out


def test_decompose_greedy_flag(files):
    save, tmp = files
    fam = family_of(unit_path(40, "p"), family_id="F")
    fam_path = save("fam.txt", write_family(fam))
    out_path = str(tmp / "cert.txt")
    out, code = run(["decompose", fam_path, "--r", "2", "--n", "1", "--bound", "6",
                     "--greedy", "--out", out_path])
    assert code == 0 and "found" in out
    out, code = run(["check-cert", fam_path, out_path])
    assert code == 0


def test_rho_table_from_file(files):
    save, _ = files
    table_path = save("rho.txt", "0 1\n2 3\n5 10\n")
    out, code = run(["phi", "--rho", f"table:{table_path}", "--t", "0", "--r", "30",
                     "--format", "machine"])
    assert code == 0
    value = float(dict(l.split("=", 1) for l in out.splitlines())["value"])
    # candidates: u=0 (rho=1 -> 30), u=2 (4 + 30/3 = 14), u=5 (10 + 3) = 13
    assert value == pytest.approx(13.0, abs=1e-9)


def test_decompose_none_exits_one(files):
    save, _ = files
    fam = family_of(unit_path(6, "p"), family_id="F")
    fam_path = save("fam.txt", write_family(fam))
    out, code = run(["decompose", fam_path, "--r", "1", "--n", "0", "--bound", "2"])
    assert code == 1 and "none" in out


def _run_child(argv):
    """The CLI in a child process, with its stdout, stderr and exit code."""
    src = str(Path(coarsekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "coarsekit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("mode", [[], ["--greedy"]], ids=["exact", "greedy"])
def test_negative_leaf_bound_is_refused(files, mode):
    save, _ = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(4, "p"), family_id="F")))
    argv = ["decompose", fam_path, "--r", "1", "--n", "1", "--bound", "-1", *mode]
    # a greedy search with a negative bound never finishes: run it in a
    # child process that the timeout can stop
    proc = _run_child(argv)
    assert (proc.stdout, proc.returncode) == ("refused: leaf bound must be >= 0\n", 1)


@pytest.mark.parametrize(
    "text, points",
    [("family f\nmember m\npoints a b\ninf\n", 2),
     ("family f\nmember m\npoints a b c\n1e308\n1e308 1e308\n", 3)],
    ids=["inf", "1e308"],
)
def test_validate_prints_no_numpy_warnings(files, text, points):
    save, _ = files
    proc = _run_child(["validate", save("fam.txt", text)])
    assert (proc.stdout, proc.stderr, proc.returncode) == (f"m: ok ({points} points)\nPASS\n", "", 0)


def test_cached_parser_matches_a_fresh_parse(files):
    save, _ = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(4, "p"), family_id="F")))
    sequence = [
        ["validate", fam_path, "--format", "machine"],
        ["validate", fam_path, "--format", "machine"],
        ["phi-suite", "--rho", "exp", "--rho", "affine:2,1", "--samples", "20", "--format", "machine"],
        ["phi-suite", "--samples", "20", "--format", "machine"],
        ["components", fam_path],  # no --r: an argparse error
        ["components", fam_path, "--r", "1", "--format", "machine"],
    ]

    def outcome(argv):
        try:
            return run(argv)
        except SystemExit as exc:
            return ("exit", exc.code)

    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    build_parser.cache_clear()
    assert [outcome(argv) for argv in sequence] == fresh
    assert fresh[4] == ("exit", 2) and fresh[3][0] != fresh[2][0]
    assert build_parser() is build_parser()


def test_cone_dist_unknown_base_exits_two(files):
    save, _ = files
    fam_path = save("fam.txt", write_family(MetricFamily("paths", (unit_path(6, "a"),))))
    argv = ["cone-dist", fam_path, "--rho", "affine:2,1", "--base-a", "zz", "--height-a", "0",
            "--base-b", "0", "--height-b", "1"]
    assert run(argv) == ("structural error: space 'a' has no point 'zz'\n", 2)
    argv[argv.index("zz")] = "1"
    assert run(argv)[1] == 0


def test_unwritable_out_path_exits_two(files):
    save, tmp = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(3, "p"), family_id="F")))
    target = tmp / "missing_dir" / "x.txt"
    out, code = run(["product", fam_path, "--out", str(target)])
    assert code == 2
    assert out.startswith("error: cannot write") and str(target) in out
    assert not target.exists()


def test_check_fibering_cli(files):
    save, _ = files
    src, tgt, fmap, witness = grid_projection_fixture(5, schedule=(1, 2, 4))
    src_path = save("src.txt", write_family(src))
    tgt_path = save("tgt.txt", write_family(tgt))
    map_path = save("map.txt", write_map(fmap, src, tgt))
    wit_path = save("wit.txt", write_fibering_witness(witness, src, tgt))
    out, code = run(["check-fibering", src_path, tgt_path, map_path, wit_path, "--format", "machine"])
    assert code == 0
    assert "largest-certified-radius=4" in out


def test_map_analyze_reports_envelopes(files):
    save, _ = files
    src = family_of(line_space([0, 1, 2], space_id="dom"), family_id="S")
    tgt = family_of(line_space([0, 2, 4], space_id="ran"), family_id="T")
    fmap = FamilyMap("S", "T", (MapFunction("dom", "ran", (0, 1, 2)),))
    sp = save("src.txt", write_family(src))
    tp = save("tgt.txt", write_family(tgt))
    mp = save("map.txt", write_map(fmap, src, tgt))
    out, code = run(["map-analyze", sp, tp, mp, "--format", "machine"])
    assert code == 0
    pairs = dict(l.split("=", 1) for l in out.splitlines())
    assert pairs["coarsely-onto"] == "true"
    assert pairs["properness.flag"] == "consistent"


def test_ultrametric_and_ray_tree_cli(files):
    save, tmp = files
    fam = family_of(line_space([0, 1, 2, 11, 12, 13], space_id="cl"), family_id="F")
    fam_path = save("fam.txt", write_family(fam))
    out_path = str(tmp / "ultra.txt")
    out, code = run(["ultrametric", fam_path, "--out", out_path])
    assert code == 0
    ultra = parse_family(open(out_path).read())
    assert ultra.members[0].d(0, 3) == 9.0

    path_fam = family_of(unit_path(12, "p"), family_id="P")
    pf = save("pfam.txt", write_family(path_fam))
    pieces = [("p", "whole", PointSubset("p", tuple(range(12))))]
    seeds = [("p", "1", PointSubset("p", (0, 1)))] + [
        ("p", str(k), PointSubset("p", ())) for k in range(2, 6)
    ]
    pieces_path = save("pieces.txt", write_subsets("P", pieces, path_fam))
    seeds_path = save("seeds.txt", write_subsets("P", seeds, path_fam))
    out, code = run(["ray-tree", pf, pieces_path, seeds_path, "--format", "machine"])
    assert code == 0
    assert "truncation-depth=6" in out


def test_phi_suite_cli_seeded(files):
    out1, code1 = run(["phi-suite", "--samples", "40", "--seed", "5", "--format", "machine"])
    out2, code2 = run(["phi-suite", "--samples", "40", "--seed", "5", "--format", "machine", "--jobs", "4"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_machine_reports_identical_across_jobs(files):
    save, _ = files
    fam = MetricFamily("paths", (unit_path(24, "p"), unit_path(16, "q")))
    cert = path_asdim_certificate(fam, [1, 2, 4])
    fam_path = save("fam.txt", write_family(fam))
    cert_path = save("cert.txt", write_asdim_certificate(cert, fam))
    outs = {
        jobs: run(["cover-check", fam_path, cert_path, "--format", "machine", "--jobs", str(jobs)])
        for jobs in (1, 4)
    }
    assert outs[1] == outs[4]
