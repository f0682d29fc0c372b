import math

import pytest

from coarsekit import decomposition as dec_mod
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
    write_decomposition_certificate,
    write_family,
    write_fibering_witness,
    write_map,
    write_subsets,
)
from coarsekit.maps import FamilyMap, MapFunction
from coarsekit.metric import MetricFamily, PointSubset
from support import (
    GRID14_L1,
    SEVEN_POINT_L1,
    edited,
    family_of,
    l1_points_space,
    line_space,
    path_tower,
    run_child,
    space_from_matrix,
)


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


NOT_FINITE = "structural error: rho parameters and breakpoints must be finite\n"
INF_HEIGHT = "refused: phi needs finite heights t\n"


@pytest.mark.parametrize(
    "argv, out, code",
    [
        (["phi", "--rho", "const:nan", "--t", "0", "--r", "1"], NOT_FINITE, 2),
        (["phi", "--rho", "step:0:nan", "--t", "0", "--r", "1"], NOT_FINITE, 2),
        (["phi", "--rho", "affine:inf,0", "--t", "0", "--r", "1"], NOT_FINITE, 2),
        (["phi", "--rho", "const:inf", "--t", "0", "--r", "inf"], NOT_FINITE, 2),
        (["phi", "--rho", "const:inf", "--t", "0", "--r", "1"], NOT_FINITE, 2),
        (["phi-suite", "--rho", "const:inf", "--samples", "10"], NOT_FINITE, 2),
        (["phi", "--rho", "exp", "--t", "inf", "--r", "inf"], INF_HEIGHT, 1),
        (["phi", "--rho", "exp", "--t", "inf", "--r", "1"], INF_HEIGHT, 1),
        (["phi", "--rho", "affine:1,0", "--t", "inf", "--r", "inf"], INF_HEIGHT, 1),
        (["cone-dist", "{fam}", "--rho", "exp", "--base-a", "a", "--height-a", "inf", "--base-b", "b", "--height-b", "0"],
         "refused: cone heights must be finite\n", 1),
    ],
)
def test_non_finite_rho_or_height_gives_no_traceback(files, argv, out, code):
    save, _ = files
    fam_path = save("fam.txt", "family F\nmember m\npoints a b\n1\n")
    proc = run_child([fam_path if a == "{fam}" else a for a in argv])
    assert (proc.stdout, proc.stderr, proc.returncode) == (out, "", code)


def test_importing_the_cli_leaves_the_generators_unloaded():
    code = "import sys, coarsekit.cli; print(*sorted(m for m in sys.modules if 'coarsekit' in m))"
    proc = run_child([], entry=("-c", code))
    assert (proc.stderr, proc.returncode) == ("", 0)
    assert "coarsekit.cli" in proc.stdout.split()
    assert "coarsekit.generators" not in proc.stdout.split()


def test_non_finite_rho_table_entry_exits_two(files):
    save, _ = files
    table_path = save("rho.txt", "0 1\ninf 2\n")
    assert run(["phi", "--rho", f"table:{table_path}", "--t", "0", "--r", "1"]) == (NOT_FINITE, 2)


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


FLIP = {"e": (0, 1, 2, 3, 4), "g": (4, 3, 2, 1, 0)}


def _quotient_inputs(save, fam, cert):
    action = ActionDocument("flip", ("e", "g"), ((0, 1), (1, 0)), {m.id: FLIP for m in fam.members})
    return [save("fam.txt", write_family(fam)), save("act.txt", write_action(action)),
            save("cert.txt", write_asdim_certificate(cert, fam))]


def test_quotient_cover_refuses_a_certificate_for_another_family(files):
    save, _ = files
    s = line_space([-2, -1, 0, 1, 2], space_id="z")
    fam_path, act_path, cert_path = _quotient_inputs(
        save, family_of(s, family_id="F"), path_asdim_certificate(family_of(s, family_id="G"), [1])
    )
    expected = ("structural error: certificate is for 'G', not family 'F'\n", 2)
    assert run(["cover-check", fam_path, cert_path]) == expected
    assert run(["quotient-cover", fam_path, act_path, cert_path]) == expected


def test_quotient_cover_fails_a_member_with_no_cover(files):
    save, _ = files
    z = line_space([-2, -1, 0, 1, 2], space_id="z")
    w = line_space([0, 1, 2, 3, 4], space_id="w")
    cert = path_asdim_certificate(family_of(z, family_id="F"), [1])
    argv = _quotient_inputs(save, family_of(z, w, family_id="F"), cert)
    out, code = run(["quotient-cover", *argv, "--format", "machine"])
    assert code == 1
    assert "pushed.entry0.w/q=fail\npushed.entry0.w/q.witness=no cover supplied for member\n" in out
    assert "pushed.entry0.z/q.dimension=pass\n" in out


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


def test_decompose_finds_the_seven_point_case(files):
    save, tmp = files
    fam_path = save("fam.txt", write_family(family_of(l1_points_space(SEVEN_POINT_L1, "s"), family_id="F")))
    out_path = str(tmp / "cert.txt")
    out, code = run(["decompose", fam_path, "--r", "3", "--n", "1", "--bound", "1",
                     "--format", "machine", "--out", out_path])
    assert code == 0 and "member.s.result=found" in out.splitlines()
    out, code = run(["check-cert", fam_path, out_path])
    assert code == 0 and "PASS" in out


def test_decompose_past_the_search_budget_is_unknown(files, monkeypatch):
    save, _ = files
    grid = l1_points_space(GRID14_L1, "g")
    fam_path = save("fam.txt", write_family(family_of(grid, family_id="F")))
    argv = ["decompose", fam_path, "--r", "2", "--n", "2", "--bound", "1", "--format", "machine"]
    out, code = run(argv)
    assert code == 1 and "member.g.result=none" in out.splitlines()
    monkeypatch.setattr(dec_mod, "EXACT_SEARCH_BUDGET", 5)
    out, code = run(argv)
    assert code == 1 and "member.g.result=unknown" in out.splitlines()


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


def test_decompose_has_no_ceiling_option(files):
    save, _ = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(4, "p"), family_id="F")))
    out, code = run(["decompose", fam_path, "--r", "1", "--n", "1", "--bound", "1", "--ceiling", "5"])
    assert code == 2 and "unrecognized arguments: --ceiling 5" in out


def test_decompose_takes_its_mode_from_exact_or_greedy_only(files):
    save, _ = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(4, "p"), family_id="F")))
    argv = ["decompose", fam_path, "--r", "1", "--n", "1", "--bound", "1", "--format", "machine"]
    out, code = run([*argv, "--mode", "greedy"])
    assert code == 2 and "unrecognized arguments: --mode greedy" in out
    for flags, mode in (([], "exact"), (["--greedy"], "greedy"), (["--greedy", "--exact"], "exact")):
        assert f"\nmode={mode}\n" in run([*argv, *flags])[0]


@pytest.mark.parametrize("mode", [[], ["--greedy"]], ids=["exact", "greedy"])
def test_negative_leaf_bound_is_refused(files, mode):
    save, _ = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(4, "p"), family_id="F")))
    argv = ["decompose", fam_path, "--r", "1", "--n", "1", "--bound", "-1", *mode]
    # in a child process, so that a search that did not stop meets the timeout
    proc = run_child(argv)
    assert (proc.stdout, proc.returncode) == ("refused: leaf bound must be >= 0\n", 1)


@pytest.mark.parametrize("mode", [[], ["--greedy"]], ids=["exact", "greedy"])
def test_negative_n_is_refused(files, mode):
    save, _ = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(3, "p"), family_id="F")))
    argv = ["decompose", fam_path, "--r", "1", "--n", "-1", "--bound", "2", *mode]
    assert run(argv) == ("refused: dimension n must be >= 0\n", 1)


@pytest.mark.parametrize(
    "text, points",
    [("family f\nmember m\npoints a b\ninf\n", 2),
     ("family f\nmember m\npoints a b c\n1e308\n1e308 1e308\n", 3)],
    ids=["inf", "1e308"],
)
def test_validate_prints_no_numpy_warnings(files, text, points):
    save, _ = files
    proc = run_child(["validate", save("fam.txt", text)])
    assert (proc.stdout, proc.stderr, proc.returncode) == (f"m: ok ({points} points)\nPASS\n", "", 0)


@pytest.mark.parametrize(
    "argv, first, code",
    [
        (["phi", "--rho", "affine:1e308,1e308", "--t", "5", "--r", "1"], "phi_5(1) = 1.66666666666667e-309", 0),
        (["phi", "--rho", "affine:1e308,1e308", "--t", "5", "--r", "inf"], "phi_5(inf) = inf", 0),
        (["phi-suite", "--rho", "affine:1e308,1e308", "--samples", "50"],
         "FAIL affine:1e+308,1e+308.unbounded-growth: monotone=True, exceeded 50.0=False", 1),
        (["phi-suite", "--rho", "affine:1e308,0", "--samples", "50"],
         "FAIL affine:1e+308,0.unbounded-growth: monotone=True, exceeded 50.0=False", 1),
        (["phi", "--rho", "step:0:1,1e308:2", "--t", "0", "--r", "1"], "phi_0(1) = 1.0", 0),
    ],
)
def test_rho_beyond_float_range_prints_no_numpy_warnings(argv, first, code):
    # rho(t) = M t + L overflows to inf: phi at r = inf is inf, not inf / inf,
    # and at r = 1 the subnormal 1 / (M t + L), not 0, so the suite fails only
    # its finite growth test; 2u to a breakpoint near 1e308 overflows to inf,
    # never the minimum
    proc = run_child(argv)
    assert (proc.stderr, proc.returncode) == ("", code)
    assert proc.stdout.splitlines()[0] == first
    assert (proc.stdout, proc.returncode) == run(argv)


NAN = "invalid number value: 'nan'"


@pytest.mark.parametrize(
    "argv, option, message",
    [
        (["validate", "{fam}", "--tolerance", "nan"], "--tolerance", NAN),
        (["validate", "{fam}", "--tolerance", "-1"], "--tolerance", "tolerance below 0: '-1'"),
        (["validate", "{fam}", "--tolerance", "-1e-9"], "--tolerance",
         "tolerance below 0: '-1e-9'"),
        (["components", "{fam}", "--r", "1", "--tolerance", "-0.5"], "--tolerance",
         "tolerance below 0: '-0.5'"),
        (["components", "{fam}", "--r", "nan"], "--r", NAN),
        (["decompose", "{fam}", "--r", "nan", "--n", "1", "--bound", "2"], "--r", NAN),
        (["decompose", "{fam}", "--r", "1", "--n", "1", "--bound", "NaN"], "--bound",
         "invalid number value: 'NaN'"),
        (["phi", "--rho", "exp", "--t", "nan", "--r", "1"], "--t", NAN),
        (["phi", "--rho", "exp", "--t", "1", "--r", "x"], "--r", "invalid number value: 'x'"),
        (["cone-dist", "{fam}", "--rho", "exp", "--base-a", "a", "--height-a", "nan",
          "--base-b", "b", "--height-b", "1"], "--height-a", NAN),
        (["cone-dist", "{fam}", "--rho", "exp", "--base-a", "a", "--height-a", "0",
          "--base-b", "b", "--height-b", "nan"], "--height-b", NAN),
        (["product", "{fam}", "--p", "abc"], "--p", "invalid exponent value: 'abc'"),
        (["product", "{fam}", "--p", "nan"], "--p", "invalid exponent value: 'nan'"),
        (["phi-suite", "--samples", "-5"], "--samples", "invalid count value: '-5'"),
        (["phi-suite", "--samples", "2.5"], "--samples", "invalid count value: '2.5'"),
        (["phi-suite", "--samples", "0"], "--samples", "count below 1: '0'"),
        (["phi-suite", "--seed", "-1"], "--seed", "invalid count value: '-1'"),
    ],
    ids=["tolerance", "tolerance-negative", "tolerance-negative-exponent",
         "components-tolerance-negative", "components-r",
         "decompose-r", "bound", "t", "phi-r", "height-a", "height-b", "p", "p-nan", "samples",
         "samples-float", "samples-zero", "seed"],
)
def test_malformed_numeric_option_is_a_usage_error(files, argv, option, message):
    save, _ = files
    # a triangle violation: with a nan tolerance no comparison could flag
    # it, and with a negative one every entry would read as asymmetric
    fam_path = save("fam.txt", "family F\nmember m\npoints a b c\n1\n5 1\n")
    argv = [fam_path if a == "{fam}" else a for a in argv]
    out, code = run(argv)
    assert code == 2 and out.startswith(f"usage: coarsekit {argv[0]} [-h]")
    assert out.endswith(f"\ncoarsekit {argv[0]}: error: argument {option}: {message}\n")


@pytest.mark.parametrize("t", ["-1000", "-1e3", "-1_000", "-inf"])
def test_negative_literal_is_an_option_value(t):
    # argparse alone reads -1e3, -1_000 and -inf as option flags, so --t
    # would have no value
    out = ("refused: phi needs t >= 0 and r >= 0\n", 1)
    assert run(["phi", "--rho", "exp", "--t", t, "--r", "1"]) == out
    assert run(["phi", "--rho", "exp", f"--t={t}", "--r", "1"]) == out


@pytest.mark.parametrize("p", ["2.50", "inf", "1e0"])
def test_product_echoes_p_as_typed(files, p):
    save, _ = files
    fam_path = save("fam.txt", write_family(family_of(unit_path(3, "p"), family_id="F")))
    out, code = run(["product", fam_path, "--p", p, "--format", "machine"])
    assert code == 0 and f"\np={p}\n" in out


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

    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    assert [run(argv) for argv in sequence] == fresh
    text, code = fresh[4]
    assert code == 2 and text.startswith("usage: coarsekit components [-h]")
    assert text.endswith("\ncoarsekit components: error: the following arguments are required: --r\n")
    assert fresh[3][0] != fresh[2][0]
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


def path200_tower():
    fam = MetricFamily("paths200", (unit_path(200, "path200"),))
    return write_family(fam), write_decomposition_certificate(path_tower(fam, 3), fam)


def two_point_tower():
    return ("family F\nmember m\npoints a b\n1\n",
            "decomposition-certificate\nfamily F\nr 0.5\nn 0\nmember m\ncolor 0\npiece : a b\nchild\n"
            "decomposition-certificate\nfamily F|pieces\nr 0.5\nn 0\nmember m.0.0\ncolor 0\npiece : a b\nleaf-bound 1\n")


@pytest.mark.parametrize("tower", [path200_tower, two_point_tower], ids=["200-points", "2-points"])
def test_child_stage_for_another_family_fails_the_stage_gate(files, tower):
    save, _ = files
    fam_text, cert = tower()
    pieces = fam_text.split()[1] + "|pieces"
    argv = ["check-cert", save("fam.txt", fam_text), save("cert.txt", edited(cert, f"family {pieces}\n", "family wrong\n"))]
    assert run(argv) == (f"structural error: certificate is for 'wrong', not family '{pieces}'\n", 2)
    argv[2] = save("good.txt", cert)
    assert run(argv)[1] == 0


@pytest.fixture()
def grid_fibering(files):
    """The paths of the 6 x 6 grid projection's source, target, map and
    witness documents, and a function that saves an edited copy of one."""
    save, _ = files
    src, tgt, fmap, witness = grid_projection_fixture(6, schedule=(1, 2, 5))
    texts = {"src": write_family(src), "tgt": write_family(tgt), "map": write_map(fmap, src, tgt),
             "witness": write_fibering_witness(witness, src, tgt)}
    paths = {name: save(f"{name}.txt", text) for name, text in texts.items()}

    def with_edit(name, old, new):
        return {**paths, name: save(f"edited-{name}.txt", edited(texts[name], old, new))}

    return paths, with_edit


def test_inner_block_for_another_family_fails_the_stage_gate(grid_fibering):
    _, with_edit = grid_fibering
    paths = with_edit("witness", "family grid-fam|preimages@2\n", "family wrong\n")
    argv = ["check-fibering", paths["src"], paths["tgt"], paths["map"], paths["witness"]]
    assert run(argv) == ("structural error: certificate is for 'wrong', not family 'grid-fam|preimages@2'\n", 2)


@pytest.mark.parametrize("command", ["map-analyze", "check-fibering"])
@pytest.mark.parametrize("line, message", [
    ("source grid-fam", "map source 'x' is not family 'grid-fam'"),
    ("target line-fam", "map target 'x' is not family 'line-fam'"),
], ids=["source", "target"])
def test_map_for_another_family_is_structural(grid_fibering, command, line, message):
    _, with_edit = grid_fibering
    paths = with_edit("map", line + "\n", line.split()[0] + " x\n")
    argv = [command, paths["src"], paths["tgt"], paths["map"]] + [paths["witness"]] * (command == "check-fibering")
    assert run(argv) == (f"structural error: {message}\n", 2)


def test_function_line_needs_an_arrow(grid_fibering):
    _, with_edit = grid_fibering
    paths = with_edit("map", "function grid -> line\n", "function grid => line\n")
    assert run(["map-analyze", paths["src"], paths["tgt"], paths["map"]]) == (
        "parse error: line 4, column 1: function line is 'function <src> -> <tgt>'\n", 2)


def test_action_with_no_identity_permutation_is_structural(files):
    save, _ = files
    s = line_space([-2, -1, 0, 1, 2], space_id="z")
    fam = family_of(s, family_id="F")
    action = ActionDocument("flip", ("e", "g"), ((0, 1), (1, 0)), {"z": {"e": FLIP["g"], "g": FLIP["g"]}})
    argv = [save("fam.txt", write_family(fam)), save("act.txt", write_action(action)),
            save("cert.txt", write_asdim_certificate(path_asdim_certificate(fam, [1]), fam))]
    assert run(["quotient-cover", *argv]) == (
        "structural error: composition table has no identity acting as identity permutation\n", 2)


def test_quotient_cover_needs_an_action_block_for_each_covered_member(files):
    save, _ = files
    z = line_space([-2, -1, 0, 1, 2], space_id="z")
    fam = family_of(z, line_space([0, 1, 2, 3, 4], space_id="w"), family_id="F")
    action = ActionDocument("flip", ("e", "g"), ((0, 1), (1, 0)), {"z": FLIP})
    argv = [save("fam.txt", write_family(fam)), save("act.txt", write_action(action)),
            save("cert.txt", write_asdim_certificate(path_asdim_certificate(fam, [1]), fam))]
    assert run(["quotient-cover", *argv]) == ("structural error: action 'flip' has no block for member 'w'\n", 2)


def test_cover_with_some_colored_elements_is_a_parse_error(files):
    save, _ = files
    fam = MetricFamily("paths", (unit_path(12, "p"),))
    cert = edited(write_an_certificate(path_an_certificate(fam, [2]), fam), "element 0 : 8 9 10 11", "element : 8 9 10 11")
    argv = ["an-check", save("fam.txt", write_family(fam)), save("cert.txt", cert)]
    assert run(argv) == ("parse error: line 11, column 1: either all or no elements of a cover carry colors\n", 2)


def test_repeated_member_id_exits_two_at_its_line_and_column(files):
    save, _ = files
    path = save("fam.txt", "family f\nmember a\npoints x y\n1\nmember a\npoints u v\n2\n")
    assert run(["validate", path]) == ("parse error: line 5, column 8: family 'f' has duplicate member id 'a'\n", 2)
