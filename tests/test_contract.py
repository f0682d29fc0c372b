"""The exit-code contract on inputs whose size sets the depth of a walk,
and on the phi-family commands at the edges of their values.

Each walk runs under a low recursion limit, so a walk that recursed once
per stage or per point would fail here on small inputs instead of only on
large ones.  The phi-family commands take rho literals and options drawn
at the edges of float range; a stray NumPy warning is an error under the
test configuration, so it escapes ``run`` as an exception.  ``cone_sample``
takes such rho literals, heights and base distances directly, under a
filter that makes every warning an error.  ``map-analyze`` and ``ray-tree``,
which reach the nearest-point kernel, run on small generated documents,
some with one token mutated, under the same filter, and so do
``check-cert``, ``check-fibering``, ``cover-check`` and ``an-check`` on
one- and two-stage towers, grid-projection witnesses and path covers, and
``validate`` and ``components`` on small paths, grids, stars and drawn
lower triangles, and ``quotient-cover``, ``product``, ``decompose`` and
``ultrametric`` on small families of points on a line; these documents
run under the low recursion limit too.  A drawn option is one the command
takes, or now and then one it does not, which is a usage error.
"""

import math
import re
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsekit.cli import run
from coarsekit.cone import cone_sample, parse_rho
from coarsekit.covers import AsdimCertificate, AsdimEntry, Cover
from coarsekit.errors import CoarsekitError
from coarsekit.generators import (
    grid_projection_fixture, integer_grid, path_an_certificate, path_asdim_certificate, star_tree, unit_path,
)
from coarsekit.io import (
    ActionDocument, parse_decomposition_certificate, parse_family, parse_rho_table, write_action, write_an_certificate,
    write_asdim_certificate, write_decomposition_certificate, write_family, write_fibering_witness, write_map,
    write_subsets,
)
from coarsekit.maps import FamilyMap, MapFunction
from coarsekit.metric import FiniteMetricSpace, MetricFamily, PointSubset
from support import family_of, line_space, path_tower, subcommand_options

LOW_RECURSION_LIMIT = 120


def one_point_tower(stages: int) -> str:
    """A decomposition certificate of ``stages`` stages over the one-point
    family ``f``: each stage keeps the single point in one piece."""
    lines = []
    family_id, member_id = "f", "m"
    for k in range(stages):
        lines += ["decomposition-certificate", f"family {family_id}", "r 1", "n 0",
                  f"member {member_id}", "color 0", "piece : a"]
        lines.append("child" if k < stages - 1 else "leaf-bound 0")
        family_id, member_id = family_id + "|pieces", member_id + ".0.0"
    return "\n".join(lines) + "\n"


@contextmanager
def low_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(LOW_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def run_twice_at_low_limit(argv):
    with low_recursion_limit():
        return run(argv), run(argv)


def test_tall_tower_checks_without_recursion(tmp_path):
    (tmp_path / "fam.txt").write_text("family f\nmember m\npoints a\n")
    (tmp_path / "cert.txt").write_text(one_point_tower(150))
    argv = ["check-cert", str(tmp_path / "fam.txt"), str(tmp_path / "cert.txt")]
    first, second = run_twice_at_low_limit(argv)
    assert first[1] == 0 and "PASS" in first[0]
    assert second == first


def test_tall_tower_compares_hashes_and_prints_without_recursion():
    family = parse_family("family f\nmember m\npoints a\n")
    tower = one_point_tower(150)
    a, b = (parse_decomposition_certificate(tower, family) for _ in range(2))
    # the same tower with its last stage's leaf bound changed
    c = parse_decomposition_certificate(tower.replace("leaf-bound 0", "leaf-bound 1"), family)
    with low_recursion_limit():
        assert a == b and a is not b
        assert a != c and c != a
        assert hash(a) == hash(b)
        text = repr(a)
    assert a.depth() == 150 and text.count("DecompositionCertificate(") == 150
    assert text.startswith("DecompositionCertificate(family_id='f', r=1.0, n=0, members=")
    assert text.endswith(", leaf_bound=0.0, child=None" + ")" * 150)


def test_long_path_exact_search_without_recursion(tmp_path):
    (tmp_path / "fam.txt").write_text(write_family(family_of(unit_path(120, "p"), family_id="F")))
    argv = ["decompose", str(tmp_path / "fam.txt"), "--r", "1", "--n", "1", "--bound", "1"]
    first, second = run_twice_at_low_limit(argv)
    assert first[1] == 0 and "p: found" in first[0]
    assert second == first


EDGE_PARAMS = ["0", "5e-324", "1e308", "1", "2.5"]
EDGE_OPTIONS = st.sampled_from(["0", "-0", "-1", "-1e3", "inf", "-inf", "nan", "5e-324", "1e308", "1", "2.5"])
TABLES = ("0 0\n", "0 5e-324\n5e-324 1e308\n", "1e308 1\n", "0 1\n1 2\n2.5 1e308\n")


@pytest.fixture(scope="module")
def phi_files(tmp_path_factory):
    """The 3-point family and the rho tables the drawn command lines name."""
    path = tmp_path_factory.mktemp("phi-contract")
    (path / "fam.txt").write_text("family F\nmember m\npoints a b c\n1\n2 1\n")
    for k, text in enumerate(TABLES):
        (path / f"table{k}.txt").write_text(text)
    return path


@st.composite
def rho_literals(draw) -> str:
    param = st.sampled_from(EDGE_PARAMS)
    kind = draw(st.sampled_from(["const", "affine", "exp", "step", "table"]))
    if kind == "const":
        return f"const:{draw(param)}"
    if kind == "affine":
        return f"affine:{draw(param)},{draw(param)}"
    if kind == "exp":
        return "exp"
    if kind == "step":
        pairs = draw(st.lists(st.tuples(param, param), min_size=1, max_size=3))
        return "step:" + ",".join(f"{s}:{v}" for s, v in pairs)
    return "table:{table%d}" % draw(st.integers(0, len(TABLES) - 1))


@st.composite
def phi_command_lines(draw) -> list[str]:
    """A ``phi``, ``phi-suite`` or ``cone-dist`` command line; ``{fam}`` and
    ``{tableK}`` stand for the files of ``phi_files``."""
    command = draw(st.sampled_from(["phi", "phi-suite", "cone-dist"]))
    if command == "phi":
        argv = ["phi", "--rho", draw(rho_literals()), "--t", draw(EDGE_OPTIONS), "--r", draw(EDGE_OPTIONS)]
    elif command == "phi-suite":
        argv = ["phi-suite", "--samples", str(draw(st.integers(1, 17))), "--seed", draw(st.sampled_from(["0", "3", "-1"]))]
        for literal in draw(st.lists(rho_literals(), max_size=2)):
            argv += ["--rho", literal]
    else:
        base = st.sampled_from(["a", "b", "c", "z"])
        argv = ["cone-dist", "{fam}", "--rho", draw(rho_literals()), "--base-a", draw(base),
                "--height-a", draw(EDGE_OPTIONS), "--base-b", draw(base), "--height-b", draw(EDGE_OPTIONS)]
    return argv + edge_option(draw, command) + ["--format", draw(st.sampled_from(["text", "machine"]))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(phi_command_lines())
@example(["phi", "--rho", "affine:1e308,1e308", "--t", "5", "--r", "1"])
@example(["phi", "--rho", "affine:1e308,1e308", "--t", "5", "--r", "inf"])
@example(["phi-suite", "--rho", "affine:1e308,1e308", "--samples", "17"])
@example(["phi", "--rho", "step:0:1,1e308:2", "--t", "0", "--r", "1"])
@example(["phi-suite", "--samples", "1", "--rho", "table:{table2}"])
@example(["cone-dist", "{fam}", "--rho", "affine:1e308,0", "--base-a", "a", "--height-a", "1e308",
          "--base-b", "c", "--height-b", "0"])
def test_phi_commands_keep_the_exit_code_contract_at_the_edges(phi_files, argv):
    argv = [a.format(fam=phi_files / "fam.txt", **{f"table{k}": phi_files / f"table{k}.txt" for k in range(len(TABLES))})
            for a in argv]
    out, code = run(argv)
    assert code in (0, 1, 2), out
    assert run(argv) == (out, code)


CONE_HEIGHTS = st.sampled_from([0.0, 5e-324, 1.0, 1e308, math.nan, math.inf])
CONE_ENTRIES = st.sampled_from([0.0, 5e-324, 1e308, math.inf])


@st.composite
def cone_sample_args(draw):
    """A rho literal, a 1-3 point base space with every entry drawn (so
    asymmetric, with a nonzero diagonal too) and 1-4 heights."""
    n = draw(st.integers(1, 3))
    d = np.array(draw(st.lists(CONE_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    y = FiniteMetricSpace("Y", tuple("abc"[:n]), d, pseudo=draw(st.booleans()))
    return draw(rho_literals()), y, draw(st.lists(CONE_HEIGHTS, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cone_sample_args())
# phi at the top height plus the height gap passes float max
@example(("const:0", FiniteMetricSpace("Y", ("a", "b"), [[0.0, 1e308], [1e308, 0.0]]), [0.0, 1e308]))
@example(("affine:1e308,1e308", FiniteMetricSpace("Y", ("a", "b"), [[0.0, 1e308], [1e308, 0.0]]), [5e-324, 1.0]))
def test_cone_sample_raises_only_its_own_errors_at_the_edges(phi_files, args):
    literal, y, heights = args
    literal = literal.format(**{f"table{k}": phi_files / f"table{k}.txt" for k in range(len(TABLES))})

    def outcome():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rho = parse_rho(literal, table_loader=lambda path: parse_rho_table(Path(path).read_text()))
                sample = cone_sample(rho, y, heights)
            except CoarsekitError as exc:
                return type(exc), str(exc)
        return sample.points, sample.dist.tobytes()

    assert outcome() == outcome()


# a one-token mutation: a bad number, a stray word or separator, or a deleted token
MUTANTS = st.sampled_from(["-1", "nan", "inf", "-0", "1e308", "5e-324", "2.5", "zz", ":", ""])


@st.composite
def map_and_ray_tree_command_lines(draw):
    """A ``map-analyze`` or ``ray-tree`` command line over small generated
    documents, one of them perhaps mutated in one token, with options at
    their edges; returns the file texts by name and the command line."""
    points = st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)
    src = family_of(line_space(draw(points), space_id="m"), family_id="F")
    tgt = family_of(line_space(draw(points), space_id="t"), family_id="T")
    member, target = src.members[0], tgt.members[0]

    def subset(min_size):
        return draw(st.lists(st.integers(0, member.n - 1), min_size=min_size, max_size=member.n)
                    .map(lambda ix: PointSubset("m", ix)))

    if draw(st.booleans()):
        fmap = FamilyMap("F", "T", (MapFunction("m", "t", tuple(
            draw(st.lists(st.integers(0, target.n - 1), min_size=member.n, max_size=member.n)))),))
        docs = {"src.txt": write_family(src), "tgt.txt": write_family(tgt), "map.txt": write_map(fmap, src, tgt)}
        argv = ["map-analyze", *docs]
    else:
        pieces = [("m", f"p{k}", subset(1)) for k in range(draw(st.integers(1, 3)))]
        shells = [("m", f"s{k}", subset(0)) for k in range(draw(st.integers(1, 4)))]
        docs = {"src.txt": write_family(src), "pieces.txt": write_subsets("F", pieces, src),
                "shells.txt": write_subsets("F", shells, src)}
        argv = ["ray-tree", *docs]
        if draw(st.booleans()):
            argv += ["--member", draw(st.sampled_from(["m", "zz"]))]
    return mutated_with_options(draw, docs, argv)


def mutated_with_options(draw, docs, argv):
    """``docs``, one of them perhaps mutated in one token, and ``argv`` with
    perhaps an option at its edge and a format."""
    if draw(st.sampled_from([False, False, True])):
        name = draw(st.sampled_from(sorted(docs)))
        parts = re.split(r"(\s+)", docs[name])
        parts[draw(st.sampled_from(range(0, len(parts), 2)))] = draw(MUTANTS)  # not a separator
        docs[name] = "".join(parts)
    return docs, argv + edge_option(draw, argv[0]) + ["--format", draw(st.sampled_from(["text", "machine"]))]


def edge_option(draw, command) -> list:
    """Perhaps one option at its edge: ``--tolerance``, ``--seed`` or
    ``--jobs`` where ``command`` takes it, or one it does not take (a usage
    error, exit 2)."""
    own = [option for option in ("--tolerance", "--seed", "--jobs") if option in subcommand_options(command)]
    foreign = next(option for option in ("--seed", "--tolerance") if option not in own)
    option = draw(st.sampled_from([None, None, *own, foreign]))
    return [option, draw(EDGE_OPTIONS)] if option else []


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract-docs")


def run_documents_twice(doc_dir, case):
    """Write the drawn documents and run the command line twice under a low
    recursion limit with every warning an error: a NumPy warning escapes
    ``run`` as an exception."""
    docs, argv = case
    for name, text in docs.items():
        (doc_dir / name).write_text(text)
    argv = [str(doc_dir / a) if a in docs else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (out, code), again = run_twice_at_low_limit(argv)
    assert code in (0, 1, 2), out
    assert "Traceback" not in out
    assert again == (out, code)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(map_and_ray_tree_command_lines())
def test_map_and_ray_tree_commands_keep_the_exit_code_contract(doc_dir, case):
    run_documents_twice(doc_dir, case)


@st.composite
def certificate_command_lines(draw):
    """A ``check-cert``, ``check-fibering``, ``cover-check`` or ``an-check``
    command line over small generated documents, one of them perhaps
    mutated in one token (a nested stage's ``family`` line as well), with
    options at their edges; returns the file texts by name and the command
    line.  Towers have one or two stages over integer paths; a fibering
    witness is the grid projection of a g x g grid, g <= 4."""
    command = draw(st.sampled_from(["check-cert", "check-fibering", "cover-check", "an-check"]))
    if command == "check-fibering":
        schedule = sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)))
        src, tgt, fmap, witness = grid_projection_fixture(draw(st.integers(1, 4)), schedule)
        docs = {"src.txt": write_family(src), "tgt.txt": write_family(tgt), "map.txt": write_map(fmap, src, tgt),
                "witness.txt": write_fibering_witness(witness, src, tgt)}
    else:
        sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
        fam = MetricFamily("F", tuple(unit_path(n, f"m{k}") for k, n in enumerate(sizes)))
        scale = draw(st.integers(1, 3))
        if command == "check-cert":
            cert = write_decomposition_certificate(path_tower(fam, scale, draw(st.integers(1, 2))), fam)
        elif command == "cover-check":
            cert = write_asdim_certificate(path_asdim_certificate(fam, [scale]), fam)
        else:
            cert = write_an_certificate(path_an_certificate(fam, [scale]), fam)
        docs = {"fam.txt": write_family(fam), "cert.txt": cert}
    return mutated_with_options(draw, docs, [command, *docs])


def mutated_nested_family_line(command):
    """A two-stage tower, or the 3 x 3 grid projection's witness, with the
    ``family`` line of its child stage or of its radius-2 block mutated."""
    if command == "check-cert":
        fam = MetricFamily("F", (unit_path(5, "m0"),))
        docs = {"fam.txt": write_family(fam), "cert.txt": write_decomposition_certificate(path_tower(fam, 1), fam)}
        name, line = "cert.txt", "family F|pieces\n"
    else:
        src, tgt, fmap, witness = grid_projection_fixture(3, (1, 2))
        docs = {"src.txt": write_family(src), "tgt.txt": write_family(tgt), "map.txt": write_map(fmap, src, tgt),
                "witness.txt": write_fibering_witness(witness, src, tgt)}
        name, line = "witness.txt", "family grid-fam|preimages@2\n"
    docs[name] = docs[name].replace(line, "family zz\n")
    return docs, [command, *docs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(certificate_command_lines())
@example(mutated_nested_family_line("check-cert"))
@example(mutated_nested_family_line("check-fibering"))
def test_certificate_commands_keep_the_exit_code_contract(doc_dir, case):
    run_documents_twice(doc_dir, case)


# a drawn lower triangle's entries: zeros and inf break the axioms, 2.5 and
# 5e-324 are not integers
ENTRIES = st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.0, 2.5, 5e-324, math.inf])


@st.composite
def family_command_lines(draw):
    """A ``validate`` or ``components`` command line over a small family of
    paths, grids, stars and drawn lower triangles, perhaps mutated in one
    token, with options at their edges."""
    members = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["path", "grid", "star", "drawn"]))
        if kind == "path":
            members.append(unit_path(draw(st.integers(1, 8)), f"m{k}"))
        elif kind == "grid":
            members.append(integer_grid(draw(st.integers(1, 3)), draw(st.integers(1, 3)), f"m{k}"))
        elif kind == "star":
            members.append(star_tree(draw(st.integers(1, 3)), draw(st.integers(1, 3)), f"m{k}"))
        else:
            n = draw(st.integers(1, 5))
            d = np.zeros((n, n))
            d[np.tril_indices(n, -1)] = draw(st.lists(ENTRIES, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
            members.append(FiniteMetricSpace(f"m{k}", tuple(f"p{i}" for i in range(n)), d + d.T))
    docs = {"fam.txt": write_family(MetricFamily("F", tuple(members)))}
    if draw(st.booleans()):
        argv = ["validate", "fam.txt"]
    else:
        argv = ["components", "fam.txt", "--r", draw(EDGE_OPTIONS)]
    return mutated_with_options(draw, docs, argv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family_command_lines())
def test_validate_and_components_keep_the_exit_code_contract(doc_dir, case):
    run_documents_twice(doc_dir, case)


@st.composite
def construction_command_lines(draw):
    """A ``quotient-cover``, ``product``, ``decompose`` (exact or greedy) or
    ``ultrametric`` command line over a family of 1-3 members of 1-4 points
    on a line, with an identity or flip action and a certificate of one
    element per member, one document perhaps mutated in one token, with
    options at their edges."""
    points = st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)
    fam = MetricFamily("F", tuple(line_space(draw(points), space_id=f"m{k}") for k in range(draw(st.integers(1, 3)))))
    command = draw(st.sampled_from(["product", "quotient-cover", "decompose", "ultrametric"]))
    docs = {"fam.txt": write_family(fam)}
    if command == "quotient-cover":
        flip = draw(st.booleans())
        elements, compose = (("e", "g"), ((0, 1), (1, 0))) if flip else (("e",), ((0,),))
        perms = {m.id: dict(zip(elements, (tuple(range(m.n)), tuple(range(m.n))[::-1]))) for m in fam.members}
        whole = AsdimEntry(1.0, 9.0, tuple((m.id, Cover(m.id, (PointSubset(m.id, tuple(range(m.n))),)))
                                           for m in fam.members))
        docs["act.txt"] = write_action(ActionDocument("flip" if flip else "id", elements, compose, perms))
        docs["cert.txt"] = write_asdim_certificate(AsdimCertificate("F", 0, (whole,)), fam)
        argv = [command, *docs]
    elif command == "product":
        argv = [command, "fam.txt", "--p", draw(st.sampled_from(["2", "3", "700", "1.5"]) | EDGE_OPTIONS)]
    elif command == "decompose":
        argv = [command, "fam.txt", "--r", draw(st.sampled_from(["0", "1", "2.5"])), "--n", draw(st.sampled_from(["0", "1"])),
                "--bound", draw(st.sampled_from(["0", "1", "3"])), draw(st.sampled_from(["--exact", "--greedy"]))]
    else:
        argv = [command, "fam.txt"]
    return mutated_with_options(draw, docs, argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(construction_command_lines())
def test_construction_commands_keep_the_exit_code_contract(doc_dir, case):
    run_documents_twice(doc_dir, case)
