import math

import numpy as np
import pytest

from coarsekit.decomposition import DecompositionCertificate
from coarsekit.errors import ParseError, StructuralError
from coarsekit.generators import (
    grid_projection_fixture,
    path_an_certificate,
    path_asdim_certificate,
    path_decomposition,
    unit_path,
)
from coarsekit import io
from coarsekit.io import (
    ActionDocument,
    parse_action,
    parse_an_certificate,
    parse_asdim_certificate,
    parse_decomposition_certificate,
    parse_family,
    parse_fibering_witness,
    parse_map,
    parse_rho_table,
    parse_subsets,
    write_action,
    write_an_certificate,
    write_asdim_certificate,
    write_decomposition_certificate,
    write_family,
    write_fibering_witness,
    write_map,
    write_rho_table,
    write_subsets,
)
from coarsekit.maps import FamilyMap, MapFunction
from coarsekit.metric import FiniteMetricSpace, MetricFamily, PointSubset
from coarsekit.report import fmt_num
from support import family_of, integer_points_space, line_space


def test_family_round_trip_mixed_numbers():
    rng = np.random.default_rng(2)
    a = integer_points_space(rng, 5, space_id="ints")
    vals = np.array([[0, 0.5, 2.25], [0.5, 0, 1.125], [2.25, 1.125, 0]])
    b = FiniteMetricSpace("floats", ("x", "y", "z"), vals)
    c = FiniteMetricSpace("solo", ("only",), np.zeros((1, 1)))
    fam = MetricFamily("mixed", (a, b, c))
    assert parse_family(write_family(fam)) == fam


def test_family_pseudo_flag_round_trip():
    s = FiniteMetricSpace("ps", ("a", "b"), np.zeros((2, 2)), pseudo=True)
    fam = MetricFamily("f", (s,))
    text = write_family(fam)
    assert "pseudo" in text
    assert parse_family(text).members[0].pseudo


def test_ragged_block_diagnostics():
    text = "family f\nmember m\npoints a b c\n1\n2 3 4\n"
    with pytest.raises(ParseError) as err:
        parse_family(text)
    assert err.value.line == 5
    assert "ragged" in str(err.value)


def test_bad_number_diagnostics_carry_column():
    text = "family f\nmember m\npoints a b\nbogus\n"
    with pytest.raises(ParseError) as err:
        parse_family(text)
    assert err.value.line == 4 and err.value.column == 1


@pytest.mark.parametrize("tok", ["nan", "NaN", "-nan", "+NAN", "nAn"])
def test_nan_is_rejected_with_line_and_column(tok):
    text = f"family f\nmember m\npoints a b c\n1\n1  {tok}\n"
    with pytest.raises(ParseError) as err:
        parse_family(text)
    assert (err.value.line, err.value.column) == (5, 4)
    assert "nan" in str(err.value)
    with pytest.raises(ParseError):
        parse_rho_table(f"0 1\n2 {tok}\n")


def test_duplicate_label_is_rejected_at_second_occurrence():
    with pytest.raises(ParseError) as err:
        parse_family("family f\nmember m\npoints a b  a\n1\n1 1\n")
    assert (err.value.line, err.value.column) == (3, 13)
    assert "duplicate point label 'a'" in str(err.value)


def test_repeated_member_id_is_rejected_at_its_member_line():
    text = "family f\nmember a\npoints x y\n1\nmember a\npoints u v\n2\n"
    with pytest.raises(ParseError) as err:
        parse_family(text)
    assert (err.value.line, err.value.column) == (5, 8)
    assert str(err.value) == "line 5, column 8: family 'f' has duplicate member id 'a'"


@pytest.mark.parametrize("wide", ["9223372036854775809", "12345678901234567891", "1" + "0" * 24])
def test_block_with_a_literal_wider_than_int64_digits_leaves_the_byte_reader(wide):
    # 46 points make a block of 1 035 unsigned literals, past the byte
    # reader's minimum; one literal of more than 18 digits sends it back
    n = 46
    rows = [[str(i - j) for j in range(i)] for i in range(1, n)]
    rows[30][7] = wide
    assert n * (n - 1) // 2 >= io._DIGIT_BLOCK_MIN and len(wide) > io._DIGIT_MAX_WIDTH
    bodies = [" ".join(row) for row in rows]
    assert io._digit_block(bodies, n * (n - 1) // 2) is None
    points = " ".join(f"p{k}" for k in range(n))
    member = parse_family(f"family f\nmember m\npoints {points}\n" + "\n".join(bodies) + "\n").members[0]
    assert member.d(31, 7) == member.d(7, 31) == float(int(wide))
    assert member.d(31, 6) == 25.0


def test_write_family_matches_fmt_num_per_entry():
    # Each special value sits in a row of otherwise whole numbers.
    lower = [
        [7.0],
        [-0.0, 3.0],
        [1e15 - 1, 2.0, -0.0],
        [1e15, 1.0, 2.0, 3.0],
        [1e16, 1.0, 2.0, 3.0, 4.0],
        [np.inf, 1.0, 2.0, 3.0, 4.0, 5.0],
        [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 1 / 3],
    ]
    n = len(lower) + 1
    d = np.zeros((n, n))
    for i, row in enumerate(lower, start=1):
        d[i, :i] = d[:i, i] = row
    fam = MetricFamily("f", (FiniteMetricSpace("m", tuple(f"p{k}" for k in range(n)), d),))
    rows = [" ".join(fmt_num(v) for v in row) for row in lower]
    assert rows[:3] == ["7", "0 3", "999999999999999 2 0"]
    header = "family f\nmember m\npoints " + " ".join(fam.members[0].points) + "\n"
    assert write_family(fam) == header + "\n".join(rows) + "\n"


def test_write_family_refuses_a_nan_entry():
    assert fmt_num(math.nan) == "nan"
    d = np.array([[0.0, 1.0, math.nan], [1.0, 0.0, 1.0], [math.nan, 1.0, 0.0]])
    fam = MetricFamily("f", (FiniteMetricSpace("m", ("a", "b", "c"), d),))
    with pytest.raises(StructuralError, match="member 'm' has a NaN distance"):
        write_family(fam)


def test_comments_and_blank_lines_ignored():
    text = "# header\nfamily f\n\nmember m  # trailing\npoints a b\n1\n"
    fam = parse_family(text)
    assert fam.members[0].d(0, 1) == 1


def test_action_round_trip():
    doc = ActionDocument(
        "flip",
        ("e", "g"),
        ((0, 1), (1, 0)),
        {"m": {"e": (0, 1, 2), "g": (2, 1, 0)}},
    )
    fam = family_of(line_space([0, 1, 2], space_id="m"), family_id="F")
    parsed = parse_action(write_action(doc), fam)
    assert parsed.elements == doc.elements
    assert parsed.compose == doc.compose
    assert parsed.perms == doc.perms
    act = parsed.for_member("m")
    assert act.perms == ((0, 1, 2), (2, 1, 0))


def test_map_round_trip():
    src = family_of(line_space([0, 1, 2], space_id="dom"), family_id="S")
    tgt = family_of(line_space([0, 2, 4], space_id="ran"), family_id="T")
    fmap = FamilyMap("S", "T", (MapFunction("dom", "ran", (0, 1, 2)),))
    assert parse_map(write_map(fmap, src, tgt), src, tgt) == fmap


def test_map_rejects_partial_assignment():
    src = family_of(line_space([0, 1], space_id="dom"), family_id="S")
    tgt = family_of(line_space([0, 1], space_id="ran"), family_id="T")
    text = "map\nsource S\ntarget T\nfunction dom -> ran\n0 : 0\n"
    with pytest.raises(ParseError):
        parse_map(text, src, tgt)


@pytest.mark.parametrize(
    "body, expected",
    [("0 : 0\nq : 1\n", ("line 6, column 1: unknown point 'q' of 'dom'", 6, 1)),
     ("0 : 0\n1 : q\n", ("line 6, column 5: unknown point 'q' of 'ran'", 6, 5))],
    ids=["source", "target"],
)
def test_map_rejects_unknown_point(body, expected):
    src = family_of(line_space([0, 1], space_id="dom"), family_id="S")
    tgt = family_of(line_space([0, 1], space_id="ran"), family_id="T")
    with pytest.raises(ParseError) as err:
        parse_map("map\nsource S\ntarget T\nfunction dom -> ran\n" + body, src, tgt)
    assert (str(err.value), err.value.line, err.value.column) == expected


def test_unknown_point_in_element_line():
    fam = MetricFamily("paths", (unit_path(6, "a"),))
    text = write_asdim_certificate(path_asdim_certificate(fam, [1]), fam)
    text = text.replace("element : 0 1 2 3", "element : 0 1 zz 3")
    with pytest.raises(ParseError) as err:
        parse_asdim_certificate(text, fam)
    assert (str(err.value), err.value.line, err.value.column) == (
        "line 9, column 15: unknown point 'zz' of 'a'", 9, 15)


def test_subsets_round_trip():
    s = unit_path(6, "p")
    fam = family_of(s, family_id="F")
    entries = [
        ("p", "left", PointSubset("p", (0, 1, 2))),
        ("p", "right", PointSubset("p", (3, 4, 5))),
    ]
    text = write_subsets("F", entries, fam)
    assert parse_subsets(text, fam) == entries


def test_asdim_certificate_round_trip():
    fam = MetricFamily("paths", (unit_path(20, "a"), unit_path(12, "b")))
    cert = path_asdim_certificate(fam, [1, 2])
    assert parse_asdim_certificate(write_asdim_certificate(cert, fam), fam) == cert


def test_an_certificate_round_trip():
    fam = MetricFamily("paths", (unit_path(24, "a"),))
    cert = path_an_certificate(fam, [1, 2, 4])
    assert parse_an_certificate(write_an_certificate(cert, fam), fam) == cert


def test_decomposition_certificate_round_trip_with_child():
    s = unit_path(16, "p")
    fam = family_of(s, family_id="p")
    leaf = path_decomposition(s, 2)
    assert parse_decomposition_certificate(
        write_decomposition_certificate(leaf, fam), fam
    ) == leaf
    from coarsekit.decomposition import MemberDecomposition, piece_family

    stage1 = leaf.members[0]
    parent_stub = DecompositionCertificate("p", 2.0, 1, (stage1,), leaf_bound=0.0)
    pieces = piece_family(parent_stub, fam)
    child_members = tuple(
        MemberDecomposition(m.id, ((PointSubset(m.id, tuple(range(m.n))),), ()))
        for m in pieces.members
    )
    child = DecompositionCertificate(pieces.id, 2.0, 1, child_members, leaf_bound=2.0)
    nested = DecompositionCertificate("p", 2.0, 1, (stage1,), child=child)
    text = write_decomposition_certificate(nested, fam)
    assert parse_decomposition_certificate(text, fam) == nested


def test_fibering_witness_round_trip():
    src, tgt, fmap, witness = grid_projection_fixture(5, schedule=(1, 2, 4))
    text = write_fibering_witness(witness, src, tgt)
    parsed = parse_fibering_witness(text, src, tgt, fmap)
    assert parsed == witness


def test_rho_table_round_trip():
    pairs = ((0.0, 0.5), (1.5, 2.0), (4.0, 11.25))
    assert parse_rho_table(write_rho_table(pairs)) == pairs


def test_empty_subsets_row_parses():
    fam = family_of(unit_path(3, "p"), family_id="F")
    assert parse_subsets("subsets F\nmember p\nseed :\nall : 0 1 2\n", fam) == [
        ("p", "seed", PointSubset("p", ())), ("p", "all", PointSubset("p", (0, 1, 2)))]
