"""Differential tests for the ingest path.

The bulk family reader must agree with the token-by-token parser, and the
tiled triangle check with the per-point loop, both kept in support.py:
equal distance bytes or the same parse error (message, line, column), and
equal validation reports in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsekit.errors import ParseError
from coarsekit.io import parse_family
from coarsekit.metric import FiniteMetricSpace, validate_metric
from support import looped_validate_metric, scanned_parse_family

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

NUMBERS = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=False, width=64).map(repr),
    st.sampled_from(
        ["0", "-0", "+0", "-0.0", "+3", "007", "1_000", "1e3", "2.5E-3", "inf", "-inf",
         "Infinity", "٣"]
    ),
)
BAD_TOKENS = st.sampled_from(["bogus", "1.2.3", "0x10", "1__0", "--1", "e5", "member", "family"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "　"])
NEWLINES = st.sampled_from(["\n", "\r\n"])


@st.composite
def family_document(draw):
    """A family document, well formed or with one mutation (ragged row,
    block cut short by a member line, dropped row, bad token), rendered with
    random spacing, line endings, comments and blank lines."""
    lines = [["family", "F"]]
    for m in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 7))
        lines.append(["member", f"m{m}"] + (["pseudo"] if draw(st.booleans()) else []))
        lines.append(["points"] + [f"p{k}" for k in range(n)])
        for i in range(1, n):
            lines.append(draw(st.lists(NUMBERS, min_size=i, max_size=i)))
    rows = [k for k, line in enumerate(lines) if line[0] not in ("family", "member", "points")]
    mutation = draw(st.sampled_from(["none", "none", "ragged", "cut", "drop", "bad"]))
    if mutation != "none" and rows:
        k = draw(st.sampled_from(rows))
        if mutation == "ragged":
            lines[k] = lines[k][:-1] if draw(st.booleans()) else lines[k] + [draw(NUMBERS)]
        elif mutation == "cut":
            lines.insert(k, ["member", "cut"])
        elif mutation == "drop":
            del lines[k]
        else:
            j = draw(st.integers(0, len(lines[k]) - 1))
            lines[k] = lines[k][:j] + [draw(BAD_TOKENS)] + lines[k][j + 1:]
    out = []
    for tokens in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["", "# note", "  \t", " # 1 2 3"])) + draw(NEWLINES))
        text = draw(st.sampled_from(["", " ", "\t"]))
        for t in tokens:
            text += t + draw(SEPARATORS)
        if draw(st.booleans()):
            text += "# trailing 1 2"
        out.append(text + draw(NEWLINES))
    return "".join(out)


def _outcome(parse, text):
    try:
        fam = parse(text)
    except ParseError as err:
        return ("error", str(err), err.line, err.column)
    return ("ok", fam.id, [(m.id, m.points, m.pseudo, m.dist.tobytes()) for m in fam.members])


@SETTINGS
@given(family_document())
def test_bulk_reader_matches_token_scanner(text):
    assert _outcome(parse_family, text) == _outcome(scanned_parse_family, text)


@st.composite
def planted_space(draw):
    """An l^1 space on a small integer grid (so some points coincide),
    possibly rescaled to non-integer floats or to integers on both sides of
    2**22 (the largest magnitude the triangle check bounds in float32),
    with planted defects.  Sizes reach past two tiles of the triangle
    check."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(0, 12, size=(n, 2)).astype(np.float64)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    d *= draw(st.sampled_from([1.0, 0.1, 1 / 3, 2.0**17, 2.0**18, 190651.0]))
    for _ in range(draw(st.integers(0, 3))):
        i, k = (int(v) for v in rng.integers(0, n, size=2))
        defect = draw(st.sampled_from(
            ["triangle", "zero", "negative", "asymmetric", "diagonal", "inf", "-inf", "slack-1"]))
        if defect == "triangle":
            d[i, k] = d[k, i] = d[i, k] + 5.0
        elif defect == "zero":
            d[i, k] = d[k, i] = 0.0
        elif defect == "negative":
            d[i, k] = d[k, i] = -1.5
        elif defect == "asymmetric":
            d[i, k] += draw(st.sampled_from([0.25, 1.0]))
        elif defect == "diagonal":
            d[i, i] = 1.0
        elif defect == "slack-1":
            # d[i,k] is 2**22 or 2**22 + 1, one more than d[i,j] + d[j,k]
            j = int(rng.integers(0, n))
            over = draw(st.sampled_from([0.0, 1.0]))
            d[i, j] = d[j, i] = 2.0**21
            d[j, k] = d[k, j] = 2.0**21 - 1 + over
            d[i, k] = d[k, i] = 2.0**22 + over
        else:
            d[i, k] = d[k, i] = float(defect)
    labels = tuple(f"x{k}" for k in range(n))
    return FiniteMetricSpace("X", labels, d, pseudo=draw(st.booleans()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted_space(), st.sampled_from([0.0, 1e-9, 0.5, 1.0]))
def test_tiled_triangle_check_matches_per_point_loop(space, tol):
    assert validate_metric(space, tol) == looped_validate_metric(space, tol)


def _unit_space(n):
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    return d


def _nan_beside_violation():
    """70 points at distance 1 (two tiles) and d[0,65] = 5, a violation via
    any third point; through point 66 the sum is inf + -inf, NaN, and no
    other pair of the first tile is violated.  Asymmetric: column 66 is inf
    and row 66 is inf except d[66,65] = -inf."""
    d = _unit_space(70)
    d[:, 66] = np.inf
    d[66, :] = np.inf
    d[66, 66] = 0.0
    d[66, 65] = -np.inf
    d[0, 65] = d[65, 0] = 5.0
    return d, (0, 1, 65)


def _slack_one(top):
    """d[0,2] = top, one more than d[0,1] + d[1,2]."""
    d = _unit_space(3)
    d[0, 1] = d[1, 0] = 2.0**21
    d[1, 2] = d[2, 1] = top - 2.0**21 - 1
    d[0, 2] = d[2, 0] = top
    return d, (0, 1, 2)


def _rounds_up_in_float32():
    """d[0,1] + d[1,2] = 2**24 + 3 rounds up to d[0,2] = 2**24 + 4 in float32."""
    d = _unit_space(3)
    d[0, 1] = d[1, 0] = 2.0**24 + 2
    d[0, 2] = d[2, 0] = 2.0**24 + 4
    return d, (0, 1, 2)


def _asymmetric_wide():
    """150 points on a line, one entry of the third tile raised past the
    triangle inequality in one direction only."""
    x = np.arange(150.0)
    d = np.abs(x[:, None] - x)
    d[140, 3] += 7.0
    return d, (140, 4, 3)


@pytest.mark.parametrize(
    "case",
    [_nan_beside_violation(), _slack_one(2.0**22), _slack_one(2.0**22 + 1),
     _rounds_up_in_float32(), _asymmetric_wide()],
    ids=["nan-beside-violation", "slack-1-at-2^22", "slack-1-above-2^22",
         "rounds-up-in-float32", "asymmetric-wide"],
)
def test_triangle_check_edge_cases(case):
    d, witness = case
    space = FiniteMetricSpace("X", tuple(f"x{k}" for k in range(len(d))), d)
    report = validate_metric(space)
    assert report == looped_validate_metric(space)
    assert witness in [v.witness for v in report.violations if v.kind == "triangle"]
