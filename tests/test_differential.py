"""Differential tests for the ingest path.

The bulk family reader must agree with the token-by-token parser, and the
tiled triangle check with the per-point loop, both kept in support.py:
equal distance bytes or the same parse error (message, line, column), and
equal validation reports in the same order.
"""

import numpy as np
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
    possibly rescaled to non-integer floats, with planted defects.  Sizes
    reach past two tiles of the triangle check."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(0, 12, size=(n, 2)).astype(np.float64)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    d *= draw(st.sampled_from([1.0, 0.1, 1 / 3]))
    for _ in range(draw(st.integers(0, 3))):
        i, k = (int(v) for v in rng.integers(0, n, size=2))
        defect = draw(st.sampled_from(["triangle", "zero", "negative", "asymmetric", "diagonal", "inf"]))
        if defect == "triangle":
            d[i, k] = d[k, i] = d[i, k] + 5.0
        elif defect == "zero":
            d[i, k] = d[k, i] = 0.0
        elif defect == "negative":
            d[i, k] = d[k, i] = -1.5
        elif defect == "asymmetric":
            d[i, k] += 0.25
        elif defect == "diagonal":
            d[i, i] = 1.0
        else:
            d[i, k] = d[k, i] = np.inf
    labels = tuple(f"x{k}" for k in range(n))
    return FiniteMetricSpace("X", labels, d, pseudo=draw(st.booleans()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted_space(), st.sampled_from([0.0, 1e-9, 0.5]))
def test_tiled_triangle_check_matches_per_point_loop(space, tol):
    assert validate_metric(space, tol) == looped_validate_metric(space, tol)
