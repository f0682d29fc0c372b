"""Differential tests: each array pass against the loop it replaced.

The bulk family reader must agree with the token-by-token parser, the block
writer with the row-by-row writer, and the tiled triangle check with the
per-point loop, all kept in support.py: equal distance bytes or the same
parse error (message, line, column), equal documents, and equal validation
reports in the same order.  The one-split row reader, which works out a
token's column only for the error that names it, must agree with the eager
reader that paired every token with its column, in the same way, on every
kind of ``:`` row.
The map envelopes, the l^p product grid and greedy ball seeding must agree
with their ``looped_*`` versions: the same breakpoints (each source
distance with its sign of zero) or error, the same space, the same
coloring.  The leaf-bound items of a decomposition check and the mesh items
of an AN-control check must equal those of a loop over ``subset_diameter``.
The nearest-point kernel must agree with the five passes it replaced: its
distances and points with a per-point ``min`` and ``list.index``, and the
neighborhood, the two-set separator, the cone extension and the
coarse-surjectivity constant with their ``looped_*`` versions.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from coarsekit.covers import ANControlCertificate, ANEntry, Cover, check_an_control
from coarsekit.decomposition import (
    DecompositionCertificate, MemberDecomposition, _greedy_search, check_decomposition, piece_id,
    search_decomposition, union_separator_map,
)
from coarsekit.cone import cone_extension
from coarsekit.errors import CoarsekitError, ParseError, StructuralError
from coarsekit.io import _NONE, _ONE, _OPTIONAL, _Doc, parse_family, write_family
from coarsekit.maps import (
    FamilyMap, MapFunction, MonotoneEnvelope, control_envelope, is_coarsely_onto, properness_envelope,
)
from coarsekit.metric import (
    FiniteMetricSpace, MetricFamily, PointSubset, nearest_points, neighborhood, product, validate_metric,
)
from coarsekit.report import CheckItem, fmt_num
from support import (
    looped_coarse_onto,
    looped_cone_extension,
    looped_control_envelope,
    looped_greedy_search,
    looped_nearest_point,
    looped_neighborhood,
    looped_point_to_set_distance,
    looped_product,
    looped_properness_envelope,
    looped_separator,
    looped_validate_metric,
    looped_write_family,
    ScannedDoc,
    scanned_colon_row,
    scanned_int,
    scanned_labels,
    scanned_parse_family,
    subset_diameter,
)

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
LITERAL_MUTATIONS = st.sampled_from(["+3", "-0", "٣"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "　"])
ASCII_SEPARATORS = [" ", "  ", "\t", " \t "]
NEWLINES = st.sampled_from(["\n", "\r\n"])
# unsigned literals at the edges of the byte reader: a leading zero, 2**53 + 1,
# the widest that int64 holds exactly, and two past int64
WIDE_LITERALS = st.one_of(
    st.sampled_from(["007", "9007199254740993", "999999999999999999", "9999999999999999999",
                     "10000000000000000000"]),
    st.integers(10**14, 10**19 - 1).map(str),
)


def _digit_rows(draw, n):
    """The rows of an n-point block of unsigned digit literals, mostly small
    with a few wide ones mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tokens = rng.integers(0, draw(st.sampled_from([10, 1000, 10**6])), n * (n - 1) // 2).astype(str).tolist()
    for _ in range(draw(st.integers(0, 4))):
        tokens[int(rng.integers(len(tokens)))] = draw(WIDE_LITERALS)
    return [tokens[i * (i - 1) // 2:i * (i + 1) // 2] for i in range(1, n)]


@st.composite
def family_document(draw):
    """A family document, well formed or with one mutation (ragged row or a
    token moved to the next row, block cut short by a member line, dropped
    row, bad token, signed or non-ASCII literal), rendered with random
    spacing, line endings, comments and blank lines.  About one member in
    four has 46-60 points and a block of unsigned digit literals, past the
    size where the byte reader takes over."""
    lines = [["family", "F"]]
    digit_rows = []  # the rows of large blocks, by identity, whose separators a generator picks
    for m in range(draw(st.integers(1, 3))):
        large = draw(st.integers(0, 3)) == 0
        n = draw(st.integers(46, 60) if large else st.integers(1, 7))
        lines.append(["member", f"m{m}"] + (["pseudo"] if draw(st.booleans()) else []))
        lines.append(["points"] + [f"p{k}" for k in range(n)])
        if large:
            digit_rows += _digit_rows(draw, n)
            lines += digit_rows[-(n - 1):]
        else:
            for i in range(1, n):
                lines.append(draw(st.lists(NUMBERS, min_size=i, max_size=i)))
    rows = [k for k, line in enumerate(lines) if line[0] not in ("family", "member", "points")]
    mutation = draw(st.sampled_from(["none", "none", "ragged", "shift", "cut", "drop", "bad", "literal"]))
    if mutation != "none" and rows:
        k = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(lines[k]) - 1))
        if mutation == "ragged":
            lines[k] = lines[k][:-1] if draw(st.booleans()) else lines[k] + [draw(NUMBERS)]
        elif mutation == "shift":  # row k one short and, within a block, the next one long
            token = lines[k].pop()
            if k + 1 in rows:
                lines[k + 1].insert(0, token)
        elif mutation == "cut":
            lines.insert(k, ["member", "cut"])
        elif mutation == "drop":
            del lines[k]
        else:
            lines[k][j] = draw(BAD_TOKENS if mutation == "bad" else LITERAL_MUTATIONS)
    # rows of large blocks take their separators from a seeded generator,
    # ASCII only or not
    bulk = {id(row) for row in digit_rows}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    long_separators = ASCII_SEPARATORS + (["\xa0", "　"] if draw(st.integers(0, 3)) == 3 else [])
    out = []
    for tokens in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["", "# note", "  \t", " # 1 2 3"])) + draw(NEWLINES))
        text = draw(st.sampled_from(["", " ", "\t"]))
        if id(tokens) in bulk:
            text += "".join(t + s for t, s in zip(tokens, rng.choice(long_separators, len(tokens))))
        else:
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


# no shrinking: each shrink step regenerates a block of up to 1 800 tokens,
# so shrinking one failure runs for minutes; the failing input is the same
@settings(SETTINGS, phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(family_document())
def test_bulk_reader_matches_token_scanner(text):
    assert _outcome(parse_family, text) == _outcome(scanned_parse_family, text)


LABELS = ("p0", "p1", "q", "x:y", "٣", "7")
ROW_SPACE = FiniteMetricSpace("m", LABELS, np.ones((6, 6)) - np.eye(6))
ELEMENTS = {"e": 0, "g": 1, "٣": 2}
ANY = range(sys.maxsize)
# each row kind of the documents: key, head and tail lengths, usage, and how
# its head and tail are read (as they are by the parser that takes the row)
ROWS = {
    "element": ("element", _OPTIONAL, ANY, "element line is 'element [<color>] : <label...>'", "int", "label"),
    "piece": ("piece", _NONE, ANY, "piece line is 'piece : <label...>'", "raw", "label"),
    "compose": ("compose", _ONE, ANY, "compose row is 'compose <element> : <element...>'", "element", "element"),
    "perm": ("perm", _ONE, ANY, "perm row is 'perm <element> : <indices...>'", "raw", "int"),
    "assignment": (None, _ONE, _ONE, "assignment line is '<point> : <image>'", "label", "label"),
    "subset": (None, _ONE, ANY, "subset line is '<name> : <label...>'", "raw", "label"),
}
VALUES = {"int": ["0", "3", "12"], "label": LABELS, "element": sorted(ELEMENTS), "raw": ["A", "e", "x:y"]}


@st.composite
def label_row_text(draw):
    """A row of every kind that ``_Doc.colon_row`` takes, over ROW_SPACE,
    valid or with one defect, its tokens joined by ASCII or Unicode
    whitespace."""
    kind = draw(st.sampled_from(sorted(ROWS)))
    key, nhead, ntail, _, head_as, tail_as = ROWS[kind]
    lead = [] if key is None else [key]
    head = draw(st.lists(st.sampled_from(VALUES[head_as]), min_size=nhead.start, max_size=nhead.stop - 1))
    tail = draw(st.lists(st.sampled_from(VALUES[tail_as]), min_size=min(ntail.start, 1),
                         max_size=min(ntail.stop - 1, 5)))
    tokens = [*lead, *head, ":", *tail]
    defect = draw(st.sampled_from(
        ["none", "none", "unknown", "repeat", "no-colon", "colon-colon", "extra-head", "head",
         "bare", "foreign"]))
    if defect == "unknown":
        tokens.insert(draw(st.integers(len(lead), len(tokens))), draw(st.sampled_from(["zz", "P0", "-"])))
    elif defect == "repeat" and tail:
        tokens.append(tail[0])
    elif defect == "no-colon":
        tokens.remove(":")
    elif defect == "colon-colon":
        tokens.insert(len(lead) + len(head), ":")
    elif defect == "extra-head":
        tokens[len(lead):len(lead)] = ["1", "2"] if nhead.stop > 2 else ["1"]
    elif defect == "head":
        tokens[len(lead):len(lead) + len(head)] = [draw(st.sampled_from(["+1", "٣", "x", "-2", "1_0"]))]
    elif defect == "bare":
        tokens = tokens[:1]
    elif defect == "foreign":
        tokens[0] = draw(st.sampled_from(["color", "pieces", "element:", "perm"]))
    separators = st.sampled_from([" ", "\t", "  ", "\xa0", "　", "\u2003", "\x1f", "\u3000\t"])
    return kind, draw(st.sampled_from(["", " "])) + "".join(t + draw(separators) for t in tokens)


def _read_row(doc, kind):
    """The row through ``_Doc``: one split, columns only for an error."""
    key, nhead, ntail, usage, *read_as = ROWS[kind]
    ln, head, tail, t = doc.colon_row(key, nhead, usage, ntail)
    parts = []
    for toks, k, how in zip((head, tail), (0 if key is None else 1, t), read_as):
        if how == "int":
            toks = [doc.integer(tok, j) for j, tok in enumerate(toks, k)]
        elif how == "label":
            toks = doc.labels(toks, k, ROW_SPACE)
        elif how == "element":
            for j, tok in enumerate(toks, k):
                if tok not in ELEMENTS:
                    raise doc.error(f"unknown element {tok!r}", j)
            toks = [ELEMENTS[tok] for tok in toks]
        parts.append(toks)
    return ln, *parts


def _scanned_read_row(doc, kind):
    """The row through the eager reader: a (token, column) pair per token."""
    key, nhead, ntail, usage, *read_as = ROWS[kind]
    ln, *pairs = scanned_colon_row(doc, key, nhead, usage, ntail)
    parts = []
    for toks, how in zip(pairs, read_as):
        if how == "int":
            parts.append([scanned_int(tok, ln, col) for tok, col in toks])
        elif how == "label":
            parts.append(scanned_labels(toks, ROW_SPACE, ln))
        elif how == "element":
            for tok, col in toks:
                if tok not in ELEMENTS:
                    raise ParseError(f"unknown element {tok!r}", ln, col)
            parts.append([ELEMENTS[tok] for tok, _ in toks])
        else:
            parts.append([tok for tok, _ in toks])
    return ln, *parts


def _row_outcome(read, doc, kind):
    try:
        ln, head, tail = read(doc, kind)
    except ParseError as err:
        return ("error", str(err), err.line, err.column)
    return ("ok", ln, head, tail, doc.pos)


@SETTINGS
@given(label_row_text())
def test_split_label_row_matches_colon_row(row):
    kind, text = row
    assert _row_outcome(_read_row, _Doc(text), kind) == _row_outcome(_scanned_read_row, ScannedDoc(text), kind)


EDGE_VALUES = st.sampled_from(
    [np.inf, -0.0, 0.0, 1e15 - 1, 1e15, 2.5e16, 2.0**62, -(2.0**62)])
BLOCK_VALUES = {
    "integer": st.integers(0, 40).map(float),
    "float": st.floats(0.0, 1e6, allow_nan=False),
    "sqrt": st.integers(1, 60).map(lambda k: float(np.sqrt(k))),
}


@st.composite
def emitted_family(draw):
    """A family of 1- to 10-point members, some pseudo, each block drawn
    from integers, floats or square roots with edge values mixed in."""
    members = []
    for m in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 10))
        entry = st.one_of(BLOCK_VALUES[draw(st.sampled_from(sorted(BLOCK_VALUES)))], EDGE_VALUES)
        d = np.zeros((n, n))
        for i in range(1, n):
            for j in range(i):
                d[i, j] = d[j, i] = draw(entry)
        members.append(FiniteMetricSpace(f"m{m}", tuple(f"p{k}" for k in range(n)), d,
                                         pseudo=draw(st.booleans())))
    return MetricFamily("F", tuple(members))


def _family_key(fam):
    return fam.id, [(m.id, m.points, m.pseudo, m.dist.tolist()) for m in fam.members]


@SETTINGS
@given(emitted_family())
def test_block_writer_matches_row_writer(fam):
    text = write_family(fam)
    assert text == looped_write_family(fam)
    assert _family_key(parse_family(text)) == _family_key(fam)


@st.composite
def planted_space(draw):
    """An l^1 space on a small integer grid (so some points coincide),
    possibly rescaled to non-integer floats or to integers on both sides of
    2**14 - 1 (the largest magnitude the triangle check bounds in int16),
    with planted defects.  A slack-1 defect straddles that limit or 2**22.
    Sizes reach past two tiles of the triangle check."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(0, 12, size=(n, 2)).astype(np.float64)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    d *= draw(st.sampled_from([1.0, 0.1, 1 / 3, 744.0, 745.0, 2.0**17, 2.0**18, 190651.0]))
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
            # d[i,k] is top or top + 1, one more than d[i,j] + d[j,k]
            j = int(rng.integers(0, n))
            top = draw(st.sampled_from([2.0**14 - 1, 2.0**22]))
            over = draw(st.sampled_from([0.0, 1.0]))
            d[i, j] = d[j, i] = top // 2
            d[j, k] = d[k, j] = top - top // 2 - 1 + over
            d[i, k] = d[k, i] = top + over
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
    d[0, 1] = d[1, 0] = top // 2
    d[1, 2] = d[2, 1] = top - top // 2 - 1
    d[0, 2] = d[2, 0] = top
    return d, (0, 1, 2)


def _int16_extremes():
    """Entries of +-(2**14 - 1) only, so sums reach +-32 766 and the slack
    of the witness, 16 383 - (-32 766), is past int16."""
    top = 2**14 - 1
    d = np.random.default_rng(14).choice([-top, top], size=(12, 12)).astype(np.float64)
    np.fill_diagonal(d, 0.0)
    d[0, 2], d[0, 1], d[1, 2] = top, -top, -top
    return d, (0, 1, 2)


def _negative_past_int16():
    """d[0,1] + d[1,2] = -(2**15 + 1), which int16 cannot hold: an entry of
    magnitude 2**14 or more on the negative side takes float64 too."""
    d = _unit_space(3)
    d[0, 1] = d[1, 0] = -(2.0**14)
    d[1, 2] = d[2, 1] = -(2.0**14) - 1
    return d, (0, 1, 2)


def _path_with_negative_and_zero():
    """A 301-point integer path (five tiles, 37 blocks of j and a last
    block of 5) with one negative and one zero entry planted."""
    x = np.arange(301.0)
    d = np.abs(x[:, None] - x)
    d[10, 200] = d[200, 10] = -1.0
    d[50, 250] = d[250, 50] = 0.0
    return d, (0, 10, 200)


def _rounds_up_in_float32():
    """d[0,1] + d[1,2] = 2**24 + 3 would round up to d[0,2] = 2**24 + 4 in
    float32; the float64 bound keeps it exact."""
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
     _rounds_up_in_float32(), _asymmetric_wide(), _slack_one(2**14 - 1), _slack_one(2**14),
     _int16_extremes(), _negative_past_int16(), _path_with_negative_and_zero()],
    ids=["nan-beside-violation", "slack-1-at-2^22", "slack-1-above-2^22",
         "rounds-up-in-float32", "asymmetric-wide", "slack-1-at-2^14-1", "slack-1-at-2^14",
         "int16-extremes", "negative-past-int16", "path-301-negative-and-zero"],
)
def test_triangle_check_edge_cases(case):
    d, witness = case
    space = FiniteMetricSpace("X", tuple(f"x{k}" for k in range(len(d))), d)
    report = validate_metric(space)
    assert report == looped_validate_metric(space)
    assert witness in [v.witness for v in report.violations if v.kind == "triangle"]


# distances with ties, both zeros, negatives and the unbounded sentinel
SOURCE_DISTANCES = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, 3.0, 7.0, math.inf])
IMAGE_DISTANCES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.0, 4.5, -1.0, -3.0, math.inf])


def _matrix(draw, n, values):
    return np.array([[draw(values) for _ in range(n)] for _ in range(n)])


@st.composite
def family_map(draw):
    """Source and target families of 1- to 7-point members with arbitrary
    (not necessarily metric) matrices, and a map of several functions, each
    source member the domain of at least one.  In about half the draws a
    source distance may be negative."""
    def family(fam_id, values, count):
        sizes = [draw(st.integers(1, 7)) for _ in range(count)]
        return MetricFamily(fam_id, tuple(
            FiniteMetricSpace(f"{fam_id}{k}", tuple(f"p{i}" for i in range(n)),
                              _matrix(draw, n, values))
            for k, n in enumerate(sizes)))

    negative = draw(st.booleans())  # a negative source distance is a StructuralError
    src = family("S", SOURCE_DISTANCES | st.just(-2.0) if negative else SOURCE_DISTANCES,
                 draw(st.integers(1, 2)))
    tgt = family("T", IMAGE_DISTANCES, draw(st.integers(1, 2)))
    domains = [m.id for m in src.members] + draw(
        st.lists(st.sampled_from(src.member_ids()), max_size=3))
    fns = []
    for member_id in domains:
        t = draw(st.sampled_from(tgt.members))
        assignment = draw(st.lists(st.integers(0, t.n - 1), min_size=src.member(member_id).n,
                                   max_size=src.member(member_id).n))
        fns.append(MapFunction(member_id, t.id, tuple(assignment)))
    return FamilyMap("S", "T", tuple(fns)), src, tgt


def _envelope_outcome(envelope, fmap, src, tgt):
    """Breakpoints with each source distance as typed, -0.0 apart from 0.0,
    or the error a negative source distance raises."""
    try:
        bps = envelope(fmap, src, tgt).breakpoints
    except StructuralError as exc:
        return str(exc)
    return [repr(s) for s, _ in bps], [v for _, v in bps]


@SETTINGS
@given(family_map())
def test_envelope_passes_match_the_dict_loops(case):
    fmap, src, tgt = case
    for envelope, looped in ((control_envelope, looped_control_envelope),
                             (properness_envelope, looped_properness_envelope)):
        assert _envelope_outcome(envelope, *case) == _envelope_outcome(looped, *case)


@st.composite
def product_factors(draw):
    """One to four spaces of 0 to 4 points with fractional, -0.0 and inf
    entries, some pseudo."""
    factors = []
    values = st.one_of(st.floats(0, 100, allow_nan=False).map(lambda v: round(v, 3)),
                       st.sampled_from([-0.0, math.inf]))
    for f in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 4))
        factors.append(FiniteMetricSpace(f"f{f}", tuple(f"{chr(97 + f)}{i}" for i in range(n)),
                                         _matrix(draw, n, values).reshape(n, n),
                                         pseudo=draw(st.booleans())))
    return factors


@SETTINGS
@given(product_factors(), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_product_grid_matches_the_combo_list(factors, p):
    got, want = product(factors, p), looped_product(factors, p)
    assert (got.id, got.points, got.pseudo) == (want.id, want.points, want.pseudo)
    assert got.dist.shape == want.dist.shape
    assert got.dist.tobytes() == want.dist.tobytes()


@pytest.mark.parametrize("sizes, p", [((18, 30), 2.0), ((1, 1, 1), math.inf)])
def test_product_member_block_matches_row_writer(sizes, p):
    """A 540-point l2 product (fractional rows, -0.0 and inf entries) and a
    1-point product (no rows) are written as the row writer writes them."""
    rng = np.random.default_rng(20)
    factors = []
    for f, n in enumerate(sizes):
        d = np.round(rng.random((n, n)) * 9, 2)
        d[rng.random((n, n)) < 0.1] = -0.0
        d[rng.random((n, n)) < 0.02] = math.inf
        d = np.triu(d, 1)
        d = np.where(np.tri(n, dtype=bool), d.T, d)
        factors.append(FiniteMetricSpace(f"f{f}", tuple(f"{chr(97 + f)}{i}" for i in range(n)), d))
    fam = MetricFamily("F|product", (product(factors, p),))
    assert write_family(fam) == looped_write_family(fam)


@st.composite
def seeded_space(draw):
    """A 1- to 12-point matrix of small integers, with a zero, NaN or
    positive diagonal entry here and there, and a scale, dimension and leaf
    bound."""
    n = draw(st.integers(1, 12))
    d = _matrix(draw, n, st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 6.0]))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, [draw(st.sampled_from([0.0, 0.0, 0.0, math.nan, 1.0, 5.0]))
                         for _ in range(n)])
    space = FiniteMetricSpace("s", tuple(f"p{i}" for i in range(n)), d)
    return (space, draw(st.sampled_from([0.0, 1.0, 2.0])), draw(st.integers(0, 2)),
            draw(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 8.0])))


@SETTINGS
@given(seeded_space())
def test_greedy_owner_array_matches_the_uncovered_set(case):
    assert _greedy_search(*case) == looped_greedy_search(*case)


@st.composite
def pieced_family(draw):
    """1-3 members of 1-40 points with pseudo zero and -0.0 entries, a color
    count n and, per member, n + 1 groups of random pieces, a greedy
    search's pieces, or (a wrong color count, whose pieces no other check
    reads) groups holding empty pieces."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 2))
    members, groups = [], []
    for m in range(draw(st.integers(1, 3))):
        size = int(rng.integers(1, 41))
        d = np.abs(np.subtract.outer(rng.integers(0, 30, size), rng.integers(0, 30, size)))
        d = np.minimum(d, d.T).astype(float)
        np.fill_diagonal(d, 0.0)
        d[np.triu(rng.random(d.shape) < draw(st.sampled_from([0.0, 0.2])), 1)] = -0.0
        d = np.triu(d) + np.triu(d, 1).T
        space = FiniteMetricSpace(f"m{m}", tuple(f"p{i}" for i in range(size)), d, pseudo=True)
        members.append(space)
        kind = draw(st.sampled_from(["random", "greedy", "empty"]))
        found = search_decomposition(space, 1.0, n, 4.0, mode="greedy").certificate
        if kind == "greedy" and found is not None:
            groups.append(found.members[0].pieces)
            continue
        colors = n + 1 + (kind == "empty")
        pieces = [[] for _ in range(colors)]
        for _ in range(int(rng.integers(1, 8))):
            keep = rng.permutation(size)[:int(rng.integers(1, size + 1))]
            pieces[int(rng.integers(colors))].append(PointSubset(space.id, keep.tolist()))
        if kind == "empty":
            for _ in range(int(rng.integers(1, 3))):
                pieces[int(rng.integers(colors))].append(PointSubset(space.id, ()))
        groups.append(tuple(tuple(g) for g in pieces))
    return MetricFamily("F", tuple(members)), n, groups, draw(st.sampled_from([-1.0, 0.0, 3.0, 8.0]))


@SETTINGS
@given(pieced_family())
def test_leaf_and_mesh_items_match_the_per_piece_loop(case):
    fam, n, groups, bound = case
    cert = DecompositionCertificate(
        "F", 1.0, n, tuple(MemberDecomposition(m.id, g) for m, g in zip(fam.members, groups)),
        leaf_bound=bound,
    )
    want = [
        CheckItem(f"{piece_id(m.id, color, k)}.bound", False,
                  f"piece diameter {fmt_num(diam)} > leaf bound {fmt_num(bound)}")
        for m, g in zip(fam.members, groups)
        for color, group in enumerate(g)
        for k, piece in enumerate(group)
        for diam in [subset_diameter(m, piece)]
        if diam > bound + 1e-9
    ] or [CheckItem("leaf", True)]
    items = check_decomposition(cert, fam).items
    assert list(items[len(items) - len(want):]) == want
    assert not any(i.path.endswith(".bound") or i.path == "leaf"
                   for i in items[:len(items) - len(want)])
    # the same pieces as colored covers, where a member's pieces cover it
    entries, want = [], []
    for scale in (1.0, 2.0):
        covers = []
        for m, g in zip(fam.members, groups):
            listed = [(c, p) for c, group in enumerate(g) for p in group if p.indices][:40]
            held = {i for _, p in listed for i in p.indices}
            listed += [(0, PointSubset(m.id, (i,))) for i in range(m.n) if i not in held]
            covers.append((m.id, Cover(m.id, tuple(p for _, p in listed),
                                       tuple(min(c, n) for c, _ in listed))))
            ms = max(subset_diameter(m, p) for _, p in listed)
            failed = ms > 2.0 * scale + bound + 1e-9
            want.append(CheckItem(
                f"entry{len(entries)}.{m.id}.mesh", not failed,
                f"mesh {fmt_num(ms)} > M*R + b = {fmt_num(2.0 * scale + bound)} at R = "
                f"{fmt_num(scale)}" if failed else "",
            ))
        entries.append(ANEntry(scale, tuple(covers)))
    v = check_an_control(ANControlCertificate("F", n, 2.0, bound, tuple(entries)), fam)
    assert [i for i in v.items if i.path.endswith(".mesh")] == want


# a zero diagonal of either sign; off it, ties among 0, -0.0, repeated
# values and inf, in rows that need not match their columns
NEAREST_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.0, 3.5, math.inf])
CONE_TARGET = FiniteMetricSpace("Y", ("a", "b", "c"), [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
CONE_CONTROL = MonotoneEnvelope(((0.0, 0.0), (1.0, 2.0), (4.0, 5.0)))


@st.composite
def nearest_point_case(draw):
    """A 1- to 6-point space, a subset (often a singleton or the whole
    space), a radius and two non-empty sets that cover the space."""
    n = draw(st.integers(1, 6))
    d = _matrix(draw, n, NEAREST_ENTRIES)
    np.fill_diagonal(d, [draw(st.sampled_from([0.0, -0.0])) for _ in range(n)])
    space = FiniteMetricSpace("X", tuple(f"p{i}" for i in range(n)), d, pseudo=True)
    points = st.integers(0, n - 1)

    def subset():
        return PointSubset("X", draw(st.one_of(
            st.lists(points, min_size=1, max_size=n), points.map(lambda i: [i]), st.just(range(n)))))

    a, x1 = subset(), subset()
    x2 = PointSubset("X", tuple(set(range(n)) - set(x1.indices)) + subset().indices)
    return space, a, draw(st.sampled_from([0.0, 1.0, 2.0, 3.5, math.inf])), x1, x2


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _caught(call):
    """What ``call()`` returns, or the text of the library error or NumPy
    warning it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (CoarsekitError, RuntimeWarning) as exc:
            return f"{type(exc).__name__}: {exc}"


def _separator_parts(line, assignment, values):
    return line.id, line.points, line.dist.tobytes(), assignment, _bits(np.add(values, 0.0)), values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nearest_point_case(), family_map(), st.data())
def test_nearest_point_kernel_matches_the_passes_it_replaced(case, onto_case, data):
    space, a, radius, x1, x2 = case
    dist, point = nearest_points(space, a)
    looped = [looped_nearest_point(space, i, a) for i in range(space.n)]
    assert _bits(dist) == _bits([h for h, _ in looped])
    assert point.tolist() == [p for _, p in looped]
    # np.min may keep another of two tied zeros: equal values, not always equal bits
    assert dist.tolist() == [looped_point_to_set_distance(space, i, a) for i in range(space.n)]
    assert neighborhood(space, a, radius).indices == looped_neighborhood(space, a, radius)

    def separator():
        line, fmap, values = union_separator_map(space, x1, x2)
        return _separator_parts(line, fmap.functions[0].assignment, values)

    # an inf value gives the line an inf level, at 0 from itself and with no warning
    got, want = _caught(separator), _caught(lambda: _separator_parts(*looped_separator(space, x1, x2)))
    # the values up to the sign of a zero; each zero keeps the sign of
    # the entries at the first nearest points
    assert got[:-1] == want[:-1]
    first = [[looped_nearest_point(space, i, x)[0] for x in (x1, x2)] for i in range(space.n)]
    assert _bits(got[-1]) == _bits([d2 - d1 for d1, d2 in first])

    f = tuple(data.draw(st.lists(st.integers(0, 2), min_size=len(a), max_size=len(a))))

    def extension():
        ext = cone_extension(space, a, f, CONE_TARGET, CONE_CONTROL)
        return (_bits(ext.heights), ext.nearest, ext.sample.points, ext.sample.dist.tobytes(),
                ext.full_map.functions[0].assignment, ext.restricted_map.functions[0].assignment,
                ext.slice_of_partial.functions[0].assignment)

    def looped_extension():
        heights, nearest, sample, *images = looped_cone_extension(space, a, f, CONE_TARGET, CONE_CONTROL)
        return (_bits(heights), nearest, sample.points, sample.dist.tobytes(), *images)

    # a point at distance inf from X0 has no finite height: both refuse it
    assert _caught(extension) == _caught(looped_extension)

    got, want = _caught(lambda: is_coarsely_onto(*onto_case)), _caught(lambda: looped_coarse_onto(*onto_case))
    assert got == want
    if not isinstance(got, str):
        assert _bits(got[1]) == _bits(want[1])
