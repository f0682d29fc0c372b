"""The line grammar of every document, end to end through ``cli.run``.

A mutated document (one line deleted, duplicated or cut short, one token
dropped, added or replaced) is exit 0, 1 or 2 and never a traceback.  A
keyword line with a missing or an extra token, an unknown member id, or a
repeated row or block, is exit 2 with the exact line and column.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coarsekit.cli import run
from support import run_child

FAMILY = """\
family grid-fam
member grid
points 0,0 0,1 1,0 1,1
1
1 2
2 1 1
"""

TARGET = """\
family line-fam
member line
points 0 1
1
"""

MAP = """\
map
source grid-fam
target line-fam
function grid -> line
0,0 : 0
0,1 : 0
1,0 : 1
1,1 : 1
"""

ACTION = """\
action flip
elements e g
compose e : e g
compose g : g e
member grid
perm e : 0 1 2 3
perm g : 3 2 1 0
"""

SUBSETS = """\
subsets grid-fam
member grid
p0 : 0,0 0,1
p1 : 1,0 1,1
"""

ASDIM = """\
asdim-certificate
family grid-fam
n 0
entry
lambda 1
bound 2
member grid
element : 0,0 0,1 1,0 1,1
"""

AN = """\
an-certificate
family grid-fam
n 1
M 1
b 2
entry
R 1
member grid
element 0 : 0,0 0,1
element 1 : 1,0 1,1
"""

DECOMPOSITION = """\
decomposition-certificate
family grid-fam
r 0.5
n 0
member grid
color 0
piece : 0,0 0,1 1,0 1,1
child
decomposition-certificate
family grid-fam|pieces
r 1
n 0
member grid.0.0
color 0
piece : 0,0 0,1 1,0 1,1
leaf-bound 2
"""

WITNESS = """\
fibering-witness
schedule 1 2
target-certificate
asdim-certificate
family line-fam
n 1
entry
lambda 1
bound 4
member line
element : 0 1
inner 2
decomposition-certificate
family grid-fam|preimages@2
r 2
n 1
member grid/0-3
color 0
piece : 0,0 0,1 1,0 1,1
color 1
leaf-bound 3
"""

RHO_TABLE = """\
0 1
1 2
"""

# kind -> (valid document, file name, command line with {doc} for that file)
KINDS = {
    "family": (FAMILY, "fam.txt", ["validate", "{doc}"]),
    "action": (ACTION, "act.txt", ["quotient-cover", "fam.txt", "{doc}", "asdim.txt"]),
    "map": (MAP, "map.txt", ["map-analyze", "fam.txt", "tgt.txt", "{doc}"]),
    "subsets": (SUBSETS, "sub.txt", ["ray-tree", "fam.txt", "{doc}", "shells.txt"]),
    "asdim": (ASDIM, "asdim.txt", ["cover-check", "fam.txt", "{doc}"]),
    "an": (AN, "an.txt", ["an-check", "fam.txt", "{doc}"]),
    "decomposition": (DECOMPOSITION, "dec.txt", ["check-cert", "fam.txt", "{doc}"]),
    "fibering": (WITNESS, "wit.txt", ["check-fibering", "fam.txt", "tgt.txt", "map.txt", "{doc}"]),
    "rho": (RHO_TABLE, "rho.txt", ["phi", "--rho", "table:{doc}", "--t", "1", "--r", "1"]),
}
FILES = {"tgt.txt": TARGET, "shells.txt": SUBSETS, **{name: text for text, name, _ in KINDS.values()}}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammar")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


def argv_of(workdir: Path, kind: str, text: str) -> list[str]:
    """The command line of ``kind`` on the valid documents, with ``text`` as
    the document of ``kind`` (written to a file of its own)."""
    _, name, argv = KINDS[kind]
    doc = workdir / f"mutated-{name}"
    doc.write_text(text)
    return [str(workdir / a) if a in FILES else a.replace("{doc}", str(doc)) for a in argv]


def run_kind(workdir: Path, kind: str, text: str):
    return run(argv_of(workdir, kind, text))


@pytest.mark.parametrize("kind", KINDS)
def test_valid_documents_parse(workdir, kind):
    out, code = run_kind(workdir, kind, KINDS[kind][0])
    assert code in (0, 1) and not out.startswith(("parse error", "structural error")), out


TOKENS = st.sampled_from(["zz", ":", "->", "0", "1", "-1", "2.5", "inf", "nan", "pseudo",
                          "member", "element", "piece", "color", "entry", "child", "0,0"])


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` with one line deleted, duplicated or cut short, or one token
    of a line dropped, added or replaced."""
    lines = [line.split() for line in text.splitlines()]
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    op = draw(st.sampled_from(["delete", "duplicate", "truncate", "drop", "add", "replace"]))
    if op == "delete":
        del lines[k]
    elif op == "duplicate":
        lines.insert(k, list(line))
    elif op == "truncate":
        lines[k] = line[:draw(st.integers(0, len(line) - 1))]
    elif op == "drop":
        del line[draw(st.integers(0, len(line) - 1))]
    elif op == "add":
        line.insert(draw(st.integers(0, len(line))), draw(TOKENS))
    else:
        line[draw(st.integers(0, len(line) - 1))] = draw(TOKENS)
    return "".join(" ".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_document_never_raises(workdir, kind, data):
    out, code = run_kind(workdir, kind, data.draw(mutated(KINDS[kind][0])))
    assert code in (0, 1, 2), out


def _line_of(text: str, key: str) -> tuple[int, str]:
    """The 1-based number and the body of the first line that starts with ``key``."""
    for ln, line in enumerate(text.splitlines(), start=1):
        if line.split()[0] == key:
            return ln, line
    raise AssertionError(f"no {key!r} line")


def _replace_line(text: str, ln: int, body: str) -> str:
    lines = text.splitlines()
    lines[ln - 1] = body
    return "\n".join(lines) + "\n"


# (kind, keyword) for every keyword line that takes arguments
BARE = [
    ("asdim", "family"), ("an", "family"), ("decomposition", "family"),
    ("asdim", "n"), ("an", "n"), ("decomposition", "n"), ("decomposition", "r"),
    ("an", "M"), ("an", "b"), ("an", "R"), ("asdim", "lambda"), ("asdim", "bound"),
    ("asdim", "member"), ("an", "member"), ("decomposition", "member"), ("subsets", "member"),
    ("action", "member"), ("decomposition", "color"), ("decomposition", "leaf-bound"),
    ("fibering", "schedule"), ("fibering", "inner"), ("map", "source"), ("map", "target"),
    ("action", "action"), ("action", "elements"), ("subsets", "subsets"),
    ("asdim", "element"), ("an", "element"), ("decomposition", "piece"),
    ("action", "compose"), ("action", "perm"),
]


@pytest.mark.parametrize("kind, key", BARE, ids=[f"{k}-{key}" for k, key in BARE])
def test_bare_keyword_line_is_exit_two_just_past_the_keyword(workdir, kind, key):
    text = KINDS[kind][0]
    ln, _ = _line_of(text, key)
    out = run_kind(workdir, kind, _replace_line(text, ln, key))
    expected = f"parse error: line {ln}, column {len(key) + 1}: missing argument on the {key!r} line\n"
    assert out == (expected, 2)


# (kind, keyword) for every keyword line of fixed arity
EXTRA = [
    ("asdim", "asdim-certificate"), ("an", "an-certificate"),
    ("decomposition", "decomposition-certificate"), ("fibering", "fibering-witness"),
    ("fibering", "target-certificate"), ("map", "map"), ("asdim", "entry"), ("an", "entry"),
    ("decomposition", "child"),
    *[(kind, key) for kind, key in BARE if key not in
      ("schedule", "elements", "element", "piece", "compose", "perm")],
]


@pytest.mark.parametrize("kind, key", EXTRA, ids=[f"{k}-{key}" for k, key in EXTRA])
def test_extra_token_on_keyword_line_is_exit_two_at_the_token(workdir, kind, key):
    text = KINDS[kind][0]
    ln, line = _line_of(text, key)
    out = run_kind(workdir, kind, _replace_line(text, ln, line + " zz"))
    expected = f"parse error: line {ln}, column {len(line) + 2}: unexpected token 'zz' on the {key!r} line\n"
    assert out == (expected, 2)


# (kind, keyword, usage) for the rows that carry a head before ':'
ROWS = [
    ("asdim", "element", "element line is 'element [<color>] : <label...>'"),
    ("an", "element", "element line is 'element [<color>] : <label...>'"),
    ("decomposition", "piece", "piece line is 'piece : <label...>'"),
    ("action", "compose", "compose row is 'compose <element> : <element...>'"),
    ("action", "perm", "perm row is 'perm <element> : <indices...>'"),
]


@pytest.mark.parametrize("kind, key, usage", ROWS, ids=[f"{k}-{key}" for k, key, _ in ROWS])
def test_extra_head_token_on_a_row_is_exit_two_at_the_row(workdir, kind, key, usage):
    text = KINDS[kind][0]
    ln, line = _line_of(text, key)
    out = run_kind(workdir, kind, _replace_line(text, ln, line.replace(" : ", " zz zz : ")))
    assert out == (f"parse error: line {ln}, column 1: {usage}\n", 2)


@pytest.mark.parametrize(
    "key, body, message",
    [("family", "family grid-fam zz", "family header needs exactly one id"),
     ("family", "family", "family header needs exactly one id"),
     ("member", "member grid zz", "member line is 'member <id> [pseudo]'"),
     ("member", "member", "member line is 'member <id> [pseudo]'"),
     ("points", "points", "member has no points")],
)
def test_family_keyword_lines_keep_their_diagnostics(workdir, key, body, message):
    ln, _ = _line_of(FAMILY, key)
    out = run_kind(workdir, "family", _replace_line(FAMILY, ln, body))
    assert out == (f"parse error: line {ln}, column 1: {message}\n", 2)


@pytest.mark.parametrize(
    "kind, old, new, expected",
    [("asdim", "member grid", "member zz", "line 7, column 8: family 'grid-fam' has no member 'zz'"),
     ("an", "member grid", "member zz", "line 8, column 8: family 'grid-fam' has no member 'zz'"),
     ("decomposition", "member grid.0.0", "member zz",
      "line 13, column 8: family 'grid-fam|pieces' has no member 'zz'"),
     ("subsets", "member grid", "member zz", "line 2, column 8: family 'grid-fam' has no member 'zz'"),
     ("action", "perm g : 3 2 1 0", "perm g : 3 2 1 0\nmember zz\nperm e : 0 1 2 3\nperm g : 3 2 1 0",
      "line 8, column 8: family 'grid-fam' has no member 'zz'"),
     ("map", "function grid -> line", "function zz -> line",
      "line 4, column 10: family 'grid-fam' has no member 'zz'"),
     ("map", "function grid -> line", "function grid -> zz",
      "line 4, column 18: family 'line-fam' has no member 'zz'")],
)
def test_unknown_member_id_is_a_parse_error_at_the_id(workdir, kind, old, new, expected):
    out = run_kind(workdir, kind, KINDS[kind][0].replace(old, new, 1))
    assert out == (f"parse error: {expected}\n", 2)


def test_missing_compose_row_at_end_of_document_is_reported_past_the_end(workdir):
    out = run_kind(workdir, "action", "action rot\nelements e g\ncompose e : e g\n")
    assert out == ("parse error: line 4, column 1: missing compose row for 'g'\n", 2)
    out = run_kind(workdir, "action", "action rot\nelements e g\ncompose e : e g\nmember grid\n")
    assert out == ("parse error: line 4, column 1: missing compose row for 'g'\n", 2)


REPRODUCTIONS = [
    ("asdim", "n 0", "n", "line 3, column 2: missing argument on the 'n' line"),
    ("asdim", "member grid", "member", "line 7, column 7: missing argument on the 'member' line"),
    ("asdim", "element : 0,0 0,1 1,0 1,1", "element",
     "line 8, column 8: missing argument on the 'element' line"),
    ("decomposition", "piece : 0,0 0,1 1,0 1,1", "piece",
     "line 7, column 6: missing argument on the 'piece' line"),
]


@pytest.mark.parametrize("kind, old, new, expected", REPRODUCTIONS,
                         ids=["n", "member", "element", "piece"])
def test_bare_keyword_exits_two_in_process_and_through_the_console_script(
        workdir, kind, old, new, expected):
    argv = argv_of(workdir, kind, KINDS[kind][0].replace(old, new, 1))
    assert run(argv) == (f"parse error: {expected}\n", 2)
    proc = run_child(argv)
    assert (proc.stdout, proc.stderr, proc.returncode) == (f"parse error: {expected}\n", "", 2)


@pytest.mark.parametrize("kind", KINDS)
def test_trailing_line_is_exit_two_at_that_line(workdir, kind):
    text = KINDS[kind][0] + "zz yy\n"
    out, code = run_kind(workdir, kind, text)
    assert code == 2 and out.startswith(f"parse error: line {len(text.splitlines())}, column "), out


@pytest.mark.parametrize(
    "kind, row, expected",
    [("map", "1,1 : 1", "line 9, column 1: repeated assignment row for '1,1'"),
     ("action", "perm g : 3 2 1 0", "line 8, column 6: repeated perm row for 'g'"),
     ("action", "compose g : g e", "line 5, column 9: repeated compose row for 'g'"),
     pytest.param("asdim", "member grid\nelement : 0,0 0,1 1,0 1,1",
                  "line 9, column 8: repeated member block for 'grid'", id="asdim-member"),
     pytest.param("an", "member grid\nelement 0 : 0,0 0,1\nelement 1 : 1,0 1,1",
                  "line 11, column 8: repeated member block for 'grid'", id="an-member"),
     pytest.param("decomposition", "member grid\ncolor 0\npiece : 0,0 0,1 1,0 1,1",
                  "line 8, column 8: repeated member block for 'grid'", id="decomposition-member"),
     pytest.param("decomposition", "member grid.0.0\ncolor 0\npiece : 0,0 0,1 1,0 1,1",
                  "line 16, column 8: repeated member block for 'grid.0.0'", id="child-member"),
     pytest.param("action", "member grid\nperm e : 0 1 2 3\nperm g : 3 2 1 0",
                  "line 8, column 8: repeated member block for 'grid'", id="action-member"),
     pytest.param("fibering", WITNESS[WITNESS.index("inner"):].rstrip("\n"),
                  "line 22, column 7: repeated inner block for radius '2'", id="fibering-inner")],
)
def test_repeated_row_is_exit_two_at_its_key(workdir, kind, row, expected):
    text = KINDS[kind][0].replace(row + "\n", row + "\n" + row + "\n", 1)
    out = run_kind(workdir, kind, text)
    assert out == (f"parse error: {expected}\n", 2)


TWO_POINTS = "family F\nmember m\npoints a b\n1\n"
EMPTY_ROWS = [
    pytest.param(["check-cert"], "decomposition-certificate\nfamily F\nr 0.5\nn 0\nmember m\ncolor 0\n"
                 "piece : a b\npiece :\nchild\ndecomposition-certificate\nfamily F|pieces\nr 0.5\nn 0\n"
                 "member m.0.0\ncolor 0\npiece : a b\nleaf-bound 1\n",
                 "line 8, column 1: piece line is 'piece : <label...>'", id="child-stage-piece"),
    pytest.param(["check-cert"], "decomposition-certificate\nfamily F\nr 0.5\nn 0\nmember m\ncolor 0\n"
                 "piece : a b\npiece :\nleaf-bound 1\n",
                 "line 8, column 1: piece line is 'piece : <label...>'", id="leaf-stage-piece"),
    pytest.param(["cover-check"], "asdim-certificate\nfamily F\nn 0\nentry\nlambda 0\nbound 1\nmember m\n"
                 "element : a b\nelement :\n",
                 "line 9, column 1: element line is 'element [<color>] : <label...>'", id="cover-element"),
    pytest.param(["an-check"], "an-certificate\nfamily F\nn 1\nM 1\nb 0\nentry\nR 1\nmember m\n"
                 "element 0 : a b\nelement 1 :\n",
                 "line 10, column 1: element line is 'element [<color>] : <label...>'", id="an-element"),
]


@pytest.mark.parametrize("command, cert, expected", EMPTY_ROWS)
def test_empty_piece_or_element_row_is_exit_two_at_the_row(tmp_path, command, cert, expected):
    """A piece or element row with no label is refused where it stands, in
    a stage with a child stage too (the piece family of that stage is never
    built)."""
    (tmp_path / "fam.txt").write_text(TWO_POINTS)
    (tmp_path / "cert.txt").write_text(cert)
    assert run([*command, str(tmp_path / "fam.txt"), str(tmp_path / "cert.txt")]) == (
        f"parse error: {expected}\n", 2)
