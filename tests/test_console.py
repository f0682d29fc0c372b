"""Console checks: each row of ``ROWS`` runs the ``coarsekit`` entry point,
``cli.main``, in-process, as the installed script would run it, on
documents it writes to its own directory.

A row holds its command line, its documents and what it expects: the exit
code, whole lines of stdout (``grep -Fx``), substrings of stdout
(``grep -F``) and files the command writes, byte for byte (``cmp``).  Every
row also expects an empty stderr, and any warning is an error.  A new
console check is one more row.
"""

import os
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

from coarsekit import cli
from coarsekit.io import write_family
from coarsekit.metric import MetricFamily
from support import edited, line_space


class Row(NamedTuple):
    argv: str  # split on spaces; it runs in the directory of its documents
    code: int
    docs: dict = {}
    lines: tuple = ()
    parts: tuple = ()
    files: dict = {}


def check(row: Row, tmp_path, capfd, monkeypatch) -> None:
    """Run ``row`` in ``tmp_path`` and assert everything it expects."""
    monkeypatch.chdir(tmp_path)
    for name, text in row.docs.items():
        Path(name).write_text(text)
    monkeypatch.setattr(sys, "argv", ["coarsekit", *row.argv.split()])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_:
        warnings.simplefilter("error")
        cli.main()
    out, err = capfd.readouterr()
    assert (exit_.value.code, err) == (row.code, ""), out
    for line in row.lines:
        assert line in out.splitlines(), out
    for part in row.parts:
        assert part in out, out
    for name, text in row.files.items():
        assert Path(name).read_bytes() == text.encode(), name


def path_doc(n: int) -> str:
    """Family ``F`` of one member ``m``, the integer path ``p0 ... p{n-1}``
    with d(pi, pj) = |i - j|."""
    labels = [f"p{k}" for k in range(n)]
    return write_family(MetricFamily("F", (line_space(range(n), space_id="m", labels=labels),)))


def interval_cover(lam: int) -> str:
    """An asdim certificate for ``PATH_2000``: intervals of 40 points
    every 20 points, with Lebesgue number ``lam`` claimed."""
    elements = "".join(f"element : {' '.join(f'p{k}' for k in range(a, min(a + 40, 2000)))}\n"
                       for a in range(0, 2000, 20))
    return f"asdim-certificate\nfamily F\nn 1\nentry\nlambda {lam}\nbound 39\nmember m\n{elements}"


def one_piece_stage(family: str, member: str, n: int) -> str:
    """A decomposition stage over ``path_doc(n)``'s points in one piece."""
    labels = " ".join(f"p{k}" for k in range(n))
    return f"decomposition-certificate\nfamily {family}\nr 0.5\nn 0\nmember {member}\ncolor 0\npiece : {labels}\n"


PATH_2000 = path_doc(2000)
TWO_POINTS = "family F\nmember m\npoints a b\n1\n"
FLIP = "action flip\nelements e g\ncompose e : e g\ncompose g : g e\nmember m\nperm e : 0 1\nperm g : 1 0\n"
ONE_ELEMENT = "n 0\nentry\nlambda 0\nbound 1\nmember m\nelement : a b\n"
TWO_FACTORS = "family F\nmember A\npoints a b\n1\nmember B\npoints x y\n1\n"
L2 = "family F|product\nmember AxB|l2\npoints a,x a,y b,x b,y\n1\n1 1.4142135623730951\n1.4142135623730951 1 1\n"
THREE_FACTORS = "family F\nmember A\npoints a b\n1\nmember B\npoints x y\n2\nmember C\npoints u v\n4\n"
EIGHT_POINTS = "family F|product\nmember AxBxC|{}\npoints a,x,u a,x,v a,y,u a,y,v b,x,u b,x,v b,y,u b,y,v\n"
L1 = EIGHT_POINTS.format("l1") + "4\n2 6\n6 2 4\n1 5 3 7\n5 1 7 3 4\n3 7 1 5 2 6\n7 3 5 1 6 2 4\n"
LINF = EIGHT_POINTS.format("linf") + "4\n2 4\n4 2 4\n1 4 2 4\n4 1 4 2 4\n2 4 1 4 2 4\n4 2 4 1 4 2 4\n"
NEGATIVE_FACTOR = "family F\nmember A\npoints x y z\n1\n-1 1\nmember B\npoints u v\n1\n"

ROWS = {
    "truncated-certificate": Row(
        "cover-check fam.txt cert.txt", 2, {"fam.txt": TWO_POINTS, "cert.txt": "asdim-certificate\nfamily F\nn\n"}),
    "line-after-leaf-bound": Row("check-cert fam.txt dec.txt", 2, {
        "fam.txt": TWO_POINTS,
        "dec.txt": "decomposition-certificate\nfamily F\nr 0.5\nn 0\nmember m\ncolor 0\npiece : a\npiece : b\n"
                   "leaf-bound 0\nzz yy\n"}),
    "quotient-cover-for-another-family": Row("quotient-cover fam.txt act.txt cert.txt", 2, {
        "fam.txt": TWO_POINTS, "act.txt": FLIP, "cert.txt": "asdim-certificate\nfamily G\n" + ONE_ELEMENT}),
    "action-block-outside-the-family": Row("quotient-cover fam.txt act.txt cert.txt", 2, {
        "fam.txt": TWO_POINTS, "act.txt": FLIP + "member zz\nperm e : 0 1\nperm g : 1 0\n",
        "cert.txt": "asdim-certificate\nfamily F\n" + ONE_ELEMENT}),
    "l2-product": Row("product fac.txt --p 2 --out prod.txt", 0, {"fac.txt": TWO_FACTORS}, files={"prod.txt": L2}),
    "l2-product-validates": Row("validate prod.txt", 0, {"prod.txt": L2}),
    "l1-product": Row("product fac.txt --p 1 --out prod1.txt", 0, {"fac.txt": THREE_FACTORS}, files={"prod1.txt": L1}),
    "linf-product": Row(
        "product fac.txt --p inf --out prodinf.txt", 0, {"fac.txt": THREE_FACTORS}, files={"prodinf.txt": LINF}),
    "l2-product-of-a-negative-distance": Row(
        "product fac.txt --p 2", 1, {"fac.txt": NEGATIVE_FACTOR},
        ("refused: factor 'A' has d(x, z) = -1.0, not a distance >= 0",)),
    "product-past-float-range": Row(
        "product fac.txt --p 700", 1, {"fac.txt": "family F\nmember A\npoints a b\n3\nmember B\npoints x y\n4\n"},
        parts=("refused: p = 700 takes a sum of p-th powers",)),
    "short-row-of-50-points": Row("validate cut.txt", 2, {"cut.txt": edited(path_doc(50), " 2 1\n31 ", " 2\n31 ")}, (
        "parse error: line 33, column 78: ragged block: row 30 of member 'm' needs 30 numbers, found 29",)),
    "whole-50-points": Row("validate whole.txt", 0, {"whole.txt": path_doc(50)}),
    "triangle-witness-of-300-points": Row(
        "validate path.txt --format machine", 1, {"path.txt": edited(path_doc(300), "\n299 298 ", "\n300 298 ")},
        ("member.m.violations=596", "member.m.violation.0=triangle@p0,p1,p299")),
    "components-of-2000-points-at-r-0": Row(
        "components path.txt --r 0 --format machine", 0, {"path.txt": PATH_2000}, ("member.m.blocks=2000",)),
    "components-of-2000-points-at-r-1": Row(
        "components path.txt --r 1 --format machine", 0, {"path.txt": PATH_2000}, ("member.m.blocks=1",)),
    "interval-cover-of-2000-points": Row("cover-check path.txt cert.txt --format machine", 0, {
        "path.txt": PATH_2000, "cert.txt": interval_cover(11)}, ("verdict=pass",)),
    "interval-cover-of-2000-points-overclaimed": Row("cover-check path.txt over.txt --format machine", 1, {
        "path.txt": PATH_2000, "over.txt": interval_cover(12)}, ("check.entry0.m.lebesgue=fail",)),
    "unknown-label-deep-in-a-child-stage": Row("check-cert path.txt dec.txt", 2, {
        "path.txt": path_doc(300),
        "dec.txt": one_piece_stage("F", "m", 300) + "child\n"
                   + edited(one_piece_stage("F|pieces", "m.0.0", 300), " p249 ", " zz ") + "leaf-bound 299\n"},
        ("parse error: line 15, column 1144: unknown point 'zz' of 'm.0.0'",)),
    "phi-suite-of-affine-rho-1e308-1e308": Row(
        "phi-suite --rho affine:1e308,1e308 --samples 50", 1, lines=("FAIL (1 failing check(s))",)),
    "phi-suite-of-affine-rho-1e308-0": Row(
        "phi-suite --rho affine:1e308,0 --samples 50", 1, lines=("FAIL (1 failing check(s))",)),
    "phi-affine-stationary-point-where-r-M-overflows": Row(
        "phi --rho affine:1e10,0 --t 1 --r 1e300 --format machine", 0, lines=("value=2.82842712474619e+145",)),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_console_row(row, tmp_path, capfd, monkeypatch):
    check(row, tmp_path, capfd, monkeypatch)


# a row with one expectation of every kind, and one wrong expectation of each kind
EVERY_KIND = Row("product fac.txt --p 2 --out prod.txt --format machine", 0, {"fac.txt": TWO_FACTORS},
                 ("verdict=pass",), ("diameter=1.41",), {"prod.txt": L2})
PLANTED = {
    "exit-code": {"code": 1},
    "line": {"lines": ("verdict=pas",)},  # a line's prefix, not the whole line
    "part": {"parts": ("diameter=2",)},
    "file": {"files": {"prod.txt": L2.replace(" 1 1\n", " 1 2\n")}},
    "stderr": {},
}


@pytest.mark.parametrize("kind", PLANTED)
def test_every_row_kind_fails_when_planted_wrong(kind, tmp_path, capfd, monkeypatch):
    check(EVERY_KIND, tmp_path, capfd, monkeypatch)
    if kind == "stderr":
        run = cli.run

        def noisy(argv):
            os.write(2, b"stray\n")
            return run(argv)

        monkeypatch.setattr(cli, "run", noisy)
    with pytest.raises(AssertionError):
        check(EVERY_KIND._replace(**PLANTED[kind]), tmp_path, capfd, monkeypatch)
