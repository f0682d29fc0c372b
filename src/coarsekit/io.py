"""Line-oriented document formats for every exchanged object.

Shared lexical rules: tokens are whitespace-separated, ``#`` starts a
comment, blank lines are ignored, and point labels are arbitrary
non-whitespace tokens other than the literal ``:`` and ``->`` separators.
Numbers written as integer literals are stored exactly (float64 holds them
exactly at desk scale); ``inf`` is the explicit unbounded sentinel and
``nan`` is rejected.  The point labels of a family member are unique.

Grammars (one document per file).  A keyword line holds exactly the
arguments shown: ``<x...>`` is one or more, ``[...]`` is optional, and a
keyword shown alone takes none.

  family document          family <id>
                           member <id> [pseudo]
                           points <label...>
                           <n-1 lower-triangular rows, row k holding k numbers>

  action document          action <id>
                           elements <element...>
                           compose <element> : <element...>     (one row each)
                           member <member-id>
                           perm <element> : <point index...>    (one row each)

  map document             map
                           source <family-id>
                           target <family-id>
                           function <src-member> -> <tgt-member>
                           <point-label> : <image-label>        (one per point)

  subsets document         subsets <family-id>
                           member <member-id>
                           <name> : [<label...>]

  asdim certificate        asdim-certificate / family <id> / n <int>
                           entry / lambda <num> / bound <num>
                           member <member-id> / element [<color>] : [<label...>]

  an certificate           an-certificate / family <id> / n <int> / M <num> / b <num>
                           entry / R <num>
                           member <member-id> / element [<color>] : [<label...>]

  decomposition            decomposition-certificate / family <id> / r <num> / n <int>
  certificate              member <member-id> / color <int> / piece : [<label...>]
                           then either  leaf-bound <num>
                           or           child + a nested certificate block

  fibering witness         fibering-witness
                           schedule <num...>
                           target-certificate + asdim certificate block
                           inner <num> + decomposition certificate block

  rho table file           <s> <value>                          (one per line)

Each row is split once on whitespace; the column of a token is worked out
from the row's text only for the error that names it.  A missing token of
a keyword line is reported just past the line's last token and an extra
one at its own column.  The ``<member-id>`` of a subsets,
action or certificate document, and each member of a ``function`` line, must
name a member of the family the document is read against, and an action
document, a certificate entry or a decomposition stage names each member
once (a fibering witness, each inner radius once).  Ragged triangular blocks
and malformed rows are rejected with 1-based line/column diagnostics.  Every
writer/parser pair round-trips exactly.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np

from .covers import ANControlCertificate, ANEntry, AsdimCertificate, AsdimEntry, Cover
from .decomposition import (
    DecompositionCertificate,
    FiberingWitness,
    MemberDecomposition,
    ball_preimage_family,
    piece_family,
)
from .errors import ParseError, StructuralError
from .maps import FamilyMap, MapFunction
from .metric import FiniteMetricSpace, GroupAction, MetricFamily, PointSubset
from .report import fmt_num

_TOKEN = re.compile(r"\S+")
_INTEGER = re.compile(r"[+-]?\d+")
# token counts of a line or of one side of a row's ':'
_NONE, _ONE, _OPTIONAL, _MANY = range(1), range(1, 2), range(2), range(1, sys.maxsize)


class _Doc:
    """Scanned document: the non-blank lines, comments stripped, with line
    numbers.  A parser takes a line as its split tokens; the column of a
    token is worked out only for the error that names it."""

    def __init__(self, text: str):
        self.lines: list[tuple[int, str]] = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            body = raw.partition("#")[0]
            if body and not body.isspace():
                self.lines.append((ln, body))
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.lines)

    def line_no(self) -> int:
        """Line number of the next row; one past the last row at the end."""
        if self.eof():
            return self.lines[-1][0] + 1 if self.lines else 1
        return self.lines[self.pos][0]

    def peek_key(self) -> str | None:
        if self.eof():
            return None
        return _TOKEN.search(self.lines[self.pos][1]).group()

    def take(self) -> tuple[int, list[str]]:
        if self.eof():
            raise ParseError("unexpected end of document", self.line_no())
        ln, body = self.lines[self.pos]
        self.pos += 1
        return ln, body.split()

    def error(self, message: str, k: int = 0, past: bool = False) -> ParseError:
        """A ParseError at token ``k`` of the row taken last (a negative
        ``k`` counts from its end), or just past that token with ``past``."""
        ln, body = self.lines[self.pos - 1]
        token = list(_TOKEN.finditer(body))[k]
        return ParseError(message, ln, (token.end() if past else token.start()) + 1)

    def expect(self, key: str, nargs, usage: str | None = None) -> tuple[int, list[str]]:
        """Take a ``<key> <arg...>`` line of ``nargs`` (an int or a range)
        arguments; return its line number and the tokens after the key, so
        argument j is token j + 1.  An arity error is reported at the
        token, or as ``usage``."""
        ln, toks = self.take()
        if toks[0] != key:
            raise self.error(f"expected {key!r}, found {toks[0]!r}")
        args = toks[1:]
        arity = nargs if isinstance(nargs, range) else range(nargs, nargs + 1)
        if len(args) in arity:
            return ln, args
        if usage:
            raise self.error(usage)
        if len(args) < arity.start:
            raise self.error(f"missing argument on the {key!r} line", -1, past=True)
        raise self.error(f"unexpected token {args[arity.stop - 1]!r} on the {key!r} line", arity.stop)

    def word(self, key: str) -> str:
        _, [tok] = self.expect(key, 1)
        return tok

    def num(self, key: str) -> float:
        _, [tok] = self.expect(key, 1)
        return self.number(tok, 1)

    def int(self, key: str) -> int:
        _, [tok] = self.expect(key, 1)
        return self.integer(tok, 1)

    def colon_row(self, key: str | None, nhead: range, usage: str, ntail=range(sys.maxsize)):
        """Take a ``[<key>] <head...> : <tail...>`` row; return its line
        number, head, tail and the row index of the tail's first token.  A
        head of a length outside ``nhead``, or a tail outside ``ntail``, is
        ``usage`` at the row's start."""
        ln, toks = self.take()
        start = 0
        if key is not None:
            if len(toks) == 1 or toks[0] != key:  # a bare or foreign line: expect() names it
                self.pos -= 1
                self.expect(key, _MANY)
            start = 1
        try:
            k = toks.index(":", start)
        except ValueError:
            raise self.error("missing ':' separator", -1) from None
        head, tail = toks[start:k], toks[k + 1:]
        if len(head) not in nhead or len(tail) not in ntail:
            raise self.error(usage)
        return ln, head, tail, k + 1

    def number(self, tok: str, k: int) -> float:
        """Token ``k`` of the row taken last, ``tok``, as a number: ``inf``
        is the unbounded sentinel, integer literals are converted exactly,
        a literal beyond the float range is out of range, and nan in any
        spelling is rejected."""
        if tok == "inf":
            return math.inf
        try:
            v = float(int(tok)) if _INTEGER.fullmatch(tok) else float(tok)
        except ValueError:
            raise self.error(f"not a number: {tok!r}", k) from None
        except OverflowError:
            raise self.error(f"number out of range: {tok!r}", k) from None
        if math.isinf(v) and tok.lstrip("+-").lower() not in ("inf", "infinity"):
            raise self.error(f"number out of range: {tok!r}", k)
        if math.isnan(v):
            raise self.error(f"nan is not accepted as a number: {tok!r}", k)
        return v

    def integer(self, tok: str, k: int) -> int:
        """Token ``k`` of the row taken last, ``tok``, as an integer."""
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"not an integer: {tok!r}", k) from None

    def labels(self, toks: list[str], k: int, space: FiniteMetricSpace) -> tuple[int, ...]:
        """The point indices of the labels ``toks``, tokens k, k + 1, ...
        of the row taken last, in ``space``'s label dict."""
        try:
            return tuple(map(space._index.__getitem__, toks))
        except KeyError:
            j = next(j for j, tok in enumerate(toks) if tok not in space._index)
            raise self.error(f"unknown point {toks[j]!r} of {space.id!r}", k + j) from None

    def member(self, member_id: str, k: int, family: MetricFamily) -> FiniteMetricSpace:
        """The member of ``family`` named by token k, ``member_id``."""
        try:
            return family.member(member_id)
        except StructuralError as exc:
            raise self.error(str(exc), k) from None


def _member_line(doc: _Doc, family: MetricFamily, seen) -> FiniteMetricSpace:
    """A ``member <member-id>`` line, resolved against ``family``; an id in
    ``seen`` (the members of the enclosing entry or stage) is a repeat."""
    _, [tok] = doc.expect("member", 1)
    if tok in seen:
        raise doc.error(f"repeated member block for {tok!r}", 1)
    return doc.member(tok, 1, family)


# family documents

def _block_rows(space: FiniteMetricSpace) -> list[str]:
    """A member's triangular block, each distinct value formatted once by
    ``fmt_num`` (-0.0 and 0.0 print alike, so ``np.unique`` may merge them).
    Row i is the slice [i(i-1)/2, i(i+1)/2) of the lower triangle; each
    row gathers its tokens from an object array in one indexing step.  Rows
    are gathered one at a time: the whole triangle at once is slower and
    holds an object array of every entry.  A NaN entry, which no reader
    accepts, is refused."""
    values, inverse = np.unique(space.dist[np.tri(space.n, k=-1, dtype=bool)],
                                return_inverse=True)
    if values.size and np.isnan(values[-1]):  # np.unique sorts NaN last
        raise StructuralError(f"member {space.id!r} has a NaN distance, which a document cannot hold")
    tokens = np.array([fmt_num(v) for v in values.tolist()], dtype=object)
    return [" ".join(tokens[inverse[i * (i - 1) // 2:i * (i + 1) // 2]].tolist())
            for i in range(1, space.n)]


def write_family(family: MetricFamily) -> str:
    lines = [f"family {family.id}"]
    for m in family.members:
        lines.append(f"member {m.id}" + (" pseudo" if m.pseudo else ""))
        lines.append("points " + " ".join(m.points))
        lines.extend(_block_rows(m))
    return "\n".join(lines) + "\n"


# A block of fewer tokens (under 46 points) stays on the split pass: with a
# fixed cost of some 40 us the byte reader saves at most about 0.1 ms a
# block there, and below about 20 points it is the slower one.
_DIGIT_BLOCK_MIN = 1024
# int64 holds every literal of at most 18 digits exactly
_DIGIT_MAX_WIDTH = 18
# the bytes a block read by _digit_block may hold (rows are joined by newlines)
_DIGIT_BLOCK_BYTES = b"0123456789 \t\n"


def _bulk_block(doc: _Doc, n: int) -> np.ndarray | None:
    """The n - 1 rows of a triangular block as one vector, row after row.

    A block of at least ``_DIGIT_BLOCK_MIN`` tokens that holds only ASCII
    digits, spaces and tabs is read from its bytes by ``_digit_block``;
    any other is split and converted with one float pass.  Returns None,
    consuming nothing, when some row needs ``_scan_block``: the block is
    cut short or ragged, a token is not a number, or a value is not finite
    or is -0.0 (``_Doc.number`` reads the literal ``-0`` as +0.0).
    """
    bodies = [body for _, body in doc.lines[doc.pos:doc.pos + n - 1]]
    if len(bodies) != n - 1:
        return None
    count = n * (n - 1) // 2
    values = _digit_block(bodies, count) if count >= _DIGIT_BLOCK_MIN else None
    if values is None:
        tokens: list[str] = []
        for i, body in enumerate(bodies, start=1):
            row = body.split()
            if len(row) != i:
                return None
            tokens += row
        try:
            values = np.fromiter(map(float, tokens), np.float64, count)
        except ValueError:
            return None
        if not np.isfinite(values).all() or np.signbit(values[values == 0.0]).any():
            return None
    doc.pos += n - 1
    return values


def _digit_block(bodies: list[str], count: int) -> np.ndarray | None:
    """The rows of a triangular block of unsigned integer literals, read
    from their bytes: token edges from the digit mask, row k checked to
    hold k tokens by the newline positions, and the digits accumulated per
    place in int64.  The cast to float64 rounds as ``float(int(tok))``.
    None when a byte is not a digit, space or tab, a row is ragged, or a
    literal is wider than ``_DIGIT_MAX_WIDTH`` digits."""
    text = "\n".join(bodies)
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _DIGIT_BLOCK_BYTES):
        return None
    # a space on each end, so each token has a separator before and after it
    buf = np.frombuffer(b" " + raw + b" ", dtype=np.uint8)
    digit = buf >= ord("0")  # every other byte left is a space, tab or newline
    # edges pair up as (the separator before a token, the token's last digit)
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    before, last = edges[0::2], edges[1::2]
    if len(last) != count:
        return None
    k = np.arange(1, len(bodies))
    if not np.array_equal(np.searchsorted(before, np.flatnonzero(buf == ord("\n"))), k * (k + 1) // 2):
        return None
    width = last - before
    places = int(width.max())
    if places > _DIGIT_MAX_WIDTH:
        return None
    values = buf[last].astype(np.int64) - ord("0")
    scale = 1
    for p in range(1, places):
        scale *= 10
        place = np.where(width > p, buf[last - p], ord("0")).astype(np.int64) - ord("0")
        values += place * scale
    return values.astype(np.float64)


def _scan_block(doc: _Doc, n: int, member_id: str) -> np.ndarray:
    """Token-by-token read of a triangular block with line/column diagnostics."""
    values: list[float] = []
    for i in range(1, n):
        ended = doc.peek_key() in ("member", "family")
        _, row = doc.take()
        if ended:
            raise doc.error(f"triangular block for {member_id!r} ended early (row {i} of {n - 1})")
        if len(row) != i:
            raise doc.error(f"ragged block: row {i} of member {member_id!r} needs {i} numbers, "
                            f"found {len(row)}", min(i, len(row) - 1))
        values.extend(doc.number(tok, k) for k, tok in enumerate(row))
    return np.array(values, dtype=np.float64)


def parse_family(text: str) -> MetricFamily:
    doc = _Doc(text)
    _, [fam_id] = doc.expect("family", 1, "family header needs exactly one id")
    members: list[FiniteMetricSpace] = []
    while not doc.eof():
        usage = "member line is 'member <id> [pseudo]'"
        _, [member_id, *flag] = doc.expect("member", range(1, 3), usage)
        if flag not in ([], ["pseudo"]):
            raise doc.error(usage)
        _, labels = doc.expect("points", _MANY, "member has no points")
        seen: set[str] = set()
        for k, label in enumerate(labels, start=1):
            if label in seen:
                raise doc.error(f"duplicate point label {label!r}", k)
            seen.add(label)
        n = len(labels)
        values = _bulk_block(doc, n)
        if values is None:
            values = _scan_block(doc, n, member_id)
        # Both triangles get the same value by index, so every bit of a
        # parsed entry (the sign of -0.0 included) is stored as read.
        d = np.zeros((n, n), dtype=np.float64)
        lower = np.tri(n, k=-1, dtype=bool)
        d[lower] = values
        d.T[lower] = values
        members.append(FiniteMetricSpace(member_id, tuple(labels), d, pseudo=bool(flag)))
    return MetricFamily(fam_id, tuple(members))


# action documents

class ActionDocument:
    def __init__(self, action_id: str, elements: tuple[str, ...], compose: tuple[tuple[int, ...], ...],
                 perms: dict[str, dict[str, tuple[int, ...]]]):
        self.action_id = action_id
        self.elements = elements
        self.compose = compose
        self.perms = perms

    def for_member(self, member_id: str) -> GroupAction:
        if member_id not in self.perms:
            raise StructuralError(f"action {self.action_id!r} has no block for member {member_id!r}")
        table = self.perms[member_id]
        return GroupAction(
            member_id,
            self.elements,
            tuple(table[e] for e in self.elements),
            self.compose,
        )


def write_action(doc: ActionDocument) -> str:
    lines = [f"action {doc.action_id}", "elements " + " ".join(doc.elements)]
    for i, e in enumerate(doc.elements):
        lines.append(
            f"compose {e} : " + " ".join(doc.elements[j] for j in doc.compose[i])
        )
    for member_id, table in doc.perms.items():
        lines.append(f"member {member_id}")
        for e in doc.elements:
            lines.append(f"perm {e} : " + " ".join(str(i) for i in table[e]))
    return "\n".join(lines) + "\n"


def parse_action(text: str, family: MetricFamily) -> ActionDocument:
    """An action document whose ``member`` blocks each name a member of
    ``family``, at most once."""
    doc = _Doc(text)
    action_id = doc.word("action")
    elements = tuple(doc.expect("elements", _MANY)[1])
    pos = {e: i for i, e in enumerate(elements)}
    compose_rows: dict[str, tuple[int, ...]] = {}
    while doc.peek_key() == "compose":
        _, [e], tail, t = doc.colon_row(
            "compose", _ONE, "compose row is 'compose <element> : <element...>'")
        if e in compose_rows:
            raise doc.error(f"repeated compose row for {e!r}", 1)
        for k, tok in [(1, e), *enumerate(tail, t)]:
            if tok not in pos:
                raise doc.error(f"unknown element {tok!r}", k)
        if len(tail) != len(elements):
            raise doc.error(f"compose row for {e!r} needs {len(elements)} entries")
        compose_rows[e] = tuple(map(pos.__getitem__, tail))
    missing = [e for e in elements if e not in compose_rows]
    if missing:
        raise ParseError(f"missing compose row for {missing[0]!r}", doc.line_no())
    perms: dict[str, dict[str, tuple[int, ...]]] = {}
    while not doc.eof():
        ln = doc.line_no()
        member_id = _member_line(doc, family, perms).id
        table: dict[str, tuple[int, ...]] = {}
        while doc.peek_key() == "perm":
            usage = "perm row is 'perm <element> : <indices...>'"
            ln, [e], tail, t = doc.colon_row("perm", _ONE, usage)
            if e not in pos:
                raise doc.error(usage)
            if e in table:
                raise doc.error(f"repeated perm row for {e!r}", 1)
            table[e] = tuple(doc.integer(tok, k) for k, tok in enumerate(tail, t))
        if set(table) != set(elements):
            raise ParseError(f"member {member_id!r} is missing permutations", ln)
        perms[member_id] = table
    return ActionDocument(action_id, elements, tuple(compose_rows[e] for e in elements), perms)


# map documents

def write_map(fmap: FamilyMap, src: MetricFamily, tgt: MetricFamily) -> str:
    lines = ["map", f"source {fmap.source}", f"target {fmap.target}"]
    for fn in fmap.functions:
        lines.append(f"function {fn.source_member} -> {fn.target_member}")
        s = src.member(fn.source_member)
        t = tgt.member(fn.target_member)
        for i, img in enumerate(fn.assignment):
            lines.append(f"{s.points[i]} : {t.points[img]}")
    return "\n".join(lines) + "\n"


def parse_map(text: str, src: MetricFamily, tgt: MetricFamily) -> FamilyMap:
    doc = _Doc(text)
    doc.expect("map", 0)
    source = doc.word("source")
    target = doc.word("target")
    functions: list[MapFunction] = []
    while not doc.eof():
        usage = "function line is 'function <src> -> <tgt>'"
        ln, [s_id, arrow, t_id] = doc.expect("function", 3, usage)
        if arrow != "->":
            raise doc.error(usage)
        s = doc.member(s_id, 1, src)
        t = doc.member(t_id, 3, tgt)
        assign: dict[int, int] = {}
        while not doc.eof() and doc.peek_key() != "function":
            ln, [point], [image], _ = doc.colon_row(None, _ONE, "assignment line is '<point> : <image>'", _ONE)
            [i] = doc.labels([point], 0, s)
            if i in assign:
                raise doc.error(f"repeated assignment row for {point!r}")
            [assign[i]] = doc.labels([image], 2, t)
        if len(assign) != s.n:
            raise ParseError(f"function {s.id!r} -> {t.id!r} assigns {len(assign)} of {s.n} points", ln)
        functions.append(MapFunction(s.id, t.id, tuple(assign[i] for i in range(s.n))))
    return FamilyMap(source, target, tuple(functions))


# subsets documents

def write_subsets(family_id: str, entries, family: MetricFamily) -> str:
    lines = [f"subsets {family_id}"]
    current = None
    for member_id, name, subset in entries:
        if member_id != current:
            lines.append(f"member {member_id}")
            current = member_id
        m = family.member(member_id)
        lines.append(f"{name} : " + " ".join(m.points[i] for i in subset.indices))
    return "\n".join(lines) + "\n"


def parse_subsets(text: str, family: MetricFamily) -> list[tuple[str, str, PointSubset]]:
    doc = _Doc(text)
    _, [fam_id] = doc.expect("subsets", 1)
    if fam_id != family.id:
        raise doc.error(f"subsets are for {fam_id!r}, not family {family.id!r}", 1)
    out: list[tuple[str, str, PointSubset]] = []
    member = None
    while not doc.eof():
        if doc.peek_key() == "member":
            member = _member_line(doc, family, ())
            continue
        _, [name], tail, t = doc.colon_row(None, _ONE, "subset line is '<name> : <label...>'")
        if member is None:
            raise doc.error("subset line before any member line")
        out.append((member.id, name, PointSubset(member.id, doc.labels(tail, t, member))))
    return out


# cover elements shared by certificate formats

def _write_cover(lines: list[str], cover: Cover, member: FiniteMetricSpace) -> None:
    for k, el in enumerate(cover.elements):
        color = "" if cover.colors is None else f" {cover.colors[k]}"
        lines.append(
            f"element{color} : " + " ".join(member.points[i] for i in el.indices)
        )


def _parse_covers(doc: _Doc, family: MetricFamily) -> tuple[tuple[str, Cover], ...]:
    """The ``member`` blocks of one certificate entry, each with its cover."""
    covers: dict[str, Cover] = {}
    while doc.peek_key() == "member":
        member = _member_line(doc, family, covers)
        elements: list[PointSubset] = []
        colors: list[int] = []
        while doc.peek_key() == "element":
            ln, head, tail, t = doc.colon_row(
                "element", _OPTIONAL, "element line is 'element [<color>] : <label...>'")
            colors += (doc.integer(tok, 1) for tok in head)
            elements.append(PointSubset(member.id, doc.labels(tail, t, member)))
        if colors and len(colors) != len(elements):
            raise ParseError("either all or no elements of a cover carry colors", ln)
        covers[member.id] = Cover(member.id, tuple(elements), tuple(colors) if colors else None)
    return tuple(covers.items())


# asdim certificates

def write_asdim_certificate(cert: AsdimCertificate, family: MetricFamily) -> str:
    lines = ["asdim-certificate", f"family {cert.family_id}", f"n {cert.n}"]
    for entry in cert.entries:
        lines.append("entry")
        lines.append(f"lambda {fmt_num(entry.lam)}")
        lines.append(f"bound {fmt_num(entry.mesh_bound)}")
        for member_id, cover in entry.covers:
            lines.append(f"member {member_id}")
            _write_cover(lines, cover, family.member(member_id))
    return "\n".join(lines) + "\n"


def parse_asdim_certificate(
    text_or_doc, family: MetricFamily, stop_keys: frozenset[str] = frozenset()
) -> AsdimCertificate:
    doc = text_or_doc if isinstance(text_or_doc, _Doc) else _Doc(text_or_doc)
    doc.expect("asdim-certificate", 0)
    fam_id = doc.word("family")
    n = doc.int("n")
    entries: list[AsdimEntry] = []
    while not doc.eof() and doc.peek_key() not in stop_keys:
        doc.expect("entry", 0)
        entries.append(AsdimEntry(doc.num("lambda"), doc.num("bound"), _parse_covers(doc, family)))
    return AsdimCertificate(fam_id, n, tuple(entries))


# an certificates

def write_an_certificate(cert: ANControlCertificate, family: MetricFamily) -> str:
    lines = [
        "an-certificate",
        f"family {cert.family_id}",
        f"n {cert.n}",
        f"M {fmt_num(cert.slope)}",
        f"b {fmt_num(cert.offset)}",
    ]
    for entry in cert.entries:
        lines.append("entry")
        lines.append(f"R {fmt_num(entry.scale)}")
        for member_id, cover in entry.covers:
            lines.append(f"member {member_id}")
            _write_cover(lines, cover, family.member(member_id))
    return "\n".join(lines) + "\n"


def parse_an_certificate(text: str, family: MetricFamily) -> ANControlCertificate:
    doc = _Doc(text)
    doc.expect("an-certificate", 0)
    fam_id = doc.word("family")
    n = doc.int("n")
    slope = doc.num("M")
    offset = doc.num("b")
    entries: list[ANEntry] = []
    while not doc.eof():
        doc.expect("entry", 0)
        entries.append(ANEntry(doc.num("R"), _parse_covers(doc, family)))
    return ANControlCertificate(fam_id, n, slope, offset, tuple(entries))


# decomposition certificates

def write_decomposition_certificate(
    cert: DecompositionCertificate, family: MetricFamily
) -> str:
    lines: list[str] = []
    while True:
        lines.append("decomposition-certificate")
        lines.append(f"family {cert.family_id}")
        lines.append(f"r {fmt_num(cert.r)}")
        lines.append(f"n {cert.n}")
        for entry in cert.members:
            member = family.member(entry.member_id)
            lines.append(f"member {entry.member_id}")
            for color, group in enumerate(entry.pieces):
                lines.append(f"color {color}")
                for piece in group:
                    lines.append(
                        "piece : " + " ".join(member.points[i] for i in piece.indices)
                    )
        if cert.leaf_bound is not None:
            lines.append(f"leaf-bound {fmt_num(cert.leaf_bound)}")
            return "\n".join(lines) + "\n"
        lines.append("child")
        cert, family = cert.child, piece_family(cert, family)


def parse_decomposition_certificate(text: str, family: MetricFamily) -> DecompositionCertificate:
    doc = _Doc(text)
    cert = _parse_decomposition(doc, family)
    if not doc.eof():
        _, [key, *_] = doc.take()
        raise doc.error(f"expected end of document, found {key!r}")
    return cert


def _parse_decomposition(doc: _Doc, family: MetricFamily) -> DecompositionCertificate:
    """One certificate, up to its final ``leaf-bound`` line; the rows after
    it belong to the caller.  The stages are read top-down, each over the
    piece family of the one before, and then linked bottom-up."""
    stages: list[tuple[str, float, int, tuple[MemberDecomposition, ...]]] = []
    while True:
        doc.expect("decomposition-certificate", 0)
        fam_id = doc.word("family")
        r = doc.num("r")
        n = doc.int("n")
        members: dict[str, MemberDecomposition] = {}
        while doc.peek_key() == "member":
            member = _member_line(doc, family, members)
            groups: list[tuple[PointSubset, ...]] = []
            while doc.peek_key() == "color":
                if doc.int("color") != len(groups):
                    raise doc.error(f"colors must appear in order; expected {len(groups)}", 1)
                pieces: list[PointSubset] = []
                while doc.peek_key() == "piece":
                    _, _, tail, t = doc.colon_row("piece", _NONE, "piece line is 'piece : <label...>'")
                    pieces.append(PointSubset(member.id, doc.labels(tail, t, member)))
                groups.append(tuple(pieces))
            members[member.id] = MemberDecomposition(member.id, tuple(groups))
        stage = (fam_id, r, n, tuple(members.values()))
        key = doc.peek_key()
        if key == "leaf-bound":
            cert = DecompositionCertificate(*stage, leaf_bound=doc.num("leaf-bound"))
            break
        if key != "child":
            raise ParseError("certificate needs 'leaf-bound <num>' or 'child'", doc.line_no())
        doc.expect("child", 0)
        stages.append(stage)
        family = piece_family(DecompositionCertificate(*stage, leaf_bound=0.0), family)
    for stage in reversed(stages):
        cert = DecompositionCertificate(*stage, child=cert)
    return cert


# fibering witnesses

def write_fibering_witness(
    witness: FiberingWitness, src: MetricFamily, tgt: MetricFamily
) -> str:
    lines = ["fibering-witness", "schedule " + " ".join(fmt_num(r) for r in witness.radius_schedule)]
    lines.append("target-certificate")
    lines.append(write_asdim_certificate(witness.target_certificate, tgt).rstrip("\n"))
    for radius, cert in witness.inner:
        lines.append(f"inner {fmt_num(radius)}")
        fam = ball_preimage_family(witness.fmap, src, tgt, radius)
        lines.append(write_decomposition_certificate(cert, fam).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_fibering_witness(
    text: str, src: MetricFamily, tgt: MetricFamily, fmap: FamilyMap
) -> FiberingWitness:
    doc = _Doc(text)
    doc.expect("fibering-witness", 0)
    _, args = doc.expect("schedule", _MANY)
    schedule = tuple(doc.number(tok, k) for k, tok in enumerate(args, start=1))
    doc.expect("target-certificate", 0)
    target_cert = parse_asdim_certificate(doc, tgt, stop_keys=frozenset({"inner"}))
    inner: dict[float, DecompositionCertificate] = {}
    while not doc.eof():
        _, [tok] = doc.expect("inner", 1)
        radius = doc.number(tok, 1)
        if radius in inner:
            raise doc.error(f"repeated inner block for radius {tok!r}", 1)
        fam = ball_preimage_family(fmap, src, tgt, radius)
        inner[radius] = _parse_decomposition(doc, fam)
    return FiberingWitness(fmap, schedule, tuple(inner.items()), target_cert)


# rho tables

def parse_rho_table(text: str) -> tuple[tuple[float, float], ...]:
    doc = _Doc(text)
    pairs = []
    while not doc.eof():
        _, row = doc.take()
        if len(row) != 2:
            raise doc.error("rho table rows are '<s> <value>'")
        pairs.append(tuple(doc.number(tok, k) for k, tok in enumerate(row)))
    return tuple(pairs)


def write_rho_table(pairs) -> str:
    return "".join(f"{fmt_num(s)} {fmt_num(v)}\n" for s, v in pairs)
