"""Line-oriented document formats for every exchanged object.

Shared lexical rules: tokens are whitespace-separated, ``#`` starts a
comment, blank lines are ignored, and point labels are arbitrary
non-whitespace tokens other than the literal ``:`` and ``->`` separators.
Numbers written as integer literals are stored exactly (float64 holds them
exactly at desk scale); ``inf`` is the explicit unbounded sentinel and
``nan`` is rejected.  The point labels of a family member are unique.

Grammars (one document per file):

  family document          family <id>
                           member <id> [pseudo]
                           points <label...>
                           <n-1 lower-triangular rows, row k holding k numbers>

  action document          action <id>
                           elements <label...>
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
                           <name> : <label...>

  asdim certificate        asdim-certificate
                           family <id> / n <int>
                           entry / lambda <num> / bound <num>
                           member <id> / element [<color>] : <label...>

  an certificate           an-certificate
                           family <id> / n <int> / M <num> / b <num>
                           entry / R <num>
                           member <id> / element <color> : <label...>

  decomposition            decomposition-certificate
  certificate              family <id> / r <num> / n <int>
                           member <id> / color <int> / piece : <label...>
                           then either  leaf-bound <num>
                           or           child + a nested certificate block

  fibering witness         fibering-witness
                           schedule <num...>
                           target-certificate + asdim certificate block
                           inner <num> + decomposition certificate block

  rho table file           <s> <value>                          (one per line)

Ragged triangular blocks and malformed rows are rejected with 1-based
line/column diagnostics.  Every writer/parser pair round-trips exactly.
"""

from __future__ import annotations

import math
import re

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


class _Doc:
    """Scanned document: the non-blank lines, comments stripped, with line
    numbers.  A line is split into (token, column) pairs only when a parser
    takes it, so a bulk reader of ``lines`` pays nothing per token."""

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

    def take(self) -> tuple[int, list[tuple[str, int]]]:
        if self.eof():
            raise ParseError("unexpected end of document", self.line_no())
        ln, body = self.lines[self.pos]
        self.pos += 1
        return ln, [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]

    def expect(self, key: str) -> tuple[int, list[tuple[str, int]]]:
        ln, toks = self.take()
        if toks[0][0] != key:
            raise ParseError(f"expected {key!r}, found {toks[0][0]!r}", ln, toks[0][1])
        return ln, toks


def _num(tok: str, ln: int, col: int) -> float:
    """A number token: ``inf`` is the unbounded sentinel, integer literals
    are converted exactly, a literal beyond the float range is out of range,
    and nan in any spelling is rejected."""
    if tok == "inf":
        return math.inf
    try:
        v = float(int(tok)) if _INTEGER.fullmatch(tok) else float(tok)
    except ValueError:
        raise ParseError(f"not a number: {tok!r}", ln, col) from None
    except OverflowError:
        raise ParseError(f"number out of range: {tok!r}", ln, col) from None
    if math.isinf(v) and tok.lstrip("+-").lower() not in ("inf", "infinity"):
        raise ParseError(f"number out of range: {tok!r}", ln, col)
    if math.isnan(v):
        raise ParseError(f"nan is not accepted as a number: {tok!r}", ln, col)
    return v


def _int(tok: str, ln: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"not an integer: {tok!r}", ln, col) from None


def _labels_to_indices(labels, space: FiniteMetricSpace, ln: int) -> tuple[int, ...]:
    out = []
    index = {p: i for i, p in enumerate(space.points)}
    for lbl, col in labels:
        if lbl not in index:
            raise ParseError(f"unknown point {lbl!r} of {space.id!r}", ln, col)
        out.append(index[lbl])
    return tuple(out)


def _split_colon(toks, ln):
    """Split a token row at the standalone ':' separator."""
    for k, (tok, _) in enumerate(toks):
        if tok == ":":
            return toks[:k], toks[k + 1:]
    raise ParseError("missing ':' separator", ln, toks[-1][1])


# family documents

def _fmt_row(row: np.ndarray) -> str:
    """One row of a triangular block, byte-identical to ``fmt_num`` per entry.

    A row of finite whole numbers below 1e15 prints as integers in one go;
    any other row goes entry by entry through ``fmt_num``.
    """
    if (np.abs(row) < 1e15).all() and (row == np.floor(row)).all():
        return " ".join(map(str, row.astype(np.int64).tolist()))
    return " ".join(map(fmt_num, row.tolist()))


def write_family(family: MetricFamily) -> str:
    lines = [f"family {family.id}"]
    for m in family.members:
        lines.append(f"member {m.id}" + (" pseudo" if m.pseudo else ""))
        lines.append("points " + " ".join(m.points))
        lines.extend(_fmt_row(m.dist[i, :i]) for i in range(1, m.n))
    return "\n".join(lines) + "\n"


def _bulk_block(doc: _Doc, n: int) -> np.ndarray | None:
    """The n - 1 rows of a triangular block as one vector, row after row.

    Returns None, consuming nothing, when some row needs ``_scan_block``:
    the block is cut short or ragged, a token is not a number, or a value
    is not finite or is -0.0 (``_num`` reads the literal ``-0`` as +0.0).
    """
    bodies = doc.lines[doc.pos:doc.pos + n - 1]
    if len(bodies) != n - 1:
        return None
    tokens: list[str] = []
    for i, (_, body) in enumerate(bodies, start=1):
        row = body.split()
        if len(row) != i:
            return None
        tokens += row
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    if not np.isfinite(values).all() or np.signbit(values[values == 0.0]).any():
        return None
    doc.pos += n - 1
    return values


def _scan_block(doc: _Doc, n: int, member_id: str) -> np.ndarray:
    """Token-by-token read of a triangular block with line/column diagnostics."""
    values: list[float] = []
    for i in range(1, n):
        ln, row = doc.take()
        if row[0][0] in ("member", "family"):
            raise ParseError(
                f"triangular block for {member_id!r} ended early (row {i} of {n - 1})",
                ln,
                row[0][1],
            )
        if len(row) != i:
            col = row[min(i, len(row) - 1)][1] if len(row) > i else row[-1][1]
            raise ParseError(
                f"ragged block: row {i} of member {member_id!r} needs {i} numbers, found {len(row)}",
                ln,
                col,
            )
        values.extend(_num(tok, ln, col) for tok, col in row)
    return np.array(values, dtype=np.float64)


def parse_family(text: str) -> MetricFamily:
    doc = _Doc(text)
    ln, toks = doc.expect("family")
    if len(toks) != 2:
        raise ParseError("family header needs exactly one id", ln, toks[0][1])
    fam_id = toks[1][0]
    members: list[FiniteMetricSpace] = []
    while not doc.eof():
        ln, toks = doc.expect("member")
        if len(toks) not in (2, 3) or (len(toks) == 3 and toks[2][0] != "pseudo"):
            raise ParseError("member line is 'member <id> [pseudo]'", ln, toks[0][1])
        member_id = toks[1][0]
        pseudo = len(toks) == 3
        ln, toks = doc.expect("points")
        labels = [t for t, _ in toks[1:]]
        if not labels:
            raise ParseError("member has no points", ln, toks[0][1])
        seen: set[str] = set()
        for label, col in toks[1:]:
            if label in seen:
                raise ParseError(f"duplicate point label {label!r}", ln, col)
            seen.add(label)
        n = len(labels)
        values = _bulk_block(doc, n)
        if values is None:
            values = _scan_block(doc, n, member_id)
        # Both triangles get the same value by index, so every bit of a
        # parsed entry (the sign of -0.0 included) is stored as read.
        d = np.zeros((n, n), dtype=np.float64)
        lower = np.tril_indices(n, -1)
        d[lower] = values
        d.T[lower] = values
        members.append(FiniteMetricSpace(member_id, tuple(labels), d, pseudo=pseudo))
    return MetricFamily(fam_id, tuple(members))


# action documents

class ActionDocument:
    def __init__(self, action_id: str, elements: tuple[str, ...], compose: tuple[tuple[int, ...], ...],
                 perms: dict[str, dict[str, tuple[int, ...]]]):
        self.action_id = action_id
        self.elements = elements
        self.compose = compose
        self.perms = perms

    def member_ids(self) -> list[str]:
        return list(self.perms)

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


def parse_action(text: str) -> ActionDocument:
    doc = _Doc(text)
    ln, toks = doc.expect("action")
    action_id = toks[1][0] if len(toks) > 1 else ""
    ln, toks = doc.expect("elements")
    elements = tuple(t for t, _ in toks[1:])
    if not elements:
        raise ParseError("action needs at least one element", ln, toks[0][1])
    pos = {e: i for i, e in enumerate(elements)}
    compose_rows: dict[str, tuple[int, ...]] = {}
    while doc.peek_key() == "compose":
        ln, toks = doc.take()
        head, tail = _split_colon(toks[1:], ln)
        if len(head) != 1:
            raise ParseError("compose row is 'compose <element> : <element...>'", ln, toks[0][1])
        e = head[0][0]
        if e not in pos:
            raise ParseError(f"unknown element {e!r}", ln, head[0][1])
        if len(tail) != len(elements):
            raise ParseError(f"compose row for {e!r} needs {len(elements)} entries", ln, toks[0][1])
        row = []
        for tok, col in tail:
            if tok not in pos:
                raise ParseError(f"unknown element {tok!r}", ln, col)
            row.append(pos[tok])
        compose_rows[e] = tuple(row)
    missing = [e for e in elements if e not in compose_rows]
    if missing:
        raise ParseError(f"missing compose row for {missing[0]!r}", ln if not doc.eof() else 1)
    perms: dict[str, dict[str, tuple[int, ...]]] = {}
    while not doc.eof():
        ln, toks = doc.expect("member")
        member_id = toks[1][0]
        table: dict[str, tuple[int, ...]] = {}
        while doc.peek_key() == "perm":
            ln, toks = doc.take()
            head, tail = _split_colon(toks[1:], ln)
            if len(head) != 1 or head[0][0] not in pos:
                raise ParseError("perm row is 'perm <element> : <indices...>'", ln, toks[0][1])
            table[head[0][0]] = tuple(_int(t, ln, c) for t, c in tail)
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
    doc.expect("map")
    ln, toks = doc.expect("source")
    source = toks[1][0]
    ln, toks = doc.expect("target")
    target = toks[1][0]
    functions: list[MapFunction] = []
    while not doc.eof():
        ln, toks = doc.expect("function")
        if len(toks) != 4 or toks[2][0] != "->":
            raise ParseError("function line is 'function <src> -> <tgt>'", ln, toks[0][1])
        s = src.member(toks[1][0])
        t = tgt.member(toks[3][0])
        assign: dict[int, int] = {}
        t_index = {p: i for i, p in enumerate(t.points)}
        s_index = {p: i for i, p in enumerate(s.points)}
        while not doc.eof() and doc.peek_key() != "function":
            ln, row = doc.take()
            head, tail = _split_colon(row, ln)
            if len(head) != 1 or len(tail) != 1:
                raise ParseError("assignment line is '<point> : <image>'", ln, row[0][1])
            if head[0][0] not in s_index:
                raise ParseError(f"unknown point {head[0][0]!r} of {s.id!r}", ln, head[0][1])
            if tail[0][0] not in t_index:
                raise ParseError(f"unknown point {tail[0][0]!r} of {t.id!r}", ln, tail[0][1])
            assign[s_index[head[0][0]]] = t_index[tail[0][0]]
        if len(assign) != s.n:
            raise ParseError(
                f"function {s.id!r} -> {t.id!r} assigns {len(assign)} of {s.n} points", ln
            )
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
    ln, toks = doc.expect("subsets")
    if toks[1][0] != family.id:
        raise ParseError(f"subsets are for {toks[1][0]!r}, not family {family.id!r}", ln, toks[1][1])
    out: list[tuple[str, str, PointSubset]] = []
    member = None
    while not doc.eof():
        if doc.peek_key() == "member":
            ln, toks = doc.take()
            member = family.member(toks[1][0])
            continue
        ln, row = doc.take()
        if member is None:
            raise ParseError("subset line before any member line", ln, row[0][1])
        head, tail = _split_colon(row, ln)
        if len(head) != 1:
            raise ParseError("subset line is '<name> : <label...>'", ln, row[0][1])
        out.append(
            (member.id, head[0][0], PointSubset(member.id, _labels_to_indices(tail, member, ln)))
        )
    return out


# cover elements shared by certificate formats

def _write_cover(lines: list[str], cover: Cover, member: FiniteMetricSpace) -> None:
    for k, el in enumerate(cover.elements):
        color = "" if cover.colors is None else f" {cover.colors[k]}"
        lines.append(
            f"element{color} : " + " ".join(member.points[i] for i in el.indices)
        )


def _parse_cover_elements(doc: _Doc, member: FiniteMetricSpace) -> Cover:
    elements: list[PointSubset] = []
    colors: list[int | None] = []
    while doc.peek_key() == "element":
        ln, row = doc.take()
        head, tail = _split_colon(row[1:], ln)
        if len(head) > 1:
            raise ParseError("element line is 'element [<color>] : <label...>'", ln, row[0][1])
        colors.append(_int(head[0][0], ln, head[0][1]) if head else None)
        elements.append(PointSubset(member.id, _labels_to_indices(tail, member, ln)))
    has_colors = [c for c in colors if c is not None]
    if has_colors and len(has_colors) != len(colors):
        raise ParseError("either all or no elements of a cover carry colors", doc.lines[doc.pos - 1][0])
    return Cover(
        member.id,
        tuple(elements),
        tuple(has_colors) if has_colors else None,
    )


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
    doc.expect("asdim-certificate")
    ln, toks = doc.expect("family")
    fam_id = toks[1][0]
    ln, toks = doc.expect("n")
    n = _int(toks[1][0], ln, toks[1][1])
    entries: list[AsdimEntry] = []
    while not doc.eof() and doc.peek_key() not in stop_keys:
        doc.expect("entry")
        ln, toks = doc.expect("lambda")
        lam = _num(toks[1][0], ln, toks[1][1])
        ln, toks = doc.expect("bound")
        bound = _num(toks[1][0], ln, toks[1][1])
        covers: list[tuple[str, Cover]] = []
        while doc.peek_key() == "member":
            ln, toks = doc.take()
            member = family.member(toks[1][0])
            covers.append((member.id, _parse_cover_elements(doc, member)))
        entries.append(AsdimEntry(lam, bound, tuple(covers)))
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
    doc.expect("an-certificate")
    ln, toks = doc.expect("family")
    fam_id = toks[1][0]
    ln, toks = doc.expect("n")
    n = _int(toks[1][0], ln, toks[1][1])
    ln, toks = doc.expect("M")
    slope = _num(toks[1][0], ln, toks[1][1])
    ln, toks = doc.expect("b")
    offset = _num(toks[1][0], ln, toks[1][1])
    entries: list[ANEntry] = []
    while not doc.eof():
        doc.expect("entry")
        ln, toks = doc.expect("R")
        scale = _num(toks[1][0], ln, toks[1][1])
        covers: list[tuple[str, Cover]] = []
        while doc.peek_key() == "member":
            ln, toks = doc.take()
            member = family.member(toks[1][0])
            covers.append((member.id, _parse_cover_elements(doc, member)))
        entries.append(ANEntry(scale, tuple(covers)))
    return ANControlCertificate(fam_id, n, slope, offset, tuple(entries))


# decomposition certificates

def write_decomposition_certificate(
    cert: DecompositionCertificate, family: MetricFamily
) -> str:
    lines: list[str] = []

    def emit(c: DecompositionCertificate, fam: MetricFamily) -> None:
        lines.append("decomposition-certificate")
        lines.append(f"family {c.family_id}")
        lines.append(f"r {fmt_num(c.r)}")
        lines.append(f"n {c.n}")
        for entry in c.members:
            member = fam.member(entry.member_id)
            lines.append(f"member {entry.member_id}")
            for color, group in enumerate(entry.pieces):
                lines.append(f"color {color}")
                for piece in group:
                    lines.append(
                        "piece : " + " ".join(member.points[i] for i in piece.indices)
                    )
        if c.leaf_bound is not None:
            lines.append(f"leaf-bound {fmt_num(c.leaf_bound)}")
        else:
            lines.append("child")
            emit(c.child, piece_family(c, fam))

    emit(cert, family)
    return "\n".join(lines) + "\n"


def parse_decomposition_certificate(
    text_or_doc, family: MetricFamily, stop_keys: frozenset[str] = frozenset()
) -> DecompositionCertificate:
    doc = text_or_doc if isinstance(text_or_doc, _Doc) else _Doc(text_or_doc)
    doc.expect("decomposition-certificate")
    ln, toks = doc.expect("family")
    fam_id = toks[1][0]
    ln, toks = doc.expect("r")
    r = _num(toks[1][0], ln, toks[1][1])
    ln, toks = doc.expect("n")
    n = _int(toks[1][0], ln, toks[1][1])
    members: list[MemberDecomposition] = []
    while doc.peek_key() == "member":
        ln, toks = doc.take()
        member = family.member(toks[1][0])
        groups: list[tuple[PointSubset, ...]] = []
        while doc.peek_key() == "color":
            ln, toks = doc.take()
            color = _int(toks[1][0], ln, toks[1][1])
            if color != len(groups):
                raise ParseError(f"colors must appear in order; expected {len(groups)}", ln, toks[1][1])
            pieces: list[PointSubset] = []
            while doc.peek_key() == "piece":
                ln, row = doc.take()
                _, tail = _split_colon(row[1:], ln)
                pieces.append(PointSubset(member.id, _labels_to_indices(tail, member, ln)))
            groups.append(tuple(pieces))
        members.append(MemberDecomposition(member.id, tuple(groups)))
    key = doc.peek_key()
    if key == "leaf-bound":
        ln, toks = doc.take()
        bound = _num(toks[1][0], ln, toks[1][1])
        return DecompositionCertificate(fam_id, r, n, tuple(members), leaf_bound=bound)
    if key == "child":
        doc.take()
        partial = DecompositionCertificate(fam_id, r, n, tuple(members), leaf_bound=0.0)
        pieces = piece_family(partial, family)
        child = parse_decomposition_certificate(doc, pieces, stop_keys)
        return DecompositionCertificate(fam_id, r, n, tuple(members), child=child)
    raise ParseError("certificate needs 'leaf-bound <num>' or 'child'", doc.line_no())


# fibering witnesses

def write_fibering_witness(
    witness: FiberingWitness, src: MetricFamily, tgt: MetricFamily
) -> str:
    lines = ["fibering-witness", "schedule " + " ".join(fmt_num(r) for r in witness.radius_schedule)]
    lines.append("target-certificate")
    lines.append(write_asdim_certificate(witness.target_certificate, tgt).rstrip("\n"))
    for radius, cert in witness.inner:
        lines.append(f"inner {fmt_num(radius)}")
        fam, _ = ball_preimage_family(witness.fmap, src, tgt, radius)
        lines.append(write_decomposition_certificate(cert, fam).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_fibering_witness(
    text: str, src: MetricFamily, tgt: MetricFamily, fmap: FamilyMap
) -> FiberingWitness:
    doc = _Doc(text)
    doc.expect("fibering-witness")
    ln, toks = doc.expect("schedule")
    schedule = tuple(_num(t, ln, c) for t, c in toks[1:])
    doc.expect("target-certificate")
    target_cert = parse_asdim_certificate(doc, tgt, stop_keys=frozenset({"inner"}))
    inner: list[tuple[float, DecompositionCertificate]] = []
    while not doc.eof():
        ln, toks = doc.expect("inner")
        radius = _num(toks[1][0], ln, toks[1][1])
        fam, _ = ball_preimage_family(fmap, src, tgt, radius)
        cert = parse_decomposition_certificate(doc, fam, stop_keys=frozenset({"inner"}))
        inner.append((radius, cert))
    return FiberingWitness(fmap, schedule, tuple(inner), target_cert)


# rho tables

def parse_rho_table(text: str) -> tuple[tuple[float, float], ...]:
    doc = _Doc(text)
    pairs = []
    while not doc.eof():
        ln, row = doc.take()
        if len(row) != 2:
            raise ParseError("rho table rows are '<s> <value>'", ln, row[0][1])
        pairs.append((_num(row[0][0], ln, row[0][1]), _num(row[1][0], ln, row[1][1])))
    return tuple(pairs)


def write_rho_table(pairs) -> str:
    return "".join(f"{fmt_num(s)} {fmt_num(v)}\n" for s, v in pairs)
