"""Finite metric spaces, families, isometric group actions, and the basic
metric-building operations: validation, quotients by finite groups, l^p
products, balls and neighborhoods.

All types are immutable value objects; every operation is a pure function.
Distances are stored as float64. Integer inputs are representable exactly, so
comparisons on integer-valued spaces behave exactly.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, StructuralError

DEFAULT_TOL = 1e-9


def _frozen_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A labeled point set with a full symmetric distance matrix.

    Point labels are unique.  ``pseudo=True`` permits zero distances between
    distinct points; by default they are an axiom violation.
    """

    id: str
    points: tuple[str, ...]
    dist: np.ndarray
    pseudo: bool = False
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "dist", _frozen_array(self.dist))
        index = {p: i for i, p in enumerate(self.points)}
        if len(index) != len(self.points):
            seen: set[str] = set()
            for p in self.points:
                if p in seen:
                    raise StructuralError(f"space {self.id!r} repeats the point label {p!r}")
                seen.add(p)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise StructuralError(f"space {self.id!r} has no point {label!r}") from None

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def subspace(self, subset: "PointSubset", sub_id: str) -> "FiniteMetricSpace":
        """Metric restriction to a nonempty subset of this space, its points
        in index order."""
        subset.check_against(self)
        sel = np.array(subset.indices, dtype=int)
        return FiniteMetricSpace(
            sub_id,
            tuple(self.points[i] for i in subset.indices),
            self.dist[np.ix_(sel, sel)],
            pseudo=self.pseudo,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMetricSpace)
            and self.id == other.id
            and self.points == other.points
            and self.pseudo == other.pseudo
            and self.dist.shape == other.dist.shape
            and bool(np.array_equal(self.dist, other.dist))
        )

    __hash__ = None


@dataclass(frozen=True)
class MetricFamily:
    """An indexed collection of finite metric spaces treated as one object."""

    id: str
    members: tuple[FiniteMetricSpace, ...]
    _by_id: dict[str, FiniteMetricSpace] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise StructuralError(f"family {self.id!r} is empty")
        by_id: dict[str, FiniteMetricSpace] = {}
        for m in self.members:
            if m.id in by_id:
                raise StructuralError(f"family {self.id!r} has duplicate member id {m.id!r}")
            by_id[m.id] = m
        object.__setattr__(self, "_by_id", by_id)

    def member(self, member_id: str) -> FiniteMetricSpace:
        try:
            return self._by_id[member_id]
        except KeyError:
            raise StructuralError(f"family {self.id!r} has no member {member_id!r}") from None

    def member_ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.members)


def check_certificate_family(family_id: str, family: MetricFamily) -> None:
    """The gate of every certificate walk: the certificate is for ``family``."""
    if family_id != family.id:
        raise StructuralError(f"certificate is for {family_id!r}, not family {family.id!r}")


def member_lookup(family: MetricFamily, pairs) -> dict:
    """A certificate's (member id, value) pairs as an id -> value dict; a
    dangling or repeated id, in listed order, is a StructuralError."""
    by_id: dict = {}
    for member_id, value in pairs:
        family.member(member_id)
        if member_id in by_id:
            raise StructuralError(f"certificate lists member {member_id!r} more than once")
        by_id[member_id] = value
    return by_id


@dataclass(frozen=True)
class PointSubset:
    """A subset of the points of one space, kept as sorted unique indices."""

    space_id: str
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(map(int, self.indices)))))

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        k = bisect_left(self.indices, i)
        return k < len(self.indices) and self.indices[k] == i

    def check_against(self, space: FiniteMetricSpace, allow_empty: bool = False) -> None:
        if self.space_id != space.id:
            raise StructuralError(
                f"subset references space {self.space_id!r}, not {space.id!r}"
            )
        if not allow_empty and not self.indices:
            raise StructuralError(f"empty subset of {space.id!r}")
        if self.indices and (self.indices[0] < 0 or self.indices[-1] >= space.n):
            raise StructuralError(f"subset indices out of range for {space.id!r}")


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on one space by permutations of its point indices.

    ``perms[k]`` is the permutation of element ``elements[k]``: point ``i`` is
    sent to ``perms[k][i]``.  ``compose[i][j]`` is the index of
    ``elements[i] * elements[j]``.
    """

    space_id: str
    elements: tuple[str, ...]
    perms: tuple[tuple[int, ...], ...]
    compose: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "perms", tuple(tuple(p) for p in self.perms))
        object.__setattr__(self, "compose", tuple(tuple(r) for r in self.compose))

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    space_id: str
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


_TILE_ROWS = 64
_BLOCK = 8
# Integers of magnitude up to 2**14 - 1 sum to at most 2**15 - 2, so every
# two-term sum is exact in int16 and below the bound's fill of 2**15 - 1.
_INT16_ENTRY = 2**14 - 1


def validate_metric(space: FiniteMetricSpace, tol: float = 0.0) -> ValidationReport:
    """Check every metric axiom and report each violation with a witness.

    Dimension mismatch between the matrix and the point list is a
    StructuralError, not an axiom violation.  ``tol`` loosens the triangle
    and symmetry comparisons (used for numerically constructed spaces).
    A NaN entry is a ``nan`` violation; no comparison involving it fails.
    A negative or NaN ``tol`` is a PreconditionError.
    """
    if not tol >= 0:
        raise PreconditionError(f"tolerance {tol} is not a number >= 0")
    d = space.dist
    n = space.n
    if d.ndim != 2 or d.shape != (n, n):
        raise StructuralError(
            f"space {space.id!r}: matrix shape {d.shape} does not match {n} points"
        )
    out: list[Violation] = []
    for i in range(n):
        if d[i, i] != 0.0:
            out.append(Violation("diagonal", (i,), f"d({space.points[i]},{space.points[i]}) = {d[i, i]}"))
    # inf - inf is NaN and never exceeds tol: the unbounded sentinel is symmetric.
    with np.errstate(invalid="ignore"):
        asym = np.argwhere(np.abs(d - d.T) > tol)
    for i, j in asym:
        if i < j:
            out.append(
                Violation(
                    "symmetry",
                    (int(i), int(j)),
                    f"d({space.points[i]},{space.points[j]}) = {d[i, j]} but d({space.points[j]},{space.points[i]}) = {d[j, i]}",
                )
            )
    neg = np.argwhere(d < 0)
    for i, j in neg:
        out.append(Violation("negative", (int(i), int(j)), f"d = {d[i, j]} < 0"))
    for i, j in np.argwhere(np.isnan(d)).tolist():
        out.append(Violation("nan", (i, j), f"d({space.points[i]},{space.points[j]}) = nan"))
    if not space.pseudo:
        zero = d == 0.0
        for i, j in np.argwhere(np.triu(zero & zero.T, 1)).tolist():
            out.append(
                Violation(
                    "zero_distance",
                    (i, j),
                    f"distinct points {space.points[i]},{space.points[j]} at distance 0",
                )
            )
    for i, j, k in _triangle_witnesses(d, tol):
        out.append(
            Violation(
                "triangle",
                (i, j, k),
                f"d({space.points[i]},{space.points[k]}) = {d[i, k]} > "
                f"{d[i, j]} + {d[j, k]} via {space.points[j]}",
            )
        )
    return ValidationReport(space.id, tuple(out))


def _triangle_witnesses(d: np.ndarray, tol: float) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with d[i,k] - (d[i,j] + d[j,k]) > tol, ordered by j,
    then i, then k.

    A tile of rows first gets its min-plus bound m[i,k] = fmin over j of
    d[i,j] + d[j,k] (``_min_plus_tiles``).  Subtraction is monotone, so
    some j violates at (i, k) exactly when d[i,k] - m[i,k] > tol; fmin
    skips the NaN of inf + -inf, which never violates, where minimum would
    let it hide a violation through another j.  Only the rows and columns
    of a tile with such a pair are then swept, over the same blocks of j,
    for the witnesses.  On an exactly symmetric matrix a tile covers only
    columns k >= its first row, and each witness (i, j, k), i != k, also
    yields its mirror (k, j, i).

    The dtype is read off the input.  When every entry is a finite integer
    of magnitude <= 2**14 - 1, the bound is computed in int16 and the
    sweep in int32, where every sum and difference is exact; otherwise
    both run in float64.
    """
    symmetric = bool(np.array_equal(d, d.T))
    exact = bool((np.abs(d) <= _INT16_ENTRY).all() and (d == np.trunc(d)).all())
    b, wide = (d.astype(np.int16), d.astype(np.int32)) if exact else (d, d)
    fill = np.iinfo(np.int16).max if exact else np.inf
    found: list[tuple[int, int, int]] = []
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, hi, c0, m in _min_plus_tiles(b, b, fill, symmetric):
            over = d[lo:hi, c0:] - m > tol
            if not over.any():
                continue
            r = lo + np.flatnonzero(over.any(axis=1))
            c = c0 + np.flatnonzero(over.any(axis=0))
            sub = wide[r[:, None], c]
            for j0, s in _block_sums(wide[r], wide[:, c]):
                np.subtract(sub, s, out=s)
                hit = s > tol
                if hit.any():
                    found.extend((j0 + t, int(r[a]), int(c[e]))
                                 for t, a, e in np.argwhere(hit).tolist())
    if symmetric:
        found = [w for w in found if w[1] <= w[2]]
        found += [(j, k, i) for j, i, k in found if i != k]
    found.sort()
    return [(i, j, k) for j, i, k in found]


def _min_plus_tiles(rows: np.ndarray, cols: np.ndarray, fill, upper: bool):
    """For each tile of 64 rows from lo to hi, m[a, e] = fmin over j of
    rows[lo + a, j] + cols[j, c0 + e] from c0 = lo if ``upper`` else 0, with
    ``fill`` the dtype's +inf: per block of 8 j, one broadcast add, one fmin
    reduction over the block and one fmin into m.  Sums that overflow or
    are NaN follow the caller's errstate."""
    for lo in range(0, rows.shape[0], _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, rows.shape[0])
        c0 = lo if upper else 0
        m = np.full((hi - lo, cols.shape[1] - c0), fill, dtype=rows.dtype)
        part = np.empty_like(m)
        for _, s in _block_sums(rows[lo:hi], cols[:, c0:]):
            np.fmin.reduce(s, axis=0, out=part)
            np.fmin(m, part, out=m)
        yield lo, hi, c0, m


def _block_sums(rows: np.ndarray, cols: np.ndarray):
    """For each block of 8 intermediate points from j0, the sums
    s[t, a, e] = rows[a, j0 + t] + cols[j0 + t, e], in one reused buffer."""
    left = np.ascontiguousarray(rows.T)[:, :, None]
    right = cols[:, None, :]
    buf = np.empty((_BLOCK, rows.shape[0], cols.shape[1]), dtype=rows.dtype)
    for j0 in range(0, left.shape[0], _BLOCK):
        s = buf[: min(_BLOCK, left.shape[0] - j0)]
        np.add(left[j0:j0 + _BLOCK], right[j0:j0 + _BLOCK], out=s)
        yield j0, s


def validate_action(action: GroupAction, space: FiniteMetricSpace) -> None:
    """Reject actions that are not honest isometric group actions.  Checked
    exhaustively, in order: the space; k permutations and k composition rows
    of k entries; each permutation of the n points; a two-sided identity
    acting as the identity permutation; rows, then columns, of the table as
    permutations; associativity; compatibility of the permutation table with
    composition; isometry of every permutation.
    """
    k = action.order
    n = space.n
    if action.space_id != space.id:
        raise StructuralError(f"action targets {action.space_id!r}, not {space.id!r}")
    if len(action.perms) != k or [len(row) for row in action.compose] != [k] * k:
        raise StructuralError("action tables do not match the element list")
    for p in action.perms:
        if sorted(p) != list(range(n)):
            raise StructuralError(f"action on {space.id!r}: not a permutation of {n} points")
    e = None
    for i in range(k):
        if all(action.compose[i][j] == j and action.compose[j][i] == j for j in range(k)):
            e = i
            break
    if e is None or action.perms[e] != tuple(range(n)):
        raise StructuralError("composition table has no identity acting as identity permutation")
    for row in action.compose:
        if sorted(row) != list(range(k)):
            raise StructuralError("composition table rows must be permutations (invertibility)")
    for col in range(k):
        if sorted(action.compose[i][col] for i in range(k)) != list(range(k)):
            raise StructuralError("composition table columns must be permutations (invertibility)")
    C = np.array(action.compose)
    P = np.array(action.perms)
    bad = np.argwhere(C[C] != C[:, C])  # (ab)c vs a(bc), first in (a, b, c) order
    if len(bad):
        a, b, c = (action.elements[i] for i in bad[0])
        raise StructuralError(f"composition not associative at ({a},{b},{c})")
    bad = np.argwhere(P[C] != P[:, P])  # (gh) x vs g(h x), first in (g, h, x) order
    if len(bad):
        a, b = (action.elements[i] for i in bad[0][:2])
        raise StructuralError(f"permutation table incompatible with composition at ({a},{b})")
    d = space.dist
    for idx, p in enumerate(action.perms):
        sel = np.array(p, dtype=int)
        if not np.array_equal(d[np.ix_(sel, sel)], d):
            raise StructuralError(
                f"element {action.elements[idx]!r} is not an isometry of {space.id!r}"
            )


def quotient_with_map(
    action: GroupAction, space: FiniteMetricSpace
) -> tuple[FiniteMetricSpace, tuple[int, ...]]:
    """Quotient space together with the point-to-orbit index map.

    d(Fx, Fx') = min over h of d(x, h x').  Orbit representatives are the
    minimal point indices: once the group axioms hold, the orbit of x is
    {g x} and its representative is the minimum over g.  Quotient labels are
    "F·<representative label>".
    The result is re-validated: an isometric action always yields a true
    metric.
    """
    validate_action(action, space)
    perms = np.array(action.perms)
    reps, orbit_of = np.unique(perms.min(axis=0), return_inverse=True)
    q = space.dist[reps[None, :, None], perms[:, reps][:, None, :]].min(axis=0)
    labels = tuple("F·" + space.points[r] for r in reps)
    result = FiniteMetricSpace(f"{space.id}/q", labels, q, pseudo=space.pseudo)
    report = validate_metric(result)
    if not report.ok:
        raise StructuralError(
            f"quotient of {space.id!r} failed re-validation: {report.violations[0].detail}"
        )
    return result, tuple(orbit_of.tolist())


def quotient(space: FiniteMetricSpace, action: GroupAction) -> FiniteMetricSpace:
    return quotient_with_map(action, space)[0]


@np.errstate(all="ignore")  # out-of-range powers are refused below, not warned about
def product(spaces: list[FiniteMetricSpace], p: float) -> FiniteMetricSpace:
    """l^p product of finitely many spaces.

    Points are tuples in row-major order (last factor varies fastest),
    labeled by joining factor labels with ",".  p = inf takes the max of the
    factor distances.  A negative or NaN factor distance is refused at any p.
    """
    if not spaces:
        raise PreconditionError("product of an empty list of spaces")
    if not (p >= 1.0):
        raise PreconditionError(f"p = {p} is not a metric exponent (need p >= 1)")
    for s in spaces:  # the fold below would hide the sign (p = 2, inf) or keep it (p = 1)
        bad = np.argwhere(~(s.dist >= 0.0))
        if len(bad):
            i, j = bad[0]
            raise PreconditionError(f"factor {s.id!r} has d({s.points[i]}, {s.points[j]}) = "
                                    f"{float(s.dist[i, j])!r}, not a distance >= 0")
    labels = tuple(",".join(c) for c in itertools.product(*(s.points for s in spaces)))
    # Factor f's term spans axes f (row) and k + f (column) of a 2k-axis
    # grid, so a row-major reshape of the folded grid is the N x N matrix.
    # The terms fold left to right from the reduction's identity, as an
    # axis-0 sum or max over stacked N x N matrices does (so a lone -0.0
    # sums to 0.0); each partial result spans only the factors folded so
    # far, and the last is the one N x N array.
    # With 1 < p < inf a pair's sum of p-th powers must be normal unless its
    # largest factor distance ``top`` is 0 or inf, or else its p-th root has
    # lost the distance: it is refused.
    k = len(spaces)
    power = not (math.isinf(p) or p == 1.0)
    op, acc = (np.maximum, -math.inf) if math.isinf(p) else (np.add, 0.0)
    top = 0.0
    for f, s in enumerate(spaces):
        shape = [1] * (2 * k)
        shape[f] = shape[k + f] = s.n
        term = s.dist.reshape(shape)
        acc = op(acc, term**p if power else term)
        if power:
            top = np.maximum(top, term)
    d = acc.reshape(len(labels), len(labels))
    if power:
        normal = (acc >= np.finfo(float).tiny) & (acc < math.inf)
        lost = ~normal & (top > 0) & (top < math.inf)
        if lost.any():
            raise PreconditionError(f"p = {p:g} takes a sum of p-th powers of factor distances out of float range")
        d **= 1.0 / p
    pid = "x".join(s.id for s in spaces) + f"|l{p:g}"
    return FiniteMetricSpace(pid, labels, d, pseudo=any(s.pseudo for s in spaces))


def ball(space: FiniteMetricSpace, center: int, radius: float) -> PointSubset:
    """Closed ball {y : d(center, y) <= radius}."""
    if radius < 0:
        raise PreconditionError("ball radius must be >= 0")
    idx = np.nonzero(space.dist[center] <= radius)[0]
    return PointSubset(space.id, tuple(int(i) for i in idx))


def nearest_points(space: FiniteMetricSpace, subset: PointSubset) -> tuple[np.ndarray, np.ndarray]:
    """For every point x, d(x, subset) and the first point of the subset at that
    distance: x's row over the subset's columns read at its argmin, so ties go to
    the lowest index and a NaN propagates.  An empty subset gives inf and -1."""
    sel = np.array(subset.indices, dtype=np.intp)
    if not sel.size:
        return np.full(space.n, math.inf), np.full(space.n, -1, dtype=np.intp)
    block = space.dist[:, sel]
    arg = block.argmin(axis=1)
    return block[np.arange(space.n), arg], sel[arg]


def neighborhood(space: FiniteMetricSpace, subset: PointSubset, radius: float) -> PointSubset:
    """Closed neighborhood {x : d(x, subset) <= radius}."""
    if radius < 0:
        raise PreconditionError("neighborhood radius must be >= 0")
    subset.check_against(space)
    return PointSubset(space.id, tuple(np.flatnonzero(nearest_points(space, subset)[0] <= radius).tolist()))


def separation(
    space: FiniteMetricSpace, pieces, r: float
) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The k x k matrix of set distances between the given pieces (inf for
    an empty piece) and the first pair (a, b), a < b in
    ``itertools.combinations`` order, that is not r-separated, or None.

    A pair is not separated when the pieces share a point or lie at set
    distance d <= r or NaN: separation is strict (> r), with no tolerance.
    An empty piece is separated from every piece.  The distances among all
    pieces' points are gathered once and min-reduced per piece, first over
    rows, then over columns; a point shared by two pieces shows up as equal
    neighbours once the gathered points are sorted.
    """
    k = len(pieces)
    full = [a for a in range(k) if pieces[a].indices]
    sizes = [len(pieces[a]) for a in full]
    dist = np.full((k, k), math.inf)
    bad = np.zeros((k, k), dtype=bool)
    if full:
        idx = np.fromiter(
            itertools.chain.from_iterable(p.indices for p in pieces), dtype=np.intp
        )
        starts = list(itertools.accumulate(sizes[:-1], initial=0))
        rows = np.minimum.reduceat(space.dist[idx[:, None], idx], starts, axis=0)
        sub = np.minimum.reduceat(rows, starts, axis=1)
        f = np.array(full)
        dist[f[:, None], f] = sub
        bad[f[:, None], f] = ~(sub > r)  # a NaN distance separates nothing
        order = np.argsort(idx, kind="stable")
        shared = idx[order][1:] == idx[order][:-1]
        if shared.any():
            owner = np.repeat(f, sizes)[order]
            bad[owner[:-1][shared], owner[1:][shared]] = True
    ks = np.arange(k)
    hit = np.flatnonzero(bad & (ks[:, None] < ks))
    return dist, (divmod(int(hit[0]), k) if hit.size else None)


# rows (one per element and point) that _element_stats gathers per block; an
# element with more points is gathered whole, as its diameter needs
_STAT_ROWS = 256


def _element_stats(
    space: FiniteMetricSpace, elements, reach: bool = True
) -> tuple[list[float], np.ndarray | None]:
    """Each element's diameter (0.0 when empty) and, with ``reach``, each
    point's best distance to the complement of an element that holds it:
    the min over the point's row outside the element (inf when the element
    is the whole space), then the max over the elements that hold the
    point, in element order (-inf when none does).

    Elements of one size s are gathered together, at most ``_STAT_ROWS``
    rows at a time: an s x s block per element for its diameter and an
    s x (n - s) block of the other columns for its reaches.  Each reduction
    thus sees the values, in the order and number, that a pass over one
    element sees, so NaN propagates and a zero result keeps its sign.
    """
    sizes = np.fromiter(map(len, elements), dtype=np.intp, count=len(elements))
    starts = np.cumsum(sizes) - sizes
    pts = np.fromiter(
        itertools.chain.from_iterable(el.indices for el in elements),
        dtype=np.intp, count=int(sizes.sum()),
    )
    diams = np.zeros(len(elements))
    reaches = np.empty(pts.size)
    for s in sorted(set(sizes.tolist()) - {0}):
        ids = np.flatnonzero(sizes == s)
        step = max(1, _STAT_ROWS // s)
        for lo in range(0, ids.size, step):
            block = ids[lo:lo + step]
            pos = starts[block][:, None] + np.arange(s)
            rows = pts[pos]
            own = space.dist[rows[:, :, None], rows[:, None, :]]
            diams[block] = own.reshape(block.size, s * s).max(axis=1)
            if reach:
                outside = np.ones((block.size, space.n), dtype=bool)
                outside[np.arange(block.size)[:, None], rows] = False
                reaches[pos] = (
                    space.dist[rows.ravel()][np.repeat(outside, s, axis=0)]
                    .reshape(block.size, s, space.n - s)
                    .min(axis=2, initial=math.inf)
                )
    if not reach:
        return diams.tolist(), None
    best = np.full(space.n, -math.inf)
    with np.errstate(invalid="ignore"):  # a NaN reach propagates quietly, as in np.maximum
        np.maximum.at(best, pts, reaches)
    return diams.tolist(), best
