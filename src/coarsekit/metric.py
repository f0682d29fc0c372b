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

    def subspace(self, indices, sub_id: str) -> "FiniteMetricSpace":
        """Metric restriction to the given point indices (kept in sorted order)."""
        idx = sorted(set(int(i) for i in indices))
        if not idx:
            raise PreconditionError(f"empty subspace of {self.id!r}")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise StructuralError(f"subspace indices out of range for {self.id!r}")
        sel = np.array(idx, dtype=int)
        return FiniteMetricSpace(
            sub_id,
            tuple(self.points[i] for i in idx),
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


@dataclass(frozen=True)
class PointSubset:
    """A subset of the points of one space, kept as sorted unique indices."""

    space_id: str
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(int(i) for i in self.indices))))

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
# Integers of magnitude up to 2**22 sum to at most 2**23, inside float32's
# 24-bit significand, so a float32 bound over such entries is exact.
_EXACT_F32 = 2.0**22


def validate_metric(space: FiniteMetricSpace, tol: float = 0.0) -> ValidationReport:
    """Check every metric axiom and report each violation with a witness.

    Dimension mismatch between the matrix and the point list is a
    StructuralError, not an axiom violation.  ``tol`` loosens the triangle
    and symmetry comparisons (used for numerically constructed spaces).
    A NaN entry is a ``nan`` violation; no comparison involving it fails.
    """
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
    d[i,j] + d[j,k], two in-place ufuncs per j.  Subtraction is monotone,
    so some j violates at (i, k) exactly when d[i,k] - m[i,k] > tol; fmin
    skips the NaN of inf + -inf, which never violates, where minimum would
    let it hide a violation through another j.  Only the rows and columns
    of a tile with such a pair are then swept per j, in float64, for the
    witnesses.  On an exactly symmetric matrix a tile covers only columns
    k >= its first row, and each witness (i, j, k), i != k, also yields its
    mirror (k, j, i).  The bound is computed in float32, where every sum is
    exact, when each finite entry is an integer of magnitude <= 2**22.
    """
    n = d.shape[0]
    symmetric = bool(np.array_equal(d, d.T))
    finite = d[np.isfinite(d)]
    exact = bool((np.abs(finite) <= _EXACT_F32).all() and (finite == np.trunc(finite)).all())
    b = d.astype(np.float32) if exact else d
    found: list[tuple[int, int, int]] = []
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, _TILE_ROWS):
            hi = min(lo + _TILE_ROWS, n)
            c0 = lo if symmetric else 0
            left = np.ascontiguousarray(b[lo:hi].T)[:, :, None]
            right = b[:, c0:]
            m = np.full((hi - lo, n - c0), np.inf, dtype=b.dtype)
            s = np.empty_like(m)
            for j in range(n):
                np.add(left[j], right[j], out=s)
                np.fmin(m, s, out=m)
            over = d[lo:hi, c0:] - m > tol
            if not over.any():
                continue
            r = lo + np.flatnonzero(over.any(axis=1))
            c = c0 + np.flatnonzero(over.any(axis=0))
            sub = d[r[:, None], c]
            left = np.ascontiguousarray(d[r].T)[:, :, None]
            right = d[:, c]
            slack = np.empty(sub.shape)
            hit = np.empty(sub.shape, dtype=bool)
            for j in range(n):
                np.add(left[j], right[j], out=slack)
                np.subtract(sub, slack, out=slack)
                np.greater(slack, tol, out=hit)
                if hit.any():
                    found.extend((j, int(r[a]), int(c[e])) for a, e in np.argwhere(hit).tolist())
    if symmetric:
        found = [w for w in found if w[1] <= w[2]]
        found += [(j, k, i) for j, i, k in found if i != k]
    found.sort()
    return [(i, j, k) for j, i, k in found]


def validate_action(action: GroupAction, space: FiniteMetricSpace) -> None:
    """Reject actions that are not honest isometric group actions.

    Checked exhaustively: identity element, group axioms of the composition
    table, compatibility of the permutation table with composition, and
    isometry of every permutation.
    """
    k = action.order
    n = space.n
    if action.space_id != space.id:
        raise StructuralError(f"action targets {action.space_id!r}, not {space.id!r}")
    if len(action.perms) != k or len(action.compose) != k:
        raise StructuralError("action tables do not match the element list")
    for p in action.perms:
        if sorted(p) != list(range(n)):
            raise StructuralError(f"action on {space.id!r}: not a permutation of {n} points")
    ident = [i for i in range(k) if action.perms[i] == tuple(range(n))]
    if not ident:
        raise StructuralError("no element acts as the identity permutation")
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
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if (
                    action.compose[action.compose[a][b]][c]
                    != action.compose[a][action.compose[b][c]]
                ):
                    raise StructuralError(
                        f"composition not associative at ({action.elements[a]},"
                        f"{action.elements[b]},{action.elements[c]})"
                    )
    # (gh) x = g(h x)
    for a in range(k):
        for b in range(k):
            gh = action.perms[action.compose[a][b]]
            g, h = action.perms[a], action.perms[b]
            if any(gh[x] != g[h[x]] for x in range(n)):
                raise StructuralError(
                    f"permutation table incompatible with composition at "
                    f"({action.elements[a]},{action.elements[b]})"
                )
    d = space.dist
    for idx, p in enumerate(action.perms):
        sel = np.array(p, dtype=int)
        if not np.array_equal(d[np.ix_(sel, sel)], d):
            raise StructuralError(
                f"element {action.elements[idx]!r} is not an isometry of {space.id!r}"
            )


class UnionFind:
    """Array-based union-find with path compression.  The root of a block is
    its smallest member, so ``blocks`` lists them by smallest member."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def blocks(self) -> list[tuple[int, ...]]:
        groups: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            groups.setdefault(self.find(i), []).append(i)
        return [tuple(groups[r]) for r in sorted(groups)]


def orbits(action: GroupAction, space: FiniteMetricSpace) -> list[tuple[int, ...]]:
    """Orbits of the action, each sorted, listed by minimal representative."""
    uf = UnionFind(space.n)
    for p in action.perms:
        for i, j in enumerate(p):
            uf.union(i, j)
    return uf.blocks()


def quotient_with_map(
    action: GroupAction, space: FiniteMetricSpace
) -> tuple[FiniteMetricSpace, tuple[int, ...]]:
    """Quotient space together with the point-to-orbit index map.

    d(Fx, Fx') = min over h of d(x, h x').  Orbit representatives are the
    minimal point indices; quotient labels are "F·<representative label>".
    The result is re-validated: an isometric action always yields a true
    metric.
    """
    validate_action(action, space)
    orbs = orbits(action, space)
    reps = [o[0] for o in orbs]
    orbit_of = [0] * space.n
    for qi, o in enumerate(orbs):
        for i in o:
            orbit_of[i] = qi
    m = len(orbs)
    d = space.dist
    q = np.zeros((m, m), dtype=np.float64)
    perm_arrays = [np.array(p, dtype=int) for p in action.perms]
    for a in range(m):
        for b in range(a + 1, m):
            x, y = reps[a], reps[b]
            best = min(float(d[x, p[y]]) for p in perm_arrays)
            q[a, b] = q[b, a] = best
    labels = tuple("F·" + space.points[r] for r in reps)
    result = FiniteMetricSpace(f"{space.id}/q", labels, q, pseudo=space.pseudo)
    report = validate_metric(result)
    if not report.ok:
        raise StructuralError(
            f"quotient of {space.id!r} failed re-validation: {report.violations[0].detail}"
        )
    return result, tuple(orbit_of)


def quotient(space: FiniteMetricSpace, action: GroupAction) -> FiniteMetricSpace:
    return quotient_with_map(action, space)[0]


def product(spaces: list[FiniteMetricSpace], p: float) -> FiniteMetricSpace:
    """l^p product of finitely many spaces.

    Points are tuples in row-major order (last factor varies fastest),
    labeled by joining factor labels with ",".  p = inf takes the max of the
    factor distances.
    """
    if not spaces:
        raise PreconditionError("product of an empty list of spaces")
    if not (p >= 1.0):
        raise PreconditionError(f"p = {p} is not a metric exponent (need p >= 1)")
    sizes = [s.n for s in spaces]
    combos = list(itertools.product(*[range(n) for n in sizes]))
    labels = tuple(
        ",".join(spaces[f].points[c[f]] for f in range(len(spaces))) for c in combos
    )
    per_factor = []
    for f, s in enumerate(spaces):
        idx = np.array([c[f] for c in combos], dtype=int)
        per_factor.append(s.dist[np.ix_(idx, idx)])
    stack = np.stack(per_factor)
    if math.isinf(p):
        d = stack.max(axis=0)
    elif p == 1.0:
        d = stack.sum(axis=0)
    else:
        d = (stack**p).sum(axis=0) ** (1.0 / p)
    pid = "x".join(s.id for s in spaces) + f"|l{p:g}"
    return FiniteMetricSpace(pid, labels, d, pseudo=any(s.pseudo for s in spaces))


def ball(space: FiniteMetricSpace, center: int, radius: float) -> PointSubset:
    """Closed ball {y : d(center, y) <= radius}."""
    if radius < 0:
        raise PreconditionError("ball radius must be >= 0")
    idx = np.nonzero(space.dist[center] <= radius)[0]
    return PointSubset(space.id, tuple(int(i) for i in idx))


def neighborhood(space: FiniteMetricSpace, subset: PointSubset, radius: float) -> PointSubset:
    """Closed neighborhood {x : d(x, subset) <= radius}."""
    subset.check_against(space)
    sel = np.array(subset.indices, dtype=int)
    dmin = space.dist[:, sel].min(axis=1)
    return PointSubset(space.id, tuple(int(i) for i in np.nonzero(dmin <= radius)[0]))


def set_distance(space: FiniteMetricSpace, a: PointSubset, b: PointSubset) -> float:
    """min over pairs of d; inf if either subset is empty."""
    if not a.indices or not b.indices:
        return math.inf
    sa = np.array(a.indices, dtype=int)
    sb = np.array(b.indices, dtype=int)
    return float(space.dist[np.ix_(sa, sb)].min())


def separation(
    space: FiniteMetricSpace, pieces, r: float
) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The k x k matrix of set distances between the given pieces (inf for
    an empty piece) and the first pair (a, b), a < b in
    ``itertools.combinations`` order, that is not r-separated, or None.

    A pair is not separated when the pieces share a point or lie at set
    distance d <= r: separation is strict (> r), with no tolerance.  An
    empty piece is separated from every piece.  The distances among all
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
        bad[f[:, None], f] = sub <= r
        order = np.argsort(idx, kind="stable")
        shared = idx[order][1:] == idx[order][:-1]
        if shared.any():
            owner = np.repeat(f, sizes)[order]
            bad[owner[:-1][shared], owner[1:][shared]] = True
    ks = np.arange(k)
    hit = np.flatnonzero(bad & (ks[:, None] < ks))
    return dist, (divmod(int(hit[0]), k) if hit.size else None)


def subset_diameter(space: FiniteMetricSpace, a: PointSubset) -> float:
    if not a.indices:
        return 0.0
    sa = np.array(a.indices, dtype=int)
    return float(space.dist[sa[:, None], sa].max())


def point_to_set_distance(space: FiniteMetricSpace, i: int, a: PointSubset) -> float:
    if not a.indices:
        return math.inf
    sa = np.array(a.indices, dtype=int)
    return float(space.dist[i, sa].min())
