"""The parametrized cone over a finite metric space: height-distortion
functions, cone distances, the chain-graph oracle, height-slice embeddings,
and the extension of a partial map into the cone.

The cone over Y is Y x [0, inf) with distance

    d((y,t), (y',t')) = phi_max(t,t')(d_Y(y, y')) + |t - t'|,

where phi_t(r) = inf over u >= 0 of 2u + r / max(rho(u + t), 1) for a
non-decreasing parameter function rho.  Cone spaces are never materialized
except as finite samples over an explicit height set; the distance is the
primitive.

Every supported rho has a closed form for the infimum, so phi is evaluated
exactly, up to floating-point rounding, at a few candidate points u:

- const, and affine with M = 0: u = 0, so phi = r / max(rho(t), 1);
- affine: the candidates are u = 0 and the stationary point
  (sqrt(r M / 2) - L) / M - t of the convex objective, clipped to u >= 0,
  with sqrt(r / 2) sqrt(M) for sqrt(r M / 2) where r M overflows;
- exp: u = 0 below r = 2 e^t, ln(r / 2) - t above (``phi_closed_exp``);
- step and table: the objective grows on each constant piece, so the
  minimum sits at u = 0 or where u + t reaches a breakpoint.

Each candidate increases in r, so phi_t is inverted in closed form: the
largest r with phi_t(r) <= y is the largest of the candidates' inverses,
sup over u of (y - 2u) max(rho(u + t), 1) (``_phi_inverse``):

- u = 0: y max(rho(t), 1), or for an affine rho(t) beyond float range
  2 (y k)(t M / 2k + L / 2k) with k = max(M, 1);
- step and table: w_k (y - 2 u_k) at each breakpoint, with
  u_k = max(s_k - t, 0) and w_k = max(v_k, 1);
- affine: (M / 2)(y / 2 + t + L / M)^2 where its maximizer
  u* = y / 4 - (t + L / M) / 2 is >= 0;
- exp: 2 e^{y/2 - 1 + t} where u* = y / 2 - 1 is >= 0.

A cone sample of N = H |Y| points is certified a metric from its stack of
H phi matrices by one min-plus product, O(N^2 |Y|); the generic O(N^3)
check runs only where that cannot settle it (``_cone_certified``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, StructuralError
from .maps import FamilyMap, MapFunction, MonotoneEnvelope
from .metric import FiniteMetricSpace, MetricFamily, PointSubset, _min_plus_tiles, nearest_points, validate_metric
from .report import fmt_num


@dataclass(frozen=True)
class RhoFunction:
    """A non-decreasing, non-negative function on [0, inf) from a closed
    family: constant, affine M s + L, exponential e^s, finite step table, or
    tabulated monotone data (step semantics, constant below the first entry
    and beyond the last)."""

    kind: str
    params: tuple[float, ...] = ()
    breaks: tuple[tuple[float, float], ...] = ()
    # step and table: the breakpoints and their values as arrays, built once
    _ss: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _vs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        object.__setattr__(
            self, "breaks", tuple((float(s), float(v)) for s, v in self.breaks)
        )
        if not np.isfinite(self.params + tuple(x for pair in self.breaks for x in pair)).all():
            raise StructuralError("rho parameters and breakpoints must be finite")
        if self.kind == "const":
            if len(self.params) != 1 or self.params[0] < 0:
                raise StructuralError("constant rho needs one value c >= 0")
        elif self.kind == "affine":
            if len(self.params) != 2 or self.params[0] < 0 or self.params[1] < 0:
                raise StructuralError("affine rho needs M >= 0 and L >= 0")
        elif self.kind == "exp":
            if self.params or self.breaks:
                raise StructuralError("exponential rho takes no parameters")
        elif self.kind in ("step", "table"):
            ss = [s for s, _ in self.breaks]
            vs = [v for _, v in self.breaks]
            if not self.breaks:
                raise StructuralError(f"{self.kind} rho needs breakpoints")
            if any(s < 0 for s in ss) or ss != sorted(ss) or len(set(ss)) != len(ss):
                raise StructuralError("breakpoints must be strictly increasing with s >= 0")
            if any(v < 0 for v in vs) or any(vs[i] > vs[i + 1] for i in range(len(vs) - 1)):
                raise StructuralError("breakpoint values must be non-negative and non-decreasing")
            object.__setattr__(self, "_ss", np.array(ss))
            object.__setattr__(self, "_vs", np.array(vs))
        else:
            raise StructuralError(f"unknown rho kind {self.kind!r}")

    @classmethod
    def constant(cls, c: float) -> "RhoFunction":
        return cls("const", (c,))

    @classmethod
    def affine(cls, slope: float, offset: float) -> "RhoFunction":
        return cls("affine", (slope, offset))

    @classmethod
    def exponential(cls) -> "RhoFunction":
        return cls("exp")

    @classmethod
    def step(cls, breaks) -> "RhoFunction":
        return cls("step", (), tuple(breaks))

    @classmethod
    def table(cls, breaks) -> "RhoFunction":
        return cls("table", (), tuple(breaks))

    def __call__(self, s):
        a = np.asarray(s, dtype=np.float64)
        if self.kind == "const":
            out = np.full_like(a, self.params[0])
        elif self.kind == "affine":
            with np.errstate(over="ignore"):
                out = self.params[0] * a + self.params[1]  # inf beyond float range, as for exp
        elif self.kind == "exp":
            with np.errstate(over="ignore"):
                out = np.exp(a)  # inf beyond float range is the right limit here
        else:
            idx = np.clip(np.searchsorted(self._ss, a, side="right") - 1, 0, len(self._ss) - 1)
            out = self._vs[idx]
        return float(out) if np.isscalar(s) or a.ndim == 0 else out

    @property
    def proper(self) -> bool:
        """Whether rho(s) -> inf: true for exponential and affine with M > 0."""
        if self.kind == "exp":
            return True
        if self.kind == "affine":
            return self.params[0] > 0
        return False

    def literal(self) -> str:
        if self.kind == "const":
            return f"const:{fmt_num(self.params[0])}"
        if self.kind == "affine":
            return f"affine:{fmt_num(self.params[0])},{fmt_num(self.params[1])}"
        if self.kind == "exp":
            return "exp"
        body = ",".join(f"{fmt_num(s)}:{fmt_num(v)}" for s, v in self.breaks)
        return f"{self.kind}:{body}"


def parse_rho(literal: str, table_loader=None) -> RhoFunction:
    """Parse the literal syntax const:c | affine:M,L | exp | step:s:v,... |
    table:<file>.  ``table_loader`` maps a path to breakpoint pairs."""
    if literal == "exp":
        return RhoFunction.exponential()
    if ":" not in literal:
        raise StructuralError(f"bad rho literal {literal!r}")
    kind, _, body = literal.partition(":")
    try:
        if kind == "const":
            return RhoFunction.constant(float(body))
        if kind == "affine":
            m, _, l = body.partition(",")
            return RhoFunction.affine(float(m), float(l))
        if kind == "step":
            pairs = []
            for chunk in body.split(","):
                s, _, v = chunk.partition(":")
                pairs.append((float(s), float(v)))
            return RhoFunction.step(pairs)
    except ValueError:
        raise StructuralError(f"bad rho literal {literal!r}") from None
    if kind == "table":
        if table_loader is None:
            raise StructuralError("table rho requires a file loader")
        return RhoFunction.table(table_loader(body))
    raise StructuralError(f"unknown rho kind {kind!r}")


@dataclass(frozen=True)
class ConePoint:
    base: int
    height: float

    def __post_init__(self):
        if self.height < 0:
            raise PreconditionError("cone heights must be >= 0")
        if not np.isfinite(self.height):
            raise PreconditionError("cone heights must be finite")


def _phi_arrays(rho: RhoFunction, t, r):
    """The exact infimum, vectorized; t and r broadcast together."""
    t, r = np.broadcast_arrays(np.asarray(t, dtype=np.float64), np.asarray(r, dtype=np.float64))
    if (t < 0).any() or not (r >= 0).all():  # a nan radius is refused too
        raise PreconditionError("phi needs t >= 0 and r >= 0")
    if not np.isfinite(t).all():
        raise PreconditionError("phi needs finite heights t")
    if rho.kind == "exp":
        # 2u + r e^{-(u+t)} is convex, stationary where e^{u+t} = r / 2.
        # e^t overflows to inf for large t, and the unused branch can be 0 * inf
        with np.errstate(over="ignore", invalid="ignore"):
            linear = r < 2.0 * np.exp(t)
            u_star = np.log(np.maximum(r, 1e-300) / 2.0) - t
            return np.where(linear, np.exp(-t) * r, 2.0 * u_star + 2.0)

    if rho.kind == "affine" and rho.params[0] > 0.0:
        # 2u + r / (M (u + t) + L) is convex, stationary where M (u + t) + L =
        # sqrt(r M / 2).  While rho(u + t) <= 1 the objective is 2u + r, never
        # below its value at u = 0, so a stationary point there cannot win.
        # A tiny M overflows u to inf, and r = inf makes the value inf / inf =
        # nan: neither is ever below best.  A huge M overflows rho(s) to inf;
        # there r / rho(s) is (r / 2c) / (s M / 2c + L / 2c), c = max(M, 1),
        # all in range, and r = inf at u = 0 is inf: phi_t(inf) = inf.
        slope, offset = rho.params
        c = max(slope, 1.0)

        def quotient(s):  # r / max(rho(s), 1); both forms run everywhere
            w = rho(s)
            return np.where(w < np.inf, r / np.maximum(w, 1.0),
                            0.5 * (r / c) / (0.5 * (s * (slope / c)) + 0.5 * (offset / c)))

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            best = np.where(r == np.inf, r, quotient(t))  # u = 0
            root = np.where(r * slope < np.inf, np.sqrt(r * slope / 2.0), np.sqrt(r / 2.0) * np.sqrt(slope))
            u = np.maximum(0.0, (root - offset) / slope - t)
            val = 2.0 * u + quotient(u + t)
            return np.where(val < best, val, best)

    best = r / np.maximum(rho(t), 1.0)  # u = 0
    if rho.kind in ("step", "table"):
        with np.errstate(over="ignore"):  # 2u beyond float range is inf, never below best
            for s, v in rho.breaks:
                u = np.maximum(s - t, 0.0)  # s <= t: r / max(v, 1) >= best, as v <= rho(t)
                twice = 2.0 * u
                if (twice >= best).all():  # u grows with s: no later 2u + r / w is below best
                    break
                val = twice + r / max(v, 1.0)
                best = np.where(val < best, val, best)
    return best


def _phi_inverse(rho: RhoFunction, t, y):
    """The largest r with phi_t(r) <= y, vectorized: the largest of the
    candidates' inverses (see the module docstring).  Where phi_t is flat
    this is the upper end of the flat piece."""
    t, y = np.broadcast_arrays(np.asarray(t, dtype=np.float64), np.asarray(y, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        best = y * np.maximum(rho(t), 1.0)  # u = 0
        if rho.kind == "exp":
            best = np.maximum(best, np.where(y >= 2.0, 2.0 * np.exp(y / 2.0 - 1.0 + t), 0.0))
        elif rho.kind == "affine" and rho.params[0] > 0.0:
            # (y - 2u)(M (u + t) + L) is concave in u.  Where u* < 0 its best
            # u >= 0 is u = 0; where rho(u* + t) < 1 its value at u* is below
            # y - 2u* <= y, so it never wins and needs no clip
            slope, offset = rho.params
            k = max(slope, 1.0)  # y rho(t) where M t + L overflows (module docstring)
            best = np.where(rho(t) < np.inf, best, 2.0 * ((y * k) * (0.5 * (t * (slope / k)) + 0.5 * (offset / k))))
            c = t + offset / slope
            best = np.maximum(best, np.where(y >= 2.0 * c, slope / 2.0 * (y / 2.0 + c) ** 2, 0.0))
        elif rho.kind in ("step", "table"):
            u = np.maximum(rho._ss - t[..., None], 0.0)
            best = np.maximum(best, (np.maximum(rho._vs, 1.0) * (y[..., None] - 2.0 * u)).max(axis=-1))
    return best


def phi(rho: RhoFunction, t, r):
    """The infimum of 2u + r / max(rho(u + t), 1) over u >= 0, exact up to
    floating-point rounding for every supported rho (see the module
    docstring).  Accepts scalars or broadcastable arrays.
    """
    val = _phi_arrays(rho, t, r)
    return float(val) if np.isscalar(t) and np.isscalar(r) else val


def phi_closed_exp(t, r):
    """The exact two-branch value for rho(s) = e^s:

        e^{-t} r                    for 0 <= r < 2 e^t,
        2 (ln(r/2) - t) + 2         for r >= 2 e^t.

    This is ``phi`` for exponential rho.
    """
    return phi(RhoFunction.exponential(), t, r)


def cone_distance(rho: RhoFunction, y: FiniteMetricSpace, a: ConePoint, b: ConePoint) -> float:
    """phi at the larger height of the base distance, plus the height gap."""
    if not (0 <= a.base < y.n and 0 <= b.base < y.n):
        raise StructuralError(f"cone point outside {y.id!r}")
    tmax = max(a.height, b.height)
    horizontal = phi(rho, tmax, float(y.dist[a.base, b.base]))
    return float(horizontal) + abs(a.height - b.height)


def chain_oracle(
    rho: RhoFunction,
    y: FiniteMetricSpace,
    a: ConePoint,
    b: ConePoint,
    waypoint_heights,
) -> float:
    """Shortest path between a and b in the complete graph on
    (Y x waypoint heights) plus the endpoints, with one-link weights

        |t - t'| + d_Y(y, y') / max(rho(max(t, t')), 1).

    Every path is a chain, so the result bounds the cone distance from
    above; with the minimizing height among the waypoints it matches it.
    Dense Dijkstra: the link weights form one matrix, and each step settles
    the nearest open node, stopping at b.
    """
    heights = sorted({float(h) for h in waypoint_heights})
    if any(h < 0 for h in heights):
        raise PreconditionError("waypoint heights must be >= 0")
    if not np.isfinite(heights).all():
        raise PreconditionError("waypoint heights must be finite")
    nodes: list[tuple[int, float]] = [(i, h) for h in heights for i in range(y.n)]
    start = (a.base, float(a.height))
    goal = (b.base, float(b.height))
    for extra in (start, goal):
        if extra not in nodes:
            nodes.append(extra)
    base = np.array([i for i, _ in nodes], dtype=int)
    h = np.array([t for _, t in nodes])
    weight = np.abs(np.subtract.outer(h, h)) + y.dist[np.ix_(base, base)] / np.maximum(
        rho(np.maximum.outer(h, h)), 1.0
    )
    src, dst = nodes.index(start), nodes.index(goal)
    dist = np.full(len(nodes), np.inf)
    dist[src] = 0.0
    settled = np.zeros(len(nodes), dtype=bool)
    while True:
        open_dist = np.where(settled, np.inf, dist)
        u = int(np.argmin(open_dist))
        if u == dst or open_dist[u] == np.inf:
            return float(dist[dst])
        settled[u] = True
        np.fmin(dist, dist[u] + weight[u], out=dist)  # a nan weight (inf / inf) is no link


def cone_sample(
    rho: RhoFunction, y: FiniteMetricSpace, heights, sample_id: str | None = None
) -> FiniteMetricSpace:
    """The finite subspace Y x {given heights} of the cone, ordered by
    height then base point and labeled ``<point>@<height>``.  phi runs once
    per height; a sample the height-stack certificate (``_cone_certified``)
    cannot settle is checked by ``validate_metric``."""
    hs = sorted({float(h) for h in heights})
    if not hs:
        raise PreconditionError("cone sample needs at least one height")
    if not np.isfinite(hs).all():
        raise PreconditionError("cone heights must be finite")
    n, h = y.n, np.array(hs)
    labels = tuple(f"{p}@{fmt_num(t)}" for t in hs for p in y.points)
    # contiguous inputs: every element takes the ufunc loops of a full-matrix evaluation
    phis = phi(rho, np.repeat(h, n * n).reshape(len(hs), n, n), np.tile(y.dist, (len(hs), 1, 1)))
    t_of = np.repeat(h, n)
    level = np.arange(len(hs))
    d = phis[np.maximum.outer(level, level)].transpose(0, 2, 1, 3).reshape(len(t_of), len(t_of))
    with np.errstate(over="ignore"):  # beyond float range the distance is inf
        d += np.abs(np.subtract.outer(t_of, t_of))
    np.fill_diagonal(d, 0.0)
    space = FiniteMetricSpace(sample_id or f"C({y.id})", labels, d)
    if not _cone_certified(y.dist, phis, h, d, tol=1e-7):
        report = validate_metric(space, tol=1e-7)
        if not report.ok:
            raise StructuralError(
                f"cone sample failed validation: {report.violations[0].detail}"
            )
    return space


def _cone_certified(ydist, phis, h, d, tol: float) -> bool:
    """Whether validate_metric(tol) surely passes the cone sample d, whose
    off-diagonal entries are phis[max(k, l)] + |h[k] - h[l]| (heights
    sorted), in O(N^2 |Y|) work.  The screen (zero diagonal of d_Y, finite
    phis, d exactly symmetric, d > 0 off the diagonal) settles every check
    but the triangles, and makes each phis[k] symmetric.

    By symmetry take k1 <= k3.  Through (y2, k2), with g the height gaps and
    P[a, b] = min over y2 of phis[a][y1, y2] + phis[b][y2, y3], d12 + d23 is
    at least g13 + P[k2, k3] for k1 <= k2 <= k3, g13 + P[k2, k2] + 2 g32 for
    k2 > k3, and its value at k2 = k1 for k2 < k1 (same phis, larger gaps).
    Q, the least of these, passes the check where D - Q <= tol.  P's tiles
    skip the columns left of their first row; its mirror fills them in.

    Rounding: all terms are >= 0, so each rounding moves a sum by at most
    u = 2^-53 of it.  The sample entries (two), the check's sum (one), Q's
    sums (three) and this test (two) move the comparison by at most
    8u (D + Q); the gap identity, on rounded gaps and as
    (P + 2 h[k2]) - 2 h[k3], by at most 4u max h.  eps = 2^-46 (D + Q +
    4 max h) covers both with room.  An inf (Q or eps) fails
    D - Q + eps <= tol, and the sample falls back to validate_metric.
    """
    k, n = phis.shape[:2]
    if not ((np.diagonal(ydist) == 0).all() and np.isfinite(phis).all()
            and np.array_equal(d, d.T) and np.count_nonzero(d > 0) == d.size - len(d)):
        return False
    stack = phis.reshape(k * n, n)  # row (a, y1) is phis[a][y1]
    p = np.full((k * n, k * n), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, c0, m in _min_plus_tiles(stack, np.ascontiguousarray(stack.T), np.inf, True):
            p[lo:hi, c0:] = m
        p = np.fmin(p, p.T).reshape(k, n, k, n)  # [k2, y1, k3, y3]
        level = np.arange(k)
        upper = (level[:, None] <= level)[:, None, :, None]
        between = np.where(upper, p, np.inf)
        lift = 2.0 * h[:, None, None]
        above = p[level, :, level] + lift  # [k2, y1, y3]
        for a in range(k - 2, -1, -1):  # minima over k2 >= a
            np.minimum(between[a], between[a + 1], out=between[a])
            np.minimum(above[a], above[a + 1], out=above[a])
        gaps = np.abs(np.subtract.outer(h, h))[:, None, :, None]
        q = gaps + np.minimum(between, (above - lift).transpose(1, 0, 2))  # [k1, y1, k3, y3]
        q = np.where(upper, q, q.transpose(2, 3, 0, 1)).reshape(k * n, k * n)  # k1 > k3: the mirror
        return bool((d - q + 2.0**-46 * (d + q + 4.0 * h[-1]) <= tol).all())


def theta_embedding(
    rho: RhoFunction, y: FiniteMetricSpace, t: float
) -> tuple[MetricFamily, MetricFamily, FamilyMap]:
    """The height-t slice map y -> (y, t) into a cone sample, as a family
    map ready for envelope analysis.  (1 / max(rho(t), 1))-Lipschitz."""
    if t < 0:
        raise PreconditionError("slice height must be >= 0")
    sample = cone_sample(rho, y, (t,))
    src = MetricFamily(y.id, (y,))
    tgt = MetricFamily(sample.id, (sample,))
    fmap = FamilyMap(src.id, tgt.id, (MapFunction(y.id, sample.id, tuple(range(y.n))),))
    return src, tgt, fmap


def rho_from_control(env: MonotoneEnvelope) -> RhoFunction:
    """The cone parameter rho(t) = max(env(3t + 2), 1), represented exactly
    as a step function in t."""
    breaks: list[tuple[float, float]] = [(0.0, max(env(2.0), 1.0))]
    for s, v in env.breakpoints:
        if s > 2.0:
            breaks.append(((s - 2.0) / 3.0, max(v, 1.0)))
    return RhoFunction.step(tuple(breaks))


@dataclass(frozen=True)
class ConeExtension:
    """Extension of a partial map along nearest-point projection: the full
    map sends x to (f(p(x)), d(x, X0)) in the cone over the target."""

    rho: RhoFunction
    sample: FiniteMetricSpace
    heights: tuple[float, ...]
    nearest: tuple[int, ...]
    full_map: FamilyMap
    source_family: MetricFamily
    target_family: MetricFamily
    part_space: FiniteMetricSpace
    part_family: MetricFamily
    restricted_map: FamilyMap
    slice_of_partial: FamilyMap


def cone_extension(
    space: FiniteMetricSpace,
    x0: PointSubset,
    f_assignment,
    y: FiniteMetricSpace,
    rho_prime: MonotoneEnvelope,
) -> ConeExtension:
    """Extend f: X0 -> Y to all of X via x -> (f(p(x)), d(x, X0)) with p(x)
    a nearest point of X0 (ties to the lowest index) and cone parameter
    rho(t) = max(rho'(3t + 2), 1).

    Guarantees, checked by the test suite: the restriction to X0 is within
    closeness 1 of the height-0 slice of f, and the cone distance between
    images is at most d(x, x') + rho(d(x, x')).
    """
    x0.check_against(space)
    f_assignment = tuple(int(i) for i in f_assignment)
    if len(f_assignment) != len(x0.indices):
        raise StructuralError("partial map must be total on X0")
    if any(i < 0 or i >= y.n for i in f_assignment):
        raise StructuralError("partial map has image indices outside the target")
    rho = rho_from_control(rho_prime)
    dist, nearest = nearest_points(space, x0)
    heights = dist.tolist()
    height_set = sorted(set(heights) | {0.0})
    sample = cone_sample(rho, y, height_set, sample_id=f"C({y.id})|ext({space.id})")
    levels = np.array(height_set)  # (y_j, h) is point k |Y| + j of the sample, h the k-th level
    f = np.array(f_assignment, dtype=np.intp)
    targets = np.searchsorted(levels, dist) * y.n + f[np.searchsorted(x0.indices, nearest)]
    assignment = tuple(targets.tolist())
    src = MetricFamily(space.id, (space,))
    tgt = MetricFamily(sample.id, (sample,))
    full_map = FamilyMap(src.id, tgt.id, (MapFunction(space.id, sample.id, assignment),))
    part = space.subspace(x0, f"{space.id}|X0")
    part_family = MetricFamily(part.id, (part,))

    def part_map(images):
        return FamilyMap(part_family.id, tgt.id, (MapFunction(part.id, sample.id, tuple(images.tolist())),))

    restricted = part_map(targets[list(x0.indices)])
    slice_map = part_map(np.searchsorted(levels, 0.0) * y.n + f)
    return ConeExtension(
        rho=rho,
        sample=sample,
        heights=tuple(heights),
        nearest=tuple(nearest.tolist()),
        full_map=full_map,
        source_family=src,
        target_family=tgt,
        part_space=part,
        part_family=part_family,
        restricted_map=restricted,
        slice_of_partial=slice_map,
    )
