"""The parametrized cone over a finite metric space: height-distortion
functions, cone distances, the chain-graph oracle, height-slice embeddings,
and the extension of a partial map into the cone.

The cone over Y is Y x [0, inf) with distance

    d((y,t), (y',t')) = phi_max(t,t')(d_Y(y, y')) + |t - t'|,

where phi_t(r) = inf over u >= 0 of 2u + r / max(rho(u + t), 1) for a
non-decreasing parameter function rho.  Cone spaces are never materialized
except as finite samples over an explicit height set; the distance is the
primitive.

The infimum is a bounded line search: outside [0, r / (2 max(rho(t), 1))]
the 2u term alone already exceeds the value at u = 0.  Between breakpoints
of a step or tabulated rho the objective is linear and increasing, so exact
evaluation at in-range breakpoints is exact there; smooth pieces (affine
above the max floor, exponential) are convex and handled by golden-section
refined to absolute tolerance 1e-9 in u.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, StructuralError
from .maps import FamilyMap, MapFunction, MonotoneEnvelope
from .metric import FiniteMetricSpace, MetricFamily, PointSubset, validate_metric
from .report import fmt_num

U_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RhoFunction:
    """A non-decreasing, non-negative function on [0, inf) from a closed
    family: constant, affine M s + L, exponential e^s, finite step table, or
    tabulated monotone data (step semantics, constant below the first entry
    and beyond the last)."""

    kind: str
    params: tuple[float, ...] = ()
    breaks: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        object.__setattr__(
            self, "breaks", tuple((float(s), float(v)) for s, v in self.breaks)
        )
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
            out = self.params[0] * a + self.params[1]
        elif self.kind == "exp":
            with np.errstate(over="ignore"):
                out = np.exp(a)  # inf beyond float range is the right limit here
        else:
            ss = np.array([b for b, _ in self.breaks])
            vs = np.array([v for _, v in self.breaks])
            idx = np.clip(np.searchsorted(ss, a, side="right") - 1, 0, len(ss) - 1)
            out = vs[idx]
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


def _phi_arrays(rho: RhoFunction, t: np.ndarray, r: np.ndarray, u_tol: float):
    """Vectorized infimum with argmin tracking.  t, r broadcast together."""
    t, r = np.broadcast_arrays(t.astype(np.float64), r.astype(np.float64))
    t = t.copy()
    r = r.copy()
    if (t < 0).any() or (r < 0).any():
        raise PreconditionError("phi needs t >= 0 and r >= 0")
    m_t = np.maximum(rho(t), 1.0)
    hi = r / (2.0 * m_t)

    def g(u):
        return 2.0 * u + r / np.maximum(rho(u + t), 1.0)

    best = r / m_t  # u = 0
    arg = np.zeros_like(best)

    def consider(u):
        nonlocal best, arg
        u = np.clip(u, 0.0, hi)
        val = g(u)
        better = val < best
        best = np.where(better, val, best)
        arg = np.where(better, u, arg)

    consider(hi)
    if rho.kind in ("step", "table"):
        for s, _ in rho.breaks:
            consider(s - t)
        return best, arg
    if rho.kind == "const":
        return best, arg

    if rho.kind == "affine":
        slope, offset = rho.params
        if slope == 0.0:
            return best, arg
        crossing = max(0.0, (1.0 - offset) / slope)
        lo = np.clip(crossing - t, 0.0, hi)
        consider(lo)
    else:  # exp: rho(u + t) = e^{u+t} >= 1 on the whole range
        lo = np.zeros_like(hi)

    a = lo.copy()
    b = hi.copy()
    width = float(np.max(b - a, initial=0.0))
    if width > 0.0:
        iters = max(40, min(220, int(math.log(max(width / u_tol, 1.0)) / math.log(1.0 / _INVPHI)) + 4))
        for _ in range(iters):
            span = b - a
            m1 = a + (1.0 - _INVPHI) * span
            m2 = a + _INVPHI * span
            f1 = g(m1)
            f2 = g(m2)
            keep_left = f1 <= f2
            b = np.where(keep_left, m2, b)
            a = np.where(keep_left, a, m1)
        consider((a + b) / 2.0)
        consider(a)
        consider(b)
    return best, arg


def phi_with_argmin(rho: RhoFunction, t, r, u_tol: float = U_TOL):
    scalar = np.isscalar(t) and np.isscalar(r)
    val, arg = _phi_arrays(rho, np.asarray(t), np.asarray(r), u_tol)
    if scalar:
        return float(val), float(arg)
    return val, arg


def phi(rho: RhoFunction, t, r, u_tol: float = U_TOL):
    """Numeric infimum of 2u + r / max(rho(u + t), 1) over u >= 0.

    Within 1e-7 of the true infimum for the supported rho family.  Accepts
    scalars or broadcastable arrays.
    """
    return phi_with_argmin(rho, t, r, u_tol)[0]


def phi_closed_exp(t, r):
    """The exact two-branch value for rho(s) = e^s:

        e^{-t} r                    for 0 <= r < 2 e^t,
        2 (ln(r/2) - t) + 2         for r >= 2 e^t.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    r_arr = np.asarray(r, dtype=np.float64)
    if (t_arr < 0).any() or (r_arr < 0).any():
        raise PreconditionError("phi needs t >= 0 and r >= 0")
    t_b, r_b = np.broadcast_arrays(t_arr, r_arr)
    linear = np.exp(-t_b) * r_b
    with np.errstate(divide="ignore"):
        log_branch = 2.0 * (np.log(np.maximum(r_b, 1e-300) / 2.0) - t_b) + 2.0
    out = np.where(r_b < 2.0 * np.exp(t_b), linear, log_branch)
    if np.isscalar(t) and np.isscalar(r):
        return float(out)
    return out


def cone_distance(rho: RhoFunction, y: FiniteMetricSpace, a: ConePoint, b: ConePoint) -> float:
    """phi at the larger height of the base distance, plus the height gap.
    Uses the closed form when rho is exponential."""
    if not (0 <= a.base < y.n and 0 <= b.base < y.n):
        raise StructuralError(f"cone point outside {y.id!r}")
    tmax = max(a.height, b.height)
    d_base = float(y.dist[a.base, b.base])
    if rho.kind == "exp":
        horizontal = phi_closed_exp(tmax, d_base)
    else:
        horizontal = phi(rho, tmax, d_base)
    return float(horizontal) + abs(a.height - b.height)


def minimizer_height(rho: RhoFunction, a: ConePoint, b: ConePoint, d_base: float) -> float:
    """Height max(t, t') + u* where u* attains the numeric phi infimum."""
    tmax = max(a.height, b.height)
    _, u = phi_with_argmin(rho, tmax, d_base)
    return tmax + u


def _link_weight(rho: RhoFunction, y: FiniteMetricSpace, p: tuple[int, float], q: tuple[int, float]) -> float:
    tmax = max(p[1], q[1])
    return abs(p[1] - q[1]) + float(y.dist[p[0], q[0]]) / max(float(rho(tmax)), 1.0)


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
    """
    heights = sorted({float(h) for h in waypoint_heights})
    if any(h < 0 for h in heights):
        raise PreconditionError("waypoint heights must be >= 0")
    nodes: list[tuple[int, float]] = [(i, h) for h in heights for i in range(y.n)]
    start = (a.base, float(a.height))
    goal = (b.base, float(b.height))
    for extra in (start, goal):
        if extra not in nodes:
            nodes.append(extra)
    idx = {node: k for k, node in enumerate(nodes)}
    dist = [math.inf] * len(nodes)
    dist[idx[start]] = 0.0
    done = [False] * len(nodes)
    heap = [(0.0, idx[start])]
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == idx[goal]:
            break
        for v, node in enumerate(nodes):
            if done[v]:
                continue
            w = du + _link_weight(rho, y, nodes[u], node)
            if w < dist[v]:
                dist[v] = w
                heapq.heappush(heap, (w, v))
    return dist[idx[goal]]


def cone_sample(
    rho: RhoFunction, y: FiniteMetricSpace, heights, sample_id: str | None = None
) -> FiniteMetricSpace:
    """The finite subspace Y x {given heights} of the cone, ordered by
    height then base point and labeled ``<point>@<height>``."""
    hs = sorted({float(h) for h in heights})
    if not hs:
        raise PreconditionError("cone sample needs at least one height")
    pts: list[tuple[int, float]] = [(i, h) for h in hs for i in range(y.n)]
    labels = tuple(f"{y.points[i]}@{fmt_num(h)}" for i, h in pts)
    m = len(pts)
    d = np.zeros((m, m), dtype=np.float64)
    t_of = np.array([h for _, h in pts])
    base_of = np.array([i for i, _ in pts], dtype=int)
    tmax = np.maximum.outer(t_of, t_of)
    d_base = y.dist[np.ix_(base_of, base_of)]
    if rho.kind == "exp":
        horizontal = phi_closed_exp(tmax, d_base)
    else:
        horizontal = phi(rho, tmax, d_base)
    d = horizontal + np.abs(np.subtract.outer(t_of, t_of))
    np.fill_diagonal(d, 0.0)
    space = FiniteMetricSpace(sample_id or f"C({y.id})", labels, d)
    report = validate_metric(space, tol=1e-7)
    if not report.ok:
        raise StructuralError(
            f"cone sample failed validation: {report.violations[0].detail}"
        )
    return space


def sample_index(y: FiniteMetricSpace, heights, base: int, height: float) -> int:
    hs = sorted({float(h) for h in heights})
    return hs.index(float(height)) * y.n + base


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
    x0_list = list(x0.indices)
    image_of = dict(zip(x0_list, f_assignment))
    nearest = []
    heights = []
    for i in range(space.n):
        dists = [space.dist[i, j] for j in x0_list]
        h = min(dists)
        nearest.append(x0_list[dists.index(h)])  # first minimum: lowest index
        heights.append(float(h))
    height_set = sorted(set(heights) | {0.0})
    sample = cone_sample(rho, y, height_set, sample_id=f"C({y.id})|ext({space.id})")
    assignment = tuple(
        sample_index(y, height_set, image_of[nearest[i]], heights[i])
        for i in range(space.n)
    )
    src = MetricFamily(space.id, (space,))
    tgt = MetricFamily(sample.id, (sample,))
    full_map = FamilyMap(src.id, tgt.id, (MapFunction(space.id, sample.id, assignment),))
    part = space.subspace(x0.indices, f"{space.id}|X0")
    part_family = MetricFamily(part.id, (part,))
    restricted = FamilyMap(
        part_family.id,
        tgt.id,
        (
            MapFunction(
                part.id,
                sample.id,
                tuple(assignment[i] for i in x0_list),
            ),
        ),
    )
    slice_map = FamilyMap(
        part_family.id,
        tgt.id,
        (
            MapFunction(
                part.id,
                sample.id,
                tuple(
                    sample_index(y, height_set, image_of[i], 0.0) for i in x0_list
                ),
            ),
        ),
    )
    return ConeExtension(
        rho=rho,
        sample=sample,
        heights=tuple(heights),
        nearest=tuple(nearest),
        full_map=full_map,
        source_family=src,
        target_family=tgt,
        part_space=part,
        part_family=part_family,
        restricted_map=restricted,
        slice_of_partial=slice_map,
    )
