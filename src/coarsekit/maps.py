"""Maps of metric families and the finite-scale estimation of their coarse
properties: control envelopes, properness envelopes, closeness constants,
coarse surjectivity, and preimage families.

Envelopes are step functions supported on realized distances only.
Evaluation between breakpoints returns the value at the next lower
breakpoint.  Effective properness is reported, never certified: finite data
only bounds the lower envelope up to the largest realized distance.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, StructuralError
from .metric import MetricFamily, PointSubset, nearest_points


@dataclass(frozen=True)
class MapFunction:
    """One function of a family map: a total point assignment between members."""

    source_member: str
    target_member: str
    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(i) for i in self.assignment))


@dataclass(frozen=True)
class FamilyMap:
    source: str
    target: str
    functions: tuple[MapFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))


def validate_map(fmap: FamilyMap, src: MetricFamily, tgt: MetricFamily) -> None:
    """Every source member must be the domain of at least one function and
    every assignment must be total with in-range image indices."""
    if fmap.source != src.id:
        raise StructuralError(f"map source {fmap.source!r} is not family {src.id!r}")
    if fmap.target != tgt.id:
        raise StructuralError(f"map target {fmap.target!r} is not family {tgt.id!r}")
    covered = set()
    for fn in fmap.functions:
        s = src.member(fn.source_member)
        t = tgt.member(fn.target_member)
        if len(fn.assignment) != s.n:
            raise StructuralError(
                f"function {fn.source_member!r} -> {fn.target_member!r} is not total "
                f"({len(fn.assignment)} values for {s.n} points)"
            )
        if any(i < 0 or i >= t.n for i in fn.assignment):
            raise StructuralError(
                f"function {fn.source_member!r} -> {fn.target_member!r} has an image "
                f"index outside {t.id!r}"
            )
        covered.add(fn.source_member)
    missing = [m for m in src.member_ids() if m not in covered]
    if missing:
        raise StructuralError(f"source member(s) {missing} are the domain of no function")


@dataclass(frozen=True)
class MonotoneEnvelope:
    """Non-decreasing step function on [0, inf) given by (s, value) breakpoints."""

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(s), float(v)) for s, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        ss = [s for s, _ in bps]
        vs = [v for _, v in bps]
        if any(s < 0 for s in ss):
            raise StructuralError("envelope breakpoints must have s >= 0")
        if ss != sorted(ss) or len(set(ss)) != len(ss):
            raise StructuralError("envelope breakpoints must be strictly increasing in s")
        if any(vs[i] > vs[i + 1] for i in range(len(vs) - 1)):
            raise StructuralError("envelope values must be non-decreasing")

    def __call__(self, s: float) -> float:
        """Value at the greatest breakpoint <= s; 0 below the first."""
        ss = [b for b, _ in self.breakpoints]
        k = bisect.bisect_right(ss, s) - 1
        if k < 0:
            return 0.0
        return self.breakpoints[k][1]

    @property
    def max_scale(self) -> float:
        return self.breakpoints[-1][0] if self.breakpoints else 0.0


def _envelope_steps(
    fmap: FamilyMap, src: MetricFamily, tgt: MetricFamily, reduce: np.ufunc
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct realized source distances, ascending, and ``reduce``
    (``np.maximum`` or ``np.minimum``) of the image distances realized at
    each, over all functions and pairs i <= j.  The stable sort keeps the
    first-listed of equal distances, such as 0.0 and -0.0."""
    validate_map(fmap, src, tgt)
    ds, dt = [], []
    for fn in fmap.functions:
        s = src.member(fn.source_member)
        a = np.array(fn.assignment, dtype=int)
        i, j = np.triu_indices(s.n)
        ds.append(s.dist[i, j])
        dt.append(tgt.member(fn.target_member).dist[a[i], a[j]])
    ds, dt = np.concatenate(ds), np.concatenate(dt)
    order = np.argsort(ds, kind="stable")
    steps, starts = np.unique(ds[order], return_index=True)
    return steps, reduce.reduceat(dt[order], starts)


def control_envelope(fmap: FamilyMap, src: MetricFamily, tgt: MetricFamily) -> MonotoneEnvelope:
    """Pointwise-smallest non-decreasing step function rho with
    d(f x, f y) <= rho(d(x, y)) across all functions of the map.

    Computed as the running maximum, floored at 0, of the per-distance
    maxima of image distances ordered by source distance.
    """
    steps, top = _envelope_steps(fmap, src, tgt, np.maximum)
    running = np.maximum.accumulate(np.maximum(top, 0.0))
    return MonotoneEnvelope(tuple(zip(steps.tolist(), running.tolist())))


def properness_envelope(fmap: FamilyMap, src: MetricFamily, tgt: MetricFamily) -> MonotoneEnvelope:
    """Pointwise-largest non-decreasing step function delta with
    delta(d(x, y)) <= d(f x, f y) on all realized pairs.

    Computed as the reverse running minimum of per-distance minima.
    """
    steps, low = _envelope_steps(fmap, src, tgt, np.minimum)
    suffix_min = np.minimum.accumulate(low[::-1])[::-1]
    return MonotoneEnvelope(tuple(zip(steps.tolist(), suffix_min.tolist())))


def looks_non_proper(env: MonotoneEnvelope) -> bool:
    """Flag a lower envelope that is constant over the top half of the
    realized distances: finite data consistent with a non-proper map."""
    if not env.breakpoints:
        return True
    top = env.max_scale
    return env(top) == env(top / 2.0)


def closeness_constant(
    map_a: FamilyMap, map_b: FamilyMap, src: MetricFamily, tgt: MetricFamily
) -> float:
    """Smallest C realizing the two-sided matching: every function of one map
    has a counterpart in the other with the same domain and codomain within
    sup-distance C, in both directions."""
    if map_a.source != map_b.source or map_a.target != map_b.target:
        raise PreconditionError("closeness needs maps with a common source and target family")
    validate_map(map_a, src, tgt)
    validate_map(map_b, src, tgt)

    def one_side(first: FamilyMap, second: FamilyMap) -> float:
        worst = 0.0
        for f in first.functions:
            mates = [
                h
                for h in second.functions
                if h.source_member == f.source_member and h.target_member == f.target_member
            ]
            if not mates:
                raise PreconditionError(
                    f"no counterpart for {f.source_member!r} -> {f.target_member!r}"
                )
            t = tgt.member(f.target_member)
            fa = np.array(f.assignment, dtype=int)
            best = math.inf
            for h in mates:
                ha = np.array(h.assignment, dtype=int)
                best = min(best, float(t.dist[fa, ha].max()) if len(fa) else 0.0)
            worst = max(worst, best)
        return worst

    return max(one_side(map_a, map_b), one_side(map_b, map_a))


def is_coarsely_onto(
    fmap: FamilyMap, src: MetricFamily, tgt: MetricFamily
) -> tuple[bool, float]:
    """(every target member is the range of some function, least C such that
    every point of each function's codomain is within C of that function's
    image).  C is the inf sentinel when some member is hit by no function,
    and NaN when a point's distance to an image is NaN."""
    validate_map(fmap, src, tgt)
    hit = {fn.target_member for fn in fmap.functions}
    all_hit = all(m in hit for m in tgt.member_ids())
    if not all_hit:
        return False, math.inf
    c = 0.0
    for fn in fmap.functions:  # np.maximum, unlike max, keeps a NaN
        t = tgt.member(fn.target_member)
        c = np.maximum(c, nearest_points(t, PointSubset(t.id, set(fn.assignment)))[0].max())  # the image
    return True, float(c)


def preimage_family(
    fmap: FamilyMap,
    src: MetricFamily,
    tgt: MetricFamily,
    subsets: list[PointSubset],
) -> tuple[PointSubset, ...]:
    """All inverse images f^{-1}(A) over functions f and target subsets A,
    de-duplicated, with empty inverse images dropped."""
    validate_map(fmap, src, tgt)
    for a in subsets:
        a.check_against(tgt.member(a.space_id), allow_empty=True)
    seen = set()
    out: list[PointSubset] = []
    member_order = {m: k for k, m in enumerate(src.member_ids())}
    for fn in fmap.functions:
        for a in subsets:
            if a.space_id != fn.target_member:
                continue
            want = set(a.indices)
            idx = tuple(i for i, img in enumerate(fn.assignment) if img in want)
            if not idx:
                continue
            key = (fn.source_member, idx)
            if key in seen:
                continue
            seen.add(key)
            out.append(PointSubset(fn.source_member, idx))
    out.sort(key=lambda ps: (member_order[ps.space_id], ps.indices))
    return tuple(out)


def compose(map_f: FamilyMap, map_g: FamilyMap) -> FamilyMap:
    """g . f over all pairs where the codomain member of f is the domain
    member of g."""
    fns = []
    for f in map_f.functions:
        for g in map_g.functions:
            if g.source_member == f.target_member:
                fns.append(
                    MapFunction(
                        f.source_member,
                        g.target_member,
                        tuple(g.assignment[i] for i in f.assignment),
                    )
                )
    return FamilyMap(map_f.source, map_g.target, tuple(fns))
