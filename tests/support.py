"""Shared fixtures and independent oracles for the test suite.

Random spaces are built from integer-coordinate point sets so that every
stored distance is an exact float64 integer: triangle inequalities, set
distances and quotient minima then compare exactly, with no rounding slack.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import re
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

import coarsekit

from coarsekit.cone import cone_sample, phi, rho_from_control
from coarsekit.covers import (
    ANControlCertificate, ANEntry, AsdimCertificate, AsdimEntry, Cover, greedy_color, validate_cover,
)
from coarsekit.decomposition import (
    DecompositionCertificate, FiberingWitness, MemberDecomposition, ball_preimage_family, piece_family,
)
from coarsekit.errors import ParseError, PreconditionError, StructuralError
from coarsekit.generators import _clipped_interval, integer_grid, path_decomposition, unit_path
from coarsekit.maps import FamilyMap, MapFunction, MonotoneEnvelope, validate_map
from coarsekit.metric import (
    FiniteMetricSpace,
    GroupAction,
    MetricFamily,
    PointSubset,
    ValidationReport,
    Violation,
    validate_metric,
)
from coarsekit.phisuite import (
    DECAY_T_LIMIT,
    DECAY_TARGET,
    GROWTH_BOUND,
    GROWTH_EXPONENTS,
    INVERSE_TOL,
    STRICT_GAP,
    _margin_item,
    standard_rho_family,
)
from coarsekit.report import CheckItem, Verdict, fmt_num, verdict


def line_space(values, space_id="line", labels=None):
    arr = np.asarray(values, dtype=np.float64)
    d = np.abs(np.subtract.outer(arr, arr))
    labels = labels or tuple(str(v) for v in values)
    return FiniteMetricSpace(space_id, tuple(labels), d)


def space_from_matrix(rows, space_id="X", labels=None, pseudo=False):
    d = np.asarray(rows, dtype=np.float64)
    labels = labels or tuple(chr(ord("a") + i) for i in range(d.shape[0]))
    return FiniteMetricSpace(space_id, tuple(labels), d, pseudo=pseudo)


def integer_points_space(rng, n, dim=2, coord_range=20, metric="l1", space_id="X"):
    """Random integer point cloud with the l^1 or l^inf metric: exact and
    always a valid (pseudo-free after dedup) metric space."""
    if n > coord_range ** dim:
        raise ValueError(
            f"{n} distinct points asked of a box that holds {coord_range ** dim}"
        )
    seen = set()
    pts = []
    while len(pts) < n:
        candidate = tuple(int(v) for v in rng.integers(0, coord_range, size=dim))
        if candidate not in seen:
            seen.add(candidate)
            pts.append(candidate)
    a = np.array(pts, dtype=np.float64)
    diffs = np.abs(a[:, None, :] - a[None, :, :])
    d = diffs.sum(axis=2) if metric == "l1" else diffs.max(axis=2)
    labels = tuple("p" + "_".join(str(int(c)) for c in p) for p in pts)
    return FiniteMetricSpace(space_id, labels, d)


def random_symmetric_matrix(rng, n, high=100):
    """Symmetric, zero-diagonal, non-negative integer matrix; not
    necessarily a metric.  Component structure tests only compare d <= r."""
    m = rng.integers(1, high, size=(n, n)).astype(np.float64)
    m = np.triu(m, k=1)
    m = m + m.T
    return m


def cyclic_isometric_action(rng, base: FiniteMetricSpace, order: int):
    """A Z/order action: a permutation built from disjoint order-cycles,
    acting on the orbit-sum symmetrization of the base space.

    The symmetrized distance sum_g d(gx, gy) is an exact integer for integer
    bases, so invariance holds exactly.
    """
    n = base.n
    perm = list(range(n))
    indices = list(rng.permutation(n))
    while len(indices) >= order:
        cycle = indices[:order]
        indices = indices[order:]
        for k in range(order):
            perm[cycle[k]] = cycle[(k + 1) % order]
    powers = [tuple(range(n))]
    for _ in range(order - 1):
        prev = powers[-1]
        powers.append(tuple(perm[prev[i]] for i in range(n)))
    d = np.zeros((n, n))
    for p in powers:
        sel = np.array(p, dtype=int)
        d += base.dist[np.ix_(sel, sel)]
    sym = FiniteMetricSpace(base.id + "|sym", base.points, d)
    elements = tuple("e" if k == 0 else f"g{k}" for k in range(order))
    compose = tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
    action = GroupAction(sym.id, elements, tuple(powers), compose)
    return sym, action


def l1_points_space(points, space_id="X"):
    """The given integer points of the plane under the l^1 metric, labelled
    ``p0, p1, ...`` in the given order."""
    a = np.array(points, dtype=np.float64)
    d = np.abs(a[:, None, :] - a[None, :, :]).sum(axis=2)
    return FiniteMetricSpace(space_id, tuple(f"p{i}" for i in range(len(a))), d)


# at r = 3, n = 1, bound 1 the first feasible coloring is 0 0 1 1 0 1 0
SEVEN_POINT_L1 = ((4, 4), (0, 3), (0, 5), (1, 0), (4, 3), (3, 3), (2, 1))
# at r = 3, n = 2, bound 1 the first feasible coloring is 0 0 1 2 1 0 0 2
EIGHT_POINT_L1 = ((1, 3), (3, 0), (0, 2), (4, 2), (3, 4), (3, 1), (1, 4), (0, 4))
# 14 points of the 4x4 grid with no (2, 2, 1)-decomposition (r, n, bound)
GRID14_L1 = ((0, 0), (3, 0), (3, 3), (1, 0), (1, 3), (0, 3), (2, 0), (0, 2),
             (2, 3), (3, 1), (1, 1), (3, 2), (2, 2), (2, 1))


def family_of(*spaces, family_id="fam"):
    return MetricFamily(family_id, tuple(spaces))


def path_tower(family: MetricFamily, r: int, stages: int = 2) -> DecompositionCertificate:
    """A one- or two-stage decomposition certificate over a family of
    integer paths: each member in ``path_decomposition``'s alternating
    blocks of r + 1 points, then, at a second stage, each of those pieces
    whole in the one color of n = 0.  Every leaf bound is r."""
    members = tuple(path_decomposition(m, r).members[0] for m in family.members)
    top = DecompositionCertificate(family.id, float(r), 1, members, leaf_bound=float(r))
    if stages == 1:
        return top
    pieces = piece_family(top, family)
    whole = tuple(MemberDecomposition(m.id, ((PointSubset(m.id, range(m.n)),),)) for m in pieces.members)
    child = DecompositionCertificate(pieces.id, float(r), 0, whole, leaf_bound=float(r))
    return DecompositionCertificate(family.id, float(r), 1, members, child=child)


def subset(space, labels):
    return PointSubset(space.id, tuple(space.index(l) for l in labels))


# independent oracles


def brute_quotient_distance(space, action, orbit_a, orbit_b):
    """min over representatives and group elements, fully enumerated."""
    best = np.inf
    for x in orbit_a:
        for y in orbit_b:
            for p in action.perms:
                best = min(best, space.dist[x, p[y]])
    return best


def brute_lebesgue(cover_sets, space):
    """Largest lambda among realized distances (or inf) such that every open
    lambda-ball is inside some cover element, checked by direct simulation."""
    n = space.n
    sets = [set(s) for s in cover_sets]
    candidates = sorted({float(v) for v in space.dist.ravel() if v > 0})

    def ok(lam):
        for x in range(n):
            b = {y for y in range(n) if space.dist[x, y] < lam}
            if not any(b <= s for s in sets):
                return False
        return True

    if any(len(s) == n for s in sets):
        return np.inf
    best = 0.0
    for lam in candidates:
        if ok(lam):
            best = lam
    return best


@lru_cache(maxsize=None)
def _chain_position_arrays(n_others: int, size: int):
    perms = list(itertools.permutations(range(n_others), size))
    return np.array(perms, dtype=int).reshape(len(perms), size)


def brute_minimax(space):
    """All-chains minimax: minimum over every injective chain of the largest
    hop, floored at 1 off the diagonal."""
    n = space.n
    d = space.dist
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            others = np.array([k for k in range(n) if k not in (i, j)], dtype=int)
            best = float(d[i, j])
            for size in range(1, len(others) + 1):
                pos = _chain_position_arrays(len(others), size)
                seq = others[pos]
                cnt = seq.shape[0]
                full = np.concatenate(
                    [np.full((cnt, 1), i), seq, np.full((cnt, 1), j)], axis=1
                )
                hops = d[full[:, :-1], full[:, 1:]].max(axis=1)
                best = min(best, float(hops.min()))
            out[i, j] = out[j, i] = max(1.0, best)
    return out


def closure_blocks(dist, r):
    """Components of d <= r by matrix squaring (transitive closure)."""
    a = (np.asarray(dist) <= r)
    np.fill_diagonal(a, True)
    cur = a.astype(np.float32)
    while True:
        nxt = ((cur @ cur) > 0).astype(np.float32)
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    a = cur > 0
    reps = a.argmax(axis=1)  # first reachable index = canonical representative
    blocks = {}
    for i, rep in enumerate(reps):
        blocks.setdefault(int(rep), []).append(i)
    return tuple(tuple(blocks[k]) for k in sorted(blocks))


def brute_force_decomposable(space, r, n, leaf_bound):
    """Independent existence oracle: dynamic programming over point subsets.

    A subset is a feasible color class iff all of its d <= r components have
    diameter <= leaf_bound; the space decomposes iff the full set splits into
    at most n+1 feasible classes.  Subsets are bitmasks: a component is grown
    from its lowest point through the d <= r neighbour masks, and it is
    feasible iff no member has a point farther than leaf_bound in it.
    """
    npts = space.n
    if npts == 0:
        return True
    d = space.dist.tolist()
    near = [sum(1 << j for j in range(npts) if d[i][j] <= r) for i in range(npts)]
    far = [
        sum(1 << j for j in range(npts) if j != i and d[i][j] > leaf_bound)
        for i in range(npts)
    ]

    def feasible_class(mask):
        rest = mask
        while rest:
            block = reach = 0
            todo = rest & -rest
            while todo:
                low = todo & -todo
                i = low.bit_length() - 1
                block |= low
                reach |= far[i]
                todo = (todo | near[i] & mask) & ~block
            if reach & block:
                return False
            rest &= ~block
        return True

    full = (1 << npts) - 1
    feasible = [True] + [feasible_class(mask) for mask in range(1, full + 1)]
    reachable = {0}
    for _ in range(n + 1):
        nxt = set()
        for covered in reachable:
            if covered == full:
                return True
            rest = full & ~covered
            sub = rest
            while sub:
                if feasible[sub]:
                    nxt.add(covered | sub)
                sub = (sub - 1) & rest
        reachable = nxt
        if full in reachable:
            return True
    return full in reachable


def brute_first_coloring(space, r, n, leaf_bound):
    """The lexicographically first feasible coloring (point i gets color
    ``coloring[i]`` in 0..n), or None: every coloring in
    ``itertools.product`` order, each color class split into its d <= r
    components by a plain flood and checked pair by pair."""
    d = space.dist
    for coloring in itertools.product(range(n + 1), repeat=space.n):
        feasible = True
        for c in range(n + 1):
            left = {i for i in range(space.n) if coloring[i] == c}
            while left and feasible:
                comp, todo = set(), [min(left)]
                while todo:
                    i = todo.pop()
                    if i in comp:
                        continue
                    comp.add(i)
                    todo.extend(j for j in left if d[i, j] <= r)
                left -= comp
                feasible = all(d[i, j] <= leaf_bound for i in comp for j in comp)
        if feasible:
            return list(coloring)
    return None


def coloring_of(cert, npts):
    """The color of each point of a one-member certificate's member."""
    coloring = [None] * npts
    for color, group in enumerate(cert.members[0].pieces):
        for piece in group:
            for i in piece.indices:
                coloring[i] = color
    return coloring


def path_multiplicity_cover(space: FiniteMetricSpace) -> Cover:
    """Three 1-disjoint colors of length-3 intervals with stride 4 and
    per-color offsets: every point lies in at least two elements."""
    elements, colors = [], []
    for c in range(3):
        k = -1
        while 4 * k + c < space.n:
            el = _clipped_interval(space, 4 * k + c, 4 * k + c + 2)
            if el is not None:
                elements.append(el)
                colors.append(c)
            k += 1
    return Cover(space.id, tuple(elements), tuple(colors))


# The fixture builders as they were written before `generators._blocks`: a
# mutable start and color stepped by hand, each label parsed per scale, ray
# and band.  Each returns what its `generators` namesake must equal.

def looped_path_interval_cover(space: FiniteMetricSpace, scale: int) -> Cover:
    r = int(scale)
    elements = []
    k = -2
    while 2 * r * k < space.n:
        el = _clipped_interval(space, 2 * r * k, 2 * r * k + 4 * r - 1)
        if el is not None and (not elements or el != elements[-1]):
            elements.append(el)
        k += 1
    return Cover(space.id, tuple(elements))


def looped_path_an_certificate(family: MetricFamily, scales) -> ANControlCertificate:
    entries = []
    for scale in scales:
        big_r = int(scale)
        covers = []
        for m in family.members:
            elements, colors = [], []
            start = 0
            color = 0
            while start < m.n:
                el = _clipped_interval(m, start, start + 2 * big_r - 1)
                if el is not None:
                    elements.append(el)
                    colors.append(color)
                start += 2 * big_r
                color ^= 1
            covers.append((m.id, Cover(m.id, tuple(elements), tuple(colors))))
        entries.append(ANEntry(float(big_r), tuple(covers)))
    return ANControlCertificate(family.id, 1, 4.0, 0.0, tuple(entries))


def looped_star_an_certificate(family: MetricFamily, scales) -> ANControlCertificate:
    entries = []
    for scale in scales:
        big_r = int(scale)
        covers = []
        for m in family.members:
            level = {}
            ray = {}
            for idx, lbl in enumerate(m.points):
                if lbl == "c":
                    level[idx] = 0
                    ray[idx] = -1
                else:
                    rid, _, mm = lbl.partition(":")
                    level[idx] = int(mm)
                    ray[idx] = rid
            elements, colors = [], []
            blob = tuple(i for i in range(m.n) if level[i] <= big_r - 1)
            elements.append(PointSubset(m.id, blob))
            colors.append(0)
            rays = sorted({ray[i] for i in range(m.n) if ray[i] != -1})
            max_level = max(level.values())
            for rid in rays:
                k = 1
                while k * big_r <= max_level:
                    seg = tuple(
                        i
                        for i in range(m.n)
                        if ray[i] == rid and k * big_r <= level[i] <= (k + 1) * big_r - 1
                    )
                    if seg:
                        elements.append(PointSubset(m.id, seg))
                        colors.append(k % 2)
                    k += 1
            covers.append((m.id, Cover(m.id, tuple(elements), tuple(colors))))
        entries.append(ANEntry(float(big_r), tuple(covers)))
    return ANControlCertificate(family.id, 1, 3.0, 0.0, tuple(entries))


def looped_path_decomposition(space: FiniteMetricSpace, r: int) -> DecompositionCertificate:
    length = r + 1
    colors: list[list[PointSubset]] = [[], []]
    start = 0
    color = 0
    while start < space.n:
        el = _clipped_interval(space, start, start + length - 1)
        if el is not None:
            colors[color].append(el)
        start += length
        color ^= 1
    return DecompositionCertificate(
        family_id=space.id,
        r=float(r),
        n=1,
        members=(MemberDecomposition(space.id, (tuple(colors[0]), tuple(colors[1]))),),
        leaf_bound=float(r),
    )


def _looped_strip_decomposition(member: FiniteMetricSpace, grid_cols: int, r: int) -> MemberDecomposition:
    length = r + 1
    col_of = {}
    for pos, lbl in enumerate(member.points):
        _, _, j = lbl.partition(",")
        col_of[pos] = int(j)
    colors: list[list[PointSubset]] = [[], []]
    start = 0
    color = 0
    while start < grid_cols:
        band = tuple(p for p in range(member.n) if start <= col_of[p] <= start + length - 1)
        if band:
            colors[color].append(PointSubset(member.id, band))
        start += length
        color ^= 1
    return MemberDecomposition(member.id, (tuple(colors[0]), tuple(colors[1])))


def looped_grid_projection_fixture(n: int = 16, schedule=(1, 2, 4, 8, 15)):
    grid = integer_grid(n, n, "grid")
    src = MetricFamily("grid-fam", (grid,))
    line = unit_path(n, "line")
    tgt = MetricFamily("line-fam", (line,))
    assignment = tuple(k // n for k in range(grid.n))
    fmap = FamilyMap(src.id, tgt.id, (MapFunction(grid.id, line.id, assignment),))
    target_cert = AsdimCertificate(tgt.id, 1, tuple(
        AsdimEntry(float(r), 4.0 * r, ((line.id, looped_path_interval_cover(line, r)),)) for r in (1, 2, 4)))
    inner = []
    for radius in schedule:
        fam = ball_preimage_family(fmap, src, tgt, float(radius))
        members = tuple(_looped_strip_decomposition(m, n, int(radius)) for m in fam.members)
        rows = max(
            (max(int(lbl.partition(",")[0]) for lbl in m.points)
             - min(int(lbl.partition(",")[0]) for lbl in m.points))
            for m in fam.members
        )
        cert = DecompositionCertificate(
            family_id=fam.id,
            r=float(radius),
            n=1,
            members=members,
            leaf_bound=float(radius + rows),
        )
        inner.append((float(radius), cert))
    witness = FiberingWitness(
        fmap=fmap,
        radius_schedule=tuple(float(rr) for rr in schedule),
        inner=tuple(inner),
        target_certificate=target_cert,
    )
    return src, tgt, fmap, witness


def decomposition_to_cover(cert, member: FiniteMetricSpace) -> Cover:
    """All pieces of one member as a colored cover: dimension <= n, mesh
    bounded by the leaf bound when the certificate is a leaf.  The
    certificate must list the member exactly once, and its pieces must
    cover it."""
    entries = [e for e in cert.members if e.member_id == member.id]
    if not entries:
        raise StructuralError(f"certificate has no entry for {member.id!r}")
    if len(entries) > 1:
        raise StructuralError(f"certificate lists member {member.id!r} more than once")
    elements: list[PointSubset] = []
    colors: list[int] = []
    for color, group in enumerate(entries[0].pieces):
        for piece in group:
            elements.append(piece)
            colors.append(color)
    cover = Cover(member.id, tuple(elements), tuple(colors))
    validate_cover(cover, member)
    return cover


def identity_map(family: MetricFamily) -> FamilyMap:
    fns = tuple(MapFunction(m.id, m.id, tuple(range(m.n))) for m in family.members)
    return FamilyMap(family.id, family.id, fns)


def subset_diameter(space: FiniteMetricSpace, a: PointSubset) -> float:
    if not a.indices:
        return 0.0
    sa = np.array(a.indices, dtype=int)
    return float(space.dist[sa[:, None], sa].max())


def looped_best_reach(space: FiniteMetricSpace, elements) -> np.ndarray:
    """Each point's best distance to the complement of an element holding
    it, by one pass over each element: its own rows against an ``outside``
    mask, folded into each point's best with np.maximum in element order."""
    best = np.full(space.n, -math.inf)
    for el in elements:
        idx = list(el.indices)
        outside = np.ones(space.n, dtype=bool)
        outside[idx] = False  # only U's own rows can raise best; inf when U is everything
        best[idx] = np.maximum(best[idx], space.dist[idx][:, outside].min(axis=1, initial=math.inf))
    return best


def looped_cover_stats(cover: Cover, space: FiniteMetricSpace):
    """Multiplicity, Lebesgue number and element diameters, element by
    element."""
    counts = validate_cover(cover, space)
    best = looped_best_reach(space, cover.elements)
    return counts, float(best.min()), [subset_diameter(space, el) for el in cover.elements]


def looped_separation(space, pieces, r):
    """The r-separation rule as a loop over pairs of pieces in combinations
    order: set distances by a full scan (inf for an empty piece), and the
    first pair of non-empty pieces that share a point or lie at distance
    <= r, or None."""
    k = len(pieces)
    dist = np.full((k, k), np.inf)
    for a in range(k):
        for b in range(k):
            for i in pieces[a].indices:
                for j in pieces[b].indices:
                    dist[a, b] = min(dist[a, b], space.dist[i, j])
    for a, b in itertools.combinations(range(k), 2):
        pa, pb = set(pieces[a].indices), set(pieces[b].indices)
        if pa and pb and (pa & pb or dist[a, b] <= r):
            return dist, (a, b)
    return dist, None


def looped_point_to_set_distance(space: FiniteMetricSpace, i: int, a: PointSubset) -> float:
    """d(x_i, A) by ``np.min`` over one row, inf for an empty A: the
    separator's pass before ``metric.nearest_points``."""
    if not a.indices:
        return math.inf
    return float(space.dist[i, np.array(a.indices, dtype=int)].min())


def looped_nearest_point(space: FiniteMetricSpace, i: int, a: PointSubset) -> tuple[float, int]:
    """(d(x_i, A), the first point of A at that distance) by a Python
    ``min`` and ``list.index`` over x_i's distances: the cone extension's
    pass before ``metric.nearest_points``."""
    dists = [space.dist[i, j] for j in a.indices]
    h = min(dists)
    return float(h), a.indices[dists.index(h)]


def looped_neighborhood(space: FiniteMetricSpace, subset: PointSubset, radius: float) -> tuple[int, ...]:
    """The indices of the closed neighborhood by a row minimum over the
    subset's columns."""
    dmin = space.dist[:, np.array(subset.indices, dtype=int)].min(axis=1)
    return tuple(int(i) for i in np.nonzero(dmin <= radius)[0])


def looped_coarse_onto(fmap, src, tgt) -> tuple[bool, float]:
    """``maps.is_coarsely_onto`` with each function's row minima over its
    image columns."""
    validate_map(fmap, src, tgt)
    hit = {fn.target_member for fn in fmap.functions}
    if not all(m in hit for m in tgt.member_ids()):
        return False, math.inf
    c = 0.0
    for fn in fmap.functions:
        t = tgt.member(fn.target_member)
        sel = np.array(sorted(set(fn.assignment)), dtype=int)
        c = np.maximum(c, t.dist[:, sel].min(axis=1).max())
    return True, float(c)


def looped_separator(space: FiniteMetricSpace, x1: PointSubset, x2: PointSubset):
    """The separator's (line, assignment, values) from two single-row
    distances per point and a ``levels.index`` per point."""
    values = tuple(
        looped_point_to_set_distance(space, i, x2) - looped_point_to_set_distance(space, i, x1)
        for i in range(space.n)
    )
    levels = sorted(set(values))
    gaps = np.array([[abs(a - b) if i != j else 0.0 for j, b in enumerate(levels)]
                     for i, a in enumerate(levels)])
    line = FiniteMetricSpace(f"{space.id}|separator-line", tuple(fmt_num(v) for v in levels), gaps)
    return line, tuple(levels.index(v) for v in values), values


def looped_cone_extension(space, x0: PointSubset, f_assignment, y, rho_prime):
    """The cone extension's (heights, nearest, sample, assignment,
    restricted images, height-0 slice images) from one ``looped_nearest_point``
    per point and dicts of heights and images."""
    image_of = dict(zip(x0.indices, f_assignment))
    heights, nearest = zip(*(looped_nearest_point(space, i, x0) for i in range(space.n)))
    height_set = sorted(set(heights) | {0.0})
    sample = cone_sample(rho_from_control(rho_prime), y, height_set,
                         sample_id=f"C({y.id})|ext({space.id})")
    first = {h: k * y.n for k, h in enumerate(height_set)}
    assignment = tuple(first[heights[i]] + image_of[nearest[i]] for i in range(space.n))
    restricted = tuple(assignment[i] for i in x0.indices)
    height_zero = tuple(first[0.0] + image_of[i] for i in x0.indices)
    return heights, nearest, sample, assignment, restricted, height_zero


def numeric_phi(rho, t, r, u_tol=1e-9):
    """The infimum of 2u + r / max(rho(u + t), 1) over u >= 0 by a bounded
    numeric line search, independent of the closed forms in ``cone``.

    Outside [0, r / (2 max(rho(t), 1))] the 2u term alone exceeds the value
    at u = 0.  Step and table rho are evaluated through rho itself where
    u + t reaches an in-range breakpoint; smooth pieces (affine above the max floor,
    exponential) are convex and handled by golden-section search refined to
    ``u_tol`` in u.  Accepts scalars or broadcastable arrays.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    scalar = np.isscalar(t) and np.isscalar(r)
    t, r = np.broadcast_arrays(np.asarray(t, dtype=np.float64), np.asarray(r, dtype=np.float64))
    m_t = np.maximum(rho(t), 1.0)
    hi = r / (2.0 * m_t)

    def g(u):
        return 2.0 * u + r / np.maximum(rho(u + t), 1.0)

    best = r / m_t  # u = 0

    def consider(u):
        nonlocal best
        best = np.fmin(best, g(np.clip(u, 0.0, hi)))

    consider(hi)
    if rho.kind in ("step", "table"):
        for s, _ in rho.breaks:
            # t + (s - t) can round to just below s, where rho is still the
            # previous value: evaluate one ulp higher as well
            consider(s - t)
            consider(np.nextafter(s - t, np.inf))
    elif rho.kind == "exp" or (rho.kind == "affine" and rho.params[0] > 0.0):
        if rho.kind == "affine":
            slope, offset = rho.params
            lo = np.clip(max(0.0, (1.0 - offset) / slope) - t, 0.0, hi)
            consider(lo)
        else:  # rho(u + t) = e^{u+t} >= 1 on the whole range
            lo = np.zeros_like(hi)
        a, b = lo.copy(), hi.copy()
        width = float(np.max(b - a, initial=0.0))
        if width > 0.0:
            iters = max(40, min(220, int(math.log(max(width / u_tol, 1.0)) / math.log(1.0 / invphi)) + 4))
            for _ in range(iters):
                m1 = a + (1.0 - invphi) * (b - a)
                m2 = a + invphi * (b - a)
                keep_left = g(m1) <= g(m2)
                b = np.where(keep_left, m2, b)
                a = np.where(keep_left, a, m1)
            consider((a + b) / 2.0)
            consider(a)
            consider(b)
    return float(best) if scalar else best


def exact_phi(rho, t: float, r: float) -> Decimal | Fraction:
    """phi_t(r) from the exact values of the finite floats t and r.

    Const and affine rho in 80-digit ``decimal`` with no exponent limit: the
    objective 2u + r / max(M (u + t) + L, 1) at u = 0 and, for M > 0, at
    the stationary point u* = (sqrt(r M / 2) - L) / M - t where u* > 0.
    Step and table rho exactly, in ``fractions.Fraction``: the objective is
    2u + r / max(v, 1) on each constant piece, so the minimum is over u = 0,
    r / max(rho(t), 1), and every breakpoint s > t, 2 (s - t) + r / max(v, 1).
    Every candidate's terms are non-negative."""
    if rho.kind in ("step", "table"):
        t, r = Fraction(t), Fraction(r)
        at_t = [v for s, v in rho.breaks if s <= t] or [rho.breaks[0][1]]  # constant below the first
        return min([r / max(Fraction(at_t[-1]), 1)] + [
            2 * (Fraction(s) - t) + r / max(Fraction(v), 1) for s, v in rho.breaks if s > t])
    slope, offset = (0.0, rho.params[0]) if rho.kind == "const" else rho.params
    m, ell, t, r = map(Decimal, (slope, offset, t, r))
    with localcontext(Context(prec=80, Emax=10**6, Emin=-10**6)):
        def g(u):
            return 2 * u + r / max(m * (u + t) + ell, Decimal(1))

        best = g(Decimal(0))
        if m > 0:
            u = ((r * m / 2).sqrt() - ell) / m - t
            if u > 0:
                best = min(best, g(u))
        return +best


def looped_phi(rho, t, r):
    """The exact infimum and a minimizer u*, vectorized, by one pass over
    every candidate with the minimizer kept throughout: the reference for
    ``cone.phi``, which must match its value bit for bit, and the one place
    the minimizer is built.  Step and table rho visit every breakpoint, with
    no early stop; a minimizer that t + (s - t) rounds to just below its
    breakpoint is stepped up one ulp, so that rho(t + u*) is the
    breakpoint's value."""
    t, r = np.broadcast_arrays(np.asarray(t, dtype=np.float64), np.asarray(r, dtype=np.float64))
    if (t < 0).any() or (r < 0).any():
        raise PreconditionError("phi needs t >= 0 and r >= 0")
    if rho.kind == "exp":
        with np.errstate(over="ignore", invalid="ignore"):
            linear = r < 2.0 * np.exp(t)
            u_star = np.log(np.maximum(r, 1e-300) / 2.0) - t
            best = np.where(linear, np.exp(-t) * r, 2.0 * u_star + 2.0)
        return best, np.where(linear, 0.0, np.maximum(u_star, 0.0))

    def quotient(s):  # r / max(rho(s), 1); where M s + L overflows, scaled by 1 / 2c, c = max(M, 1)
        w = rho(s)
        if rho.kind != "affine":
            return r / np.maximum(w, 1.0)
        slope, offset = rho.params
        c = max(slope, 1.0)
        return np.where(w < np.inf, r / np.maximum(w, 1.0),
                        0.5 * (r / c) / (0.5 * (s * (slope / c)) + 0.5 * (offset / c)))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # r = inf over a rho(t) beyond float range is inf / inf
        best = np.where(r == np.inf, r, quotient(t))  # u = 0
    arg = np.zeros_like(best)

    def consider(u, val, where=True):
        nonlocal best, arg
        better = (val < best) & where
        best = np.where(better, val, best)
        arg = np.where(better, u, arg)

    if rho.kind == "affine" and rho.params[0] > 0.0:
        slope, offset = rho.params
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            root = np.where(r * slope < np.inf, np.sqrt(r * slope / 2.0), np.sqrt(r / 2.0) * np.sqrt(slope))
            u = np.maximum(0.0, (root - offset) / slope - t)
            consider(u, 2.0 * u + quotient(u + t))
    elif rho.kind in ("step", "table"):
        for s, v in rho.breaks:
            u = s - t
            consider(u, 2.0 * u + r / max(v, 1.0), where=u > 0.0)
        up = np.nextafter(arg, np.inf)
        arg = np.where((arg > 0.0) & (rho(t + arg) < rho(t + up)), up, arg)
    return best, arg


def minimizer_height(rho, a, b, d_base: float) -> float:
    """Height max(t, t') + u* where u* attains the phi infimum."""
    tmax = max(a.height, b.height)
    return tmax + float(looped_phi(rho, tmax, d_base)[1])


def looped_inverse(rho, t, target):
    """The suite's numeric inverse of phi_t, by all 70 bisection steps."""
    lo = np.zeros_like(target)
    hi = np.full_like(target, 200.0)
    for _ in range(70):
        mid = (lo + hi) / 2.0
        below = looped_phi(rho, t, mid)[0] < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2.0


def looped_phi_suite(rhos=None, samples=1000, seed=0, tol=1e-6) -> Verdict:
    """``phisuite.run_phi_suite`` with one ``looped_phi`` evaluation per
    property term and the full 70-step bisection: the reference the suite's
    verdict must equal."""
    rhos = rhos if rhos is not None else standard_rho_family()

    def phi(rho, t, r):
        return looped_phi(rho, t, r)[0]

    items: list[CheckItem] = []
    for rho in rhos:
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 10.0, samples)
        t2 = rng.uniform(0.0, 10.0, samples)
        delta = rng.uniform(0.0, 10.0, samples)
        r = rng.uniform(0.0, 100.0, samples)
        r2 = rng.uniform(0.0, 100.0, samples)
        lam = rng.uniform(0.0, 1.0, samples)
        big_m = rng.uniform(1.0, 10.0, samples)
        name = rho.literal()

        t_lo = np.minimum(t, t2)
        t_hi = np.maximum(t, t2)
        r_lo = np.minimum(r, r2)
        r_hi = np.maximum(r, r2)

        margin = phi(rho, t_lo, r) + tol - phi(rho, t_hi, r)
        items.append(_margin_item(f"{name}.monotone-in-t", margin, {"t": t_lo, "t2": t_hi, "r": r}))

        r_up = r_lo + STRICT_GAP + (r_hi - r_lo)
        lo_vals = phi(rho, t, r_lo)
        up_vals = phi(rho, t, r_up)
        items.append(_margin_item(f"{name}.strictly-increasing", up_vals - lo_vals,
                                  {"t": t, "r": r_lo, "r2": r_up}, strict=True))

        radii = 4.0 ** np.arange(GROWTH_EXPONENTS)
        grid = phi(rho, t[:, None], radii[None, :])
        steps = np.diff(grid, axis=1)
        mono = bool((steps >= -1e-9).all())
        grown = bool((grid.max(axis=1) > GROWTH_BOUND).all())
        ok = mono and grown
        items.append(CheckItem(f"{name}.unbounded-growth", ok,
                               "" if ok else f"monotone={mono}, exceeded {GROWTH_BOUND}={grown}"))

        lip = np.abs(phi(rho, t, r_hi) - phi(rho, t, r_lo))
        allowed = (r_hi - r_lo) / np.maximum(rho(t), 1.0) + tol
        items.append(_margin_item(f"{name}.lipschitz", allowed - lip, {"t": t, "r": r_lo, "r2": r_hi}))

        if rho.proper:
            found = np.zeros(samples, dtype=bool)
            height = 1.0
            while height <= DECAY_T_LIMIT and not found.all():
                vals = phi(rho, np.full(samples, height), r)
                found |= vals <= DECAY_TARGET
                height *= 2.0
            ok = bool(found.all())
            items.append(CheckItem(f"{name}.decay-in-t", ok,
                                   "" if ok else f"{int((~found).sum())} samples never reached {DECAY_TARGET}"))
        else:
            items.append(CheckItem(f"{name}.decay-in-t", True, "skipped: rho not proper"))

        rec = looped_inverse(rho, t, phi(rho, t, r))
        items.append(_margin_item(f"{name}.bijection", INVERSE_TOL - np.abs(rec - r), {"t": t, "r": r}))

        mix = lam * r + (1.0 - lam) * r2
        margin = phi(rho, t, mix) - (lam * phi(rho, t, r) + (1.0 - lam) * phi(rho, t, r2)) + tol
        items.append(_margin_item(f"{name}.concave", margin, {"t": t, "r": r, "r2": r2, "lam": lam}))

        sub = phi(rho, t, r) + phi(rho, t, r2) + tol - phi(rho, t, r + r2)
        scal = big_m * phi(rho, t, r) + tol - phi(rho, t, big_m * r)
        items.append(_margin_item(f"{name}.subadditive", np.minimum(sub, scal),
                                  {"t": t, "r": r, "r2": r2, "M": big_m}))

        margin = phi(rho, t + delta, r) + 2.0 * delta + tol - phi(rho, t, r)
        items.append(_margin_item(f"{name}.shift-bound", margin, {"t": t, "delta": delta, "r": r}))
    return verdict(items)


def cone_sample_matrix(rho, y: FiniteMetricSpace, heights):
    """The sorted heights, labels and distance matrix of the cone sample
    Y x heights, with phi evaluated once on the full N x N matrix of
    (larger height, base distance) pairs."""
    hs = sorted({float(h) for h in heights})
    if not hs:
        raise PreconditionError("cone sample needs at least one height")
    if not np.isfinite(hs).all():
        raise PreconditionError("cone heights must be finite")
    pts = [(i, h) for h in hs for i in range(y.n)]
    labels = tuple(f"{y.points[i]}@{fmt_num(h)}" for i, h in pts)
    t_of = np.array([h for _, h in pts])
    base_of = np.array([i for i, _ in pts], dtype=int)
    d = phi(rho, np.maximum.outer(t_of, t_of), y.dist[np.ix_(base_of, base_of)])
    with np.errstate(over="ignore"):
        d += np.abs(np.subtract.outer(t_of, t_of))
    np.fill_diagonal(d, 0.0)
    return np.array(hs), labels, d


def looped_cone_sample(rho, y: FiniteMetricSpace, heights, sample_id=None) -> FiniteMetricSpace:
    """``cone.cone_sample`` with phi on the full matrix and the generic
    ``validate_metric`` on every sample: the reference whose labels, bytes
    and errors the height-stack certificate must keep."""
    _, labels, d = cone_sample_matrix(rho, y, heights)
    space = FiniteMetricSpace(sample_id or f"C({y.id})", labels, d)
    report = validate_metric(space, tol=1e-7)
    if not report.ok:
        raise StructuralError(f"cone sample failed validation: {report.violations[0].detail}")
    return space


def heap_chain_oracle(rho, y, a, b, waypoint_heights):
    """Shortest chain from a to b through (Y x waypoint heights) by a heap
    Dijkstra with one scalar link-weight evaluation per edge."""
    heights = sorted({float(h) for h in waypoint_heights})
    nodes = [(i, h) for h in heights for i in range(y.n)]
    start = (a.base, float(a.height))
    goal = (b.base, float(b.height))
    for extra in (start, goal):
        if extra not in nodes:
            nodes.append(extra)

    def weight(p, q):
        return abs(p[1] - q[1]) + float(y.dist[p[0], q[0]]) / max(float(rho(max(p[1], q[1]))), 1.0)

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
            if not done[v]:
                w = du + weight(nodes[u], node)
                if w < dist[v]:
                    dist[v] = w
                    heapq.heappush(heap, (w, v))
    return dist[idx[goal]]


def random_cover_sets(rng, space, elements=4):
    """Random covering collection: a few random balls patched with
    singletons for anything left uncovered."""
    n = space.n
    sets = []
    for _ in range(elements):
        c = int(rng.integers(0, n))
        radius = float(rng.integers(0, int(space.diameter()) + 1))
        sets.append(tuple(int(i) for i in np.nonzero(space.dist[c] <= radius)[0]))
    covered = set().union(*[set(s) for s in sets]) if sets else set()
    for i in range(n):
        if i not in covered:
            sets.append((i,))
    return sets


# Reference ingest and emit: the token-by-token family parser, the
# row-by-row family writer and the one-intermediate-point-at-a-time triangle
# check, kept as the oracles that the bulk reader and the block writer in
# coarsekit.io and the tiled check in coarsekit.metric must agree with.

_TOKEN = re.compile(r"\S+")


class ScannedDoc:
    """Every non-empty line of a document as (token, column) pairs."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, list[tuple[str, int]]]] = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            toks = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]
            if toks:
                self.rows.append((ln, toks))
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.rows)

    def take(self) -> tuple[int, list[tuple[str, int]]]:
        if self.eof():
            raise ParseError("unexpected end of document", self.rows[-1][0] + 1 if self.rows else 1)
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def expect(self, key: str) -> tuple[int, list[tuple[str, int]]]:
        ln, toks = self.take()
        if toks[0][0] != key:
            raise ParseError(f"expected {key!r}, found {toks[0][0]!r}", ln, toks[0][1])
        return ln, toks


def scanned_num(tok: str, ln: int, col: int) -> float:
    if tok == "inf":
        return float("inf")
    try:
        if re.fullmatch(r"[+-]?\d+", tok):
            return float(int(tok))
        return float(tok)
    except ValueError:
        raise ParseError(f"not a number: {tok!r}", ln, col) from None


def scanned_colon_row(doc: ScannedDoc, key: str | None, nhead: range, usage: str,
                      ntail: range = range(sys.maxsize)):
    """The eager row reader that ``_Doc.colon_row`` replaced: a ``[<key>]
    <head...> : <tail...>`` row as its line number and the (token, column)
    pairs of its head and tail.  A bare or foreign key line, a missing
    ``:`` or a head or tail of the wrong length is a ParseError."""
    ln, toks = doc.take()
    first = toks[0][1]
    if key is not None:
        word, col = toks[0]
        if word != key:
            raise ParseError(f"expected {key!r}, found {word!r}", ln, col)
        if len(toks) == 1:
            raise ParseError(f"missing argument on the {key!r} line", ln, col + len(word))
        toks = toks[1:]
    for k, (tok, _) in enumerate(toks):
        if tok == ":":
            break
    else:
        raise ParseError("missing ':' separator", ln, toks[-1][1])
    head, tail = toks[:k], toks[k + 1:]
    if len(head) not in nhead or len(tail) not in ntail:
        raise ParseError(usage, ln, first)
    return ln, head, tail


def scanned_int(tok: str, ln: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"not an integer: {tok!r}", ln, col) from None


def scanned_labels(pairs, space: FiniteMetricSpace, ln: int) -> tuple[int, ...]:
    """The point indices of (label, column) pairs, one lookup each."""
    out = []
    for label, col in pairs:
        try:
            out.append(space.index(label))
        except StructuralError:
            raise ParseError(f"unknown point {label!r} of {space.id!r}", ln, col) from None
    return tuple(out)


def scanned_parse_family(text: str) -> MetricFamily:
    """parse_family one token at a time, every entry through scanned_num."""
    doc = ScannedDoc(text)
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
        if any(m.id == member_id for m in members):
            raise ParseError(f"family {fam_id!r} has duplicate member id {member_id!r}", ln, toks[1][1])
        pseudo = len(toks) == 3
        ln, toks = doc.expect("points")
        labels = [t for t, _ in toks[1:]]
        if not labels:
            raise ParseError("member has no points", ln, toks[0][1])
        n = len(labels)
        d = np.zeros((n, n), dtype=np.float64)
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
            for j, (tok, col) in enumerate(row):
                v = scanned_num(tok, ln, col)
                d[i, j] = d[j, i] = v
        members.append(FiniteMetricSpace(member_id, tuple(labels), d, pseudo=pseudo))
    return MetricFamily(fam_id, tuple(members))


def looped_write_family(family: MetricFamily) -> str:
    """write_family one row at a time: a row of finite whole numbers below
    1e15 printed as integers in one go, any other row entry by entry
    through ``fmt_num``."""
    def row_text(row):
        if (np.abs(row) < 1e15).all() and (row == np.floor(row)).all():
            return " ".join(map(str, row.astype(np.int64).tolist()))
        return " ".join(map(fmt_num, row.tolist()))

    lines = [f"family {family.id}"]
    for m in family.members:
        lines.append(f"member {m.id}" + (" pseudo" if m.pseudo else ""))
        lines.append("points " + " ".join(m.points))
        lines.extend(row_text(m.dist[i, :i]) for i in range(1, m.n))
    return "\n".join(lines) + "\n"


def looped_validate_metric(space: FiniteMetricSpace, tol: float = 0.0) -> ValidationReport:
    """validate_metric with a Python loop for zero distances and a fresh
    n x n slack matrix per intermediate point j.  Has no nan check."""
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
    if not space.pseudo:
        for i in range(n):
            for j in range(i + 1, n):
                if d[i, j] == 0.0 and d[j, i] == 0.0:
                    out.append(
                        Violation(
                            "zero_distance",
                            (i, j),
                            f"distinct points {space.points[i]},{space.points[j]} at distance 0",
                        )
                    )
    for j in range(n):
        with np.errstate(invalid="ignore", over="ignore"):
            slack = d - (d[:, j][:, None] + d[j, :][None, :])
        bad = np.argwhere(slack > tol)
        for i, k in bad:
            out.append(
                Violation(
                    "triangle",
                    (int(i), int(j), int(k)),
                    f"d({space.points[i]},{space.points[k]}) = {d[i, k]} > "
                    f"{d[i, j]} + {d[j, k]} via {space.points[j]}",
                )
            )
    return ValidationReport(space.id, tuple(out))


def strong_triangle_violations(space: FiniteMetricSpace, limit: int = 1) -> list[tuple[int, int, int]]:
    """Exact witnesses (i, j, k) with d[i,j] > max(d[i,k], d[k,j])."""
    d = space.dist
    out: list[tuple[int, int, int]] = []
    for k in range(space.n):
        bound = np.maximum.outer(d[:, k], d[k, :])
        bad = np.argwhere(d > bound)
        for i, j in bad:
            out.append((int(i), int(j), int(k)))
            if len(out) >= limit:
                return out
    return out


def is_tree_metric(space: FiniteMetricSpace, quads=None, tol: float = 0.0) -> bool:
    """Four-point condition: among the three pairings of any four points,
    the two largest sums are equal (checked as max <= the other two's max)."""
    d = space.dist
    quads = quads if quads is not None else itertools.combinations(range(space.n), 4)
    for w, x, y, z in quads:
        s1 = d[w, x] + d[y, z]
        s2 = d[w, y] + d[x, z]
        s3 = d[w, z] + d[x, y]
        lo, mid, hi = sorted((s1, s2, s3))
        if hi - mid > tol:
            return False
    return True


def _looped_realized_pairs(fmap, src, tgt):
    """All (source distance, image distance) pairs over all functions, i <= j."""
    out = []
    for fn in fmap.functions:
        s = src.member(fn.source_member)
        t = tgt.member(fn.target_member)
        a = np.array(fn.assignment, dtype=int)
        iu = np.triu_indices(s.n)
        out.extend(zip(s.dist[iu].tolist(), t.dist[np.ix_(a, a)][iu].tolist()))
    return out


def looped_control_envelope(fmap, src, tgt) -> MonotoneEnvelope:
    """control_envelope as a dict of per-distance maxima, keyed by the first
    of equal source distances, then a running maximum from 0."""
    validate_map(fmap, src, tgt)
    by_s: dict[float, float] = {}
    for s, u in _looped_realized_pairs(fmap, src, tgt):
        if s not in by_s or u > by_s[s]:
            by_s[s] = u
    bps = []
    running = 0.0
    for s in sorted(by_s):
        running = max(running, by_s[s])
        bps.append((s, running))
    return MonotoneEnvelope(tuple(bps))


def looped_properness_envelope(fmap, src, tgt) -> MonotoneEnvelope:
    """properness_envelope as a dict of per-distance minima, then a reverse
    running minimum from inf."""
    validate_map(fmap, src, tgt)
    by_s: dict[float, float] = {}
    for s, u in _looped_realized_pairs(fmap, src, tgt):
        if s not in by_s or u < by_s[s]:
            by_s[s] = u
    ss = sorted(by_s)
    suffix_min = [0.0] * len(ss)
    running = math.inf
    for k in range(len(ss) - 1, -1, -1):
        running = min(running, by_s[ss[k]])
        suffix_min[k] = running
    return MonotoneEnvelope(tuple(zip(ss, suffix_min)))


def looped_product(spaces, p: float) -> FiniteMetricSpace:
    """The l^p product from a list of index tuples, one index array per
    factor, with the same float expression as ``product``."""
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


def looped_greedy_search(space, r, n, leaf_bound):
    """Greedy search with ball seeding over a set of uncovered points, the
    center always in its own ball, then ``greedy_color``."""
    d = space.dist
    uncovered = set(range(space.n))
    pieces = []
    while uncovered:
        center = min(uncovered)
        b = [i for i in sorted(uncovered) if i == center or d[center, i] <= leaf_bound / 2.0]
        pieces.append(PointSubset(space.id, b))
        uncovered.difference_update(b)
    colored = greedy_color(Cover(space.id, pieces), space, r, n)
    if colored is None:
        return None
    for piece in pieces:
        sel = np.array(piece.indices)
        if (d[np.ix_(sel, sel)] > leaf_bound).any():
            return None
    coloring = [0] * space.n
    for piece, c in zip(pieces, colored.colors):
        for i in piece.indices:
            coloring[i] = c
    return coloring


def run_child(argv, entry=("-m", "coarsekit.cli")):
    """The CLI, or with ``entry=("-c", code)`` a script, in a child process
    that imports this checkout's coarsekit, with its stdout, stderr and
    exit code."""
    src = str(Path(coarsekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def edited(text, old, new):
    """``text`` with its one occurrence of ``old`` replaced by ``new``."""
    assert text.count(old) == 1
    return text.replace(old, new)
