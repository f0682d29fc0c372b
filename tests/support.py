"""Shared fixtures and independent oracles for the test suite.

Random spaces are built from integer-coordinate point sets so that every
stored distance is an exact float64 integer: triangle inequalities, set
distances and quotient minima then compare exactly, with no rounding slack.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from functools import lru_cache

import numpy as np

from coarsekit.errors import ParseError, StructuralError
from coarsekit.metric import (
    FiniteMetricSpace,
    GroupAction,
    MetricFamily,
    PointSubset,
    ValidationReport,
    Violation,
)


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


def family_of(*spaces, family_id="fam"):
    return MetricFamily(family_id, tuple(spaces))


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


# Reference ingest: the token-by-token family parser and the
# one-intermediate-point-at-a-time triangle check, kept as the oracles that
# the bulk reader in coarsekit.io and the tiled check in coarsekit.metric
# must agree with.

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
