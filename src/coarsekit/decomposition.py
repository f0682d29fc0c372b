"""r-disjoint decompositions: scale components, staged decomposition
certificates and their exact/greedy search, fibering witnesses, and the
two-set separator map.

r-disjointness is strict (distance > r); ties at exactly r merge components
(edge rule d <= r).  Certificates are explicit data, never inferred at check
time, and stage nesting is literal, so the hierarchy is a finite tree by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covers import (
    AsdimCertificate, Cover, check_asdim_certificate, greedy_color, multiplicity,
)
from .errors import PreconditionError, StructuralError
from .maps import FamilyMap, MapFunction, preimage_family, validate_map
from .metric import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    MetricFamily,
    PointSubset,
    _element_stats,
    ball,
    check_certificate_family,
    member_lookup,
    nearest_points,
    separation,
)
from .report import CheckItem, Verdict, fmt_num, verdict


@dataclass(frozen=True)
class RPartition:
    """Partition of a space into its components at scale r: the coarsest
    partition into mutually (> r)-separated sets."""

    space_id: str
    r: float
    blocks: tuple[tuple[int, ...], ...]


def r_components(space: FiniteMetricSpace, r: float) -> RPartition:
    """Connected components of the relation d(x, y) <= r, listed by smallest
    member.  Blocks are defined for a symmetric distance matrix, which every
    parsed family has."""
    if r < 0:
        raise PreconditionError("scale r must be >= 0")
    blocks = _components((1 << space.n) - 1, _row_masks(space.dist <= r))
    return RPartition(space.id, float(r), tuple(blocks))


def _components(within: int, near: list[int]) -> list[tuple[int, ...]]:
    """Components of the points of the bitmask ``within`` under the symmetric
    relation ``near`` (bit q of ``near[p]`` set when p and q are related),
    by smallest member.  Each floods from the lowest point left through
    ``near[q] & within``, taking every point out of ``within`` as it joins."""
    blocks = []
    while within:
        frontier = within & -within
        within ^= frontier
        block = []
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            q = low.bit_length() - 1
            block.append(q)
            grown = near[q] & within
            within ^= grown
            frontier |= grown
        block.sort()
        blocks.append(tuple(block))
    return blocks


def _row_masks(rows: np.ndarray) -> list[int]:
    """Row p of a boolean matrix as an int whose bit q is ``rows[p, q]``."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def piece_id(member_id: str, color: int, index: int) -> str:
    return f"{member_id}.{color}.{index}"


@dataclass(frozen=True)
class MemberDecomposition:
    """Colored pieces of one member: ``pieces[c]`` is the tuple of subsets
    declared r-disjoint at color c."""

    member_id: str
    pieces: tuple[tuple[PointSubset, ...], ...]


@dataclass(frozen=True, eq=False, repr=False)
class DecompositionCertificate:
    """Finite-stage witness that every member splits into n+1 colors of
    r-disjoint pieces, with either a uniform diameter bound on all pieces or
    a nested certificate over the piece family.

    Equality, hashing and repr walk the ``child`` chain with a loop, so a
    tower of any height compares, hashes and prints."""

    family_id: str
    r: float
    n: int
    members: tuple[MemberDecomposition, ...]
    leaf_bound: float | None = None
    child: "DecompositionCertificate | None" = None

    def __post_init__(self):
        if (self.leaf_bound is None) == (self.child is None):
            raise StructuralError(
                "certificate needs exactly one of leaf_bound or child"
            )

    def _stages(self):
        stage = self
        while stage is not None:
            yield stage
            stage = stage.child

    def _own_fields(self) -> tuple:
        return (self.family_id, self.r, self.n, self.members, self.leaf_bound)

    def depth(self) -> int:
        return sum(1 for _ in self._stages())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = list(self._stages()), list(other._stages())
        return len(mine) == len(theirs) and all(
            a._own_fields() == b._own_fields() for a, b in zip(mine, theirs)
        )

    def __hash__(self) -> int:
        return hash(tuple(stage._own_fields() for stage in self._stages()))

    def __repr__(self) -> str:
        heads = [
            f"{stage.__class__.__qualname__}(family_id={stage.family_id!r}, r={stage.r!r}, "
            f"n={stage.n!r}, members={stage.members!r}, leaf_bound={stage.leaf_bound!r}, child="
            for stage in self._stages()
        ]
        return "".join(heads) + "None" + ")" * len(heads)


def piece_family(
    cert: DecompositionCertificate, family: MetricFamily
) -> MetricFamily:
    """The family of all pieces of all members, as subspaces with ids
    ``<member>.<color>.<index>``."""
    members: list[FiniteMetricSpace] = []
    for entry in cert.members:
        space = family.member(entry.member_id)
        for color, group in enumerate(entry.pieces):
            for k, piece in enumerate(group):
                members.append(space.subspace(piece, piece_id(entry.member_id, color, k)))
    return MetricFamily(f"{family.id}|pieces", tuple(members))


def check_decomposition(
    cert: DecompositionCertificate,
    family: MetricFamily,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Stage-by-stage verification: coverage, per-color r-disjointness
    (strict > r, no tolerance), then the leaf diameter bound (within
    ``tol``) or the child certificate over the piece family.  The verdict
    carries the failing path, ``child.``-prefixed once per stage down."""
    items: list[CheckItem] = []
    prefix = ""
    while True:
        check_certificate_family(cert.family_id, family)
        entries = member_lookup(family, ((m.member_id, m) for m in cert.members))
        for member in family.members:
            path = f"{prefix}{member.id}"
            entry = entries.get(member.id)
            if entry is None:
                items.append(CheckItem(path, False, "no decomposition supplied for member"))
                continue
            if len(entry.pieces) != cert.n + 1:
                items.append(
                    CheckItem(
                        path + ".colors",
                        False,
                        f"{len(entry.pieces)} colors supplied, n = {cert.n} needs {cert.n + 1}",
                    )
                )
                continue
            missing = np.flatnonzero(
                multiplicity(member, [piece for group in entry.pieces for piece in group]) == 0
            )
            if missing.size:
                items.append(
                    CheckItem(
                        path + ".coverage",
                        False,
                        f"point {member.points[missing[0]]!r} not covered",
                    )
                )
            else:
                items.append(CheckItem(path + ".coverage", True))
            for color, group in enumerate(entry.pieces):
                dist, bad = separation(member, group, cert.r)
                items.append(
                    CheckItem(f"{path}.color{color}.disjoint", True)
                    if bad is None
                    else CheckItem(
                        f"{path}.color{color}.disjoint",
                        False,
                        f"pieces at distance {fmt_num(dist[bad])} <= r = {fmt_num(cert.r)}",
                    )
                )
        if cert.leaf_bound is not None:
            too_wide: list[CheckItem] = []
            for entry in entries.values():
                ids = [(color, k) for color, group in enumerate(entry.pieces)
                       for k in range(len(group))]
                diams, _ = _element_stats(
                    family.member(entry.member_id),
                    [piece for group in entry.pieces for piece in group], reach=False,
                )
                for (color, k), diam in zip(ids, diams):
                    if diam > cert.leaf_bound + tol:
                        too_wide.append(
                            CheckItem(
                                f"{prefix}{piece_id(entry.member_id, color, k)}.bound",
                                False,
                                f"piece diameter {fmt_num(diam)} > leaf bound "
                                f"{fmt_num(cert.leaf_bound)}",
                            )
                        )
            items.extend(too_wide or [CheckItem(f"{prefix}leaf", True)])
            return verdict(items)
        cert, family, prefix = cert.child, piece_family(cert, family), prefix + "child."


@dataclass(frozen=True)
class SearchResult:
    certificate: DecompositionCertificate | None
    decided: bool  # exact search decides; a greedy miss is "unknown"

    @property
    def status(self) -> str:
        if self.certificate is not None:
            return "found"
        return "none" if self.decided else "unknown"


# placements the exact search may try before it answers "unknown", its only
# bound; read at call time
EXACT_SEARCH_BUDGET = 1_000_000


def search_decomposition(
    space: FiniteMetricSpace,
    r: float,
    n: int,
    leaf_bound: float,
    mode: str = "exact",
) -> SearchResult:
    """Find an (r, n)-decomposition with piece diameters <= leaf_bound.

    Exact mode colors each r-component of the space on its own, in index
    order (with pruning on the diameter bound plus color-symmetry breaking),
    and certifies the lexicographically first feasible coloring.  Its only
    bound is the node budget: within ``EXACT_SEARCH_BUDGET`` placements a
    certificate is returned iff one exists, whatever the size of the space
    or of n; past the budget the answer is "unknown".  Greedy mode seeds
    pieces by balls of radius leaf_bound/2 and may miss; its empty answer is
    "unknown".  In either mode the pieces of color c are the r-components
    of the points colored c, by smallest member.
    """
    if r < 0:
        raise PreconditionError("scale r must be >= 0")
    if n < 0:
        raise PreconditionError("dimension n must be >= 0")
    if leaf_bound < 0:
        raise PreconditionError("leaf bound must be >= 0")
    near = _row_masks(space.dist <= r)
    if mode == "exact":
        decided = True
        try:
            coloring = _exact_search(space, near, n, leaf_bound)
        except _OutOfBudget:
            return SearchResult(None, False)
    elif mode == "greedy":
        decided = False
        coloring = _greedy_search(space, r, n, leaf_bound)
    else:
        raise PreconditionError(f"unknown search mode {mode!r}")
    if coloring is None:
        return SearchResult(None, decided)
    classes = [0] * (n + 1)
    for p, c in enumerate(coloring):
        classes[c] |= 1 << p
    pieces = tuple(
        tuple(PointSubset(space.id, b) for b in _components(mask, near)) for mask in classes
    )
    cert = DecompositionCertificate(
        family_id=space.id,
        r=float(r),
        n=n,
        members=(MemberDecomposition(space.id, pieces),),
        leaf_bound=float(leaf_bound),
    )
    return SearchResult(cert, decided)


class _OutOfBudget(Exception):
    pass


def _exact_search(
    space: FiniteMetricSpace, near: list[int], n: int, leaf_bound: float
) -> list[int] | None:
    """Backtracking over point colorings, one r-component of the space at a
    time; the lexicographically first feasible coloring, or None.

    A coloring is feasible iff inside every color class each component of the
    d <= r relation has diameter <= leaf_bound, since pieces must be unions
    of those components and unions only grow diameters.  Points of different
    r-components of the space are > r apart in every class, so the space is
    feasible iff each of its r-components is, and the first coloring of each
    together is the first coloring of the space.  Point sets are bitmasks:
    ``near[p]`` holds the points within r of p, ``far[p]`` those farther
    than leaf_bound from p, and a class's components are (mask, far-mask)
    pairs, so a component is too wide iff its mask meets its far-mask.
    Depth k of the loop keeps point k's next color, the colors used before
    it, and the color it took with that color's component list from before,
    to put back.
    """
    far = _row_masks(space.dist > leaf_bound)
    budget = EXACT_SEARCH_BUDGET
    nodes = 0
    coloring = [0] * space.n
    for points in _components((1 << space.n) - 1, near):
        comps: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        next_color = [0] * len(points)
        used = [0] * (len(points) + 1)
        taken: list = [None] * len(points)
        k = 0
        while k < len(points):
            c = next_color[k]
            if c > min(n, used[k]):  # color symmetry: a new color only in order
                if k == 0:
                    return None
                next_color[k] = 0
                k -= 1
                c, saved = taken[k]
                comps[c] = saved
                continue
            next_color[k] = c + 1
            nodes += 1
            if nodes > budget:
                raise _OutOfBudget
            p = points[k]
            mask, reach = 1 << p, far[p]
            rest = []
            for comp in comps[c]:
                if comp[0] & near[p]:
                    mask |= comp[0]
                    reach |= comp[1]
                else:
                    rest.append(comp)
            if mask & reach:
                continue
            rest.append((mask, reach))
            taken[k] = (c, comps[c])
            comps[c] = rest
            used[k + 1] = max(used[k], c + 1)
            k += 1
        for p, (c, _) in zip(points, taken):
            coloring[p] = c
    return coloring


def _greedy_search(
    space: FiniteMetricSpace, r: float, n: int, leaf_bound: float
) -> list[int] | None:
    """Seed pieces by closed balls of radius leaf_bound/2 around the first
    free point, which always joins its own piece, then color the pieces with
    ``greedy_color``.  ``owner`` holds each point's piece, -1 while free."""
    d = space.dist
    owner = np.full(space.n, -1)
    pieces: list[PointSubset] = []
    for center in range(space.n):
        if owner[center] < 0:
            piece = (owner < 0) & (d[center] <= leaf_bound / 2.0)
            piece[center] = True
            owner[piece] = len(pieces)
            pieces.append(PointSubset(space.id, np.flatnonzero(piece).tolist()))
    colored = greedy_color(Cover(space.id, pieces), space, r, n)
    if colored is None:
        return None
    # ball seeding bounds diameters by construction; verify against the bound
    if (d[owner[:, None] == owner] > leaf_bound).any():
        return None
    return np.array(colored.colors, dtype=int)[owner].tolist()


def _ranges(indices: tuple[int, ...]) -> str:
    out = []
    start = prev = indices[0]
    for i in indices[1:]:
        if i == prev + 1:
            prev = i
            continue
        out.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = i
    out.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ",".join(out)


def preimage_member_id(subset: PointSubset) -> str:
    return f"{subset.space_id}/{_ranges(subset.indices)}"


def ball_preimage_family(
    fmap: FamilyMap, src: MetricFamily, tgt: MetricFamily, radius: float
) -> MetricFamily:
    """The preimage family of all closed radius-balls of the target, as
    subspaces with deterministic ids ``<member>/<index ranges>``."""
    balls: list[PointSubset] = []
    for member in tgt.members:
        for y in range(member.n):
            balls.append(ball(member, y, radius))
    subsets = preimage_family(fmap, src, tgt, balls)
    members = tuple(
        src.member(ps.space_id).subspace(ps, preimage_member_id(ps))
        for ps in subsets
    )
    return MetricFamily(f"{src.id}|preimages@{fmt_num(radius)}", members)


@dataclass(frozen=True)
class FiberingWitness:
    """A coarse map to a finite-dimension target plus, per scheduled radius,
    a decomposition certificate for the preimage family of all radius-balls."""

    fmap: FamilyMap
    radius_schedule: tuple[float, ...]
    inner: tuple[tuple[float, DecompositionCertificate], ...]
    target_certificate: AsdimCertificate


def check_fibering_witness(
    witness: FiberingWitness,
    src: MetricFamily,
    tgt: MetricFamily,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """All scheduled radii must carry a passing certificate for the ball
    preimage family, the schedule must reach the largest target diameter,
    and the supplied target certificate must pass."""
    validate_map(witness.fmap, src, tgt)
    inner = dict(witness.inner)
    if len(inner) < len(witness.inner):
        raise StructuralError("fibering witness lists an inner radius more than once")
    items: list[CheckItem] = []
    max_diam = max(m.diameter() for m in tgt.members)
    if not witness.radius_schedule or max(witness.radius_schedule) < max_diam:
        items.append(
            CheckItem(
                "schedule",
                False,
                f"largest radius {fmt_num(max(witness.radius_schedule) if witness.radius_schedule else 0)} "
                f"< target diameter {fmt_num(max_diam)}",
            )
        )
    else:
        items.append(CheckItem("schedule", True))
    tgt_verdict = check_asdim_certificate(witness.target_certificate, tgt, tol)
    items.append(
        CheckItem(
            "target",
            tgt_verdict.passed,
            "" if tgt_verdict.passed else tgt_verdict.failures[0].detail,
        )
    )
    for radius in witness.radius_schedule:
        path = f"radius{fmt_num(radius)}"
        cert = inner.get(radius)
        if cert is None:
            items.append(
                CheckItem(path, False, f"missing inner certificate for radius {fmt_num(radius)}")
            )
            continue
        sub = check_decomposition(cert, ball_preimage_family(witness.fmap, src, tgt, radius), tol)
        items.append(
            CheckItem(
                path,
                sub.passed,
                "" if sub.passed else sub.failures[0].path + ": " + sub.failures[0].detail,
            )
        )
    return verdict(items)


def largest_certified_radius(v: Verdict) -> float:
    best = -math.inf
    for item in v.items:
        if item.path.startswith("radius") and item.passed:
            best = max(best, float(item.path[len("radius"):]))
    return best


def union_separator_map(
    space: FiniteMetricSpace, x1: PointSubset, x2: PointSubset
) -> tuple[FiniteMetricSpace, FamilyMap, tuple[float, ...]]:
    """The separator f(x) = d(x, X2) - d(x, X1) for a two-set cover of the
    space, into the realized image values on the line.

    2-Lipschitz, with f^{-1}((-inf, D]) the closed D-neighborhood of X2 and
    f^{-1}([-D, inf)) that of X1.
    """
    if (multiplicity(space, (x1, x2)) == 0).any():
        raise PreconditionError(f"X1 and X2 do not cover {space.id!r}")
    values = tuple((nearest_points(space, x2)[0] - nearest_points(space, x1)[0]).tolist())
    levels = sorted(set(values))
    n = len(levels)
    line = FiniteMetricSpace(
        f"{space.id}|separator-line",
        tuple(fmt_num(v) for v in levels),
        # off the diagonal only: an infinite level less itself would be NaN
        np.abs(np.subtract.outer(levels, levels, out=np.zeros((n, n)), where=~np.eye(n, dtype=bool))),
    )
    position = {v: k for k, v in enumerate(levels)}
    assignment = tuple(map(position.__getitem__, values))
    fmap = FamilyMap(
        space.id, line.id, (MapFunction(space.id, line.id, assignment),)
    )
    return line, fmap, values
