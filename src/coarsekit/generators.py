"""Deterministic bundled example families (integer paths, grids, star
trees) and the standard covers, decompositions and fibering fixtures built
on them.  Cover synthesis for arbitrary spaces is out of scope; these
builders exist so certificates for the bundled shapes can be generated and
then independently checked.  A window or stride below 1 is refused.
"""

from __future__ import annotations

import numpy as np

from .constructions import star_space
from .covers import ANControlCertificate, ANEntry, AsdimCertificate, AsdimEntry, Cover
from .decomposition import (
    DecompositionCertificate, FiberingWitness, MemberDecomposition, ball_preimage_family,
)
from .errors import PreconditionError
from .maps import FamilyMap, MapFunction
from .metric import FiniteMetricSpace, MetricFamily, PointSubset


def unit_path(n: int, space_id: str = "path") -> FiniteMetricSpace:
    """Integer path 0..n-1 with |i - j| distances."""
    coords = np.arange(n, dtype=np.float64)
    d = np.abs(np.subtract.outer(coords, coords))
    return FiniteMetricSpace(space_id, tuple(str(i) for i in range(n)), d)


def integer_grid(w: int, h: int, space_id: str = "grid") -> FiniteMetricSpace:
    """w x h integer grid with the l^1 metric, points ordered row-major
    (first coordinate outer)."""
    pts = [(i, j) for i in range(w) for j in range(h)]
    a = np.array(pts, dtype=np.float64)
    d = np.abs(a[:, None, :] - a[None, :, :]).sum(axis=2)
    return FiniteMetricSpace(space_id, tuple(f"{i},{j}" for i, j in pts), d)


def star_tree(rays: int, length: int, space_id: str = "star") -> FiniteMetricSpace:
    """Star of ``rays`` integer rays of the given length glued at a center."""
    return star_space(space_id, "c", [str(j) for j in range(rays)], length)


def _at_least_one(value: int, what: str) -> int:
    if value < 1:
        raise PreconditionError(f"{what} must be >= 1, got {value}")
    return value


def _clipped_interval(space: FiniteMetricSpace, lo: int, hi: int) -> PointSubset | None:
    idx = range(max(lo, 0), min(hi + 1, space.n))
    return PointSubset(space.id, idx) if idx else None


def _blocks(n: int, length: int) -> list[range]:
    """The consecutive windows [s, s + length - 1] of 0..n-1, clipped to it,
    for s in range(0, n, length); block k takes color k % 2 below."""
    _at_least_one(length, "block length")
    return [range(s, min(s + length, n)) for s in range(0, n, length)]


def path_interval_cover(space: FiniteMetricSpace, scale: int) -> Cover:
    """Length-4r intervals with stride 2r: dimension 1, Lebesgue >= r,
    mesh <= 4r on an integer path."""
    r = _at_least_one(int(scale), "scale")
    # the first window is [-2r, 2r - 1]; on a path of at most 2r points it
    # clips to the next one, so the cover starts at 0
    starts = range(-2 * r if space.n > 2 * r else 0, space.n, 2 * r)
    return Cover(space.id, tuple(_clipped_interval(space, s, s + 4 * r - 1) for s in starts))


def path_asdim_certificate(family: MetricFamily, scales) -> AsdimCertificate:
    entries = []
    for r in scales:
        covers = tuple((m.id, path_interval_cover(m, r)) for m in family.members)
        entries.append(AsdimEntry(lam=float(r), mesh_bound=4.0 * r, covers=covers))
    return AsdimCertificate(family.id, 1, tuple(entries))


def path_an_certificate(family: MetricFamily, scales) -> ANControlCertificate:
    """Alternating length-2R blocks: two R-disjoint colors, mesh <= 4R."""
    entries = []
    for scale in scales:
        big_r = int(scale)
        covers = []
        for m in family.members:
            blocks = _blocks(m.n, 2 * big_r)
            elements = tuple(PointSubset(m.id, b) for b in blocks)
            covers.append((m.id, Cover(m.id, elements, tuple(k % 2 for k in range(len(blocks))))))
        entries.append(ANEntry(float(big_r), tuple(covers)))
    return ANControlCertificate(family.id, 1, 4.0, 0.0, tuple(entries))


def _star_levels(member: FiniteMetricSpace) -> tuple[list[int], dict[str, list[tuple[int, int]]]]:
    """Each point's level (the center ``c`` at 0), and each ray's (point,
    level) pairs in point order."""
    levels, rays = [], {}
    for idx, lbl in enumerate(member.points):
        if lbl == "c":
            levels.append(0)
            continue
        rid, _, mm = lbl.partition(":")
        levels.append(int(mm))
        rays.setdefault(rid, []).append((idx, levels[-1]))
    return levels, rays


def star_an_certificate(family: MetricFamily, scales) -> ANControlCertificate:
    """For star trees: the (R-1)-ball around the center plus per-ray
    length-R segments colored by parity, mesh <= 3R."""
    stars = [(m, *_star_levels(m)) for m in family.members]
    entries = []
    for scale in scales:
        big_r = _at_least_one(int(scale), "scale")
        covers = []
        for m, levels, rays in stars:
            elements = [PointSubset(m.id, [i for i, lv in enumerate(levels) if lv < big_r])]
            colors = [0]
            for rid in sorted(rays):  # ray ids sort as strings
                segments: dict[int, list[int]] = {}
                for i, lv in rays[rid]:
                    if lv >= big_r:
                        segments.setdefault(lv // big_r, []).append(i)
                for k in sorted(segments):
                    elements.append(PointSubset(m.id, segments[k]))
                    colors.append(k % 2)
            covers.append((m.id, Cover(m.id, tuple(elements), tuple(colors))))
        entries.append(ANEntry(float(big_r), tuple(covers)))
    return ANControlCertificate(family.id, 1, 3.0, 0.0, tuple(entries))


def _two_colors(blocks: list[PointSubset]) -> tuple[tuple[PointSubset, ...], ...]:
    """Block k in color k % 2, empty blocks dropped."""
    return tuple(tuple(b for b in blocks[c::2] if b) for c in (0, 1))


def path_decomposition(space: FiniteMetricSpace, r: int) -> DecompositionCertificate:
    """(r, 1)-decomposition of an integer path into alternating blocks of
    length r+1, leaf bound r."""
    blocks = [PointSubset(space.id, b) for b in _blocks(space.n, r + 1)]
    members = (MemberDecomposition(space.id, _two_colors(blocks)),)
    return DecompositionCertificate(space.id, float(r), 1, members, leaf_bound=float(r))


def _strip_decomposition(
    member: FiniteMetricSpace, cols: list[int], grid_cols: int, r: int
) -> MemberDecomposition:
    """Decompose a full-width strip of a row-major grid, its points in
    columns ``cols``, into alternating column bands of width r+1."""
    by_col: dict[int, list[int]] = {}
    for p, j in enumerate(cols):
        by_col.setdefault(j, []).append(p)
    bands = [PointSubset(member.id, [p for j in b for p in by_col.get(j, ())])
             for b in _blocks(grid_cols, r + 1)]
    return MemberDecomposition(member.id, _two_colors(bands))


def grid_projection_fixture(
    n: int = 16, schedule=(1, 2, 4, 8, 15)
) -> tuple[MetricFamily, MetricFamily, FamilyMap, FiberingWitness]:
    """The n x n grid projected onto its first coordinate, with per-radius
    strip decompositions: a complete passing fibering witness."""
    grid = integer_grid(n, n, "grid")
    src = MetricFamily("grid-fam", (grid,))
    line = unit_path(n, "line")
    tgt = MetricFamily("line-fam", (line,))
    assignment = tuple(k // n for k in range(grid.n))
    fmap = FamilyMap(src.id, tgt.id, (MapFunction(grid.id, line.id, assignment),))
    target_cert = path_asdim_certificate(tgt, [1, 2, 4])
    inner = []
    for radius in schedule:
        fam = ball_preimage_family(fmap, src, tgt, float(radius))
        members, rows = [], 0
        for m in fam.members:
            coords = [lbl.partition(",") for lbl in m.points]
            row = [int(i) for i, _, _ in coords]
            members.append(_strip_decomposition(m, [int(j) for _, _, j in coords], n, int(radius)))
            rows = max(rows, max(row) - min(row))
        cert = DecompositionCertificate(fam.id, float(radius), 1, tuple(members),
                                        leaf_bound=float(radius + rows))
        inner.append((float(radius), cert))
    schedule = tuple(float(rr) for rr in schedule)
    return src, tgt, fmap, FiberingWitness(fmap, schedule, tuple(inner), target_cert)
