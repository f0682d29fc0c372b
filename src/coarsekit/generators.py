"""Deterministic bundled example families (integer paths, grids, star
trees) and the standard covers, decompositions and fibering fixtures built
on them.  Cover synthesis for arbitrary spaces is out of scope; these
builders exist so certificates for the bundled shapes can be generated and
then independently checked.
"""

from __future__ import annotations

import numpy as np

from .constructions import star_space
from .covers import (
    ANControlCertificate,
    ANEntry,
    AsdimCertificate,
    AsdimEntry,
    Cover,
)
from .decomposition import (
    DecompositionCertificate,
    FiberingWitness,
    MemberDecomposition,
    ball_preimage_family,
)
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


def _clipped_interval(space: FiniteMetricSpace, lo: int, hi: int) -> PointSubset | None:
    idx = tuple(i for i in range(space.n) if lo <= i <= hi)
    return PointSubset(space.id, idx) if idx else None


def path_interval_cover(space: FiniteMetricSpace, scale: int) -> Cover:
    """Length-4r intervals with stride 2r: dimension 1, Lebesgue >= r,
    mesh <= 4r on an integer path."""
    r = int(scale)
    elements = []
    k = -2
    while 2 * r * k < space.n:
        el = _clipped_interval(space, 2 * r * k, 2 * r * k + 4 * r - 1)
        if el is not None and (not elements or el != elements[-1]):
            elements.append(el)
        k += 1
    return Cover(space.id, tuple(elements))


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


def star_an_certificate(family: MetricFamily, scales) -> ANControlCertificate:
    """For star trees: the (R-1)-ball around the center plus per-ray
    length-R segments colored by parity, mesh <= 3R."""
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


def path_decomposition(space: FiniteMetricSpace, r: int) -> DecompositionCertificate:
    """(r, 1)-decomposition of an integer path into alternating blocks of
    length r+1, leaf bound r."""
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


def _strip_decomposition(
    member: FiniteMetricSpace, grid_cols: int, r: int
) -> MemberDecomposition:
    """Decompose a full-width strip of a row-major grid along its second
    coordinate into alternating column bands of width r+1."""
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
        members = tuple(_strip_decomposition(m, n, int(radius)) for m in fam.members)
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
