"""Covers of finite metric spaces and their scale statistics: dimension,
Lebesgue number (open balls), and mesh.  Certificate checking for staged
covers and affine control functions, quotient pushforwards, and colored
product covers.

The Lebesgue number uses open balls exactly as defined; an element equal to
the whole space makes it the distinguished inf sentinel.
"""

from __future__ import annotations

import itertools

import numpy as np
from dataclasses import dataclass

from .errors import PreconditionError, StructuralError
from .metric import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    GroupAction,
    MetricFamily,
    PointSubset,
    _element_stats,
    check_certificate_family,
    member_lookup,
    product,
    quotient_with_map,
    separation,
)
from .report import CheckItem, Verdict, fmt_num, verdict


@dataclass(frozen=True)
class Cover:
    """A list of point subsets whose union is the whole space.

    ``colors`` optionally assigns each element a color; colored covers are
    the canonical representation wherever color classes matter.
    """

    space_id: str
    elements: tuple[PointSubset, ...]
    colors: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.colors is not None:
            object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))


def multiplicity(space: FiniteMetricSpace, elements) -> np.ndarray:
    """How many of ``elements`` contain each point of ``space``, after
    checking every element against the space."""
    flat: list[int] = []
    for el in elements:
        el.check_against(space)
        flat += el.indices
    return np.bincount(np.array(flat, dtype=np.intp), minlength=space.n)


def validate_cover(cover: Cover, space: FiniteMetricSpace) -> np.ndarray:
    """Check that ``cover`` covers ``space``; return each point's
    multiplicity."""
    if cover.space_id != space.id:
        raise StructuralError(f"cover references {cover.space_id!r}, not {space.id!r}")
    if cover.colors is not None and len(cover.colors) != len(cover.elements):
        raise StructuralError("cover colors do not match its element list")
    counts = multiplicity(space, cover.elements)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise StructuralError(
            f"cover of {space.id!r} misses point {space.points[missing[0]]!r}"
        )
    return counts


def cover_stats(cover: Cover, space: FiniteMetricSpace) -> tuple[np.ndarray, float, list[float]]:
    """Check ``cover`` once; return each point's multiplicity, the Lebesgue
    number and each element's diameter."""
    counts = validate_cover(cover, space)
    diams, best = _element_stats(space, cover.elements)
    return counts, float(best.min()), diams


def cover_dimension(cover: Cover, space: FiniteMetricSpace) -> int:
    """Largest n such that some point lies in n+1 elements."""
    return int(validate_cover(cover, space).max()) - 1


def lebesgue_number(cover: Cover, space: FiniteMetricSpace) -> float:
    """Sup of lambda such that every open ball B_lambda(x) lies inside some
    element: min over x of max over elements U containing x of the distance
    from x to the complement of U (inf when U is the whole space)."""
    return cover_stats(cover, space)[1]


def mesh(cover: Cover, space: FiniteMetricSpace) -> float:
    """Largest element diameter."""
    validate_cover(cover, space)
    return max(_element_stats(space, cover.elements, reach=False)[0])


def greedy_color(cover: Cover, space: FiniteMetricSpace, r: float, n: int) -> Cover | None:
    """Color an uncolored cover with colors 0..n so that each color class is
    r-disjoint, assigning each element, in order, the first color none of
    whose elements lies within r of it.  None when some element admits no
    color."""
    validate_cover(cover, space)
    dist, _ = separation(space, cover.elements, r)
    near = ~(dist > r)  # a NaN distance does not separate
    colors: list[int] = []
    for k in range(len(cover.elements)):
        taken = {colors[j] for j in np.flatnonzero(near[k, :k])}
        placed = next((c for c in range(n + 1) if c not in taken), None)
        if placed is None:
            return None
        colors.append(placed)
    return Cover(cover.space_id, cover.elements, tuple(colors))


@dataclass(frozen=True)
class AsdimEntry:
    lam: float
    mesh_bound: float
    covers: tuple[tuple[str, Cover], ...]


@dataclass(frozen=True)
class AsdimCertificate:
    """Per-scale covers witnessing dimension <= n, Lebesgue >= lambda and
    mesh <= R, for every member of a family."""

    family_id: str
    n: int
    entries: tuple[AsdimEntry, ...]


def check_asdim_certificate(
    cert: AsdimCertificate, family: MetricFamily, tol: float = DEFAULT_TOL
) -> Verdict:
    """Per-entry pass/fail with a witnessing point or element on failure.

    Dangling member references are a StructuralError."""
    check_certificate_family(cert.family_id, family)
    items: list[CheckItem] = []
    for k, entry in enumerate(cert.entries):
        covers = member_lookup(family, entry.covers)
        for member in family.members:
            path = f"entry{k}.{member.id}"
            cov = covers.get(member.id)
            if cov is None:
                items.append(CheckItem(path, False, "no cover supplied for member"))
                continue
            counts, leb, diams = cover_stats(cov, member)
            w = int(counts.argmax())
            big = diams.index(max(diams))
            for name, failed, detail in (
                ("dimension", counts[w] > cert.n + 1,
                 f"point {member.points[w]!r} lies in {counts[w]} elements, n = {cert.n}"),
                ("lebesgue", leb < entry.lam - tol,
                 f"Lebesgue number {fmt_num(leb)} < lambda {fmt_num(entry.lam)}"),
                ("mesh", diams[big] > entry.mesh_bound + tol,
                 f"element {big} has diameter {fmt_num(diams[big])} > bound "
                 f"{fmt_num(entry.mesh_bound)}"),
            ):
                items.append(CheckItem(f"{path}.{name}", not failed, detail if failed else ""))
    return verdict(items)


@dataclass(frozen=True)
class ANEntry:
    scale: float
    covers: tuple[tuple[str, Cover], ...]


@dataclass(frozen=True)
class ANControlCertificate:
    """Colored covers at each scale R with R-disjoint color classes and the
    affine mesh bound mesh <= M R + b."""

    family_id: str
    n: int
    slope: float
    offset: float
    entries: tuple[ANEntry, ...]


def check_an_control(
    cert: ANControlCertificate, family: MetricFamily, tol: float = DEFAULT_TOL
) -> Verdict:
    check_certificate_family(cert.family_id, family)
    items: list[CheckItem] = []
    for k, entry in enumerate(cert.entries):
        r = entry.scale
        bound = cert.slope * r + cert.offset
        covers = member_lookup(family, entry.covers)
        for member in family.members:
            path = f"entry{k}.{member.id}"
            cov = covers.get(member.id)
            if cov is None:
                items.append(CheckItem(path, False, "no cover supplied for member"))
                continue
            if cov.colors is not None:
                validate_cover(cov, member)
            else:
                cov = greedy_color(cov, member, r, cert.n)
                if cov is None:
                    items.append(
                        CheckItem(
                            path + ".colors",
                            False,
                            f"uncolored cover not greedily {cert.n + 1}-colorable at R = {fmt_num(r)}",
                        )
                    )
                    continue
            if any(c < 0 or c > cert.n for c in cov.colors):
                items.append(
                    CheckItem(path + ".colors", False, f"colors outside 0..{cert.n}")
                )
                continue
            for c in range(cert.n + 1):
                cls = [e for e, col in zip(cov.elements, cov.colors) if col == c]
                dist, bad = separation(member, cls, r)
                if bad is not None:
                    items.append(
                        CheckItem(
                            path + f".disjoint.color{c}",
                            False,
                            f"elements at distance {fmt_num(dist[bad])} <= R = {fmt_num(r)}",
                        )
                    )
                    break
            else:
                items.append(CheckItem(path + ".disjoint", True))
            ms = max(_element_stats(member, cov.elements, reach=False)[0])
            if ms > bound + tol:
                items.append(
                    CheckItem(
                        path + ".mesh",
                        False,
                        f"mesh {fmt_num(ms)} > M*R + b = {fmt_num(bound)} at R = {fmt_num(r)}",
                    )
                )
            else:
                items.append(CheckItem(path + ".mesh", True))
    return verdict(items)


def pushforward_quotient_cover(
    space: FiniteMetricSpace, action: GroupAction, cover: Cover
) -> tuple[FiniteMetricSpace, Cover]:
    """Image cover {q(U)} of the quotient by an isometric action.

    Guaranteed: Lebesgue number >= the input's, mesh <= the input's, and
    dimension <= |F| (dim + 1) - 1.
    """
    validate_cover(cover, space)
    qspace, orbit_of = quotient_with_map(action, space)
    return qspace, image_cover(cover, qspace, orbit_of)


def image_cover(cover: Cover, qspace: FiniteMetricSpace, orbit_of) -> Cover:
    """The image {q(U)} of ``cover`` in ``qspace`` under the orbit map ``orbit_of``."""
    return Cover(qspace.id, tuple(PointSubset(qspace.id, [orbit_of[i] for i in el.indices])
                                  for el in cover.elements))


def product_cover(
    spaces: list[FiniteMetricSpace], covers: list[Cover]
) -> tuple[FiniteMetricSpace, Cover]:
    """Colored cover of the l^1 product whose color-i class consists of the
    products of color-i elements, one from each factor.

    Requires every point of each factor to lie in at least m elements of its
    cover (m = number of factors) and colors in 0..m.  The output is a cover
    by the pigeonhole argument; each color class is r-disjoint whenever the
    factor classes are.
    """
    m = len(spaces)
    if m == 0:
        raise PreconditionError("product cover of zero factors")
    if len(covers) != m:
        raise PreconditionError("one cover per factor is required")
    if m == 1:
        validate_cover(covers[0], spaces[0])
        return spaces[0], covers[0]
    for s, c in zip(spaces, covers):
        counts = validate_cover(c, s)
        if c.colors is None:
            raise PreconditionError(f"cover of {s.id!r} must be colored 0..{m}")
        if any(col < 0 or col > m for col in c.colors):
            raise PreconditionError(f"cover of {s.id!r} has colors outside 0..{m}")
        if counts.min() < m:
            bad = int(counts.argmin())
            raise PreconditionError(
                f"point {s.points[bad]!r} of {s.id!r} lies in only {counts[bad]} "
                f"elements; multiplicity {m} required"
            )
    prod = product(list(spaces), 1.0)
    sizes = [s.n for s in spaces]
    strides = [1] * m
    for f in range(m - 2, -1, -1):
        strides[f] = strides[f + 1] * sizes[f + 1]
    elements: list[PointSubset] = []
    colors: list[int] = []
    for color in range(m + 1):
        per_factor = [
            [el for el, c in zip(cov.elements, cov.colors) if c == color]
            for cov in covers
        ]
        if any(not lst for lst in per_factor):
            continue
        for combo in itertools.product(*per_factor):
            grids = np.meshgrid(
                *[np.array(el.indices, dtype=int) for el in combo], indexing="ij"
            )
            flat = sum(g.ravel() * strides[f] for f, g in enumerate(grids))
            elements.append(PointSubset(prod.id, tuple(int(i) for i in flat)))
            colors.append(color)
    out = Cover(prod.id, tuple(elements), tuple(colors))
    missing = np.flatnonzero(multiplicity(prod, out.elements) == 0)
    if missing.size:
        raise PreconditionError(
            f"product cover misses point {prod.points[missing[0]]!r}; factor covers "
            "do not satisfy the multiplicity hypothesis with disjoint color classes"
        )
    return prod, out


def product_control_coefficient(n: int) -> int:
    """The multiplier of the linear control function for covers of products
    of n tree-like factors: f(2) = 3 and f(n) = 3 f(n-1) + 2."""
    if n < 2:
        raise PreconditionError("coefficient defined for n >= 2")
    f = 3
    for _ in range(3, n + 1):
        f = 3 * f + 2
    return f
