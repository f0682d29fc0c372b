"""Auxiliary metric constructions: the minimax-path ultrametric (floored at
1 off the diagonal), its ball partitions, shell sequences grown by closed
neighborhoods, and the rooted ray-tree embedding for a space covered by
pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covers import multiplicity
from .decomposition import (
    DecompositionCertificate,
    MemberDecomposition,
    RPartition,
    r_components,
)
from .errors import PreconditionError
from .maps import FamilyMap, MapFunction
from .metric import (
    FiniteMetricSpace,
    PointSubset,
    neighborhood,
    separation,
)
from .report import fmt_num


@dataclass(frozen=True, eq=False)
class UltrametricSpace(FiniteMetricSpace):
    """A finite metric space whose distances satisfy the strong triangle
    inequality d(x,y) <= max(d(x,z), d(z,y)), with d >= 1 off the diagonal."""


def minimax_ultrametric(space: FiniteMetricSpace) -> UltrametricSpace:
    """Distance = the smallest possible largest hop over chains joining two
    points, floored at 1 off the diagonal.

    One dense Prim pass (Prim 1957) grows a minimum spanning tree; a point v
    joining through an edge of weight w to its parent p lies at
    max(1, w, d'(p, u)) from every earlier point u, the largest edge on
    their tree path.  That value does not depend on which minimum spanning
    tree ties pick.  Satisfies the strong triangle inequality exactly and
    d'(x, y) <= max(d(x, y), 1) everywhere.
    """
    n = space.n
    d = space.dist
    tree = np.zeros((n, n), dtype=np.float64)  # d' between points in insertion order
    order = np.zeros(n, dtype=np.intp)  # order[t] is the point inserted t-th
    key = np.full(n, np.inf)  # lightest edge from the tree to each free point
    via = np.zeros(n, dtype=np.intp)  # insertion position of that edge's tree end
    free = np.ones(n, dtype=bool)
    for t in range(n):
        v = int(key.argmin())
        if not free[v]:  # every free point is at distance inf from the tree
            v = int(free.argmax())
        tree[t, :t] = tree[:t, t] = np.maximum(tree[via[v], :t], max(1.0, key[v]))
        order[t] = v
        free[v] = False
        key[v] = np.inf
        closer = free & (d[v] < key)
        key[closer] = d[v, closer]
        via[closer] = t
    out = np.empty_like(tree)
    out[np.ix_(order, order)] = tree
    return UltrametricSpace(f"{space.id}|ultrametric", space.points, out)


def scale_balls_partition(
    u: UltrametricSpace, r: float
) -> tuple[RPartition, DecompositionCertificate]:
    """Partition into closed r-balls, which in an ultrametric coincide or
    are disjoint; emitted with the one-color certificate it witnesses
    (pieces pairwise > r apart, diameters <= r)."""
    part = r_components(u, r)
    cert = DecompositionCertificate(
        family_id=u.id,
        r=float(r),
        n=0,
        members=(
            MemberDecomposition(
                u.id,
                (tuple(PointSubset(u.id, blk) for blk in part.blocks),),
            ),
        ),
        leaf_bound=float(r),
    )
    return part, cert


def shell_sequence(
    space: FiniteMetricSpace, seeds: list[PointSubset]
) -> tuple[list[PointSubset], bool]:
    """Nested shells grown from the given sets by closed neighborhoods:

        shell(1) = seed(1),  shell(k) = B_{k-1}(shell(k-1)) union seed(k).

    If every seed is empty, the lowest-index point starts the sequence.
    Returns the shells and whether their union reaches the whole space.
    """
    for s in seeds:
        s.check_against(space, allow_empty=True)
    if not seeds:
        raise PreconditionError("at least one seed set is required")
    if all(len(s) == 0 for s in seeds):
        first = PointSubset(space.id, (0,))
    else:
        first = seeds[0]
    shells = [first]
    for k in range(2, len(seeds) + 1):
        grown = neighborhood(space, shells[-1], float(k - 1)) if len(shells[-1]) else shells[-1]
        shells.append(PointSubset(space.id, grown.indices + seeds[k - 1].indices))
    covers = len(shells[-1]) == space.n
    return shells, covers


def star_space(space_id: str, center: str, ray_ids, length: int) -> FiniteMetricSpace:
    """Integer rays ``r<id>:1`` .. ``r<id>:<length>`` glued at a center point
    (level 0): distance |m - m'| along one ray, m + m' across two rays."""
    ray = np.repeat(np.arange(-1, len(ray_ids)), [1] + [length] * len(ray_ids))
    level = np.concatenate(([0], np.tile(np.arange(1, length + 1), len(ray_ids))))
    d = np.where(
        ray[:, None] == ray[None, :],
        np.abs(level[:, None] - level[None, :]),
        level[:, None] + level[None, :],
    )
    labels = [center] + [f"r{rid}:{m}" for rid in ray_ids for m in range(1, length + 1)]
    return FiniteMetricSpace(space_id, tuple(labels), d)


@dataclass(frozen=True)
class RayTree:
    """A rooted star of rays realized as a finite path-metric space: the
    root plus vertices (ray, level) for levels 1..depth, with
    d((j,m),(j,m')) = |m - m'| and m + m' across rays.  ``depth`` records
    where the infinite rays were truncated."""

    root_label: str
    ray_ids: tuple[str, ...]
    depth: int
    space: FiniteMetricSpace


def build_ray_tree(space_id: str, ray_ids: tuple[str, ...], depth: int) -> RayTree:
    tree = star_space(f"{space_id}|raytree", "root", ray_ids, depth)
    return RayTree("root", ray_ids, depth, tree)


def ray_tree_embed(
    space: FiniteMetricSpace,
    pieces: list[PointSubset],
    shells: list[PointSubset],
) -> tuple[RayTree, FamilyMap]:
    """Collapse shell(1) to the root and send a point first reached by
    shell(n+1) to level n on the ray of its piece.

    Verified before building: pieces cover the space, shells are nested with
    union the whole space, and at every realized n the piece remainders
    outside shell(n) are pairwise more than n apart.  A violation aborts
    with the witnessing pair, since well-definedness depends on it.
    """
    counts = multiplicity(space, pieces)
    for s in shells:
        s.check_against(space, allow_empty=True)
    if not pieces:
        raise PreconditionError("at least one piece is required")
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise PreconditionError(f"pieces do not cover {space.points[missing[0]]!r}")
    for k in range(len(shells) - 1):
        if not set(shells[k].indices) <= set(shells[k + 1].indices):
            raise PreconditionError(f"shells not nested at index {k + 1}")
    if not shells or set(shells[-1].indices) != set(range(space.n)):
        raise PreconditionError("shell union does not reach the whole space")
    for n in range(1, len(shells) + 1):
        shell_set = set(shells[n - 1].indices)
        rem = [
            PointSubset(space.id, tuple(set(p.indices) - shell_set)) for p in pieces
        ]
        dist, bad = separation(space, rem, n)
        if bad is not None:
            a, b = bad
            shared = set(rem[a].indices) & set(rem[b].indices)
            witness = (
                f"point {space.points[min(shared)]!r} lies in remainders of pieces {a} and {b}"
                if shared
                else f"remainders of pieces {a} and {b} at distance {fmt_num(dist[bad])} <= {n}"
            )
            raise PreconditionError(f"separation hypothesis fails at n = {n}: {witness}")
    # a point first reached by shell(n + 1) lies outside shell(n), so the
    # check above leaves it in exactly one piece
    shell_index = np.zeros(space.n, dtype=int)
    for n in range(len(shells), 0, -1):
        shell_index[list(shells[n - 1].indices)] = n
    owner = np.zeros(space.n, dtype=int)
    for j, p in enumerate(pieces):
        owner[list(p.indices)] = j
    depth = len(shells) + 1
    ray_ids = tuple(str(j) for j in range(len(pieces)))
    tree = build_ray_tree(space.id, ray_ids, depth)
    label_index = {lbl: k for k, lbl in enumerate(tree.space.points)}
    assignment = [
        label_index["root" if n == 1 else f"r{j}:{n - 1}"]
        for n, j in zip(shell_index.tolist(), owner.tolist())
    ]
    fmap = FamilyMap(
        space.id,
        tree.space.id,
        (MapFunction(space.id, tree.space.id, tuple(assignment)),),
    )
    return tree, fmap
