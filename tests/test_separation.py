"""The one r-separation rule: distinct pieces of one color must be more
than r apart, with no tolerance.  Every checker and search refuses two
pieces at distance exactly r, and the vectorised kernel agrees with the
pairwise loop kept in support.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsekit.constructions import ray_tree_embed
from coarsekit.covers import ANControlCertificate, ANEntry, Cover, check_an_control, greedy_color
from coarsekit.decomposition import (
    DecompositionCertificate,
    MemberDecomposition,
    check_decomposition,
    search_decomposition,
)
from coarsekit.errors import PreconditionError
from coarsekit.generators import unit_path
from coarsekit.metric import FiniteMetricSpace, MetricFamily, PointSubset, separation
from support import line_space, looped_separation

# a 4-point unit path split into {0,1} and {2,3}: the pieces are exactly 1 apart
PATH = unit_path(4, "p")
FAMILY = MetricFamily("F", (PATH,))
LEFT, RIGHT = PointSubset("p", (0, 1)), PointSubset("p", (2, 3))


def test_kernel_reports_the_tie_pair():
    dist, bad = separation(PATH, [LEFT, RIGHT], 1.0)
    assert dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert bad == (0, 1)
    assert separation(PATH, [LEFT, RIGHT], 0.5)[1] is None


@pytest.mark.parametrize("r, failures", [
    (1.0, [("p.color0.disjoint", "pieces at distance 1 <= r = 1")]),
    (0.5, []),
])
def test_check_decomposition_refuses_tie(r, failures):
    cert = DecompositionCertificate(
        "F", r, 0, (MemberDecomposition("p", ((LEFT, RIGHT),)),), leaf_bound=1.0
    )
    v = check_decomposition(cert, FAMILY)
    assert [(i.path, i.detail) for i in v.failures] == failures


def test_nan_distance_separates_nothing():
    # d(a, c) is NaN: {a} and {c} are not separated, and the failure of
    # {a, b} and {b, c} (which share b, at NaN set distance) is reported
    d = np.array([[0.0, 1.0, math.nan], [1.0, 0.0, 1.0], [math.nan, 1.0, 0.0]])
    space = FiniteMetricSpace("s", ("a", "b", "c"), d)
    a, c = PointSubset("s", (0,)), PointSubset("s", (2,))
    assert separation(space, [a, c], 0.5)[1] == (0, 1)
    pieces = (PointSubset("s", (0, 1)), PointSubset("s", (1, 2)))
    cert = DecompositionCertificate("F", 0.5, 0, (MemberDecomposition("s", (pieces,)),),
                                    leaf_bound=5.0)
    v = check_decomposition(cert, MetricFamily("F", (space,)))
    assert [(i.path, i.detail) for i in v.failures] == [
        ("s.color0.disjoint", "pieces at distance nan <= r = 0.5")]


@pytest.mark.parametrize("colors, failure", [
    ((0, 0), ("entry0.p.disjoint.color0", "elements at distance 1 <= R = 1")),
    (None, ("entry0.p.colors", "uncolored cover not greedily 1-colorable at R = 1")),
])
def test_check_an_control_refuses_tie(colors, failure):
    def verdict(scale):
        cover = Cover("p", (LEFT, RIGHT), colors)
        cert = ANControlCertificate("F", 0, 2.0, 0.0, (ANEntry(scale, (("p", cover),)),))
        return check_an_control(cert, FAMILY)

    assert [(i.path, i.detail) for i in verdict(1.0).failures] == [failure]
    assert verdict(0.5).passed


def test_greedy_color_refuses_tie():
    cover = Cover("p", (LEFT, RIGHT))
    assert greedy_color(cover, PATH, 1.0, 0) is None
    assert greedy_color(cover, PATH, 0.5, 0).colors == (0, 0)


def test_greedy_decompose_refuses_tie():
    # balls of radius 1 seed the pieces {0,1} and {2,3}
    assert search_decomposition(PATH, 1.0, 0, 2.0, mode="greedy").status == "unknown"
    assert search_decomposition(PATH, 0.5, 0, 2.0, mode="greedy").status == "found"


def test_ray_tree_embed_refuses_tie():
    shells = [PointSubset("p", (0,)), PointSubset("p", (0, 1, 2, 3))]
    with pytest.raises(PreconditionError, match="pieces 0 and 1 at distance 1 <= 1"):
        ray_tree_embed(PATH, [LEFT, RIGHT], shells)
    apart = line_space([0, 1, 3, 4], space_id="p")
    tree, _ = ray_tree_embed(apart, [LEFT, RIGHT], shells)
    assert tree.ray_ids == ("0", "1")


@st.composite
def pieces_on_a_space(draw):
    """A symmetric zero-diagonal matrix that may hold off-diagonal zeros
    (pseudo-metric) and inf, with pieces that may overlap or be empty."""
    n = draw(st.integers(1, 7))
    values = st.one_of(st.integers(0, 6).map(float), st.just(math.inf))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = draw(values)
    space = FiniteMetricSpace("X", tuple(f"x{i}" for i in range(n)), d, pseudo=True)
    subsets = st.lists(st.integers(0, n - 1), max_size=n)
    pieces = [PointSubset("X", s) for s in draw(st.lists(subsets, max_size=6))]
    r = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf]))
    return space, pieces, r


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pieces_on_a_space())
def test_kernel_matches_pairwise_loop(case):
    space, pieces, r = case
    dist, bad = separation(space, pieces, r)
    want_dist, want_bad = looped_separation(space, pieces, r)
    assert np.array_equal(dist, want_dist)
    assert bad == want_bad
