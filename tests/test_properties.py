"""Hypothesis property tests for the structural invariants.

Derandomized so the suite is reproducible run to run.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from coarsekit.cone import RhoFunction, phi
from coarsekit.constructions import minimax_ultrametric
from coarsekit.decomposition import _components, _row_masks, r_components
from coarsekit.maps import FamilyMap, MapFunction, control_envelope, properness_envelope
from coarsekit.metric import FiniteMetricSpace, MetricFamily
from support import brute_minimax, closure_blocks, strong_triangle_violations

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def integer_metric_space(draw, max_points=7, max_distance=9, unbounded=False):
    """Shortest-path completion of a random positive integer matrix: exact
    integer distances satisfying every triangle inequality.  With
    ``unbounded`` the points fall into up to three blocks at distance inf."""
    n = draw(st.integers(2, max_points))
    entries = draw(
        st.lists(st.integers(1, max_distance), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2)
    )
    d = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = entries[k]
            k += 1
    for mid in range(n):
        d = np.minimum(d, d[:, mid][:, None] + d[mid, :][None, :])
    np.fill_diagonal(d, 0.0)
    if unbounded:
        block = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        d[block[:, None] != block] = math.inf
    return FiniteMetricSpace("h", tuple(map(str, range(n))), d)


@SETTINGS
@given(integer_metric_space(unbounded=True))
def test_minimax_is_idempotent_and_floored(space):
    u = minimax_ultrametric(space)
    assert np.array_equal(u.dist, brute_minimax(space))
    assert strong_triangle_violations(u) == []
    assert (u.dist <= np.maximum(space.dist, 1.0)).all()
    again = minimax_ultrametric(u)
    assert np.array_equal(u.dist, again.dist)


@SETTINGS
@given(integer_metric_space(unbounded=True), st.integers(0, 12) | st.just(math.inf), st.data())
def test_components_match_closure(space, r, data):
    assert r_components(space, r).blocks == closure_blocks(space.dist, r)
    idx = sorted(data.draw(st.sets(st.integers(0, space.n - 1))))
    blocks = closure_blocks(space.dist[np.ix_(idx, idx)], r) if idx else ()
    within = sum(1 << i for i in idx)
    near = _row_masks(space.dist <= r)
    assert tuple(_components(within, near)) == tuple(tuple(idx[k] for k in b) for b in blocks)


@st.composite
def wide_space(draw):
    """65-300 points, so that every bitmask spans several 64-bit words: a
    random square integer box about a quarter occupied (as the benchmark
    builds them) under l^1 or l^inf, or a long path with gaps of 1 to 3."""
    n = draw(st.integers(65, 300))
    kind = draw(st.sampled_from(["l1", "linf", "path"]))
    if kind == "path":
        gaps = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=n - 1, max_size=n - 1))
        c = np.concatenate([[0], np.cumsum(gaps)]).astype(np.float64)
        d = np.abs(np.subtract.outer(c, c))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        side = int(np.ceil(2.0 * np.sqrt(n)))
        flat = rng.choice(side * side, size=n, replace=False)
        pts = np.stack([flat // side, flat % side], axis=1)
        diff = np.abs(pts[:, None, :] - pts[None, :, :])
        d = (diff.sum(axis=2) if kind == "l1" else diff.max(axis=2)).astype(np.float64)
    return FiniteMetricSpace(kind, tuple(map(str, range(n))), d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(wide_space(), st.sampled_from([0, 1, 2, 3, 5, math.inf]))
def test_components_past_one_word_match_closure(space, r):
    assert r_components(space, r).blocks == closure_blocks(space.dist, r)


@SETTINGS
@given(integer_metric_space(max_points=6), st.data())
def test_envelopes_bracket_every_pair(space, data):
    n = space.n
    img_space = data.draw(integer_metric_space(max_points=5))
    assignment = tuple(
        data.draw(st.integers(0, img_space.n - 1)) for _ in range(n)
    )
    src = MetricFamily("S", (space,))
    tgt = MetricFamily("T", (img_space,))
    fmap = FamilyMap("S", "T", (MapFunction(space.id, img_space.id, assignment),))
    rho = control_envelope(fmap, src, tgt)
    delta = properness_envelope(fmap, src, tgt)
    for i in range(n):
        for j in range(n):
            s = float(space.dist[i, j])
            u = float(img_space.dist[assignment[i], assignment[j]])
            assert delta(s) <= u <= rho(s)
    values_r = [v for _, v in rho.breakpoints]
    values_d = [v for _, v in delta.breakpoints]
    assert values_r == sorted(values_r)
    assert values_d == sorted(values_d)


@SETTINGS
@given(
    st.floats(0, 8, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_phi_concave_and_subadditive_for_affine(t, r1, r2, lam):
    rho = RhoFunction.affine(2.0, 0.5)
    mix = lam * r1 + (1 - lam) * r2
    assert phi(rho, t, mix) >= lam * phi(rho, t, r1) + (1 - lam) * phi(rho, t, r2) - 1e-6
    assert phi(rho, t, r1 + r2) <= phi(rho, t, r1) + phi(rho, t, r2) + 1e-6
