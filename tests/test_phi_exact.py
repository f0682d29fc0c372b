"""Differential tests for exact phi and the dense chain oracle.

Exact phi is compared with the numeric line search in support.py
(``numeric_phi``) over random affine, exponential, step and table rho; the
minimizer ``phi_with_argmin`` returns must attain the value; the dense
Dijkstra of ``chain_oracle`` must agree with the heap Dijkstra
(``heap_chain_oracle``).
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from coarsekit.cone import ConePoint, RhoFunction, chain_oracle, phi, phi_with_argmin
from support import heap_chain_oracle, integer_points_space, numeric_phi

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

HEIGHTS = st.floats(0.0, 20.0)
RADII = st.one_of(st.floats(0.0, 1000.0), st.sampled_from([0.0, 1.0, 2.0]))


@st.composite
def step_breaks(draw):
    """1-8 breakpoints: strictly increasing s >= 0, non-decreasing v >= 0."""
    k = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(1e-3, 5.0), min_size=k - 1, max_size=k - 1))
    rises = draw(st.lists(st.floats(0.0, 50.0), min_size=k, max_size=k))
    s0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    ss = s0 + np.cumsum([0.0] + gaps)
    vs = np.cumsum(rises)
    return tuple(zip(ss.tolist(), vs.tolist()))


RHOS = st.one_of(
    st.builds(RhoFunction.affine, st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.just(RhoFunction.exponential()),
    st.builds(RhoFunction.step, step_breaks()),
    st.builds(RhoFunction.table, step_breaks()),
)


# t + (0.428 - t) rounds to just below the breakpoint 0.428, where rho is
# still 1: the minimum 2 (0.428 - 0.101) + 40 / 10 is reached only at the
# breakpoint itself
ROUNDING_CASE = (RhoFunction.step(((0.0, 1.0), (0.428, 10.0))), 0.101, 40.0)


def objective(rho, t, r, u):
    return 2.0 * u + r / max(rho(u + t), 1.0)


@SETTINGS
@given(RHOS, HEIGHTS, RADII)
@example(*ROUNDING_CASE)
def test_exact_phi_matches_numeric_search(rho, t, r):
    exact = phi(rho, t, r)
    numeric = numeric_phi(rho, t, r)
    assert exact <= numeric + 1e-12
    assert abs(exact - numeric) <= 1e-7


@SETTINGS
@given(RHOS, HEIGHTS, RADII)
@example(*ROUNDING_CASE)
def test_argmin_attains_the_value(rho, t, r):
    val, u = phi_with_argmin(rho, t, r)
    assert u >= 0.0
    assert abs(objective(rho, t, r, u) - val) <= 1e-12 * max(1.0, val)


@SETTINGS
@given(RHOS, st.lists(HEIGHTS, min_size=1, max_size=6))
def test_vectorized_matches_scalar(rho, ts):
    rs = np.linspace(0.0, 100.0, len(ts))
    vec = phi(rho, np.array(ts), rs)
    assert vec.tolist() == [phi(rho, t, float(r)) for t, r in zip(ts, rs)]


@SETTINGS
@given(
    st.integers(0, 10**6),
    RHOS,
    st.integers(1, 6),
    st.lists(HEIGHTS, max_size=4),
    st.booleans(),
)
def test_dense_chain_oracle_matches_heap(seed, rho, n, waypoints, same_endpoints):
    rng = np.random.default_rng(seed)
    y = integer_points_space(rng, n, space_id="y")
    # endpoints at waypoint heights, or off the grid
    pick = lambda: float(rng.choice(waypoints)) if waypoints and rng.random() < 0.5 else float(rng.uniform(0, 20))
    a = ConePoint(int(rng.integers(0, n)), pick())
    b = a if same_endpoints else ConePoint(int(rng.integers(0, n)), pick())
    dense = chain_oracle(rho, y, a, b, waypoints)
    heap = heap_chain_oracle(rho, y, a, b, waypoints)
    assert abs(dense - heap) <= 1e-12 * max(1.0, heap)
    if same_endpoints:
        assert dense == 0.0
