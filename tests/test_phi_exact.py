"""Differential tests for exact phi, the phi suite and the dense chain
oracle.

Exact phi is compared with the numeric line search in support.py
(``numeric_phi``) over random affine, exponential, step and table rho; the
minimizer the full-scan kernel ``looped_phi`` returns must attain the value,
and ``phi`` must match that kernel's value bit for bit at every shape; the
suite's verdict must equal ``looped_phi_suite``'s, its bisection the 70-step
loop, and the closed-form inverse the bisection's pass or fail; the dense
Dijkstra of ``chain_oracle`` must agree with the heap Dijkstra
(``heap_chain_oracle``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsekit import phisuite
from coarsekit.cone import ConePoint, RhoFunction, _phi_inverse, chain_oracle, phi
from coarsekit.phisuite import INVERSE_TOL, _bisect_inverse, run_phi_suite, standard_rho_family
from support import (
    heap_chain_oracle,
    integer_points_space,
    looped_inverse,
    looped_phi,
    looped_phi_suite,
    numeric_phi,
)

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


ALL_RHOS = st.one_of(st.builds(RhoFunction.constant, st.floats(0.0, 50.0)), RHOS)


# t + (0.428 - t) rounds to just below the breakpoint 0.428, where rho is
# still 1: the minimum 2 (0.428 - 0.101) + 40 / 10 is reached only at the
# breakpoint itself
ROUNDING_CASE = (RhoFunction.step(((0.0, 1.0), (0.428, 10.0))), 0.101, 40.0)


# for t < 1 and large r, phi_t(r) = 2 (1 - t) + r / 1e16, whose second term
# is near the rounding of the first: phi_t is flat over some gaps of 1e-3.
# Strict increase then fails at 1000 samples (seed 5) but not at 17, and
# reading phi at r_hi in place of r_lo changes both outcomes
JUMP = RhoFunction.step(((0.0, 0.0), (1.0, 1e16)))


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
    val, u = (float(x) for x in looped_phi(rho, t, r))
    assert val == phi(rho, t, r)
    assert u >= 0.0
    assert abs(objective(rho, t, r, u) - val) <= 1e-12 * max(1.0, val)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def phi_arguments(draw):
    """A rho and heights and radii of one of four layouts: scalars, equal
    1-D arrays, equal 2-D arrays, or a column of heights against a row of
    radii.  Heights fall on, one ulp below and one ulp above breakpoints as
    well; radii reach 4^40 and inf."""
    rho = draw(ALL_RHOS)
    near = sorted({float(x) for s, _ in rho.breaks
                   for x in (s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)) if x >= 0.0})
    heights = st.one_of(HEIGHTS, st.sampled_from(near)) if near else HEIGHTS
    radii = st.one_of(RADII, st.sampled_from([0.0, np.inf, 4.0**40]), st.floats(0.0, 4.0**40))
    layout = draw(st.sampled_from(["scalar", "1d", "2d", "broadcast"]))
    if layout == "scalar":
        return rho, draw(heights), draw(radii)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    if layout == "broadcast":
        t = draw(st.lists(heights, min_size=rows, max_size=rows))
        r = draw(st.lists(radii, min_size=cols, max_size=cols))
        return rho, np.array(t)[:, None], np.array(r)[None, :]
    shape = (cols,) if layout == "1d" else (rows, cols)
    size = int(np.prod(shape))
    t = draw(st.lists(heights, min_size=size, max_size=size))
    r = draw(st.lists(radii, min_size=size, max_size=size))
    return rho, np.array(t).reshape(shape), np.array(r).reshape(shape)


@SETTINGS
@given(phi_arguments())
@example(ROUNDING_CASE)
@example((ROUNDING_CASE[0], np.array([[0.101], [0.428], [0.5]]), np.array([[0.0, 40.0, np.inf, 4.0**40]])))
@example((RhoFunction.affine(1e308, 1e308), np.array([[0.0], [5.0]]), np.array([[0.0, 1.0, np.inf, 4.0**40]])))
def test_phi_matches_the_full_scan_bit_for_bit(args):
    rho, t, r = args
    ref_val, _ = looped_phi(rho, t, r)
    value = phi(rho, t, r)
    assert np.shape(value) == ref_val.shape
    assert bits(value) == bits(ref_val)
    # each element alone, as a scalar call, gives the same bits: the result
    # does not depend on the shape or layout of the arrays it sits in
    t_b, r_b = np.broadcast_arrays(t, r)
    alone = [phi(rho, float(a), float(b)) for a, b in zip(t_b.ravel(), r_b.ravel())]
    assert bits(alone) == bits(ref_val.ravel())


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    st.sampled_from([1, 2, 17, 1000]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-6, 0.0, -1e-3, -1.0]),
    st.lists(ALL_RHOS, max_size=2),
)
@example(1000, 0, 1e-6, [])
@example(1000, 3, -1.0, [ROUNDING_CASE[0]])
@example(17, 5, 1e-6, [JUMP])
@example(1000, 5, 1e-6, [JUMP])
def test_suite_verdict_matches_the_looped_suite(samples, seed, tol, extra):
    # a negative tol fails items, and JUMP fails strict increase, so the
    # witness texts are compared too
    rhos = standard_rho_family() + extra
    assert run_phi_suite(rhos, samples, seed, tol) == looped_phi_suite(rhos, samples, seed, tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ALL_RHOS, st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 17, 1000]))
def test_bisection_recovers_the_70_step_result(rho, seed, samples):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 10.0, samples)
    r = rng.uniform(0.0, 100.0, samples)
    target = phi(rho, t, r)
    assert bits(_bisect_inverse(rho, t, target)) == bits(looped_inverse(rho, t, target))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(ALL_RHOS, st.sampled_from([JUMP, ROUNDING_CASE[0]])),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 17, 1000]))
@example(JUMP, 5, 1000)
def test_closed_form_inverse_agrees_with_the_bisection(rho, seed, samples):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 10.0, samples)
    r = rng.uniform(0.0, 100.0, samples)
    target = phi(rho, t, r)
    rec = _phi_inverse(rho, t, target)

    def recovers(inverse):
        return bool((INVERSE_TOL - np.abs(inverse - r) >= 0).all())

    # on JUMP's flat pieces both fail, at different worst margins
    assert recovers(rec) == recovers(looped_inverse(rho, t, target))
    assert np.allclose(phi(rho, t, rec), target, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("seed", [0, 3, 5, 13, 40])
def test_standard_family_never_bisects(monkeypatch, seed):
    def refuse(*_):
        raise AssertionError("the bisection ran")

    monkeypatch.setattr(phisuite, "_bisect_inverse", refuse)
    assert run_phi_suite(seed=seed).passed


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
