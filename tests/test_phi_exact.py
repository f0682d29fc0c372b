"""Differential tests for exact phi, the phi suite and the dense chain
oracle.

Exact phi is compared with the numeric line search in support.py
(``numeric_phi``) over random affine, exponential, step and table rho; the
minimizer the full-scan kernel ``looped_phi`` returns must attain the value,
and ``phi`` must match that kernel's value bit for bit at every shape; the
suite's verdict must equal ``looped_phi_suite``'s, its bisection the 70-step
loop, and the closed-form inverse the bisection's pass or fail; the dense
Dijkstra of ``chain_oracle`` must agree with the heap Dijkstra
(``heap_chain_oracle``); ``cone_sample`` must keep the labels, bytes and
errors of ``looped_cone_sample`` (phi on the full matrix, then
``validate_metric``), and its height-stack certificate may pass only
samples that ``validate_metric`` passes.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsekit import cone, phisuite
from coarsekit.cone import (
    ConePoint, RhoFunction, _cone_certified, _phi_inverse, chain_oracle, cone_sample, phi,
)
from coarsekit.errors import CoarsekitError
from coarsekit.metric import FiniteMetricSpace, _min_plus_tiles, validate_metric
from coarsekit.phisuite import INVERSE_TOL, _bisect_inverse, run_phi_suite, standard_rho_family
from support import (
    cone_sample_matrix,
    exact_phi,
    heap_chain_oracle,
    integer_points_space,
    looped_cone_sample,
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
@example((RhoFunction.affine(1e10, 0.0), 1.0, 1e300))  # r M overflows
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


# M t + L passes float max for these rhos at every sampled height t >= 0.5
OVERFLOWING_RHOS = [RhoFunction.affine(1e308, 1e308), RhoFunction.affine(1e308, 0.0)]


@pytest.mark.parametrize("rho", OVERFLOWING_RHOS)
def test_closed_form_inverse_where_rho_overflows(rho):
    rng = np.random.default_rng(11)
    t = np.concatenate(([0.5, 3.0, 9.0], rng.uniform(0.0, 10.0, 1000)))
    r = np.concatenate(([1.0, 1.0, 1.0], rng.uniform(0.0, 100.0, 1000)))
    assert (np.abs(_phi_inverse(rho, t, phi(rho, t, r)) - r) <= INVERSE_TOL).all()


def test_phi_suite_never_bisects_where_rho_overflows(monkeypatch):
    def refuse(*_):
        raise AssertionError("the bisection ran")

    monkeypatch.setattr(phisuite, "_bisect_inverse", refuse)
    v = run_phi_suite(OVERFLOWING_RHOS, samples=50)
    assert all(item.passed for item in v.items if item.path.endswith(".bijection"))


# t, r, M and L at the edges of float range, subnormals among them
PHI_EDGES = [0.0, 5e-324, 2.5e-310, 1e-300, 1.0, 1e300, 1.79e308]
PHI_ULPS = 2  # the most measured over 44 000 const and affine draws was 1.75; over
# 100 000 step and table draws (seeds 0-49), 0.96


def test_const_and_affine_phi_within_two_ulps_of_the_exact_infimum():
    rng = np.random.default_rng(7)

    def draw():
        kind = rng.integers(3)
        if kind == 0:
            return float(rng.choice(PHI_EDGES))
        return float(rng.uniform(0.0, 10.0) if kind == 1 else 10.0 ** rng.uniform(-300.0, 300.0))

    cases = [(RhoFunction.affine(1e10, 0.0), 1.0, 1e300)]  # r M overflows
    for _ in range(2000):
        t, r, slope, offset = draw(), draw(), draw(), draw()
        rho = RhoFunction.constant(slope) if rng.integers(4) == 0 else RhoFunction.affine(slope, offset)
        cases.append((rho, t, r))
    for rho, t, r in cases:
        exact = exact_phi(rho, t, r)
        assert abs(Decimal(phi(rho, t, r)) - exact) <= PHI_ULPS * Decimal(math.ulp(float(exact))), (rho, t, r)


def ulps_off(value: float, exact) -> Fraction:
    """|value - exact| in ulps of the float nearest ``exact``: every
    candidate's terms are non-negative, so their magnitude is the value."""
    exact = Fraction(exact)
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


def test_step_and_table_phi_within_two_ulps_of_the_exact_infimum():
    # breakpoints, values, t and r at the float edges or uniform, and a
    # breakpoint at t or one ulp either side of it a quarter of the time
    rng = np.random.default_rng(7)

    def draw():
        kind = rng.integers(3)
        if kind == 0:
            return float(rng.choice(PHI_EDGES))
        return float(rng.uniform(0.0, 10.0) if kind == 1 else 10.0 ** rng.uniform(-300.0, 300.0))

    for _ in range(2000):
        t, r = draw(), draw()
        near = [t, float(np.nextafter(t, np.inf)), float(np.nextafter(t, 0.0))]
        ss = sorted({float(rng.choice(near)) if rng.integers(4) == 0 else draw() for _ in range(rng.integers(1, 5))})
        vs = sorted(draw() for _ in ss)
        rho = (RhoFunction.step if rng.integers(2) else RhoFunction.table)(tuple(zip(ss, vs)))
        assert ulps_off(phi(rho, t, r), exact_phi(rho, t, r)) <= PHI_ULPS, (rho, t, r)


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


def base_space(rng, n, scale=1.0):
    """n random points of the plane under a random l^p metric, p in {1, 2, inf}."""
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    d = np.linalg.norm(pts[:, None] - pts[None], ord=rng.choice([1, 2, np.inf]), axis=-1) * scale
    return FiniteMetricSpace("Y", tuple(f"y{i}" for i in range(n)), d)


@st.composite
def cone_sample_args(draw):
    """A rho, a base space Y and 1-12 heights.  Y is a metric, a metric with
    one distance raised 1e-9, 5e-8, 2e-7 or 1e-3 above two sides of a
    triangle, a pseudometric with a repeated point, or a metric with a
    nonzero diagonal or an inf entry.  Heights include 0 and 1e6; up to
    12 points x 12 heights reach a third tile of 64 rows."""
    rho = draw(ALL_RHOS)
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = base_space(rng, n, draw(st.sampled_from([1.0, 1e-3, 1e3]))).dist.copy()
    kind = draw(st.sampled_from(["metric", "bump", "pseudo", "diagonal", "inf"]))
    pseudo = kind == "pseudo"
    if kind == "bump" and n >= 3:
        d[0, 2] = d[2, 0] = d[0, 1] + d[1, 2] + draw(st.sampled_from([1e-9, 5e-8, 2e-7, 1e-3]))
    elif pseudo and n >= 2:
        d[1], d[:, 1] = d[0], d[:, 0]
        d[0, 1] = d[1, 0] = 0.0
    elif kind == "diagonal":
        d[0, 0] = 0.5
    elif kind == "inf" and n >= 2:
        d[0, 1] = d[1, 0] = np.inf
    y = FiniteMetricSpace("Y", tuple(f"y{i}" for i in range(n)), d, pseudo=pseudo)
    heights = draw(st.lists(st.one_of(HEIGHTS, st.sampled_from([0.0, 1e6])), min_size=1, max_size=12))
    return rho, y, heights


def line_with_raised_side(xs, raise_by):
    """The line metric on xs with d(x1, x3) raised to d(x1, x2) + d(x2, x3) + raise_by."""
    d = np.abs(np.subtract.outer(np.array(xs), np.array(xs)))
    d[1, 3] = d[3, 1] = d[1, 2] + d[2, 3] + raise_by
    return FiniteMetricSpace("Y", tuple(f"y{i}" for i in range(len(xs))), d)


@SETTINGS
@given(cone_sample_args())
# the triangle's excess sits at the tolerance: without the margin eps the
# certificate passes a sample that validate_metric rejects by rounding
@example((RhoFunction.constant(1.0), line_with_raised_side([0.88, 2.99, 4.23, 7.21], 9.99999911182158e-08),
          [307.50152, 421.74014, 621.40584, 728.01257, 863.69477]))
def test_cone_sample_matches_the_full_matrix_oracle(args):
    rho, y, heights = args
    try:
        want = looped_cone_sample(rho, y, heights)
    except CoarsekitError as exc:
        with pytest.raises(type(exc)) as got:
            cone_sample(rho, y, heights)
        assert str(got.value) == str(exc)
    else:
        got = cone_sample(rho, y, heights)
        assert got.points == want.points
        assert got.dist.tobytes() == want.dist.tobytes()
    try:
        h, _, d = cone_sample_matrix(rho, y, heights)
    except CoarsekitError:
        return
    n = y.n
    phis = np.stack([d[k * n:(k + 1) * n, k * n:(k + 1) * n] for k in range(len(h))])
    if _cone_certified(y.dist, phis, h, d, 1e-7):
        assert validate_metric(FiniteMetricSpace("S", tuple(map(str, range(len(d)))), d), tol=1e-7).ok


BENCH_STEP = RhoFunction.step(((0.0, 0.5), (2.0, 3.0), (5.0, 40.0), (9.0, 200.0)))
BENCH_HEIGHTS = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0, 15.0)


@pytest.mark.parametrize("rho", [BENCH_STEP, RhoFunction.exponential(), RhoFunction.affine(2.0, 1.0)])
@pytest.mark.parametrize(
    "n, heights",
    [(30, BENCH_HEIGHTS), (30, (0.0, 1.0, 2.5)), (7, tuple(range(12))), (1, tuple(np.linspace(0.0, 30.0, 300))),
     (300, (1.5,))],
    ids=["30x10", "30x3", "7x12", "1x300", "300x1"],
)
def test_certificate_settles_metric_samples(monkeypatch, rho, n, heights):
    # 30 x 3 puts a tile's first row inside the top height block, where only
    # P's mirror holds the pairs left of that row
    y = base_space(np.random.default_rng(n), n)
    want = looped_cone_sample(rho, y, heights)

    def refuse(*args, **kwargs):
        raise AssertionError("validate_metric ran on a sample the certificate should settle")

    monkeypatch.setattr(cone, "validate_metric", refuse)
    got = cone_sample(rho, y, heights)
    assert got.points == want.points
    assert got.dist.tobytes() == want.dist.tobytes()


def test_min_plus_tiles_match_a_broadcast_product():
    # 5 heights of 30 points: the tiles of 64 rows start inside height blocks
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 10.0, size=(5, 30, 30))
    stack = (a + a.transpose(0, 2, 1)).reshape(150, 30)
    cols = np.ascontiguousarray(stack.T)
    want = (stack[:, :, None] + cols[None, :, :]).min(axis=1)
    p = np.full((150, 150), np.inf)
    for lo, hi, c0, m in _min_plus_tiles(stack, cols, np.inf, True):
        assert (c0, m.shape) == (lo, (hi - lo, 150 - lo))
        p[lo:hi, c0:] = m
    assert np.array_equal(np.fmin(p, p.T), want)
    full = np.vstack([m for *_, m in _min_plus_tiles(stack, cols, np.inf, False)])
    assert np.array_equal(full, want)
