import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from coarsekit.cone import (
    ConePoint,
    RhoFunction,
    chain_oracle,
    cone_distance,
    cone_extension,
    cone_sample,
    parse_rho,
    phi,
    phi_closed_exp,
    rho_from_control,
    theta_embedding,
)
from coarsekit.errors import PreconditionError, StructuralError
from coarsekit.maps import (
    MonotoneEnvelope,
    closeness_constant,
    control_envelope,
)
from coarsekit.metric import FiniteMetricSpace, PointSubset
from coarsekit.phisuite import run_phi_suite, standard_rho_family
from support import integer_points_space, line_space, looped_phi, minimizer_height, numeric_phi


EXP = RhoFunction.exponential()


def brute_phi(rho, t, r, steps=400000):
    """Dense direct scan of the infimum objective (independent oracle)."""
    hi = r / (2.0 * max(rho(t), 1.0))
    if hi == 0:
        return r / max(rho(t), 1.0)
    us = np.linspace(0.0, hi, steps)
    vals = 2.0 * us + r / np.maximum(rho(us + t), 1.0)
    return float(vals.min())


class TestPhi:
    def test_exp_linear_branch(self):
        assert phi(EXP, 0.0, 1.0) == pytest.approx(1.0, abs=1e-7)

    def test_exp_log_branch(self):
        assert phi(EXP, 0.0, 2 * math.e) == pytest.approx(4.0, abs=1e-7)

    def test_zero_is_fixed(self):
        for rho in standard_rho_family():
            assert phi(rho, 3.0, 0.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            phi(EXP, -1.0, 1.0)
        with pytest.raises(PreconditionError):
            phi(EXP, 1.0, -1.0)

    def test_nan_radius_rejected(self):
        # every kind is in the standard family; inf stays a valid radius, also
        # where rho(t) is beyond float range
        for rho in standard_rho_family() + [RhoFunction.affine(1e308, 1e308)]:
            with pytest.raises(PreconditionError, match="phi needs t >= 0 and r >= 0"):
                phi(rho, 1.0, math.nan)
            with pytest.raises(PreconditionError, match="phi needs t >= 0 and r >= 0"):
                phi(rho, np.array([1.0, 2.0]), np.array([3.0, math.nan]))
            assert phi(rho, 1.0, math.inf) == math.inf

    @pytest.mark.parametrize(
        "slope, offset, t, r",
        [(1e308, 1e308, 5.0, 1.0), (1e308, 0.0, 2.0, 1.0), (2.5, 1e308, 7.3, 3.7),
         (1.0, 1e308, 1e308, 1e308), (0.5, 1.5e308, 1e308, 1e308)],
    )
    def test_affine_rho_beyond_float_range(self, slope, offset, t, r):
        # M t + L overflows, but u = 0 wins and r / (M t + L) is in range
        exact = Fraction(r) / (Fraction(slope) * Fraction(t) + Fraction(offset))
        assert phi(RhoFunction.affine(slope, offset), t, r) == pytest.approx(float(exact), rel=4e-16, abs=1e-323)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_heights_rejected(self, t):
        for rho in standard_rho_family():
            with pytest.raises(PreconditionError, match="phi needs finite heights t"):
                phi(rho, np.array([1.0, t]), 1.0)
        with pytest.raises(PreconditionError, match="cone heights must be finite"):
            ConePoint(0, t)
        y = line_space([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy RuntimeWarning on the way
            with pytest.raises(PreconditionError, match="waypoint heights must be finite"):
                chain_oracle(EXP, y, ConePoint(0, 0.0), ConePoint(1, 1.0), [1.0, t])
            with pytest.raises(PreconditionError, match="cone heights must be finite"):
                cone_sample(EXP, y, [1.0, t])

    def test_against_dense_scan(self):
        rng = np.random.default_rng(6)
        for rho in standard_rho_family():
            for _ in range(6):
                t = float(rng.uniform(0, 6))
                r = float(rng.uniform(0, 60))
                scan = brute_phi(rho, t, r)
                got = phi(rho, t, r)
                # every scan point is a valid u, so phi can only be lower;
                # the scan itself can overshoot by its grid resolution
                resolution = 4.0 * (r / 2.0) / 400000
                assert got <= scan + 1e-9
                assert got >= scan - max(1e-7, resolution)

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 1.0, 2.0])
        rs = np.array([1.0, 10.0, 100.0])
        vec = phi(EXP, ts, rs)
        for k in range(3):
            assert vec[k] == phi(EXP, float(ts[k]), float(rs[k]))

    def test_argmin_attains_value(self):
        for rho in standard_rho_family():
            val, u = (float(x) for x in looped_phi(rho, 1.5, 20.0))
            assert val == phi(rho, 1.5, 20.0)
            direct = 2.0 * u + 20.0 / max(rho(u + 1.5), 1.0)
            assert direct == pytest.approx(val, abs=1e-9)


class TestClosedForm:
    def test_values(self):
        assert phi_closed_exp(0.0, 1.0) == 1.0
        assert phi_closed_exp(0.0, 2.0) == 2.0  # both branches agree at the seam
        assert phi_closed_exp(1.0, 2 * math.e) == pytest.approx(2.0, abs=1e-12)

    def test_grid_agreement_with_numeric(self):
        ts = np.arange(0.0, 5.01, 0.5)
        rs = np.arange(0.0, 100.01, 0.1)
        grid_t, grid_r = np.meshgrid(ts, rs, indexing="ij")
        diff = np.abs(numeric_phi(EXP, grid_t, grid_r) - phi_closed_exp(grid_t, grid_r))
        assert float(diff.max()) <= 1e-7


class TestConeDistance:
    def test_identical_points(self):
        y = line_space([0, 1, 2], space_id="y")
        a = ConePoint(1, 2.0)
        assert cone_distance(EXP, y, a, a) == 0.0

    def test_same_base_heights(self):
        y = line_space([0, 1, 2], space_id="y")
        assert cone_distance(EXP, y, ConePoint(0, 3.0), ConePoint(0, 5.0)) == 2.0

    def test_exp_base_distance_four(self):
        y = line_space([0, 4], space_id="y")
        expected = 2 * math.log(2) + 2
        got = cone_distance(EXP, y, ConePoint(0, 0.0), ConePoint(1, 0.0))
        assert got == pytest.approx(expected, abs=1e-12)
        numeric = numeric_phi(EXP, 0.0, 4.0)
        assert numeric == pytest.approx(expected, abs=1e-7)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(8)
        for rho in standard_rho_family():
            y = integer_points_space(rng, 6, space_id="y")
            pts = [ConePoint(int(rng.integers(0, 6)), float(rng.uniform(0, 8))) for _ in range(6)]
            for a in pts:
                for b in pts:
                    for c in pts:
                        ab = cone_distance(rho, y, a, b)
                        ac = cone_distance(rho, y, a, c)
                        cb = cone_distance(rho, y, c, b)
                        assert ab <= ac + cb + 1e-6


class TestChainOracle:
    def test_single_link_dominates_cone_distance(self):
        y = line_space([0, 4], space_id="y")
        a, b = ConePoint(0, 1.0), ConePoint(1, 2.0)
        direct = chain_oracle(EXP, y, a, b, [])
        assert direct >= cone_distance(EXP, y, a, b) - 1e-9

    def test_minimizer_height_closes_the_gap(self):
        rng = np.random.default_rng(12)
        for rho in standard_rho_family():
            y = integer_points_space(rng, 5, space_id="y")
            a = ConePoint(int(rng.integers(0, 5)), float(rng.uniform(0, 4)))
            b = ConePoint(int(rng.integers(0, 5)), float(rng.uniform(0, 4)))
            s_star = minimizer_height(rho, a, b, float(y.dist[a.base, b.base]))
            upper = chain_oracle(rho, y, a, b, [s_star])
            target = cone_distance(rho, y, a, b)
            assert upper >= target - 1e-6
            assert upper == pytest.approx(target, abs=1e-6)

    def test_collinear_heights_same_base(self):
        y = line_space([0, 1, 2], space_id="y")
        a, b = ConePoint(2, 1.0), ConePoint(2, 6.0)
        assert chain_oracle(EXP, y, a, b, [2.0, 3.0]) == pytest.approx(5.0, abs=1e-12)


class TestTheta:
    def test_constant_one_slice_is_isometric(self):
        y = line_space([0, 1, 3], space_id="y")
        src, tgt, fmap = theta_embedding(RhoFunction.constant(1.0), y, 2.0)
        sample = tgt.members[0]
        for i in range(3):
            for j in range(3):
                assert sample.dist[i, j] == pytest.approx(y.dist[i, j], abs=1e-9)

    def test_lipschitz_constant(self):
        rng = np.random.default_rng(3)
        for rho in standard_rho_family():
            y = integer_points_space(rng, 5, space_id="y")
            for t in (0.0, 1.0, 4.0):
                src, tgt, fmap = theta_embedding(rho, y, t)
                c = 1.0 / max(rho(t), 1.0)
                env = control_envelope(fmap, src, tgt)
                for s, v in env.breakpoints:
                    assert v <= c * s + 1e-9

    def test_large_height_contracts_for_exp(self):
        y = line_space([0, 5], space_id="y")
        _, tgt, _ = theta_embedding(EXP, y, 12.0)
        assert tgt.members[0].dist[0, 1] == pytest.approx(5 * math.exp(-12.0), rel=1e-9)


class TestConeExtension:
    def path_fixture(self):
        s = line_space(list(range(11)), space_id="x")
        x0 = PointSubset("x", tuple(range(6)))
        y = line_space(list(range(6)), space_id="y")
        env = MonotoneEnvelope(tuple((float(k), float(k)) for k in range(6)))
        return s, x0, y, env

    def test_nearest_point_and_height(self):
        s, x0, y, env = self.path_fixture()
        ext = cone_extension(s, x0, tuple(range(6)), y, env)
        assert ext.nearest[8] == 5
        assert ext.heights[8] == 3.0
        label = ext.sample.points[ext.full_map.functions[0].assignment[8]]
        assert label == "5@3"

    def test_restriction_close_to_slice(self):
        s, x0, y, env = self.path_fixture()
        ext = cone_extension(s, x0, tuple(range(6)), y, env)
        c = closeness_constant(
            ext.slice_of_partial, ext.restricted_map, ext.part_family, ext.target_family
        )
        assert c <= 1.0

    def test_control_bound_on_all_pairs(self):
        s, x0, y, env = self.path_fixture()
        ext = cone_extension(s, x0, tuple(range(6)), y, env)
        sample = ext.sample
        assign = ext.full_map.functions[0].assignment
        for i in range(s.n):
            for j in range(s.n):
                d = float(s.dist[i, j])
                lhs = sample.dist[assign[i], assign[j]]
                assert lhs <= d + ext.rho(d) + 1e-7

    @pytest.mark.parametrize("row", [[math.nan, 1.0], [1.0, math.nan]])
    def test_nan_distance_to_x0_is_refused(self, row):
        # a NaN is never a height, whether it comes before or after a finite distance
        s = FiniteMetricSpace("x", ("a", "b", "c"), [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], row + [0.0]])
        y = line_space([0, 1], space_id="y")
        env = MonotoneEnvelope(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(PreconditionError, match="cone heights must be finite"):
            cone_extension(s, PointSubset("x", (0, 1)), (0, 1), y, env)

    def test_whole_space_as_x0_reduces_to_slice(self):
        s = line_space([0, 1, 2], space_id="x")
        x0 = PointSubset("x", (0, 1, 2))
        y = line_space([0, 1, 2], space_id="y")
        env = MonotoneEnvelope(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        ext = cone_extension(s, x0, (0, 1, 2), y, env)
        assert all(h == 0.0 for h in ext.heights)
        c = closeness_constant(
            ext.slice_of_partial, ext.restricted_map, ext.part_family, ext.target_family
        )
        assert c == 0.0


class TestRhoPlumbing:
    def test_literal_round_trip(self):
        for rho in standard_rho_family():
            if rho.kind != "table":
                assert parse_rho(rho.literal()) == rho

    def test_parse_errors(self):
        with pytest.raises(StructuralError):
            parse_rho("waves:1")
        with pytest.raises(StructuralError):
            RhoFunction.step(((2.0, 3.0), (1.0, 5.0)))
        with pytest.raises(StructuralError):
            RhoFunction.step(((0.0, 3.0), (1.0, 1.0)))

    @pytest.mark.parametrize("build", [
        lambda x: RhoFunction.constant(x),
        lambda x: RhoFunction.affine(x, 0.0),
        lambda x: RhoFunction.affine(1.0, x),
        lambda x: RhoFunction.step(((0.0, x),)),
        lambda x: RhoFunction.step(((0.0, 1.0), (x, 2.0))),
        lambda x: RhoFunction.table(((0.0, 1.0), (1.0, x))),
    ], ids=["const", "slope", "offset", "step-value", "step-break", "table-value"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, build, x):
        with pytest.raises(StructuralError, match="must be finite"):
            build(x)

    def test_rho_from_control_matches_definition(self):
        env = MonotoneEnvelope(((0.0, 0.0), (1.0, 2.0), (5.0, 9.0), (14.0, 40.0)))
        rho = rho_from_control(env)
        for t in np.linspace(0, 10, 101):
            assert rho(float(t)) == max(env(3 * float(t) + 2), 1.0)


def test_phi_suite_smoke():
    v = run_phi_suite(samples=60, seed=1)
    assert v.passed, [i.path + ": " + i.detail for i in v.failures]


def test_phi_suite_refuses_an_empty_sample():
    # with nothing sampled every margin check is over an empty array
    with pytest.raises(PreconditionError, match="at least one sample"):
        run_phi_suite(samples=0)
