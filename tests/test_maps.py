import math

import numpy as np
import pytest

from coarsekit.errors import PreconditionError, StructuralError
from coarsekit.maps import (
    FamilyMap,
    MapFunction,
    MonotoneEnvelope,
    closeness_constant,
    compose,
    control_envelope,
    is_coarsely_onto,
    looks_non_proper,
    preimage_family,
    properness_envelope,
    validate_map,
)
from coarsekit.metric import FiniteMetricSpace, PointSubset
from support import family_of, identity_map, integer_points_space, line_space, looped_coarse_onto


def doubling_fixture():
    src = line_space([0, 1, 2], space_id="dom")
    tgt = line_space([0, 2, 4], space_id="ran")
    fam_s = family_of(src, family_id="S")
    fam_t = family_of(tgt, family_id="T")
    fmap = FamilyMap("S", "T", (MapFunction("dom", "ran", (0, 1, 2)),))
    return fam_s, fam_t, fmap


def constant_fixture():
    src = line_space([0, 1, 2, 3], space_id="dom")
    tgt = line_space([0, 7], space_id="ran")
    fam_s = family_of(src, family_id="S")
    fam_t = family_of(tgt, family_id="T")
    to_zero = FamilyMap("S", "T", (MapFunction("dom", "ran", (0, 0, 0, 0)),))
    to_seven = FamilyMap("S", "T", (MapFunction("dom", "ran", (1, 1, 1, 1)),))
    return fam_s, fam_t, to_zero, to_seven


class TestEnvelopes:
    def test_identity_control_is_identity_on_realized(self):
        fam = family_of(line_space([0, 1, 5]), family_id="F")
        env = control_envelope(identity_map(fam), fam, fam)
        for s, v in env.breakpoints:
            assert v == s
        assert env(1) == 1 and env(3) == 1 and env(5) == 5

    def test_constant_map_control_is_zero(self):
        fam_s, fam_t, to_zero, _ = constant_fixture()
        env = control_envelope(to_zero, fam_s, fam_t)
        assert all(v == 0 for _, v in env.breakpoints)

    def test_doubling_envelopes(self):
        fam_s, fam_t, fmap = doubling_fixture()
        # brute-force oracle over all pairs
        src, tgt = fam_s.members[0], fam_t.members[0]
        pairs = [
            (src.dist[i, j], tgt.dist[i, j])
            for i in range(3)
            for j in range(3)
        ]
        realized = sorted({s for s, _ in pairs})
        expect_rho = {s: max(u for t, u in pairs if t <= s) for s in realized}
        expect_delta = {s: min(u for t, u in pairs if t >= s) for s in realized}
        rho = control_envelope(fmap, fam_s, fam_t)
        delta = properness_envelope(fmap, fam_s, fam_t)
        assert dict(rho.breakpoints) == expect_rho
        assert dict(delta.breakpoints) == expect_delta
        assert rho(1) == 2 and rho(2) == 4
        assert delta(1) == 2 and delta(2) == 4

    def test_control_tightness_witness(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            src = integer_points_space(rng, 6, space_id="s")
            tgt = integer_points_space(rng, 5, space_id="t")
            assignment = tuple(int(v) for v in rng.integers(0, 5, size=6))
            fam_s, fam_t = family_of(src, family_id="S"), family_of(tgt, family_id="T")
            fmap = FamilyMap("S", "T", (MapFunction("s", "t", assignment),))
            env = control_envelope(fmap, fam_s, fam_t)
            pairs = [
                (src.dist[i, j], tgt.dist[assignment[i], assignment[j]])
                for i in range(6)
                for j in range(6)
            ]
            values = [v for _, v in env.breakpoints]
            assert values == sorted(values)
            for s, v in env.breakpoints:
                assert any(t <= s and u == v for t, u in pairs)

    def test_non_proper_flag(self):
        fam_s, fam_t, to_zero, _ = constant_fixture()
        delta = properness_envelope(to_zero, fam_s, fam_t)
        assert all(v == 0 for _, v in delta.breakpoints)
        assert looks_non_proper(delta)
        fam = family_of(line_space([0, 1]), family_id="F")
        ident = properness_envelope(identity_map(fam), fam, fam)
        assert not looks_non_proper(ident)

    def test_envelope_monotonicity_enforced(self):
        with pytest.raises(StructuralError):
            MonotoneEnvelope(((0.0, 2.0), (1.0, 1.0)))


class TestCloseness:
    def test_same_map_is_zero(self):
        fam_s, fam_t, fmap = doubling_fixture()
        assert closeness_constant(fmap, fmap, fam_s, fam_t) == 0

    def test_two_constant_maps(self):
        fam_s, fam_t, to_zero, to_seven = constant_fixture()
        assert closeness_constant(to_zero, to_seven, fam_s, fam_t) == 7

    def test_mismatched_codomains_rejected(self):
        src = line_space([0, 1], space_id="dom")
        t1 = line_space([0, 1], space_id="r1")
        t2 = line_space([0, 1], space_id="r2")
        fam_s = family_of(src, family_id="S")
        fam_t = family_of(t1, t2, family_id="T")
        a = FamilyMap("S", "T", (MapFunction("dom", "r1", (0, 1)),))
        b = FamilyMap("S", "T", (MapFunction("dom", "r2", (0, 1)),))
        with pytest.raises(PreconditionError):
            closeness_constant(a, b, fam_s, fam_t)

    def test_pseudo_metric_on_maps(self):
        rng = np.random.default_rng(5)
        src = integer_points_space(rng, 5, space_id="s")
        tgt = integer_points_space(rng, 6, space_id="t")
        fam_s, fam_t = family_of(src, family_id="S"), family_of(tgt, family_id="T")
        maps = [
            FamilyMap("S", "T", (MapFunction("s", "t", tuple(int(v) for v in rng.integers(0, 6, size=5))),))
            for _ in range(4)
        ]
        c = {}
        for i, a in enumerate(maps):
            for j, b in enumerate(maps):
                c[i, j] = closeness_constant(a, b, fam_s, fam_t)
        for i in range(4):
            assert c[i, i] == 0
            for j in range(4):
                assert c[i, j] == c[j, i]
                for k in range(4):
                    assert c[i, k] <= c[i, j] + c[j, k] + 1e-12


class TestCoarselyOnto:
    def test_surjective_is_zero(self):
        fam_s, fam_t, fmap = doubling_fixture()
        assert is_coarsely_onto(fmap, fam_s, fam_t) == (True, 0.0)

    def test_even_points_of_path(self):
        src = line_space([0, 2, 4, 6, 8, 10], space_id="dom")
        tgt = line_space(list(range(11)), space_id="ran")
        fam_s, fam_t = family_of(src, family_id="S"), family_of(tgt, family_id="T")
        fmap = FamilyMap("S", "T", (MapFunction("dom", "ran", (0, 2, 4, 6, 8, 10)),))
        onto, c = is_coarsely_onto(fmap, fam_s, fam_t)
        assert onto and c == 1.0
        # oracle: max over target points of distance to the image
        image = {0, 2, 4, 6, 8, 10}
        expect = max(min(abs(y - x) for x in image) for y in range(11))
        assert c == expect

    def test_unhit_member_gives_sentinel(self):
        src = line_space([0, 1], space_id="dom")
        t1 = line_space([0, 1], space_id="r1")
        t2 = line_space([0, 1], space_id="r2")
        fam_s = family_of(src, family_id="S")
        fam_t = family_of(t1, t2, family_id="T")
        fmap = FamilyMap("S", "T", (MapFunction("dom", "r1", (0, 1)),))
        onto, c = is_coarsely_onto(fmap, fam_s, fam_t)
        assert onto is False and math.isinf(c)

    def test_nan_distance_to_the_image_gives_nan(self):
        # max(0.0, nan) is 0.0: a Python max over the functions dropped the NaN
        tgt = FiniteMetricSpace("ran", ("a", "b", "c"), [[0, math.nan, 5], [math.nan, 0, 1], [5, 1, 0]])
        fam_s, fam_t = family_of(line_space([0], space_id="dom"), family_id="S"), family_of(tgt, family_id="T")
        fmap = FamilyMap("S", "T", (MapFunction("dom", "ran", (0,)),))
        onto, c = is_coarsely_onto(fmap, fam_s, fam_t)
        assert onto is True and math.isnan(c)
        assert math.isnan(looped_coarse_onto(fmap, fam_s, fam_t)[1])


class TestPreimages:
    def test_whole_targets_pull_back_to_whole_sources(self):
        fam_s, fam_t, fmap = doubling_fixture()
        subs = [PointSubset("ran", (0, 1, 2))]
        out = preimage_family(fmap, fam_s, fam_t, subs)
        assert out == (PointSubset("dom", (0, 1, 2)),)

    def test_constant_map_pulls_image_point_to_domain(self):
        fam_s, fam_t, to_zero, _ = constant_fixture()
        out = preimage_family(to_zero, fam_s, fam_t, [PointSubset("ran", (0,))])
        assert out == (PointSubset("dom", (0, 1, 2, 3)),)
        # empty preimages are dropped
        out = preimage_family(to_zero, fam_s, fam_t, [PointSubset("ran", (1,))])
        assert out == ()

    def test_doubling_preimage(self):
        fam_s, fam_t, fmap = doubling_fixture()
        out = preimage_family(fmap, fam_s, fam_t, [PointSubset("ran", (0, 1))])
        assert out == (PointSubset("dom", (0, 1)),)


def test_composition_control_bounded_by_composed_envelopes():
    rng = np.random.default_rng(23)
    for trial in range(10):
        a = integer_points_space(rng, 6, space_id="a")
        b = integer_points_space(rng, 5, space_id="b")
        c = integer_points_space(rng, 7, space_id="c")
        fa, fb, fc = family_of(a, family_id="A"), family_of(b, family_id="B"), family_of(c, family_id="C")
        f = FamilyMap("A", "B", (MapFunction("a", "b", tuple(int(v) for v in rng.integers(0, 5, size=6))),))
        g = FamilyMap("B", "C", (MapFunction("b", "c", tuple(int(v) for v in rng.integers(0, 7, size=5))),))
        gf = compose(f, g)
        validate_map(gf, fa, fc)
        rho_f = control_envelope(f, fa, fb)
        rho_g = control_envelope(g, fb, fc)
        rho_gf = control_envelope(gf, fa, fc)
        for s, v in rho_gf.breakpoints:
            assert v <= rho_g(rho_f(s)) + 1e-12


def test_coarse_equivalence_checked_from_both_maps():
    # inverses are never constructed; given both directions, equivalence is
    # the closeness of the two compositions to the identities
    fam = family_of(line_space([0, 2, 4, 6], space_id="m"), family_id="F")
    shift = FamilyMap("F", "F", (MapFunction("m", "m", (1, 2, 3, 3)),))
    back = FamilyMap("F", "F", (MapFunction("m", "m", (0, 0, 1, 2)),))
    ident = identity_map(fam)
    there_back = compose(shift, back)
    back_there = compose(back, shift)
    assert closeness_constant(there_back, ident, fam, fam) <= 2
    assert closeness_constant(back_there, ident, fam, fam) <= 2


def test_map_validation_requires_every_source_member():
    s1 = line_space([0, 1], space_id="m1")
    s2 = line_space([0, 1], space_id="m2")
    tgt = line_space([0, 1], space_id="t")
    fam_s = family_of(s1, s2, family_id="S")
    fam_t = family_of(tgt, family_id="T")
    fmap = FamilyMap("S", "T", (MapFunction("m1", "t", (0, 1)),))
    with pytest.raises(StructuralError):
        validate_map(fmap, fam_s, fam_t)
