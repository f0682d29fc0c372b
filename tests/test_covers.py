import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsekit.covers import (
    ANControlCertificate,
    ANEntry,
    AsdimCertificate,
    AsdimEntry,
    Cover,
    check_an_control,
    check_asdim_certificate,
    cover_dimension,
    cover_stats,
    greedy_color,
    lebesgue_number,
    mesh,
    product_control_coefficient,
    product_cover,
    pushforward_quotient_cover,
)
from coarsekit.errors import PreconditionError, StructuralError
from coarsekit.generators import (
    path_an_certificate,
    path_asdim_certificate,
    star_an_certificate,
    star_tree,
    unit_path,
)
from coarsekit.metric import (
    _STAT_ROWS,
    FiniteMetricSpace,
    GroupAction,
    MetricFamily,
    PointSubset,
    _element_stats,
)
from support import (
    brute_lebesgue,
    cyclic_isometric_action,
    family_of,
    integer_points_space,
    line_space,
    looped_best_reach,
    looped_cover_stats,
    path_multiplicity_cover,
    random_cover_sets,
    space_from_matrix,
)


def _bits(values) -> list[int]:
    """The float64 bit patterns of ``values``, so NaN and -0.0 compare exactly."""
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


def path11():
    return unit_path(11, "path")


def two_intervals(space):
    return Cover(
        space.id,
        (
            PointSubset(space.id, tuple(range(0, 7))),
            PointSubset(space.id, tuple(range(4, 11))),
        ),
    )


class TestStatistics:
    def test_dimension_of_singleton_partition(self):
        s = path11()
        cov = Cover(s.id, tuple(PointSubset(s.id, (i,)) for i in range(s.n)))
        assert cover_dimension(cov, s) == 0

    def test_dimension_of_two_intervals(self):
        s = path11()
        assert cover_dimension(two_intervals(s), s) == 1

    def test_dimension_of_repeated_whole_space(self):
        s = path11()
        whole = PointSubset(s.id, tuple(range(s.n)))
        for k in (1, 3, 5):
            assert cover_dimension(Cover(s.id, (whole,) * k), s) == k - 1

    def test_lebesgue_whole_space_is_inf(self):
        s = path11()
        whole = PointSubset(s.id, tuple(range(s.n)))
        assert math.isinf(lebesgue_number(Cover(s.id, (whole,)), s))

    def test_lebesgue_two_intervals_matches_brute_force(self):
        # independent oracle: largest candidate lambda whose open balls all
        # fit; the interval pair {0..6}, {4..10} gives 2 (witness x = 5)
        s = path11()
        cov = two_intervals(s)
        oracle = brute_lebesgue([el.indices for el in cov.elements], s)
        assert lebesgue_number(cov, s) == oracle == 2.0

    def test_lebesgue_singletons(self):
        s = path11()
        cov = Cover(s.id, tuple(PointSubset(s.id, (i,)) for i in range(s.n)))
        oracle = brute_lebesgue([el.indices for el in cov.elements], s)
        assert lebesgue_number(cov, s) == oracle == 1.0

    def test_lebesgue_randomized_against_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(15):
            s = integer_points_space(rng, int(rng.integers(4, 9)), space_id=f"s{trial}")
            sets = random_cover_sets(rng, s, elements=int(rng.integers(2, 5)))
            cov = Cover(s.id, tuple(PointSubset(s.id, t) for t in sets))
            assert lebesgue_number(cov, s) == brute_lebesgue(sets, s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 3),
           whole=st.booleans(), singletons=st.booleans(), overlap=st.integers(0, 4),
           big=st.booleans(), clusters=st.booleans(), nan=st.booleans(),
           negzero=st.booleans(), duplicates=st.booleans())
    def test_cover_stats_edges_against_brute_force(
        self, seed, blocks, whole, singletons, overlap, big, clusters, nan, negzero, duplicates
    ):
        """Blocks at distance inf from each other, an element equal to the
        whole space, singleton elements, heavily overlapping elements and
        repeated elements, on up to 60 points with pseudo zero distances
        inside clusters, NaN entries and -0.0 entries: bit for bit the
        per-element pass, and the brute-force values where they apply."""
        rng = np.random.default_rng(seed)
        npts = int(rng.integers(1, 61 if big else 10))
        base = integer_points_space(rng, npts, coord_range=8 if big else 6)
        block = rng.integers(0, blocks, size=base.n)
        d = np.where(block[:, None] == block[None, :], base.dist, np.inf)
        if clusters:  # pseudo zero distances; half the time the clusters are elements too
            cluster = rng.integers(0, max(1, base.n // 4), size=base.n)
            d[cluster[:, None] == cluster[None, :]] = 0.0
        flip = np.triu(rng.random(d.shape) < 0.3)
        flip |= flip.T
        if negzero:
            d[flip & (d == 0)] = -0.0
        if nan:
            d[flip & (rng.random(d.shape) < 0.1)] = np.nan
            d = np.where(np.isnan(d.T), d.T, d)
        s = FiniteMetricSpace("s", base.points, d, pseudo=True)
        sets = [tuple(range(s.n))] if whole else []
        if singletons:
            sets += [(int(i),) for i in rng.permutation(s.n)[:max(1, s.n // 2)]]
        for _ in range(overlap):
            size = s.n - int(rng.integers(1, 3)) if rng.random() < 0.5 else rng.integers(1, s.n + 1)
            keep = rng.permutation(s.n)[:max(1, size)]
            sets.append(tuple(int(i) for i in keep))
        if clusters and rng.random() < 0.5:  # else a point's best reach may be a zero
            sets += [tuple(np.flatnonzero(cluster == c).tolist()) for c in np.unique(cluster)]
        if duplicates and sets:
            sets += [sets[int(i)] for i in rng.integers(0, len(sets), size=3)]
        covered = set().union(*sets)
        sets += [(i,) for i in range(s.n) if i not in covered]
        cov = Cover(s.id, tuple(PointSubset(s.id, t) for t in sets))
        counts, leb, diams = cover_stats(cov, s)
        want_counts, want_leb, want_diams = looped_cover_stats(cov, s)
        assert counts.tolist() == want_counts.tolist()
        assert _bits(leb) == _bits(want_leb)
        assert _bits(diams) == _bits(want_diams)
        assert _bits(mesh(cov, s)) == _bits(max(want_diams))
        assert _bits(_element_stats(s, cov.elements)[1]) == _bits(looped_best_reach(s, cov.elements))
        assert counts.tolist() == [sum(i in t for t in sets) for i in range(s.n)]
        if not nan:
            assert diams == [max(float(d[i, j]) for i in t for j in t) for t in sets]
            if s.n <= 12:
                assert leb == brute_lebesgue(sets, s)

    def test_integer_points_space_refuses_more_points_than_its_box_holds(self):
        rng = np.random.default_rng(0)
        assert integer_points_space(rng, 36, coord_range=6).n == 36
        with pytest.raises(ValueError, match="37 distinct points .* holds 36"):
            integer_points_space(rng, 37, coord_range=6)
        with pytest.raises(ValueError, match="149 distinct points .* holds 16"):
            integer_points_space(rng, 149, coord_range=4)

    def test_cover_stats_keeps_the_later_zero_reach(self):
        """Point a reaches -0.0 out of {a, b} and 0.0 out of {a, c}; as in
        np.maximum, the zero of the later element wins."""
        s = space_from_matrix([[0.0, 0.0, -0.0], [0.0, 0.0, 1.0], [-0.0, 1.0, 0.0]], pseudo=True)
        ab, ac = PointSubset(s.id, (0, 1)), PointSubset(s.id, (0, 2))
        for elements, negative in (((ab, ac), False), ((ac, ab), True)):
            cov = Cover(s.id, elements)
            leb = cover_stats(cov, s)[1]
            assert _bits(leb) == _bits(looped_cover_stats(cov, s)[1])
            assert leb == 0.0 and math.copysign(1.0, leb) == (-1.0 if negative else 1.0)

    def test_cover_stats_past_one_row_block(self):
        """A 700-point path under length-40 intervals at step 20, with
        -0.0 and NaN entries, fills several row blocks of each size."""
        s = unit_path(700, "p")
        d = s.dist.copy()
        d[np.eye(s.n, dtype=bool)] = -0.0
        d[3, 650] = d[650, 3] = np.nan  # the reach of point 3
        d[100, 110] = d[110, 100] = np.nan  # the diameters of elements 4 and 5
        s = FiniteMetricSpace("p", s.points, d)
        cov = Cover(s.id, tuple(PointSubset(s.id, tuple(range(a, min(a + 40, s.n))))
                                for a in range(0, s.n, 20)))
        rows = sum(len(el) for el in cov.elements)
        assert rows > 2 * _STAT_ROWS and 40 * len(cov.elements) > rows
        counts, leb, diams = cover_stats(cov, s)
        want_counts, want_leb, want_diams = looped_cover_stats(cov, s)
        assert counts.tolist() == want_counts.tolist()
        assert _bits(leb) == _bits(want_leb)
        assert _bits(diams) == _bits(want_diams)
        assert math.isnan(leb) and math.isnan(diams[4]) and math.isnan(diams[5])
        assert diams[:4] + diams[6:] == [39.0] * 32 + [19.0]
        # x = 20k + j lies 20 - j inside [20k - 20, 20k + 19] and j + 1 inside
        # [20k, 20k + 39], so the worst point reaches 11
        assert cover_stats(cov, unit_path(700, "p"))[1] == 11.0

    def test_cover_stats_stays_within_the_row_budget(self):
        """Peak traced allocation on a 1 500-point path whose overlapping
        intervals hold about 3 000 rows stays within three row blocks: the
        gathered rows, their other columns and the masks that pick them."""
        s = unit_path(1500, "p")
        cov = Cover(s.id, tuple(PointSubset(s.id, tuple(range(a, min(a + 40, s.n))))
                                for a in range(0, s.n, 20)))
        rows = sum(len(el) for el in cov.elements)
        assert rows > 4 * _STAT_ROWS
        tracemalloc.start()
        try:
            cover_stats(cov, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * _STAT_ROWS * s.n * 8

    def test_mesh(self):
        s = path11()
        singles = Cover(s.id, tuple(PointSubset(s.id, (i,)) for i in range(s.n)))
        assert mesh(singles, s) == 0
        assert mesh(two_intervals(s), s) == 6
        whole = Cover(s.id, (PointSubset(s.id, tuple(range(s.n))),))
        assert mesh(whole, s) == s.diameter()

    def test_cover_must_cover(self):
        s = path11()
        with pytest.raises(StructuralError):
            cover_dimension(Cover(s.id, (PointSubset(s.id, (0, 1)),)), s)


class TestAsdimCertificate:
    def test_path_family_interval_covers_pass(self):
        fam = MetricFamily("paths", (unit_path(40, "p40"), unit_path(25, "p25")))
        cert = path_asdim_certificate(fam, [1, 2, 4])
        assert check_asdim_certificate(cert, fam).passed

    def test_overlap_forces_dimension_failure(self):
        s = path11()
        fam = family_of(s, family_id="paths")
        cov = two_intervals(s)
        cert = AsdimCertificate("paths", 0, (AsdimEntry(1.0, 10.0, ((s.id, cov),)),))
        v = check_asdim_certificate(cert, fam)
        assert not v.passed
        assert any("dimension" in item.path for item in v.failures)

    def test_understated_mesh_bound_fails_with_witness(self):
        s = path11()
        fam = family_of(s, family_id="paths")
        cert = AsdimCertificate("paths", 1, (AsdimEntry(1.0, 5.0, ((s.id, two_intervals(s)),)),))
        v = check_asdim_certificate(cert, fam)
        assert not v.passed
        assert any("mesh" in item.path and "diameter 6" in item.detail for item in v.failures)

    def test_dangling_member_is_structural(self):
        s = path11()
        fam = family_of(s, family_id="paths")
        cov = Cover("ghost", (PointSubset("ghost", (0,)),))
        cert = AsdimCertificate("paths", 1, (AsdimEntry(1.0, 5.0, (("ghost", cov),)),))
        with pytest.raises(StructuralError):
            check_asdim_certificate(cert, fam)

    def test_repeated_member_is_structural(self):
        # the second cover misses points; read first-wins, the entry would pass
        s = path11()
        whole = Cover(s.id, (PointSubset(s.id, tuple(range(s.n))),))
        part = Cover(s.id, (PointSubset(s.id, (0,)),))
        cert = AsdimCertificate("paths", 0, (AsdimEntry(0.0, 10.0, ((s.id, whole), (s.id, part))),))
        with pytest.raises(StructuralError, match="lists member 'path' more than once"):
            check_asdim_certificate(cert, family_of(s, family_id="paths"))


class TestQuotientPushforward:
    def test_trivial_group_preserves_cover(self):
        s = line_space([0, 1, 2], space_id="p")
        act = GroupAction(s.id, ("e",), (tuple(range(3)),), ((0,),))
        cov = Cover(s.id, (PointSubset(s.id, (0, 1)), PointSubset(s.id, (1, 2))))
        q, qcov = pushforward_quotient_cover(s, act, cov)
        assert q.n == 3
        assert [el.indices for el in qcov.elements] == [(0, 1), (1, 2)]

    def test_negation_example(self):
        s = line_space([-2, -1, 0, 1, 2], space_id="z")
        flip = GroupAction(s.id, ("e", "g"), ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0)), ((0, 1), (1, 0)))
        cov = Cover(s.id, (PointSubset(s.id, (0, 1, 2)), PointSubset(s.id, (2, 3, 4))))
        q, qcov = pushforward_quotient_cover(s, flip, cov)
        assert q.n == 3
        # both halves map onto the whole quotient
        assert [el.indices for el in qcov.elements] == [(0, 1, 2), (0, 1, 2)]
        assert cover_dimension(qcov, q) == 1 <= 2 * (1 + 1) - 1

    def test_free_action_on_dimension_zero_cover(self):
        # free Z/2 swap of two pairs; singleton cover has dimension 0 and the
        # pushed cover stays within |F| - 1 = 1
        s = space_from_matrix(
            [[0, 5, 2, 5], [5, 0, 5, 2], [2, 5, 0, 5], [5, 2, 5, 0]],
            labels=("a", "b", "c", "d"),
            space_id="sw",
        )
        act = GroupAction(s.id, ("e", "g"), ((0, 1, 2, 3), (1, 0, 3, 2)), ((0, 1), (1, 0)))
        singles = Cover(s.id, tuple(PointSubset(s.id, (i,)) for i in range(4)))
        q, qcov = pushforward_quotient_cover(s, act, singles)
        assert cover_dimension(singles, s) == 0
        assert cover_dimension(qcov, q) <= 2 * (0 + 1) - 1

    def test_randomized_guarantees(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            base = integer_points_space(rng, int(rng.integers(4, 12)), space_id=f"b{trial}")
            order = int(rng.integers(2, 5))
            sym, act = cyclic_isometric_action(rng, base, order)
            sets = random_cover_sets(rng, sym, elements=int(rng.integers(2, 5)))
            cov = Cover(sym.id, tuple(PointSubset(sym.id, t) for t in sets))
            q, qcov = pushforward_quotient_cover(sym, act, cov)
            in_dim = cover_dimension(cov, sym)
            assert cover_dimension(qcov, q) <= order * (in_dim + 1) - 1
            assert lebesgue_number(qcov, q) >= lebesgue_number(cov, sym)
            assert mesh(qcov, q) <= mesh(cov, sym)


class TestProductCover:
    def test_single_factor_is_identity(self):
        s = unit_path(10, "p")
        cov = path_multiplicity_cover(s)
        space, out = product_cover([s], [cov])
        assert space is s and out is cov

    def test_two_paths_cover_verified_exhaustively(self):
        a = unit_path(10, "pa")
        b = unit_path(9, "pb")
        ca, cb = path_multiplicity_cover(a), path_multiplicity_cover(b)
        prod, out = product_cover([a, b], [ca, cb])
        assert prod.n == 90
        covered = set()
        for el in out.elements:
            covered.update(el.indices)
        assert covered == set(range(prod.n))
        # color classes are 1-disjoint in the l^1 metric when factors are
        for color in range(3):
            cls = [el for el, c in zip(out.elements, out.colors) if c == color]
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    ia = np.array(cls[i].indices)
                    jb = np.array(cls[j].indices)
                    assert prod.dist[np.ix_(ia, jb)].min() > 1
        # mesh of the product is at most the sum of factor meshes
        assert mesh(out, prod) <= mesh(ca, a) + mesh(cb, b)

    def test_multiplicity_violation_names_the_point(self):
        s = unit_path(6, "p")
        thin = Cover(
            s.id,
            (PointSubset(s.id, (0, 1, 2)), PointSubset(s.id, (3, 4, 5))),
            (0, 1),
        )
        with pytest.raises(PreconditionError) as err:
            product_cover([s, s], [thin, thin])
        assert "multiplicity" in str(err.value)

    def test_control_coefficient_recurrence(self):
        assert product_control_coefficient(2) == 3
        assert product_control_coefficient(3) == 11
        f = {2: 3}
        for n in range(3, 21):
            f[n] = 3 * f[n - 1] + 2
        for n in range(2, 21):
            assert product_control_coefficient(n) == f[n] == 3 ** (n - 1) + 3 ** (n - 2) - 1


class TestANControl:
    def test_unit_path_affine_control(self):
        fam = MetricFamily("paths", (unit_path(64, "p64"),))
        cert = path_an_certificate(fam, [1, 2, 4, 8])
        assert check_an_control(cert, fam).passed

    def test_star_trees_with_slope_three(self):
        fam = MetricFamily(
            "stars", (star_tree(3, 12, "s3"), star_tree(5, 9, "s5"), unit_path(20, "ray"))
        )
        cert_stars = star_an_certificate(
            MetricFamily("stars", (star_tree(3, 12, "s3"), star_tree(5, 9, "s5"))),
            [1, 2, 4],
        )
        fam2 = MetricFamily("stars", (star_tree(3, 12, "s3"), star_tree(5, 9, "s5")))
        assert check_an_control(cert_stars, fam2).passed

    def test_understated_offset_fails_at_largest_scale(self):
        fam = MetricFamily("paths", (unit_path(64, "p64"),))
        good = path_an_certificate(fam, [1, 2, 4, 8])
        bad = ANControlCertificate(good.family_id, good.n, 1.0, 0.0, good.entries)
        v = check_an_control(bad, fam)
        assert not v.passed
        mesh_failures = [i for i in v.failures if "mesh" in i.path]
        assert mesh_failures and any("entry3" in i.path for i in mesh_failures)

    def test_repeated_member_is_structural(self):
        s = path11()
        whole = Cover(s.id, (PointSubset(s.id, tuple(range(s.n))),), (0,))
        part = Cover(s.id, (PointSubset(s.id, (0,)),), (0,))
        cert = ANControlCertificate("F", 0, 1.0, 10.0, (ANEntry(1.0, ((s.id, whole), (s.id, part))),))
        with pytest.raises(StructuralError, match="lists member 'path' more than once"):
            check_an_control(cert, family_of(s, family_id="F"))

    def test_uncolored_cover_greedily_colored(self):
        s = unit_path(12, "p")
        colored = path_an_certificate(family_of(s, family_id="F"), [2]).entries[0].covers[0][1]
        uncolored = Cover(s.id, colored.elements)
        cert = ANControlCertificate("F", 1, 4.0, 0.0, (ANEntry(2.0, ((s.id, uncolored),)),))
        assert check_an_control(cert, family_of(s, family_id="F")).passed
        out = greedy_color(uncolored, s, 2.0, 1)
        assert out is not None and set(out.colors) <= {0, 1}
