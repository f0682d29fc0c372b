import math
import warnings

import numpy as np
import pytest

from coarsekit import decomposition
from coarsekit.decomposition import (
    DecompositionCertificate,
    FiberingWitness,
    MemberDecomposition,
    ball_preimage_family,
    check_decomposition,
    check_fibering_witness,
    piece_family,
    r_components,
    search_decomposition,
    union_separator_map,
)
from coarsekit.covers import cover_dimension, lebesgue_number, mesh
from coarsekit.errors import PreconditionError, StructuralError
from coarsekit.generators import (
    grid_projection_fixture,
    integer_grid,
    path_asdim_certificate,
    path_decomposition,
    unit_path,
)
from coarsekit.maps import FamilyMap, MapFunction
from coarsekit.metric import FiniteMetricSpace, PointSubset
from coarsekit.report import CheckItem
from support import (
    EIGHT_POINT_L1,
    GRID14_L1,
    SEVEN_POINT_L1,
    brute_first_coloring,
    brute_force_decomposable,
    closure_blocks,
    coloring_of,
    decomposition_to_cover,
    family_of,
    integer_points_space,
    l1_points_space,
    line_space,
    looped_separator,
    random_symmetric_matrix,
    space_from_matrix,
)


class TestComponents:
    def test_two_clusters(self):
        s = line_space([0, 1, 5, 6])
        part = r_components(s, 2)
        assert part.blocks == ((0, 1), (2, 3))

    def test_r_at_least_diameter_is_one_block(self):
        s = line_space([0, 1, 5, 6])
        assert r_components(s, 6).blocks == ((0, 1, 2, 3),)

    def test_r_zero_with_positive_distances_is_singletons(self):
        s = line_space([0, 1, 5, 6])
        assert r_components(s, 0).blocks == ((0,), (1,), (2,), (3,))

    def test_ties_at_r_merge(self):
        s = line_space([0, 2, 4])
        assert r_components(s, 2).blocks == ((0, 1, 2),)

    def test_against_transitive_closure(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            n = int(rng.integers(2, 60))
            m = random_symmetric_matrix(rng, n)
            s = FiniteMetricSpace(f"s{trial}", tuple(map(str, range(n))), m, pseudo=True)
            r = float(rng.integers(0, 120))
            assert r_components(s, r).blocks == closure_blocks(m, r)

    def test_monotone_coarsening(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            m = random_symmetric_matrix(rng, n)
            s = FiniteMetricSpace(f"s{trial}", tuple(map(str, range(n))), m, pseudo=True)
            radii = sorted(rng.integers(0, 120, size=4))
            parts = [r_components(s, float(r)).blocks for r in radii]
            for fine, coarse in zip(parts, parts[1:]):
                for blk in fine:
                    assert any(set(blk) <= set(cb) for cb in coarse)


class TestCheckDecomposition:
    def test_unit_path_alternating_blocks(self):
        for r in (1, 2, 5):
            s = unit_path(30, "p")
            cert = path_decomposition(s, r)
            assert check_decomposition(cert, family_of(s, family_id=s.id)).passed

    def test_connected_path_fails_n0_with_small_bound(self):
        s = unit_path(10, "p")
        whole = PointSubset(s.id, tuple(range(10)))
        cert = DecompositionCertificate(
            "p", 1.0, 0, (MemberDecomposition("p", ((whole,),)),), leaf_bound=5.0
        )
        v = check_decomposition(cert, family_of(s, family_id="p"))
        assert not v.passed
        assert any("bound" in item.path for item in v.failures)

    def test_member_id_ending_in_bound_keeps_the_leaf_check(self):
        # the missing member's item path ends in ".bound", like a too-wide piece's
        p = unit_path(8, "p")
        cert = path_decomposition(p, 1)
        v = check_decomposition(cert, family_of(p, unit_path(3, "q.bound"), family_id="p"))
        assert [(i.path, i.detail) for i in v.failures] == [
            ("q.bound", "no decomposition supplied for member")
        ]
        assert v.items[-1] == CheckItem("leaf", True)

    def test_repeated_member_is_structural(self):
        p = unit_path(8, "p")
        cert = path_decomposition(p, 1)
        twice = DecompositionCertificate("p", 1.0, 1, cert.members * 2, leaf_bound=1.0)
        with pytest.raises(StructuralError, match="lists member 'p' more than once"):
            check_decomposition(twice, family_of(p, family_id="p"))

    def test_two_stage_grid_certificate(self):
        g = integer_grid(8, 8, "grid")
        fam = family_of(g, family_id="grid")
        r, width = 2.0, 3
        col = {i: int(lbl.partition(",")[2]) for i, lbl in enumerate(g.points)}
        row = {i: int(lbl.partition(",")[0]) for i, lbl in enumerate(g.points)}

        def bands(indices, coord, space_id):
            groups = [[], []]
            start, color = 0, 0
            while start < 8:
                band = tuple(i for i in indices if start <= coord[i] < start + width)
                if band:
                    groups[color].append(PointSubset(space_id, band))
                start += width
                color ^= 1
            return tuple(tuple(g) for g in groups)

        stage1 = MemberDecomposition("grid", bands(range(g.n), row, "grid"))
        parent = DecompositionCertificate("grid", r, 1, (stage1,), leaf_bound=0.0)
        pieces = piece_family(parent, fam)
        child_members = []
        for member in pieces.members:
            orig = {p: g.index(lbl) for p, lbl in enumerate(member.points)}
            coord = {p: col[orig[p]] for p in range(member.n)}
            child_members.append(MemberDecomposition(member.id, bands(range(member.n), coord, member.id)))
        child = DecompositionCertificate(pieces.id, r, 1, tuple(child_members), leaf_bound=4.0)
        cert = DecompositionCertificate("grid", r, 1, (stage1,), child=child)
        assert cert.depth() == 2
        assert check_decomposition(cert, fam).passed

    def test_round_trip_to_cover(self):
        s = unit_path(30, "p")
        cert = path_decomposition(s, 3)
        cov = decomposition_to_cover(cert, s)
        assert cover_dimension(cov, s) <= cert.n
        assert mesh(cov, s) <= cert.leaf_bound
        assert lebesgue_number(cov, s) >= 1

    @pytest.mark.parametrize("listed, message", [
        (((0,),), "cover of 'p' misses point '1'"),
        (((0,), (0, 1, 2, 3)), "certificate lists member 'p' more than once"),
    ], ids=["partial", "repeated"])
    def test_to_cover_needs_one_covering_entry(self, listed, message):
        s = unit_path(4, "p")
        members = tuple(
            MemberDecomposition("p", ((PointSubset("p", piece),),)) for piece in listed
        )
        cert = DecompositionCertificate("p", 1.0, 0, members, leaf_bound=3.0)
        with pytest.raises(StructuralError, match=message):
            decomposition_to_cover(cert, s)


def corner_square(side):
    # four corners of an l^1 square with the given side length
    return space_from_matrix(
        [
            [0, side, side, 2 * side],
            [side, 0, 2 * side, side],
            [side, 2 * side, 0, side],
            [2 * side, side, side, 0],
        ],
        labels=("00", "01", "10", "11"),
        space_id="square",
    )


class TestSearch:
    def test_square_two_colors_found(self):
        s = corner_square(2)  # side r, so each side is one r-connected piece
        result = search_decomposition(s, 2, 1, 3)
        assert result.decided and result.certificate is not None
        assert check_decomposition(result.certificate, family_of(s, family_id=s.id)).passed

    def test_square_one_color_impossible(self):
        s = corner_square(2)
        result = search_decomposition(s, 2, 0, 3)  # bound below the diagonal 4
        assert result.decided and result.certificate is None
        assert not brute_force_decomposable(s, 2, 0, 3)

    def test_single_point_always_decomposes(self):
        s = line_space([0], space_id="pt")
        for r in (0, 1, 10):
            for n in (0, 1, 2):
                res = search_decomposition(s, r, n, 0)
                assert res.certificate is not None

    def test_exact_search_decides_past_twenty_points(self):
        s = unit_path(25, "p")
        res = search_decomposition(s, 1, 1, 1)
        assert res.status == "found" and res.decided
        assert check_decomposition(res.certificate, family_of(s, family_id=s.id)).passed

    def test_exact_search_takes_any_color_count(self):
        s = unit_path(8, "p")
        res = search_decomposition(s, 1, 4, 1)
        assert res.status == "found"
        assert check_decomposition(res.certificate, family_of(s, family_id=s.id)).passed
        assert search_decomposition(s, 1, 4, 8, mode="greedy").certificate is not None

    @pytest.mark.parametrize("diagonal, greedy, exact", [
        (np.nan, "found", "found"),
        (5.0, "unknown", "none"),
    ], ids=["nan", "positive"])
    def test_greedy_seed_joins_its_own_piece(self, diagonal, greedy, exact):
        # point b is not within leaf_bound / 2 of a, nor of itself
        s = FiniteMetricSpace("s", ("a", "b"), [[0.0, 1.0], [1.0, diagonal]])
        assert search_decomposition(s, 0, 1, 1, mode="greedy").status == greedy
        assert search_decomposition(s, 0, 1, 1).status == exact

    def test_greedy_certificates_always_verify(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            s = integer_points_space(rng, 30, space_id=f"s{trial}")
            res = search_decomposition(s, 2, 2, s.diameter(), mode="greedy")
            if res.certificate is not None:
                assert check_decomposition(res.certificate, family_of(s, family_id=s.id)).passed
            else:
                assert not res.decided  # greedy misses are unknown, never "none"

    def test_exact_agrees_with_subset_dp_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(25):
            s = integer_points_space(rng, int(rng.integers(2, 8)), dim=1, coord_range=8, space_id=f"s{trial}")
            r = float(rng.integers(0, 8))
            n = int(rng.integers(0, 3))
            bound = float(rng.integers(0, 10))
            res = search_decomposition(s, r, n, bound)
            assert res.decided
            exists = brute_force_decomposable(s, r, n, bound)
            assert (res.certificate is not None) == exists
            if res.certificate is not None:
                assert check_decomposition(res.certificate, family_of(s, family_id=s.id)).passed

    @pytest.mark.parametrize("points, n, first", [
        (SEVEN_POINT_L1, 1, [0, 0, 1, 1, 0, 1, 0]),
        (EIGHT_POINT_L1, 2, [0, 0, 1, 2, 1, 0, 0, 2]),
    ], ids=["seven", "eight"])
    def test_first_coloring_is_found(self, points, n, first):
        s = l1_points_space(points, "s")
        res = search_decomposition(s, 3, n, 1)
        assert res.status == "found"
        assert coloring_of(res.certificate, s.n) == first == brute_first_coloring(s, 3, n, 1)
        assert check_decomposition(res.certificate, family_of(s, family_id=s.id)).passed

    def test_exact_matches_the_oracles_on_grid_subsets(self):
        rng = np.random.default_rng(43)
        found = 0
        for trial in range(60):
            npts = int(rng.integers(7, 11))
            s = integer_points_space(rng, npts, coord_range=5, space_id=f"s{trial}")
            r, n, bound = float(rng.integers(0, 4)), int(rng.integers(0, 3)), float(rng.integers(0, 5))
            res = search_decomposition(s, r, n, bound)
            assert res.decided
            assert (res.certificate is not None) == brute_force_decomposable(s, r, n, bound)
            if res.certificate is not None:
                found += 1
                assert check_decomposition(res.certificate, family_of(s, family_id=s.id)).passed
                if npts <= 8:
                    assert coloring_of(res.certificate, npts) == brute_first_coloring(s, r, n, bound)
        assert 10 < found < 60

    def test_budget_exhausted_is_unknown(self, monkeypatch):
        s = l1_points_space(GRID14_L1, "g")
        res = search_decomposition(s, 2, 2, 1)
        assert res.status == "none"
        assert not brute_force_decomposable(s, 2, 2, 1)
        monkeypatch.setattr(decomposition, "EXACT_SEARCH_BUDGET", 5)
        res = search_decomposition(s, 2, 2, 1)
        assert res.status == "unknown" and not res.decided

    @pytest.mark.parametrize("side, cells, placements", [
        (6, (20, 5, 0, 9, 12, 14, 22, 24, 15, 30, 7, 8, 1, 2, 35, 3, 19, 10, 6, 34), 246_891),
        (5, (21, 8, 20, 5, 6, 18, 23, 7, 19, 4, 13, 24, 15, 0, 9, 22, 16, 12, 14, 17), 347_385),
    ], ids=["side6", "side5"])
    def test_first_coloring_takes_a_fixed_placement_count(self, monkeypatch, side, cells, placements):
        # cells of a side x side grid under l^1 at r = 2, n = 3, bound 1
        s = l1_points_space([(c // side, c % side) for c in cells], "g")
        monkeypatch.setattr(decomposition, "EXACT_SEARCH_BUDGET", placements)
        assert search_decomposition(s, 2, 3, 1).status == "found"
        monkeypatch.setattr(decomposition, "EXACT_SEARCH_BUDGET", placements - 1)
        assert search_decomposition(s, 2, 3, 1).status == "unknown"


class TestFibering:
    def test_grid_projection_passes(self):
        src, tgt, fmap, witness = grid_projection_fixture(6, schedule=(1, 2, 5))
        assert check_fibering_witness(witness, src, tgt).passed

    def test_identity_map_with_trivial_inner_certificates(self):
        s = unit_path(8, "p")
        fam = family_of(s, family_id="P")
        fmap = FamilyMap("P", "P", (MapFunction("p", "p", tuple(range(8))),))
        target_cert = path_asdim_certificate(fam, [1, 2])
        inner = []
        for radius in (7.0,):
            pre_fam = ball_preimage_family(fmap, fam, fam, radius)
            members = tuple(
                MemberDecomposition(m.id, ((PointSubset(m.id, tuple(range(m.n))),),))
                for m in pre_fam.members
            )
            inner.append(
                (radius, DecompositionCertificate(pre_fam.id, 0.0, 0, members, leaf_bound=7.0))
            )
        witness = FiberingWitness(fmap, (7.0,), tuple(inner), target_cert)
        assert check_fibering_witness(witness, fam, fam).passed

    def test_missing_radius_fails_with_radius_named(self):
        src, tgt, fmap, witness = grid_projection_fixture(6, schedule=(1, 2, 5))
        pruned = FiberingWitness(
            witness.fmap,
            witness.radius_schedule,
            tuple((r, c) for r, c in witness.inner if r != 2.0),
            witness.target_certificate,
        )
        v = check_fibering_witness(pruned, src, tgt)
        assert not v.passed
        assert any("radius2" in item.path and "missing" in item.detail for item in v.failures)

    def test_repeated_radius_is_structural(self):
        src, tgt, fmap, witness = grid_projection_fixture(6, schedule=(1, 2))
        twice = FiberingWitness(witness.fmap, witness.radius_schedule, witness.inner * 2,
                                witness.target_certificate)
        with pytest.raises(StructuralError, match="inner radius more than once"):
            check_fibering_witness(twice, src, tgt)

    def test_schedule_must_reach_target_diameter(self):
        src, tgt, fmap, witness = grid_projection_fixture(6, schedule=(1, 2))
        v = check_fibering_witness(witness, src, tgt)
        assert not v.passed
        assert any(item.path == "schedule" for item in v.failures)


class TestSeparator:
    def test_equal_halves_give_zero_map(self):
        s = unit_path(5, "p")
        whole = PointSubset("p", tuple(range(5)))
        line, fmap, values = union_separator_map(s, whole, whole)
        assert values == (0.0,) * 5

    def test_path_split_example(self):
        s = unit_path(11, "p")
        x1 = PointSubset("p", tuple(range(0, 6)))
        x2 = PointSubset("p", tuple(range(5, 11)))
        _, _, values = union_separator_map(s, x1, x2)
        assert values[0] == 5 and values[10] == -5 and values[5] == 0

    def test_two_lipschitz_and_sublevel_sets(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            s = integer_points_space(rng, int(rng.integers(3, 15)), space_id=f"s{trial}")
            idx = list(range(s.n))
            rng.shuffle(idx)
            cut = int(rng.integers(1, s.n))
            overlap = int(rng.integers(0, 3))
            a = sorted(idx[: cut + overlap])
            b = sorted(idx[cut:] + idx[:overlap])
            if not a or not b:
                continue
            x1, x2 = PointSubset(s.id, tuple(a)), PointSubset(s.id, tuple(b))
            _, _, values = union_separator_map(s, x1, x2)
            for i in range(s.n):
                for j in range(s.n):
                    assert abs(values[i] - values[j]) <= 2 * s.dist[i, j]
            for bound in (0.0, 1.0, 3.0, float(s.diameter())):
                sub = {i for i in range(s.n) if values[i] <= bound}
                balls2 = {i for i in range(s.n) if min(s.dist[i, j] for j in x2.indices) <= bound}
                assert sub == balls2
                sup = {i for i in range(s.n) if values[i] >= -bound}
                balls1 = {i for i in range(s.n) if min(s.dist[i, j] for j in x1.indices) <= bound}
                assert sup == balls1

    def test_inf_distance_gives_a_zero_diagonal_and_no_warning(self):
        s = FiniteMetricSpace("s", ("a", "b"), [[0, math.inf], [math.inf, 0]])
        for separate in (union_separator_map, looped_separator):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                line, _, values = separate(s, PointSubset("s", (0,)), PointSubset("s", (1,)))
            assert values == (math.inf, -math.inf)
            assert line.dist.tolist() == [[0.0, math.inf], [math.inf, 0.0]]

    def test_cover_precondition(self):
        s = unit_path(4, "p")
        with pytest.raises(PreconditionError):
            union_separator_map(s, PointSubset("p", (0,)), PointSubset("p", (1,)))
