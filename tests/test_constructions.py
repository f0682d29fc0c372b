import itertools

import numpy as np
import pytest

from coarsekit.constructions import (
    build_ray_tree,
    minimax_ultrametric,
    ray_tree_embed,
    scale_balls_partition,
    shell_sequence,
)
from coarsekit.decomposition import check_decomposition, r_components
from coarsekit.errors import PreconditionError
from coarsekit.generators import star_tree, unit_path
from coarsekit.metric import PointSubset, ball, validate_metric
from support import (
    brute_minimax,
    family_of,
    integer_points_space,
    line_space,
    is_tree_metric,
    space_from_matrix,
    strong_triangle_violations,
)


class TestMinimax:
    def test_unit_path_collapses_to_one(self):
        s = line_space([0, 1, 2], space_id="p")
        u = minimax_ultrametric(s)
        assert u.dist[0, 2] == 1.0
        assert np.array_equal(u.dist, brute_minimax(s))

    def test_two_clusters(self):
        s = line_space([0, 1, 2, 11, 12, 13], space_id="cl")
        u = minimax_ultrametric(s)
        for i, j in itertools.combinations(range(3), 2):
            assert u.dist[i, j] == 1.0
            assert u.dist[i + 3, j + 3] == 1.0
        for i in range(3):
            for j in range(3, 6):
                assert u.dist[i, j] == 9.0
        assert np.array_equal(u.dist, brute_minimax(s))

    def test_single_point(self):
        s = line_space([0], space_id="pt")
        assert minimax_ultrametric(s).dist.shape == (1, 1)

    def test_agrees_with_all_chains_brute_force(self):
        rng = np.random.default_rng(21)
        blocks = np.random.default_rng(22)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            s = integer_points_space(rng, n, dim=2, coord_range=12, space_id=f"s{trial}")
            assert np.array_equal(minimax_ultrametric(s).dist, brute_minimax(s))
            block = blocks.integers(0, 3, size=n)
            split = space_from_matrix(np.where(block[:, None] == block, s.dist, np.inf))
            assert np.array_equal(minimax_ultrametric(split).dist, brute_minimax(split))

    def test_strong_triangle_exact(self):
        rng = np.random.default_rng(25)
        s = integer_points_space(rng, 120, dim=2, coord_range=40, space_id="big")
        u = minimax_ultrametric(s)
        assert strong_triangle_violations(u) == []
        assert validate_metric(u).ok

    def test_contraction_with_floor(self):
        rng = np.random.default_rng(26)
        s = integer_points_space(rng, 40, space_id="s")
        u = minimax_ultrametric(s)
        assert (u.dist <= np.maximum(s.dist, 1.0)).all()

    def test_idempotent(self):
        rng = np.random.default_rng(27)
        s = integer_points_space(rng, 25, space_id="s")
        u = minimax_ultrametric(s)
        again = minimax_ultrametric(u)
        assert np.array_equal(u.dist, again.dist)


class TestScaleBalls:
    def fixture(self):
        s = line_space([0, 1, 2, 11, 12, 13], space_id="cl")
        return minimax_ultrametric(s)

    def test_below_min_distance_gives_singletons(self):
        u = self.fixture()
        part, cert = scale_balls_partition(u, 0.5)
        assert all(len(b) == 1 for b in part.blocks)
        assert check_decomposition(cert, family_of(u, family_id=u.id)).passed

    def test_at_or_above_max_is_one_block(self):
        u = self.fixture()
        part, _ = scale_balls_partition(u, 9.0)
        assert part.blocks == (tuple(range(6)),)

    def test_clusters_at_one(self):
        u = self.fixture()
        part, cert = scale_balls_partition(u, 1.0)
        assert part.blocks == ((0, 1, 2), (3, 4, 5))
        assert check_decomposition(cert, family_of(u, family_id=u.id)).passed

    def test_blocks_are_closed_balls_and_match_components(self):
        rng = np.random.default_rng(28)
        u = minimax_ultrametric(integer_points_space(rng, 20, space_id="s"))
        for r in (0.0, 1.0, 2.0, 5.0):
            part, cert = scale_balls_partition(u, r)
            assert part.blocks == r_components(u, r).blocks
            for blk in part.blocks:
                assert ball(u, blk[0], r).indices == blk
            assert check_decomposition(cert, family_of(u, family_id=u.id)).passed


class TestShells:
    def test_constant_full_seeds(self):
        s = unit_path(9, "p")
        whole = PointSubset("p", tuple(range(9)))
        shells, covers = shell_sequence(s, [whole] * 3)
        assert covers and all(sh.indices == whole.indices for sh in shells)

    def test_growth_by_radius_steps(self):
        s = unit_path(30, "p")
        origin = PointSubset("p", (0,))
        empty = PointSubset("p", ())
        shells, _ = shell_sequence(s, [origin, empty, empty, empty])
        sizes = [len(sh) for sh in shells]
        # shell k is the closed (1 + 2 + ... + (k-1))-ball around the origin
        assert sizes == [1, 2, 4, 7]
        for a, b in zip(shells, shells[1:]):
            assert set(a.indices) <= set(b.indices)

    def test_empty_seeds_use_designated_point(self):
        s = unit_path(5, "p")
        empty = PointSubset("p", ())
        shells, covers = shell_sequence(s, [empty, empty, empty, empty])
        assert shells[0].indices == (0,)
        assert covers  # radii 0, 1, 3, 6 cover the 5-point path


class TestRayTree:
    def star_instance(self, rays=3, length=9):
        s = star_tree(rays, length, "st")
        pieces = []
        for j in range(rays):
            idx = [0] + [s.index(f"r{j}:{m}") for m in range(1, length + 1)]
            pieces.append(PointSubset("st", tuple(idx)))
        seeds = [ball(s, 0, 1)] + [PointSubset("st", ())] * 4
        shells, covers = shell_sequence(s, seeds)
        assert covers
        return s, pieces, shells

    def test_single_piece_maps_to_one_ray(self):
        s = unit_path(12, "p")
        pieces = [PointSubset("p", tuple(range(12)))]
        shells, covers = shell_sequence(
            s, [ball(s, 0, 1)] + [PointSubset("p", ())] * 4
        )
        assert covers
        tree, fmap = ray_tree_embed(s, pieces, shells)
        used = {tree.space.points[i] for i in fmap.functions[0].assignment}
        assert all(lbl == "root" or lbl.startswith("r0:") for lbl in used)

    def test_star_levels_and_rays(self):
        s, pieces, shells = self.star_instance()
        tree, fmap = ray_tree_embed(s, pieces, shells)
        assign = fmap.functions[0].assignment
        shell_sets = [set(sh.indices) for sh in shells]
        for i in range(s.n):
            level = next(k for k, sh in enumerate(shell_sets, start=1) if i in sh) - 1
            lbl = tree.space.points[assign[i]]
            if level == 0:
                assert lbl == "root"
            else:
                owner = next(j for j, p in enumerate(pieces) if i in set(p.indices))
                assert lbl == f"r{owner}:{level}"

    def test_coarseness_bound(self):
        s, pieces, shells = self.star_instance(rays=4, length=9)
        tree, fmap = ray_tree_embed(s, pieces, shells)
        assign = fmap.functions[0].assignment
        for i in range(s.n):
            for j in range(s.n):
                assert tree.space.dist[assign[i], assign[j]] <= 2 * s.dist[i, j] + 2

    def test_violating_fixture_rejected_with_witness(self):
        s = unit_path(21, "p")
        pieces = [PointSubset("p", tuple(range(0, 13))), PointSubset("p", tuple(range(8, 21)))]
        seeds = [PointSubset("p", (0,))] + [PointSubset("p", ())] * 2
        shells, _ = shell_sequence(s, seeds)
        shells = [PointSubset("p", sh.indices) for sh in shells]
        # force full coverage so only the separation hypothesis can fail
        shells.append(PointSubset("p", tuple(range(21))))
        with pytest.raises(PreconditionError) as err:
            ray_tree_embed(s, pieces, shells)
        assert "separation hypothesis" in str(err.value)

    @pytest.mark.parametrize("pieces, message", [
        ([], "at least one piece is required"),
        ([(0, 1), (3,)], "pieces do not cover '2'"),
    ], ids=["none", "gap"])
    def test_pieces_must_cover(self, pieces, message):
        s = unit_path(4, "p")
        with pytest.raises(PreconditionError, match=message):
            ray_tree_embed(s, [PointSubset("p", p) for p in pieces], [PointSubset("p", range(4))])

    def test_tree_metric_four_point_condition(self):
        tree = build_ray_tree("x", ("0", "1", "2"), 5)
        assert validate_metric(tree.space).ok
        rng = np.random.default_rng(30)
        n = tree.space.n
        quads = {tuple(sorted(rng.choice(n, size=4, replace=False))) for _ in range(120)}
        assert is_tree_metric(tree.space, quads=quads)

    def test_truncation_depth_recorded(self):
        s, pieces, shells = self.star_instance()
        tree, _ = ray_tree_embed(s, pieces, shells)
        assert tree.depth == len(shells) + 1
