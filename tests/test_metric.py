import math
import warnings

import numpy as np
import pytest

from coarsekit.errors import PreconditionError, StructuralError
from coarsekit.metric import (
    FiniteMetricSpace,
    GroupAction,
    PointSubset,
    ball,
    nearest_points,
    neighborhood,
    product,
    quotient,
    quotient_with_map,
    validate_action,
    validate_metric,
)
from support import (
    brute_quotient_distance,
    cyclic_isometric_action,
    integer_points_space,
    line_space,
    space_from_matrix,
)


def two_point(d=1.0):
    return space_from_matrix([[0, d], [d, 0]])


class TestValidate:
    def test_smallest_metric_space(self):
        assert validate_metric(two_point()).ok

    def test_triangle_violation_witnessed(self):
        s = space_from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        rep = validate_metric(s)
        assert not rep.ok
        kinds = {v.kind for v in rep.violations}
        assert kinds == {"triangle"}
        witnesses = {v.witness for v in rep.violations}
        assert (0, 1, 2) in witnesses

    def test_symmetry_violation(self):
        s = space_from_matrix([[0, 1], [2, 0]])
        rep = validate_metric(s)
        assert any(v.kind == "symmetry" for v in rep.violations)

    def test_dimension_mismatch_is_structural(self):
        s = FiniteMetricSpace("bad", ("a", "b", "c"), np.zeros((2, 2)))
        with pytest.raises(StructuralError):
            validate_metric(s)

    def test_zero_distance_needs_pseudo_flag(self):
        rows = [[0, 0], [0, 0]]
        assert not validate_metric(space_from_matrix(rows)).ok
        assert validate_metric(space_from_matrix(rows, pseudo=True)).ok

    def test_nan_entry_is_reported_with_witness(self):
        s = space_from_matrix([[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]])
        rep = validate_metric(s)
        assert [(v.kind, v.witness) for v in rep.violations] == [("nan", (0, 1)), ("nan", (1, 0))]
        assert rep.violations[0].detail == "d(a,b) = nan"

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan], ids=["-1", "-1e-300", "nan"])
    def test_negative_or_nan_tolerance_is_a_precondition(self, tol):
        # at tol = -1 a symmetric matrix would read as asymmetric everywhere
        s = space_from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(PreconditionError, match="tolerance"):
            validate_metric(s, tol)
        assert len(validate_metric(s, -0.0).violations) == 2

    def test_repeated_label_is_structural(self):
        with pytest.raises(StructuralError, match="repeats the point label 'a'"):
            FiniteMetricSpace("s", ("a", "b", "a"), np.zeros((3, 3)))


def negation_action(space):
    # points must be ordered -k..k; negation reverses the order
    n = space.n
    flip = tuple(n - 1 - i for i in range(n))
    return GroupAction(
        space.id,
        ("e", "g"),
        (tuple(range(n)), flip),
        ((0, 1), (1, 0)),
    )


class TestQuotient:
    def test_line_negation(self):
        s = line_space([-2, -1, 0, 1, 2])
        q = quotient(s, negation_action(s))
        assert q.points == ("F·-2", "F·-1", "F·0")
        by = {p: i for i, p in enumerate(q.points)}
        assert q.d(by["F·-1"], by["F·-2"]) == 1
        assert q.d(by["F·0"], by["F·-1"]) == 1
        assert q.d(by["F·0"], by["F·-2"]) == 2

    def test_trivial_group_is_isometric_copy(self):
        s = line_space([0, 3, 7])
        act = GroupAction(s.id, ("e",), (tuple(range(3)),), ((0,),))
        q = quotient(s, act)
        assert np.array_equal(q.dist, s.dist)

    def test_swap_of_far_pair_with_fixed_center(self):
        # center at distance 3 from both swapped points, which sit at
        # distance 6 from each other (boundary of the triangle inequality)
        s = space_from_matrix(
            [[0, 3, 3], [3, 0, 6], [3, 6, 0]], labels=("c", "p", "q")
        )
        act = GroupAction(s.id, ("e", "g"), ((0, 1, 2), (0, 2, 1)), ((0, 1), (1, 0)))
        q = quotient(s, act)
        assert q.points == ("F·c", "F·p")
        expected = brute_quotient_distance(s, act, (0,), (1, 2))
        assert q.d(0, 1) == expected == 3

    def test_non_isometric_action_rejected(self):
        s = line_space([0, 1, 3])
        bad = GroupAction(s.id, ("e", "g"), ((0, 1, 2), (2, 1, 0)), ((0, 1), (1, 0)))
        with pytest.raises(StructuralError):
            quotient(s, bad)

    def test_randomized_quotients_validate_and_contract(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            base = integer_points_space(rng, int(rng.integers(4, 12)), space_id=f"b{trial}")
            order = int(rng.integers(2, 5))
            sym, act = cyclic_isometric_action(rng, base, order)
            q, orbit_of = quotient_with_map(act, sym)
            assert validate_metric(q).ok
            # contracting: d(Fx, Fx') <= d(x, x') for every pair of lifts
            for x in range(sym.n):
                for y in range(sym.n):
                    assert q.dist[orbit_of[x], orbit_of[y]] <= sym.dist[x, y]
            # agreement with full enumeration on a few orbit pairs
            reps = {}
            for i in range(sym.n):
                reps.setdefault(orbit_of[i], []).append(i)
            pairs = list(reps)[:4]
            for a in pairs:
                for b in pairs:
                    if a < b:
                        assert q.dist[a, b] == brute_quotient_distance(
                            sym, act, reps[a], reps[b]
                        )


class TestProduct:
    def test_diagonal_distances(self):
        a = two_point(3.0)
        b = space_from_matrix([[0, 4], [4, 0]], labels=("x", "y"))
        assert product([a, b], 1).dist[0, 3] == 7
        assert product([a, b], 2).dist[0, 3] == 5
        assert product([a, b], math.inf).dist[0, 3] == 4

    def test_labels_concatenate(self):
        a = two_point()
        b = space_from_matrix([[0, 4], [4, 0]], labels=("x", "y"))
        assert product([a, b], 1).points == ("a,x", "a,y", "b,x", "b,y")

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            product([], 2)
        with pytest.raises(PreconditionError):
            product([two_point()], 0.5)

    @pytest.mark.parametrize(
        "first, second, p",
        [(two_point(3.0), two_point(4.0), 700.0),  # 3^700 overflows; the distance is about 4
         (two_point(1e-200), two_point(1e-200), 2.0),  # the squares underflow to 0
         (space_from_matrix([[0, 1, -1], [1, 0, 1], [-1, 1, 0]]), two_point(2.0), 3.0)],  # -1 has no cube root
        ids=["overflow", "underflow", "negative"],
    )
    def test_refuses_p_th_powers_out_of_float_range(self, first, second, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=f"^p = {p:g} takes a sum of p-th powers"):
                product([first, second], p)

    def test_keeps_zero_and_infinite_factor_distances_at_any_p(self):
        a = space_from_matrix([[0, math.inf], [math.inf, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = product([a, two_point()], 700.0).dist
            assert (d[0, 0], d[0, 1], d[0, 3]) == (0, 1, math.inf)
            d = product([two_point(1e-150)] * 2, 2.0).dist
            assert d[0, 3] == pytest.approx(math.sqrt(2) * 1e-150, rel=1e-15)

    def test_lp_comparison_inequalities(self):
        rng = np.random.default_rng(3)
        exponents = [1.0, 2.0, 4.0, math.inf]
        for trial in range(10):
            m = int(rng.integers(2, 4))
            factors = [
                integer_points_space(rng, int(rng.integers(2, 4)), space_id=f"f{trial}_{k}")
                for k in range(m)
            ]
            prods = {p: product(factors, p) for p in exponents}
            n = prods[1.0].n
            samples = rng.integers(0, n, size=(40, 2))
            for p in exponents:
                for q in exponents:
                    if p > q:
                        continue
                    scale = m ** ((0 if math.isinf(p) else 1 / p) - (0 if math.isinf(q) else 1 / q))
                    for i, j in samples:
                        dq = prods[q].dist[i, j]
                        dp = prods[p].dist[i, j]
                        ref = max(dp, dq, 1.0)
                        assert dq <= dp + 1e-12 * ref
                        assert dp <= scale * dq + 1e-12 * ref


class TestBall:
    def test_unit_path_examples(self):
        s = line_space([0, 1, 2, 3])
        assert ball(s, 1, 1).indices == (0, 1, 2)
        assert ball(s, 1, 0).indices == (1,)
        assert ball(s, 1, 99).indices == (0, 1, 2, 3)

    def test_closed_neighborhood(self):
        s = line_space([0, 1, 2, 3, 4])
        sub = ball(s, 0, 0)
        assert neighborhood(s, sub, 2).indices == (0, 1, 2)

    def test_negative_neighborhood_radius_refused(self):
        s = line_space([0, 1, 2])
        with pytest.raises(PreconditionError, match="neighborhood radius must be >= 0"):
            neighborhood(s, ball(s, 0, 0), -1.0)

    def test_nearest_points_rows_are_the_points(self):
        # d(a, b) = 1 but d(b, a) = 3: x's own row gives d(x, A)
        s = space_from_matrix([[0, 1, 5], [3, 0, 2], [2, 2, 0]], pseudo=True)
        dist, point = nearest_points(s, PointSubset(s.id, (0, 2)))
        assert dist.tolist() == [0.0, 2.0, 0.0] and point.tolist() == [0, 2, 2]
        dist, point = nearest_points(s, PointSubset(s.id, (1, 2)))
        assert dist.tolist() == [1.0, 0.0, 0.0] and point.tolist() == [1, 1, 2]
        # ties go to the lowest index; an empty subset is at distance inf
        assert nearest_points(line_space([0, 1, 2]), PointSubset("line", (0, 2)))[1].tolist() == [0, 0, 2]
        dist, point = nearest_points(s, PointSubset(s.id, ()))
        assert dist.tolist() == [math.inf] * 3 and point.tolist() == [-1] * 3


def test_validate_action_checks_group_axioms():
    s = line_space([0, 1])
    # composition table that is not a group (constant rows)
    bad = GroupAction(s.id, ("e", "g"), ((0, 1), (1, 0)), ((0, 0), (0, 0)))
    with pytest.raises(StructuralError):
        validate_action(bad, s)


def test_validate_action_needs_an_element_acting_as_the_identity():
    # both elements swap the two points; the table alone is a group
    s = line_space([0, 1])
    act = GroupAction(s.id, ("e", "g"), ((1, 0), (1, 0)), ((0, 1), (1, 0)))
    with pytest.raises(StructuralError, match=r"^composition table has no identity acting as identity permutation$"):
        validate_action(act, s)


@pytest.mark.parametrize("compose", [((0,), (1, 0)), ((0, 1), (1, 0, 1)), ((0, 1),)],
                         ids=["short-row", "long-row", "missing-row"])
def test_validate_action_needs_k_composition_rows_of_k_entries(compose):
    s = line_space([0, 1])
    act = GroupAction(s.id, ("e", "g"), ((0, 1), (1, 0)), compose)
    with pytest.raises(StructuralError, match=r"^action tables do not match the element list$"):
        validate_action(act, s)


def test_validate_action_names_the_first_non_associative_triple():
    # a Latin square with identity e (a loop of order 5) that is not a group
    s = line_space([0, 1])
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    act = GroupAction(s.id, ("e", "a", "b", "c", "d"), ((0, 1),) * 5, loop)
    with pytest.raises(StructuralError, match=r"^composition not associative at \(a,a,b\)$"):
        validate_action(act, s)


def test_validate_action_names_the_first_pair_incompatible_with_composition():
    # Z/4 acting on the 4-cycle by rotations, with c given a's rotation
    c4 = space_from_matrix([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    z4 = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
    perms = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (1, 2, 3, 0))
    act = GroupAction(c4.id, ("e", "a", "b", "c"), perms, z4)
    with pytest.raises(StructuralError,
                       match=r"^permutation table incompatible with composition at \(a,b\)$"):
        validate_action(act, c4)
