from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_h_hull_contains, brute_point_set_verdicts

from hcara.errors import InputError, PreconditionError
from hcara.hconvex import (
    ExclusionAssignment,
    NormalSet,
    PointSet,
    covering_holds,
    excluding_holds,
    h_hull_contains,
    minimal_h_witness,
    support,
)
from hcara.shapes import cube_normals
from hcara.witness import validate_witness

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def vectors(dim):
    return st.tuples(*([small_fractions] * dim))


def nonzero_vectors(dim):
    return vectors(dim).filter(lambda v: any(c != 0 for c in v))


def point_sets(dim, max_points=4):
    return st.lists(vectors(dim), min_size=1, max_size=max_points, unique=True).map(
        lambda pts: PointSet(dim, tuple(pts))
    )


def normal_sets(dim, max_normals=5, min_normals=1):
    return st.lists(
        nonzero_vectors(dim), min_size=min_normals, max_size=max_normals
    ).map(lambda vs: NormalSet(dim, tuple(vs)))


def normal_and_point_sets():
    """An H of 0 to 5 normals and an X of 0 to 5 points, in dim 2 or 3."""
    return st.integers(2, 3).flatmap(
        lambda dim: st.tuples(
            normal_sets(dim, min_normals=0),
            st.lists(vectors(dim), max_size=5, unique=True).map(
                lambda pts: PointSet(dim, tuple(pts))
            ),
        )
    )


def hull_queries():
    """An H of 0 to 5 normals, a nonempty X of up to 4 points and a query
    point, in dim 2 or 3."""
    return st.integers(2, 3).flatmap(
        lambda dim: st.tuples(normal_sets(dim, min_normals=0), point_sets(dim), vectors(dim))
    )


BOX = cube_normals(2)


class TestConstruction:
    def test_positive_multiples_collapse_to_first(self):
        H = NormalSet(2, ((F(2), F(0)), (F(1), F(0)), (F(0), F(1))))
        assert H.normals == ((F(2), F(0)), (F(0), F(1)))

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            NormalSet(2, ((F(0), F(0)),))

    def test_duplicate_points_rejected(self):
        # the first repeat is named, as exact coordinates, adjacent or not
        a, b = (F(1), F(1)), (F(0), F(2))
        for points, repeat in (((a, a), a), ((a, b, (1, F(2, 2))), a), ((a, b, b, a), b)):
            with pytest.raises(InputError) as exc:
                PointSet(2, points)
            assert str(exc.value) == f"duplicate point {repeat}"

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            NormalSet(3, ((F(1), F(0)),))

    def test_float_normal_rejected(self):
        with pytest.raises(InputError, match="float"):
            NormalSet(2, ((0.1, F(0)),))

    def test_float_point_rejected(self):
        with pytest.raises(InputError, match="float"):
            PointSet(2, ((0.1, F(0)),))

    def test_float_query_rejected(self):
        X = PointSet(2, ((F(0), F(0)),))
        with pytest.raises(InputError, match="float"):
            h_hull_contains(BOX, X, (0.5, 0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NormalSet(2, (("1", 0), (0, 1))),
            lambda: NormalSet(2, ((True, 0),)),
            lambda: PointSet(2, ("ab",)),
            lambda: PointSet(2, (((1,), 0),)),
            lambda: h_hull_contains(BOX, PointSet(2, ((0, 0),)), ("x",)),
        ],
        ids=["string-normal", "bool-normal", "string-point", "nested-point", "string-query"],
    )
    def test_non_numbers_rejected(self, build):
        # only ints and Fractions are coordinates; Fraction() would parse a
        # string, take a bool as 0 or 1 and raise TypeError on a tuple
        with pytest.raises(InputError, match="not a number"):
            build()

    def test_assignment_index_out_of_range_rejected(self):
        X = PointSet(2, ((F(1), F(0)),))
        with pytest.raises(InputError, match="out of range"):
            ExclusionAssignment.build(BOX, X, [5])
        with pytest.raises(InputError, match="out of range"):
            ExclusionAssignment.build(BOX, X, [True])


class TestSupport:
    def test_examples(self):
        X = PointSet(2, ((F(0), F(0)), (F(2), F(3))))
        assert support(X, (F(1), F(0))) == 2
        assert support(X, (F(-1), F(0))) == 0
        assert support(PointSet(2, ((F(1), F(1)),)), (F(2), F(-1))) == 1

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            support(PointSet(2, ()), (F(1), F(0)))


class TestHullMembership:
    def test_box_hull(self):
        X = PointSet(2, ((F(0), F(0)), (F(2), F(3))))
        assert h_hull_contains(BOX, X, (F(1), F(1)))
        assert not h_hull_contains(BOX, X, (F(3), F(1)))

    def test_single_halfspace(self):
        H = NormalSet(3, ((F(1), F(0), F(0)),))
        X = PointSet(3, ((F(0), F(0), F(0)),))
        assert h_hull_contains(H, X, (F(-5), F(7), F(2)))

    @settings(max_examples=50, deadline=None)
    @given(normal_sets(2), point_sets(2))
    def test_points_lie_in_their_own_hull(self, H, X):
        for x in X.points:
            assert h_hull_contains(H, X, x)

    @settings(max_examples=200, deadline=None)
    @given(hull_queries())
    @example((BOX, PointSet(2, ((F(0), F(0)), (F(2), F(3)))), (F(2), F(0))))
    @example((NormalSet(2, ()), PointSet(2, ((F(1), F(0)),)), (F(9), F(9))))
    def test_agrees_with_the_definition(self, case):
        # the first example lies on the boundary, the second in the hull of
        # no normals, which is the whole plane
        H, X, p = case
        assert h_hull_contains(H, X, p) == brute_h_hull_contains(H, X, p)

    @settings(max_examples=50, deadline=None)
    @given(normal_sets(2), point_sets(2, max_points=4), vectors(2))
    def test_monotone_in_the_point_set(self, H, X, p):
        if len(X) < 2:
            return
        sub = X.subset(range(len(X) - 1))
        if h_hull_contains(H, sub, p):
            assert h_hull_contains(H, X, p)


class TestCovering:
    def test_examples(self):
        assert covering_holds(BOX, PointSet(2, ((F(0), F(-1)), (F(-1), F(0)))))
        assert not covering_holds(BOX, PointSet(2, ((F(-1), F(0)),)))
        assert covering_holds(
            NormalSet(2, ((F(1), F(0)),)), PointSet(2, ((F(0), F(5)),))
        )

    @settings(max_examples=60, deadline=None)
    @given(normal_sets(2), point_sets(2))
    def test_agrees_with_origin_membership(self, H, X):
        assert covering_holds(H, X) == h_hull_contains(H, X, (F(0), F(0)))


class TestExcluding:
    def test_box_pair(self):
        X = PointSet(2, ((F(0), F(-1)), (F(-1), F(0))))
        assignment = excluding_holds(BOX, X)
        assert assignment is not None
        # e1 is exclusive to the first point, e2 to the second
        assert assignment.by_point == (0, 2)

    def test_collinear_pair_has_no_assignment(self):
        H = NormalSet(2, ((F(1), F(0)), (F(-1), F(0))))
        X = PointSet(2, ((F(1), F(0)), (F(2), F(0))))
        assert excluding_holds(H, X) is None

    def test_singleton_vacuous(self):
        H = NormalSet(2, ((F(1), F(0)),))
        assignment = excluding_holds(H, PointSet(2, ((F(0), F(1)),)))
        assert assignment is not None and assignment.by_point == (0,)

    @settings(max_examples=60, deadline=None)
    @given(normal_sets(2), point_sets(2))
    def test_assignment_with_covering_makes_x_minimal(self, H, X):
        if excluding_holds(H, X) is None or not covering_holds(H, X):
            return
        origin = (F(0), F(0))
        assert minimal_h_witness(H, X, origin) == X


class TestVerdicts:
    @settings(max_examples=150, deadline=None)
    @given(normal_and_point_sets())
    @example((NormalSet(2, ((F(1), F(0)),)), PointSet(2, ((F(-1), F(0)),))))
    @example((NormalSet(2, ()), PointSet(2, ((F(1), F(0)), (F(0), F(1))))))
    def test_one_sign_matrix_matches_the_definitions(self, case):
        # the first example covers nothing, so it is drop-one minimal with no
        # assignment: drop-one is not "an assignment exists"
        H, X = case
        covering, drop_one, by_point = brute_point_set_verdicts(H, X)
        assignment = excluding_holds(H, X)
        assert covering_holds(H, X) == covering
        assert (None if assignment is None else assignment.by_point) == by_point
        rep = validate_witness(H, X)
        assert (rep.covering_ok, rep.drop_one_ok) == (covering, drop_one)
        assert rep.assignment == assignment


class TestMinimalWitness:
    def test_two_points_needed(self):
        X = PointSet(2, ((F(0), F(-1)), (F(-1), F(0)), (F(5), F(5))))
        got = minimal_h_witness(BOX, X, (F(0), F(0)))
        assert got.points == ((F(0), F(-1)), (F(-1), F(0)))

    def test_lexicographic_tie_break(self):
        H = NormalSet(2, ((F(1), F(0)),))
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        got = minimal_h_witness(H, X, (F(-9), F(4)))
        assert got.points == ((F(0), F(0)),)

    def test_identity_case(self):
        X = PointSet(2, ((F(3), F(4)),))
        assert minimal_h_witness(BOX, X, (F(3), F(4))) == X

    def test_precondition(self):
        X = PointSet(2, ((F(0), F(0)),))
        with pytest.raises(PreconditionError):
            minimal_h_witness(BOX, X, (F(1), F(1)))

    @settings(max_examples=150, deadline=None)
    @given(hull_queries())
    @example((BOX, PointSet(2, ((F(0), F(-1)), (F(-1), F(0)), (F(5), F(5)))), (F(0), F(0))))
    def test_first_subset_the_definition_accepts(self, case):
        H, X, p = case
        if not brute_h_hull_contains(H, X, p):
            with pytest.raises(PreconditionError):
                minimal_h_witness(H, X, p)
            return
        first = next(
            X.subset(idx)
            for k in range(1, len(X) + 1)
            for idx in combinations(range(len(X)), k)
            if brute_h_hull_contains(H, X.subset(idx), p)
        )
        assert minimal_h_witness(H, X, p) == first


class TestScalingInvariance:
    @settings(max_examples=50, deadline=None)
    @given(
        normal_sets(2),
        point_sets(2),
        vectors(2),
        st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
    )
    def test_positive_normal_scaling_changes_nothing(self, H, X, p, c):
        scaled = NormalSet(2, tuple(tuple(c * x for x in a) for a in H.normals))
        assert h_hull_contains(H, X, p) == h_hull_contains(scaled, X, p)
        assert covering_holds(H, X) == covering_holds(scaled, X)
