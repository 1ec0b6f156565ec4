from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_spans_positively

from hcara.errors import InputError, PreconditionError
from hcara.hconvex import PointSet, h_hull_contains
from hcara.linear import vadd
from hcara.shapes import (
    cube_polytope,
    pyramid_polytope,
    triangle_polytope,
)
from hcara.strong import (
    Polytope,
    fits_in_translate,
    guard_assignment,
    h_subset_strong_check,
    minimal_strong_witness,
    spans_positively,
    strong_hull_contains,
)

CUBE2 = cube_polytope(2)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def vectors(dim):
    return st.tuples(*([small_fractions] * dim))


def point_sets(dim, max_points=3):
    return st.lists(vectors(dim), min_size=1, max_size=max_points, unique=True).map(
        lambda pts: PointSet(dim, tuple(pts))
    )


class TestPolytopeInvariants:
    def test_unbounded_rejected(self):
        with pytest.raises(InputError, match="unbounded"):
            Polytope(
                2,
                ((F(1), F(0)), (F(0), F(1)), (F(1), F(1))),
                (F(1), F(1), F(1)),
            )

    def test_empty_interior_rejected(self):
        with pytest.raises(InputError, match="interior"):
            Polytope(
                2,
                ((F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))),
                (F(0), F(0), F(1), F(1)),
            )

    def test_redundant_row_rejected(self):
        with pytest.raises(InputError, match="redundant"):
            Polytope(
                2,
                ((F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)), (F(1), F(1))),
                (F(1), F(0), F(1), F(0), F(5)),
            )

    def test_unit_cube_accepted(self):
        K = cube_polytope(3)
        assert len(K) == 6
        assert len(K.normal_set()) == 6


@st.composite
def normal_families(draw):
    """(dim, normals) in dims 2 and 3; in dim 3 every normal is sometimes
    drawn in one plane, so rank-deficient families come up often."""
    dim = draw(st.sampled_from((2, 3)))
    normals = draw(st.lists(vectors(dim), max_size=2 * dim + 1))
    if dim == 3 and draw(st.booleans()):
        normals = [(a, b, F(0)) for a, b, _ in normals]
    return dim, normals


class TestSpansPositively:
    @pytest.mark.parametrize(
        "dim, normals, expected",
        [
            (2, [(1, 0), (0, 1), (-1, -1)], True),
            (2, [(1, 0), (0, 1), (1, 1)], False),  # one-sided
            (2, [(1, 0), (-1, 0)], False),  # rank 1
            (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], False),  # rank 2
            (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)], False),
            (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], True),
        ],
    )
    def test_named_families(self, dim, normals, expected):
        normals = [tuple(F(c) for c in a) for a in normals]
        assert spans_positively(normals, dim) is expected
        assert brute_spans_positively(normals, dim) is expected

    @settings(max_examples=150, deadline=None)
    @given(normal_families())
    def test_agrees_with_axis_definition(self, family):
        dim, normals = family
        assert spans_positively(normals, dim) == brute_spans_positively(normals, dim)


class TestFits:
    def test_close_pair_fits(self):
        X = PointSet(2, ((F(5), F(5)), (F(11, 2), F(11, 2))))
        t = fits_in_translate(CUBE2, X)
        assert t is not None
        for x in X.points:
            assert CUBE2.contains((x[0] - t[0], x[1] - t[1]))

    def test_wide_pair_does_not_fit(self):
        assert fits_in_translate(CUBE2, PointSet(2, ((F(0), F(0)), (F(2), F(0))))) is None

    def test_singleton_always_fits(self):
        t = fits_in_translate(CUBE2, PointSet(2, ((F(100), F(-63)),)))
        assert t is not None


class TestStrongMembership:
    def test_unique_containing_translate(self):
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        assert strong_hull_contains(CUBE2, X, (F(1), F(0)))
        assert not strong_hull_contains(CUBE2, X, (F(3, 2), F(1, 2)))

    def test_triangle(self):
        K = triangle_polytope()
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        assert strong_hull_contains(K, X, (F(1), F(0)))

    def test_precondition(self):
        X = PointSet(2, ((F(0), F(0)), (F(5), F(0))))
        with pytest.raises(PreconditionError):
            strong_hull_contains(CUBE2, X, (F(0), F(0)))

    @settings(max_examples=40, deadline=None)
    @given(point_sets(2), vectors(2), vectors(2))
    def test_translate_invariance(self, X, p, v):
        if fits_in_translate(CUBE2, X) is None:
            return
        shifted = PointSet(2, tuple(vadd(x, v) for x in X.points))
        assert strong_hull_contains(CUBE2, X, p) == strong_hull_contains(
            CUBE2, shifted, vadd(p, v)
        )

    @settings(max_examples=40, deadline=None)
    @given(point_sets(2), vectors(2))
    def test_cube_hull_equals_restricted_hull(self, X, p):
        if fits_in_translate(CUBE2, X) is None:
            return
        assert strong_hull_contains(CUBE2, X, p) == h_hull_contains(
            CUBE2.normal_set(), X, p
        )


class TestMinimalWitness:
    def test_diagonal_needs_both_points(self):
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        got = minimal_strong_witness(CUBE2, X, (F(1), F(0)))
        assert got == X

    def test_own_point_is_enough(self):
        X = PointSet(2, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        got = minimal_strong_witness(CUBE2, X, (F(1, 2), F(1, 2)))
        assert got.points == ((F(1, 2), F(1, 2)),)

    def test_precondition(self):
        X = PointSet(2, ((F(0), F(0)),))
        with pytest.raises(PreconditionError):
            minimal_strong_witness(CUBE2, X, (F(5), F(5)))

    def test_pyramid_scaled_cone_witness_needs_all_points(self):
        from hcara.invariants import caratheodory_number
        from hcara.linear import vscale
        from hcara.witness import cone_witness_points

        K = pyramid_polytope(4)
        H = K.normal_set()
        rep = caratheodory_number(H)
        witness = cone_witness_points(H, rep.cone_witness)
        eps = F(1, 4)
        X = PointSet(3, tuple(vscale(x, eps) for x in witness.points.points))
        origin = (F(0), F(0), F(0))
        assert strong_hull_contains(K, X, origin)
        assert len(minimal_strong_witness(K, X, origin)) == 4


class TestNonFittingX:
    """X = {(0,0), (2,0)} fits in no translate of the unit square, so every
    strong-hull question about it must raise PreconditionError."""

    WIDE = PointSet(2, ((F(0), F(0)), (F(2), F(0))))

    @pytest.mark.parametrize("p,inside", [((F(1), F(0)), True), ((F(5), F(5)), False)])
    def test_h_subset_strong_check(self, p, inside):
        assert h_hull_contains(CUBE2.normal_set(), self.WIDE, p) == inside
        with pytest.raises(PreconditionError):
            h_subset_strong_check(CUBE2, self.WIDE, p)

    @pytest.mark.parametrize("p", [(F(1), F(0)), (F(5), F(5))])
    def test_minimal_strong_witness(self, p):
        with pytest.raises(PreconditionError):
            minimal_strong_witness(CUBE2, self.WIDE, p)


class TestGuards:
    def test_diagonal_example(self):
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        guards = guard_assignment(CUBE2, X, (F(1), F(0)))
        assert guards is not None and set(guards) == {0, 1}
        from hcara.linear import dot

        p = (F(1), F(0))
        for j, i in guards.items():
            a = CUBE2.normals[i]
            x = X.points[j]
            assert dot(a, x) >= dot(a, p)
            for jj, y in enumerate(X.points):
                if jj != j:
                    assert dot(a, x) > dot(a, y)

    def test_middle_point_has_no_guard(self):
        X = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(2), F(0))))
        assert guard_assignment(CUBE2, X, (F(1, 2), F(0))) is None

    def test_singleton(self):
        X = PointSet(2, ((F(1, 2), F(1, 2)),))
        guards = guard_assignment(CUBE2, X, (F(0), F(0)))
        assert guards == {0: 0}


class TestHullImplication:
    @settings(max_examples=40, deadline=None)
    @given(point_sets(2), vectors(2))
    def test_cube(self, X, p):
        if fits_in_translate(CUBE2, X) is None:
            return
        assert h_subset_strong_check(CUBE2, X, p)

    @settings(max_examples=30, deadline=None)
    @given(point_sets(2, max_points=2), vectors(2))
    def test_triangle(self, X, p):
        K = triangle_polytope()
        if fits_in_translate(K, X) is None:
            return
        assert h_subset_strong_check(K, X, p)

    def test_member_point_trivially_ok(self):
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        assert h_subset_strong_check(CUBE2, X, (F(1), F(1)))
