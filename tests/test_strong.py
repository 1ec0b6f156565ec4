from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import named_normal_sets, named_polytopes, random_normal_sets
from oracles import (
    brute_conic_dependences,
    brute_spans_positively,
    fraction_interval_rule,
    lp_interior_slack,
    lp_minimal_strong_witness,
    lp_redundant_rows,
    table_spans_positively,
    tight_supports,
)

import hcara.hconvex
import hcara.lp
import hcara.strong
from hcara.errors import InputError, PreconditionError
from hcara.experiment import ExperimentConfig, random_instance
from hcara.hconvex import NormalSet, PointSet, h_hull_contains, support
from hcara.invariants import caratheodory_number
from hcara.linear import conic_dependences, dot, primitive_direction, vadd, vneg, vscale
from hcara.lp import GE, LpStatus, feasible_point, maximize, maximize_each
from hcara.shapes import (
    cross_polytope,
    cube_normals,
    cube_polytope,
    pyramid_normals,
    pyramid_polytope,
    simplex_normals,
    simplex_with_extra_facet_normals,
    triangle_normals,
    triangle_polytope,
)
from hcara.strong import (
    Polytope,
    _FacetRegion,
    _interval_rule,
    _levels,
    _translate_rows,
    fits_in_translate,
    guard_assignment,
    h_subset_strong_check,
    minimal_strong_witness,
    spans_positively,
    strong_hull_contains,
)
from hcara.witness import cone_witness_points, helly_witness_points

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

    def test_cube_built_once(self):
        assert cube_polytope(2) is cube_polytope(2)

    def test_float_rejected(self):
        with pytest.raises(InputError, match="float"):
            Polytope(2, ((F(1), F(0)), (F(0), F(1)), (-1, -1)), (F(1), F(1), 0.5))

    def test_non_numbers_rejected(self):
        with pytest.raises(InputError, match="not a number"):
            Polytope(2, (("a", 0), (0, 1), (-1, -1)), (1, 1, 1))
        with pytest.raises(InputError, match="not a number"):
            Polytope(2, ((1, 0), (0, 1), (-1, -1)), (1, (1,), 1))

    def test_table_is_not_a_field(self):
        K = Polytope(2, CUBE2.normals, CUBE2.offsets)
        assert K.conic_dependences == CUBE2.conic_dependences
        assert K == CUBE2 and hash(K) == hash(CUBE2)
        # the stored normal sets are distinct objects, yet equality and
        # hashing see only the fields
        assert K.normal_set() is not CUBE2.normal_set()
        assert K.normal_set() == CUBE2.normal_set()
        assert {f.name for f in fields(Polytope)} == {"dim", "normals", "offsets"}

    def test_normal_set_is_stored_once(self):
        K = pyramid_polytope(5)
        H = K.normal_set()
        assert H is K.normal_set()
        assert H.normals == K.normals and H.dim == K.dim

    @pytest.mark.parametrize(
        "bad_normal,match",
        [
            ((F(0), F(0)), "zero vector"),
            ((F(1), F(1), F(1)), "dimension 3, expected 2"),
            ((F(1),), "dimension 1, expected 2"),
        ],
    )
    def test_normals_checked_by_normal_set_rules(self, bad_normal, match):
        with pytest.raises(InputError, match=match):
            Polytope(
                2,
                ((F(-1), F(0)), (F(0), F(-1)), bad_normal),
                (F(0), F(0), F(2)),
            )

    @pytest.mark.parametrize(
        "derived,normals",
        [
            (cube_normals(2), ((1, 0), (-1, 0), (0, 1), (0, -1))),
            (simplex_normals(2), ((-1, 0), (0, -1), (1, 1))),
            (
                simplex_with_extra_facet_normals(2),
                ((-1, 0), (0, -1), (1, 1), (-1, -1)),
            ),
            (triangle_normals(), ((-1, 0), (0, -1), (1, 1))),
            (
                pyramid_normals(4),
                ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, -1)),
            ),
            (
                pyramid_normals(5),
                ((0, -1, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (0, 0, -1)),
            ),
            (
                pyramid_normals(6),
                (
                    (0, -2, 3), (2, 0, 3), (1, 1, 2), (0, 2, 3),
                    (-2, 0, 3), (-1, -1, 2), (0, 0, -1),
                ),
            ),
        ],
    )
    def test_derived_normal_sets_keep_their_order(self, derived, normals):
        expected = NormalSet(len(normals[0]), normals)
        assert derived == expected


def _lp_verdict(dim, normals, offsets):
    """The InputError message of the LP construction checks, in
    ``Polytope``'s order, or None when they accept the rows."""
    if not brute_spans_positively(normals, dim):
        return "polytope is unbounded: normals do not span positively"
    if lp_interior_slack(normals, offsets, dim) <= 0:
        return "polytope has empty interior"
    bad = lp_redundant_rows(normals, offsets, dim)
    return f"rows {bad} are redundant, not facets" if bad else None


def _verdict(dim, normals, offsets):
    """``Polytope``'s InputError message for the rows, or None."""
    try:
        Polytope(dim, tuple(normals), tuple(offsets))
    except InputError as exc:
        return str(exc)
    return None


_SQUARE = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def row_systems(draw):
    """(dim, normals, offsets) in dims 2 and 3 with dim + 1 to 2 dim + 2
    rows: nonzero normals, some of them positive multiples of earlier ones,
    and offsets of both signs.  Half the systems start from the normals of a
    simplex, so bounded ones, and hence every later check, come up often."""
    dim = draw(st.sampled_from((2, 3)))
    count = draw(st.integers(dim + 1, 2 * dim + 2))
    normals = []
    if draw(st.booleans()):
        normals = list(simplex_normals(dim).normals)
    while len(normals) < count:
        if normals and draw(st.integers(0, 3)) == 0:
            scale = draw(st.sampled_from((F(1), F(1, 2), F(2))))
            normals.append(vscale(draw(st.sampled_from(normals)), scale))
        else:
            normals.append(draw(vectors(dim).filter(any)))
    offsets = draw(st.lists(small_fractions, min_size=count, max_size=count))
    return dim, normals, offsets


class TestValidationFromTable:
    """``Polytope`` construction from the conic-dependence table against the
    LP checks it replaced."""

    @pytest.mark.parametrize(
        "normals, offsets, expected",
        [
            ([(1, 0), (0, 1), (1, 1)], [1, 1, 1],
             "polytope is unbounded: normals do not span positively"),
            (_SQUARE, [0, 0, 1, 1], "polytope has empty interior"),
            (_SQUARE, [-1, 0, 1, 1], "polytope has empty interior"),
            (_SQUARE + ((1, 1),), [1, 0, 1, 0, 5], "rows [4] are redundant, not facets"),
            # x <= 1 twice: each copy is implied by the other
            (_SQUARE + ((1, 0),), [1, 0, 1, 0, 1], "rows [0, 4] are redundant, not facets"),
            (_SQUARE + ((2, 0),), [1, 0, 1, 0, 2], "rows [0, 4] are redundant, not facets"),
            # 2x <= 4 is implied by the later x <= 1, not the other way round
            (((2, 0),) + _SQUARE[1:] + ((1, 0),), [4, 0, 1, 0, 1],
             "rows [0] are redundant, not facets"),
            (_SQUARE + ((1, 1),), [1, 0, 1, 0, F(3, 2)], None),
        ],
    )
    def test_named_rows(self, normals, offsets, expected):
        normals = [tuple(F(c) for c in a) for a in normals]
        offsets = [F(b) for b in offsets]
        assert _lp_verdict(2, normals, offsets) == expected
        assert _verdict(2, normals, offsets) == expected

    @settings(max_examples=200, deadline=None)
    @given(row_systems())
    def test_agrees_with_lp_checks(self, system):
        assert _verdict(*system) == _lp_verdict(*system)

    @settings(max_examples=100, deadline=None)
    @given(row_systems())
    def test_irredundant_keeps_the_lp_facets(self, system):
        # random_instance's path: bounded rows with distinct directions and
        # offsets >= 1, pruned with one table, whose part on the kept rows
        # the checks take as given.  The LPs decide which rows are facets.
        dim, normals, offsets = system
        distinct = {}
        for a, b in zip(normals, offsets):
            distinct.setdefault(primitive_direction(a), (a, 1 + abs(b)))
        normals, offsets = (list(rows) for rows in zip(*distinct.values()))
        assume(brute_spans_positively(normals, dim))
        bad = lp_redundant_rows(normals, offsets, dim)
        keep = [i for i in range(len(normals)) if i not in bad]
        builds = []
        real = hcara.strong.conic_dependences

        def spy(vectors):
            builds.append(vectors)
            return real(vectors)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hcara.strong, "conic_dependences", spy)
            K = Polytope._irredundant(dim, tuple(normals), offsets)
        assert len(builds) == 1
        assert K == Polytope(
            dim, tuple(normals[i] for i in keep), tuple(offsets[i] for i in keep)
        )
        assert K.conic_dependences == conic_dependences(K.normals)
        assert K.normal_set().conic_dependences is K.conic_dependences

    @settings(max_examples=150, deadline=None)
    @given(row_systems())
    def test_unbounded_rows_build_no_table(self, system):
        # Boundedness is decided before any table: an unbounded system gets
        # its message with the table build made to raise, and any other
        # system reaches the build.
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        unbounded = _lp_verdict(*system) == "polytope is unbounded: normals do not span positively"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hcara.strong, "conic_dependences", no_table)
            if unbounded:
                assert _verdict(*system) == _lp_verdict(*system)
            else:
                with pytest.raises(AssertionError, match="a table was built"):
                    _verdict(*system)

    def test_table_path_runs_no_spans_positively(self, monkeypatch):
        # _irredundant hands over the table of rows the sampler has already
        # tested, and boundedness is read off that table.
        def no_spans(*args, **kwargs):
            raise AssertionError("spans_positively was called")

        square = [tuple(map(F, a)) for a in _SQUARE]
        expected = Polytope(2, tuple(square), (F(1),) * 4)
        monkeypatch.setattr(hcara.strong, "spans_positively", no_spans)
        assert Polytope._irredundant(2, square, [F(1)] * 4) == expected
        for dim in (2, 3):
            config = ExperimentConfig(
                seed=42, trials=1, dim=dim, max_normals=dim + 3, max_points=4,
                coordinate_bound=3, scaling_depth=0,
            )
            for trial_index in range(6):
                random_instance(config, trial_index)

    @pytest.mark.parametrize(
        "dim, normals",
        [
            # rank 2 in R^3, every row in a circuit
            (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]),
            # rank 2, but (0, 1) lies in no circuit
            (2, [(1, 0), (-1, 0), (0, 1)]),
            (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)]),
        ],
        ids=["rank-deficient", "uncovered-row", "uncovered-rows"],
    )
    def test_table_path_rejects_unbounded_rows_alike(self, dim, normals):
        normals = [tuple(map(F, a)) for a in normals]
        offsets = [F(1)] * len(normals)
        message = "polytope is unbounded: normals do not span positively"
        assert _verdict(dim, normals, offsets) == message
        with pytest.raises(InputError, match=f"^{message}$"):
            Polytope._irredundant(dim, tuple(normals), offsets)

    @settings(max_examples=100, deadline=None)
    @given(row_systems())
    def test_table_path_agrees_with_direct_construction(self, system):
        # rows with distinct directions and offsets >= 1, as _irredundant
        # takes them: its verdict on the rows it keeps, read off their
        # table, is that of a Polytope built directly from those rows
        dim, normals, offsets = system
        distinct = {}
        for a, b in zip(normals, offsets):
            distinct.setdefault(primitive_direction(a), (a, 1 + abs(b)))
        normals, offsets = (list(rows) for rows in zip(*distinct.values()))
        bad = hcara.strong.redundant_rows(offsets, conic_dependences(normals))
        keep = [i for i in range(len(normals)) if i not in bad]
        try:
            Polytope._irredundant(dim, tuple(normals), offsets)
            verdict = None
        except InputError as exc:
            verdict = str(exc)
        assert verdict == _verdict(
            dim, [normals[i] for i in keep], [offsets[i] for i in keep]
        )

    def test_construction_solves_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        # maximize and feasible_point, wherever a module binds them, both
        # call hcara.lp._solve.
        monkeypatch.setattr(hcara.lp, "_solve", no_lp)
        cube_polytope.cache_clear()
        assert len(named_polytopes()) == 13
        for dim in (2, 3):
            config = ExperimentConfig(
                seed=42, trials=1, dim=dim, max_normals=dim + 3, max_points=4,
                coordinate_bound=3, scaling_depth=0,
            )
            for trial_index in range(6):
                random_instance(config, trial_index)


@st.composite
def normal_families(draw):
    """(dim, normals) in dims 2 and 3; in dim 3 every normal is sometimes
    drawn in one plane, so rank-deficient families come up often."""
    dim = draw(st.sampled_from((2, 3)))
    normals = draw(st.lists(vectors(dim), max_size=2 * dim + 1))
    if dim == 3 and draw(st.booleans()):
        normals = [(a, b, F(0)) for a, b, _ in normals]
    return dim, normals


@st.composite
def spanning_candidates(draw):
    """(dim, normals) in dims 1 to 4, with 0 to dim + 3 normals built to sit
    near the boundary of positive spanning: a rank-deficient family (every
    normal in a coordinate hyperplane), a one-sided one (every normal with
    a nonnegative first coordinate), repeated normals, antiparallel pairs
    and zero normals all come up often."""
    dim = draw(st.integers(1, 4))
    coords = st.integers(-2, 2).map(F) | st.sampled_from((F(1, 2), F(-3, 2)))
    normals = draw(st.lists(st.tuples(*[coords] * dim), max_size=dim + 3))
    shape = draw(st.sampled_from(("any", "flat", "one-sided")))
    if shape == "flat":
        normals = [a[:-1] + (F(0),) for a in normals]
    elif shape == "one-sided":
        normals = [(abs(a[0]),) + a[1:] for a in normals]
    for _ in range(draw(st.integers(0, 2))):
        if normals:
            a = draw(st.sampled_from(normals))
            normals.append(vneg(a) if draw(st.booleans()) else a)
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
        assert table_spans_positively(normals, dim) is expected
        assert brute_spans_positively(normals, dim) is expected

    @settings(max_examples=150, deadline=None)
    @given(normal_families())
    def test_agrees_with_axis_definition(self, family):
        dim, normals = family
        assert spans_positively(normals, dim) == brute_spans_positively(normals, dim)

    @settings(max_examples=200, deadline=None)
    @given(spanning_candidates())
    def test_agrees_with_definition_and_table_rule(self, family):
        dim, normals = family
        expected = brute_spans_positively(normals, dim)
        assert spans_positively(normals, dim) is expected
        # zero normals lie in every positive hull, and the table has no room
        # for them
        nonzero = [a for a in normals if any(a)]
        assert table_spans_positively(nonzero, dim) is expected


class TestConicDependences:
    def test_cube(self):
        circuits, reps = cube_polytope(3).conic_dependences
        assert circuits == (((0, 1), (1, 1)), ((2, 3), (1, 1)), ((4, 5), (1, 1)))
        assert reps == tuple((((i,), (1,), 1),) for i in range(6))

    def test_triangle(self):
        circuits, reps = triangle_polytope().conic_dependences
        assert circuits == (((0, 1, 2), (1, 1, 1)),)
        assert reps == tuple((((i,), (1,), 1),) for i in range(3))

    def test_representations_and_circuits(self):
        circuits, reps = conic_dependences([(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 2)])
        assert circuits == (
            ((2, 3), (1, 1)), ((0, 1, 2), (1, 1, 1)), ((0, 2, 4), (3, 2, 1)),
        )
        assert reps[1] == (((1,), (1,), 1), ((0, 4), (1, 1), 2), ((3, 4), (1, 1), 3))
        assert reps[3] == (((3,), (1,), 1), ((0, 1), (1, 1), 1), ((0, 4), (3, 1), 2))

    def test_empty(self):
        assert conic_dependences([]) == ((), ())

    @pytest.mark.parametrize("vectors", [[(1, 0), (0,)], [(1, 0), (0, 0)], [(0.5, 1)]])
    def test_bad_input(self, vectors):
        with pytest.raises(InputError):
            conic_dependences(vectors)

    def test_agrees_with_definitions(self):
        sets = [H for _, H in named_normal_sets()]
        sets += random_normal_sets(40, seed=6, max_dim=4)
        tables = [(H.normals, conic_dependences(H.normals)) for H in sets]
        tables += [(K.normals, K.conic_dependences) for K in TestIntView.polytopes()]
        for normals, (circuits, reps) in tables:
            brute_circuits, brute_reps = brute_conic_dependences(normals)
            assert [S for S, _ in circuits] == brute_circuits
            assert [list(entries) for entries in reps] == brute_reps
            _assert_int_entries(normals, circuits, reps)


class TestIntView:
    """``Polytope.conic_dependences`` is all ints over the normals as given,
    fractional coordinates included."""

    @staticmethod
    def polytopes():
        """The named polytopes and 20 ``random_instance`` ones in dims 2 and 3,
        some of whose normals have fractional coordinates."""
        out = [K for _, K, _ in named_polytopes()]
        for seed in range(10):
            for dim in (2, 3):
                config = ExperimentConfig(
                    seed=seed, trials=1, dim=dim, max_normals=dim + 3,
                    max_points=1, coordinate_bound=3, scaling_depth=0,
                )
                out.append(random_instance(config, 0)[0])
        return out

    def test_entries_hold_by_substitution(self):
        polytopes = self.polytopes()
        assert any(c.denominator > 1 for K in polytopes for a in K.normals for c in a)
        for K in polytopes:
            circuits, reps = K.conic_dependences
            assert len(reps) == len(K.normals)
            _assert_int_entries(K.normals, circuits, reps)


def _assert_int_form(K, points):
    """K's int form is q > 0 times its rows, and the levels read off it are
    exact: L > 0, lb[i] = L b_i and M[i][j] = L <a_i, x_j>, all ints,
    checked in Fractions."""
    q, A, b = K._cleared
    assert type(q) is int and q > 0
    assert all(type(v) is int for v in b) and b == tuple(q * v for v in K.offsets)
    assert all(type(c) is int for a in A for c in a)
    assert A == tuple(tuple(q * c for c in a) for a in K.normals)
    L, lb, M = _levels(K, points)
    assert type(L) is int and L > 0
    assert all(type(v) is int for v in lb) and lb == [L * v for v in K.offsets]
    assert all(type(v) is int for row in M for v in row)
    assert M == [[L * dot(a, x) for x in points] for a in K.normals]


class TestIntForm:
    """Every way to build a ``Polytope`` leaves it an exact int form, and
    ``_levels`` reads exact levels off it."""

    POINTS = {
        2: [(F(1, 2), F(-2, 3)), (F(0), F(5, 7)), (F(3), F(-1))],
        3: [(F(1, 2), F(-2, 3), F(1, 5)), (F(0), F(0), F(0)), (F(7, 4), F(2), F(-3, 8))],
    }

    @pytest.mark.parametrize("name,K", [(name, K) for name, K, _ in named_polytopes()])
    def test_shapes(self, name, K):
        _assert_int_form(K, self.POINTS.get(K.dim, [(F(1, 3),) * K.dim]))

    def test_from_json(self):
        for K in (TestTablePath.PENTAGON, TestTablePath.QUADRANT):
            K = Polytope.from_json(K.to_json())
            _assert_int_form(K, self.POINTS[2])

    @settings(max_examples=100, deadline=None)
    @given(row_systems(), st.data())
    def test_constructors(self, system, data):
        # Polytope(...) on the rows as drawn, with ints and Fractions mixed,
        # and Polytope._irredundant on distinct directions, offsets >= 1
        dim, normals, offsets = system
        points = data.draw(st.lists(vectors(dim), max_size=4))
        mixed = [tuple(int(c) if c.denominator == 1 else c for c in a) for a in normals]
        if _verdict(dim, normals, offsets) is None:
            _assert_int_form(Polytope(dim, tuple(mixed), tuple(offsets)), points)
        distinct = {}
        for a, b in zip(normals, offsets):
            distinct.setdefault(primitive_direction(a), (a, 1 + abs(b)))
        normals, offsets = (list(rows) for rows in zip(*distinct.values()))
        if brute_spans_positively(normals, dim):
            _assert_int_form(Polytope._irredundant(dim, tuple(normals), offsets), points)


def _assert_int_entries(normals, circuits, reps):
    """Every coefficient of the table is an int, and every entry holds by
    substitution into the normals as given."""
    dim = len(normals[0])

    def combination(indices, coeffs):
        return tuple(sum(c * normals[j][t] for j, c in zip(indices, coeffs)) for t in range(dim))

    for S, mu in circuits:
        assert all(type(x) is int and x > 0 for x in mu)
        assert combination(S, mu) == (0,) * dim
    for i, entries in enumerate(reps):
        assert entries[0] == ((i,), (1,), 1)
        for B, lam, d in entries:
            assert type(d) is int and d > 0
            assert all(type(x) is int and x > 0 for x in lam)
            assert combination(B, lam) == tuple(d * c for c in normals[i])


@st.composite
def strong_cases(draw):
    """(K, X, queries): K from ``random_instance`` in dims 2 and 3, stretched
    about the origin so that its offsets need not be ints, X of 1 to 4 points
    shrunk by a drawn factor so that both fitting and non-fitting X come up,
    and queries a convex combination of X and a point near it."""
    dim = draw(st.sampled_from((2, 3)))
    config = ExperimentConfig(
        seed=draw(st.integers(0, 10 ** 6)), trials=1, dim=dim,
        max_normals=dim + 3, max_points=4, coordinate_bound=3, scaling_depth=0,
    )
    K, _ = random_instance(config, 0)
    stretch = draw(st.sampled_from((F(1), F(2, 3), F(5, 4))))
    K = Polytope(dim, K.normals, tuple(stretch * b for b in K.offsets))
    shrink = draw(st.sampled_from((F(1), F(1, 2), F(1, 4))))
    points = draw(st.lists(vectors(dim), min_size=1, max_size=4, unique=True))
    X = PointSet(dim, tuple(vscale(x, shrink) for x in points))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(X), max_size=len(X)))
    if not any(weights):
        weights[0] = 1
    inside = tuple(
        sum(w * x[d] for w, x in zip(weights, X.points)) / sum(weights)
        for d in range(dim)
    )
    nearby = vadd(inside, vscale(draw(vectors(dim)), F(1, 4)))
    return K, X, (inside, nearby)


def _outcome(search, K, X, p):
    try:
        return search(K, X, p).points
    except PreconditionError as exc:
        return str(exc)


def _int_member(K, X, p):
    """Membership of p in the strong hull of X read off the int table by
    ``minimal_strong_witness``, which decides the whole of X first; None
    when X fits in no translate."""
    outcome = _outcome(minimal_strong_witness, K, X, p)
    if outcome == "X does not fit in any translate of K":
        return None
    return outcome != "query point is not in the hull of X"


def _rows(K, X):
    """The int rows of the translate region of X."""
    return _translate_rows(K, *_levels(K, X.points), len(X))


def _facet_lp_supports(K, X):
    """b_i minus the optimum of facet i's LP over the translate region of X,
    the same limit as ``tight_supports`` computed by the simplex."""
    rows = _rows(K, X)
    return [
        b - maximize(rows, vneg(a), K.dim, nonneg=False).value
        for a, b in zip(K.normals, K.offsets)
    ]


class TestTablePath:
    """The conic-dependence table against the facet LPs."""

    # The unit square with its corner (1, 1) cut off by x + y <= 3/2.
    PENTAGON = Polytope(
        2,
        ((F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))),
        (F(1), F(1), F(0), F(0), F(3, 2)),
    )

    def test_hull_beyond_restricted_hull(self):
        # X = {(1, 0), (0, 1)} fits only in K itself, so its strong hull is
        # the pentagon; x + y <= 1 bounds its restricted hull, but a_5 = a_1
        # + a_2 raises that support to 3/2.
        X = PointSet(2, ((F(1), F(0)), (F(0), F(1))))
        p = (F(1), F(1, 2))
        supports = [support(X, a) for a in self.PENTAGON.normals]
        tight = tight_supports(self.PENTAGON, supports)
        assert tight == [1, 1, 0, 0, F(3, 2)]
        assert tight == _facet_lp_supports(self.PENTAGON, X)
        assert not h_hull_contains(self.PENTAGON.normal_set(), X, p)
        assert strong_hull_contains(self.PENTAGON, X, p)
        assert _FacetRegion(self.PENTAGON, X, [p]).contains(0)
        assert _int_member(self.PENTAGON, X, p) is True
        assert minimal_strong_witness(self.PENTAGON, X, p) == X

    # The positive quadrant under 2x + y <= 3, x + 2y <= 3 and x + y <= 9/5:
    # 3 (1, 1) = (2, 1) + (1, 2), a representation with d = 3.
    QUADRANT = Polytope(
        2, ((2, 1), (1, 2), (1, 1), (-1, 0), (0, -1)), (3, 3, F(9, 5), 0, 0)
    )

    @pytest.mark.parametrize("X, p, member", [
        (((F(1, 10), F(7, 5)), (F(11, 10), F(2, 5))), (F(7, 10), F(9, 10)), True),
        (((F(13, 10), F(9, 5)), (F(7, 10), F(3, 5))), (F(8, 5), F(8, 5)), False),
    ])
    def test_representation_denominator_decides(self, X, p, member):
        # Each verdict turns on the d = 3 representation of x + y <= 9/5;
        # read with d = 1 it would flip.
        K = self.QUADRANT
        assert ((0, 1), (1, 1), 3) in K.conic_dependences[1][2]
        X = PointSet(2, X)
        supports = [support(X, a) for a in K.normals]
        assert tight_supports(K, supports) == _facet_lp_supports(K, X)
        assert _FacetRegion(K, X, [p]).contains(0) is member
        assert _int_member(K, X, p) is member

    @settings(max_examples=120, deadline=None)
    @given(strong_cases(), st.data())
    def test_agrees_with_facet_lps(self, case, data):
        K, X, queries = case
        supports = [support(X, a) for a in K.normals]
        tight = tight_supports(K, supports)
        region = _FacetRegion(K, X, queries)
        for j, p in enumerate(queries):
            assert region.in_h_hull(j) == h_hull_contains(K.normal_set(), X, p)
            try:
                lp_member = region.contains(j)
            except PreconditionError:
                assert tight is None
                assert _int_member(K, X, p) is None
            else:
                assert _int_member(K, X, p) == lp_member
                assert tight == _facet_lp_supports(K, X)
                table_member = all(dot(a, p) <= t for a, t in zip(K.normals, tight))
                assert table_member == lp_member
            outcome = _outcome(minimal_strong_witness, K, X, p)
            assert outcome == _outcome(lp_minimal_strong_witness, K, X, p)
            # The table rule scales subsets about p, relying on circuits
            # and representations vanishing on translations: (X + v, p + v)
            # must give the translated outcome.
            v = data.draw(vectors(K.dim))
            moved = PointSet(K.dim, tuple(vadd(x, v) for x in X.points))
            if isinstance(outcome, tuple):
                outcome = tuple(vadd(x, v) for x in outcome)
            assert _outcome(minimal_strong_witness, K, moved, vadd(p, v)) == outcome
            assert _outcome(lp_minimal_strong_witness, K, moved, vadd(p, v)) == outcome

    @staticmethod
    def corpus_cases():
        """(K, X, p) on every named polytope: the extremal witness of its
        larger invariant scaled by 1, 1/2 and 1/4 with the origin and the
        points' centroid as queries, the scaling check's own cases."""
        cases = []
        for _, K, _ in named_polytopes():
            H = K.normal_set()
            report = caratheodory_number(H)
            if report.helly >= report.cone:
                witness = helly_witness_points(H, report.helly_witness)
            else:
                witness = cone_witness_points(H, report.cone_witness)
            for eps in (F(1), F(1, 2), F(1, 4)):
                X = PointSet(K.dim, tuple(vscale(x, eps) for x in witness.points.points))
                centroid = tuple(sum(c) / len(X) for c in zip(*X.points))
                cases += [(K, X, (F(0),) * K.dim), (K, X, centroid)]
        return cases

    def test_witness_search_solves_no_lp(self, monkeypatch):
        cases = self.corpus_cases()
        expected = [_outcome(lp_minimal_strong_witness, *case) for case in cases]
        assert any(isinstance(e, tuple) and len(e) > 1 for e in expected)
        assert any(isinstance(e, str) for e in expected)

        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(hcara.strong, "maximize_each", no_lp)
        monkeypatch.setattr(hcara.strong, "feasible_point", no_lp)
        assert [_outcome(minimal_strong_witness, *case) for case in cases] == expected

    def test_reference_path_still_solves_lps(self, monkeypatch):
        # One call of the multi-objective entry with one objective per
        # facet; a member reads every facet's optimum.
        calls = []
        read = []

        def each(rows, objectives, num_vars, nonneg=False):
            calls.append(("maximize_each", len(objectives)))
            for outcome in hcara.lp.maximize_each(rows, objectives, num_vars, nonneg):
                read.append(outcome.status)
                yield outcome

        def point(*args, **kwargs):
            calls.append(("feasible_point",))
            return hcara.lp.feasible_point(*args, **kwargs)

        monkeypatch.setattr(hcara.strong, "maximize_each", each)
        monkeypatch.setattr(hcara.strong, "feasible_point", point)
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        assert strong_hull_contains(CUBE2, X, (F(1), F(0)))
        assert calls == [("maximize_each", len(CUBE2))]
        assert read == [LpStatus.OPTIMAL] * len(CUBE2)
        assert fits_in_translate(CUBE2, X) is not None
        assert calls[1:] == [("feasible_point",)]

    @settings(max_examples=100, deadline=None)
    @given(strong_cases())
    def test_int_rows_take_the_fraction_rows_pivots(self, case):
        # The region's rows share one L, so they solve as the Fraction rows
        # <a_i, t> >= s_i - b_i do: same pivots, statuses, witnesses, values.
        K, X, _ = case
        fraction_rows = [(a, GE, support(X, a) - b) for a, b in zip(K.normals, K.offsets)]
        objectives = [vneg(a) for a in K.normals]
        runs = []
        for rows in (fraction_rows, _rows(K, X)):
            pivots = []
            real = hcara.lp.pivot

            def spy(T, r, c):
                pivots.append((r, c))
                return real(T, r, c)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hcara.lp, "pivot", spy)
                fit = feasible_point(rows, K.dim)
                outcomes = [
                    (o.status, o.witness, o.value)
                    for o in maximize_each(rows, objectives, K.dim)
                ]
            runs.append((fit, outcomes, pivots))
        assert runs[0] == runs[1]

    def test_first_violated_facet_ends_the_query(self, monkeypatch):
        # X fits only in the square itself.  (2, 0) violates facet 0, x <= 1,
        # so the query takes the region's phase 1 and facet 0's phase 2 and
        # no later facet's; a member takes every facet's phase 2.
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        rows = _rows(CUBE2, X)
        pivots = []
        real = hcara.lp.pivot

        def spy(T, r, c):
            pivots.append((r, c))
            return real(T, r, c)

        def run(solve, *args):
            pivots.clear()
            return solve(*args), pivots[:]

        monkeypatch.setattr(hcara.lp, "pivot", spy)
        _, phase1 = run(hcara.lp.feasible_point, rows, 2)
        lone = [run(maximize, rows, vneg(a), 2)[1] for a in CUBE2.normals]
        assert all(p[:len(phase1)] == phase1 for p in lone)
        phase2 = [p[len(phase1):] for p in lone]
        assert phase2[0]
        assert run(strong_hull_contains, CUBE2, X, (F(2), F(0))) == (
            False, phase1 + phase2[0]
        )
        member, taken = run(strong_hull_contains, CUBE2, X, (F(1), F(0)))
        assert member
        assert taken == phase1 + [p for q in phase2 for p in q]
        assert len(taken) > len(phase1) + len(phase2[0])

    @pytest.mark.parametrize(
        "points, phase1_pivots",
        [
            # inside the cube: every row <a_i, t> >= s_i - b_i has rhs <= 0,
            # so every row starts on its slack and t = 0 is phase 1's start
            (((0, 0, 0), (1, F(1, 2), 1), (F(1, 3), 1, 0)), False),
            # sticking out of x <= 1: that row needs an artificial
            (((2, 0, 0), (2, 1, F(1, 2))), True),
        ],
    )
    def test_cube_region_pivots_only_where_x_sticks_out(
        self, monkeypatch, points, phase1_pivots
    ):
        K = cube_polytope(3)
        X = PointSet(3, tuple(tuple(map(F, x)) for x in points))
        log = []
        real_pivot, real_primal = hcara.lp.pivot, hcara.lp._primal

        def pivot(T, r, c):
            log.append((r, c))
            return real_pivot(T, r, c)

        def primal(T, basis, ncols):
            log.append("primal")
            return real_primal(T, basis, ncols)

        monkeypatch.setattr(hcara.lp, "pivot", pivot)
        monkeypatch.setattr(hcara.lp, "_primal", primal)
        region = _FacetRegion(K, X, [X.points[0]])
        assert region.fits() and region.contains(0)
        # phase 1 and any drive-out come before the second _primal, the
        # first phase 2
        first_phase_2 = log.index("primal", 1)
        assert log[0] == "primal"
        assert bool(log[1:first_phase_2]) is phase1_pivots
        assert log.count("primal") == 1 + len(K)


class TestIntervalRule:
    """The int interval rule against its Fraction definition."""

    # Random polytopes seldom give a subset two finite lower bounds, so
    # that lo is a true maximum; these give many.
    MANY_REPRESENTATIONS = (cross_polytope(3), pyramid_polytope(5), pyramid_polytope(6))

    @settings(max_examples=80, deadline=None)
    @given(strong_cases(), st.data())
    def test_equals_fraction_rule(self, case, data):
        K, X, queries = case
        if K.dim == 3:
            K = data.draw(st.sampled_from((K,) + self.MANY_REPRESENTATIONS))
            stretch = data.draw(st.sampled_from((F(1), F(2, 3))))
            K = Polytope(3, K.normals, tuple(stretch * b for b in K.offsets))
        centre = data.draw(st.sampled_from(queries) | vectors(K.dim))
        points = X.points + (centre,)
        rule, reference = _interval_rule(K, points), fraction_interval_rule(K, points)
        for k in range(1, len(X) + 1):
            for idx in combinations(range(len(X)), k):
                lo, fit = rule(idx)
                assert (lo, fit) == reference(idx)
                assert all(type(v) is F for v in (lo, fit) if v is not None)


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
        with pytest.raises(PreconditionError, match="not in the hull"):
            minimal_strong_witness(CUBE2, X, (F(5), F(5)))

    @pytest.mark.parametrize("p", [(F(0),), (F(0), F(0), F(0))])
    def test_query_dimension_checked(self, p):
        for query in (strong_hull_contains, minimal_strong_witness, guard_assignment):
            with pytest.raises(InputError, match="wrong dimension"):
                query(CUBE2, PointSet(2, ((F(0), F(0)),)), p)

    def test_point_dimension_checked(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            minimal_strong_witness(CUBE2, PointSet(3, ((F(0), F(0), F(0)),)), (F(0), F(0)))

    @pytest.mark.parametrize(
        "query", [strong_hull_contains, minimal_strong_witness, guard_assignment]
    )
    def test_float_query_rejected(self, query):
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(InputError, match="float"):
            query(CUBE2, X, (0.5, F(0)))

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
        with pytest.raises(PreconditionError, match="does not fit"):
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

    @settings(max_examples=60, deadline=None)
    @given(strong_cases())
    def test_agrees_with_inner_products(self, case):
        K, X, queries = case
        for p in queries:
            expected = {}
            for j, x in enumerate(X.points):
                expected[j] = next((
                    i for i, a in enumerate(K.normals)
                    if dot(a, x) >= dot(a, p)
                    and all(dot(a, x) > dot(a, y) for k, y in enumerate(X.points) if k != j)
                ), None)
            if None in expected.values():
                expected = None
            assert guard_assignment(K, X, p) == expected


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

    @pytest.mark.parametrize("p,inside", [((F(1), F(0)), True), ((F(3), F(0)), False)])
    def test_one_region_per_point_set(self, monkeypatch, p, inside):
        # The restricted hull is hconvex's rule under K's normals, once per
        # point, on the region's one level matrix; (1, 0) lies on its
        # boundary.  A point inside reads the region's facet optima, every
        # one for a member, and a point outside only the first, which
        # carries phase 1's verdict.  Any number of points share the one
        # level matrix and the one maximize_each of X: no fit LP of its own.
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        calls = []
        read = []

        def each(rows, objectives, num_vars, nonneg=False):
            calls.append("maximize_each")
            for outcome in hcara.lp.maximize_each(rows, objectives, num_vars, nonneg):
                read.append(outcome.status)
                yield outcome

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(hcara.strong, name, wrapped)

        for name in ("levels", "hull_rule", "feasible_point"):
            spy(name, getattr(hcara.strong, name))
        # no Fraction support or dot per normal on either side
        assert not hasattr(hcara.strong, "support")
        assert not hasattr(hcara.strong, "h_hull_contains")
        monkeypatch.setattr(hcara.hconvex, "dot", lambda *args: calls.append("dot"))
        monkeypatch.setattr(hcara.strong, "dot", lambda *args: calls.append("dot"))
        monkeypatch.setattr(hcara.strong, "maximize_each", each)
        assert h_hull_contains(CUBE2.normal_set(), X, p) is inside
        assert h_subset_strong_check(CUBE2, X, p)
        assert calls == ["levels", "hull_rule", "maximize_each"]
        assert len(read) == (len(CUBE2) if inside else 1)
        calls.clear()
        assert h_subset_strong_check(CUBE2, X, p, (F(1), F(0)), (F(3), F(0)), p)
        assert calls[0] == "levels"
        assert sorted(calls) == ["hull_rule"] * 4 + ["levels", "maximize_each"]
        # the second region reads every optimum once, for (1, 0)
        assert len(read) == (len(CUBE2) if inside else 1) + len(CUBE2)

    def test_no_points_and_errors(self):
        X = PointSet(2, ((F(0), F(0)), (F(1), F(1))))
        assert h_subset_strong_check(CUBE2, X)
        wide = PointSet(2, ((F(0), F(0)), (F(2), F(0))))
        for points in ([(F(1), F(0))], [(F(3), F(0))], [(F(3), F(0)), (F(1), F(0))]):
            with pytest.raises(PreconditionError, match="does not fit"):
                h_subset_strong_check(CUBE2, wide, *points)
        with pytest.raises(InputError, match="wrong dimension"):
            h_subset_strong_check(CUBE2, X, (F(1), F(0)), (F(1),))
