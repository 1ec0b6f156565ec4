from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import named_normal_sets, named_polytopes, random_normal_sets
from oracles import (
    all_subsets,
    brute_caratheodory,
    brute_cone,
    brute_helly,
    brute_relaxed_cone,
    brute_simplex_with_origin,
    lp_is_conical_position,
)

import hcara.invariants
from hcara.errors import InputError
from hcara.experiment import ExperimentConfig, random_instance
from hcara.hconvex import NormalSet
from hcara.invariants import (
    caratheodory_number,
    cone_number,
    helly_number,
    is_conical_position,
    is_simplex_with_origin,
    positive_hull_contains,
    relaxed_cone_number,
)
from hcara.linear import conic_dependences, rank, vsub
from hcara.shapes import (
    cube_normals,
    pyramid_normals,
    simplex_with_extra_facet_normals,
    triangle_normals,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def nonzero_vectors(dim):
    return st.tuples(*([small_fractions] * dim)).filter(
        lambda v: any(c != 0 for c in v)
    )


@st.composite
def dependence_candidates(draw, dim):
    """1..dim+2 vectors in R^dim with negative multiples of earlier members,
    a negated positive combination and the zero vector drawn on purpose."""
    S = draw(st.lists(nonzero_vectors(dim), min_size=1, max_size=dim + 2))
    scales = st.sampled_from((F(1), F(2), F(1, 2)))
    for i in range(1, len(S)):
        if draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, i - 1))
            c = draw(scales)
            S[i] = tuple(-c * x for x in S[j])
    if len(S) < dim + 2 and draw(st.booleans()):
        coeffs = [draw(scales) for _ in S]
        S.append(tuple(-sum(c * s[d] for c, s in zip(coeffs, S)) for d in range(dim)))
    if draw(st.integers(0, 3)) == 0:
        S[draw(st.integers(0, len(S) - 1))] = (F(0),) * dim
    return draw(st.permutations(S))


@st.composite
def conical_candidates(draw, dim, max_size):
    """1..max_size nonzero vectors in R^dim with repeats,
    positive multiples and negative multiples of earlier members drawn on
    purpose, about one a set.  The vectors are drawn freely, lifted into
    the open upper halfspace, or put on the moment curve
    (t, t^2, ..., t^(dim-1), 1) at distinct t, where in dim >= 3 any number
    of them are in conical position, so that sets of more than dim members
    in conical position come up too."""
    S = draw(st.lists(nonzero_vectors(dim), min_size=1, max_size=max_size))
    shape = draw(st.sampled_from(("free", "lifted", "moment")))
    if shape == "lifted":
        S = [v[:-1] + (abs(v[-1]) + 1,) for v in S]
    elif shape == "moment":
        ts = draw(st.lists(small_fractions, min_size=len(S), max_size=len(S), unique=True))
        S = [tuple(t ** k for k in range(1, dim)) + (F(1),) for t in ts]
    scales = st.sampled_from((F(1), F(2), F(1, 2), F(-1), F(-2), F(-1, 2)))
    for i in range(1, len(S)):
        if draw(st.integers(0, len(S))) == 0:
            c = draw(scales)
            S[i] = tuple(c * x for x in S[draw(st.integers(0, i - 1))])
    return draw(st.permutations(S))


def side_normals(m):
    """The m slanted facet normals of the pyramid over an m-gon: the rays
    of a pointed cone in R^3 with m extreme rays."""
    return list(pyramid_normals(m).normals[:m])


class TestPositiveHull:
    def test_quadrant(self):
        assert positive_hull_contains([(F(1), F(0)), (F(0), F(1))], (F(2), F(3)))

    def test_forced_negative_coefficient(self):
        S = [(F(-1), F(0), F(1)), (F(0), F(1), F(1)), (F(0), F(-1), F(1))]
        assert not positive_hull_contains(S, (F(1), F(0), F(1)))

    def test_empty_hull_is_origin(self):
        assert positive_hull_contains([], (F(0), F(0)))
        assert not positive_hull_contains([], (F(1), F(0)))

    def test_mixed_dims_rejected(self):
        with pytest.raises(InputError, match="share one dimension"):
            positive_hull_contains([(F(1), F(0)), (F(1),)], (F(1), F(0)))


class TestSimplexWithOrigin:
    def test_opposite_pair(self):
        assert is_simplex_with_origin([(F(1), F(0)), (F(-1), F(0))])

    def test_triangle(self):
        assert is_simplex_with_origin([(F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))])

    def test_pyramid_normals_not_minimal(self):
        S = [
            (F(1), F(0), F(1)),
            (F(-1), F(0), F(1)),
            (F(0), F(1), F(1)),
            (F(0), F(-1), F(1)),
            (F(0), F(0), F(-1)),
        ]
        assert not is_simplex_with_origin(S)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            is_simplex_with_origin([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(InputError, match="share one dimension"):
            is_simplex_with_origin([(F(1), F(0)), (F(-1),)])

    def test_zero_vectors(self):
        zero, v = (F(0), F(0)), (F(1), F(2))
        assert is_simplex_with_origin([zero])
        assert not is_simplex_with_origin([zero, v])
        assert not is_simplex_with_origin([v, zero])
        assert not is_simplex_with_origin([zero, zero])

    def test_decided_without_lp(self, monkeypatch):
        import hcara.invariants

        def no_lp(*args, **kwargs):
            raise AssertionError("the Helly test must not solve an LP")

        monkeypatch.setattr(hcara.invariants, "feasible_point", no_lp)
        assert is_simplex_with_origin([(F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))])
        assert not is_simplex_with_origin([(F(1), F(0)), (F(0), F(1)), (F(1), F(1))])
        assert not is_simplex_with_origin(list(pyramid_normals(4).normals))

    def test_more_than_dim_plus_one_vectors_fail_without_a_table(self, monkeypatch):
        import hcara.linear

        def no_table(*args, **kwargs):
            raise AssertionError("too many vectors to be a circuit; build no table")

        monkeypatch.setattr(hcara.linear, "conic_dependences", no_table)
        S = [(i % 3 - 1, i % 5 - 2, i % 7 - 3, 1 - 2 * (i % 2)) for i in range(40)]
        assert not is_simplex_with_origin(S)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((2, 3)).flatmap(dependence_candidates))
    def test_agrees_with_lp_definition(self, S):
        assert is_simplex_with_origin(S) == brute_simplex_with_origin(S)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(nonzero_vectors(2), min_size=1, max_size=4))
    def test_passing_sets_are_affinely_independent(self, S):
        # the affine-independence cross-check inside must never trip; a pass
        # also implies rank of the difference set is |S| - 1
        if is_simplex_with_origin(S):
            diffs = [vsub(s, S[0]) for s in S[1:]]
            assert rank(diffs) == len(S) - 1


class TestConicalPosition:
    def test_orthants(self):
        S = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        assert is_conical_position(S)

    def test_positively_dependent_triple(self):
        assert not is_conical_position(
            [(F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))]
        )

    def test_singleton(self):
        assert is_conical_position([(F(1), F(0))])

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            is_conical_position([(F(0), F(0))])

    def test_mixed_dims_rejected(self):
        with pytest.raises(InputError, match="share one dimension"):
            is_conical_position([(F(1), F(0)), (F(0), F(1), F(0))])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(nonzero_vectors(2), min_size=2, max_size=4))
    def test_downward_closed(self, S):
        if not is_conical_position(S):
            return
        for k in range(1, len(S)):
            for sub in combinations(S, k):
                assert is_conical_position(list(sub))

    @pytest.mark.parametrize(
        "S,expected",
        [
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], True),
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], False),
            ([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], False),
            ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], True),
            ([(1, 2), (-1, -2)], False),
        ],
        ids=["basis", "coplanar-in-hull", "coplanar-spanning", "square-cone", "antiparallel"],
    )
    def test_named_cases_agree_with_lp_definition(self, S, expected):
        assert is_conical_position(S) == lp_is_conical_position(S) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: conical_candidates(d, 2 * d + 2)))
    def test_agrees_with_lp_definition(self, S):
        assert is_conical_position(S) == lp_is_conical_position(S)

    @pytest.mark.parametrize(
        "S",
        [
            [(F(3),)],
            [(F(-1, 2),)],
            [(1, 2), (2, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(1, 2, 0), (0, F(1, 3), 1)],
            [(1, 1, 1, 1), (0, -1, 2, 0), (0, 0, -3, 1), (F(1, 2), 0, 0, -1)],
            [(1,), (2,)],
            [(1,), (-1,)],
            [(1,), (F(1, 2),), (3,)],
            [(1, 0), (0, 1)],
            [(1, 0), (0, 1), (1, 1)],
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
            [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
            [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
            *(
                sides + extra
                for sides in map(side_normals, (4, 5, 6))
                for extra in ([], [tuple(sum(col) for col in zip(*sides))])
            ),
        ],
    )
    def test_solves_no_lp_and_takes_no_rank(self, monkeypatch, S):
        """Conical position is read off the set's own table, whatever its
        size or rank: no LP, no hull test and no rank."""
        expected = lp_is_conical_position(S)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"is_conical_position called {name}")
            return call

        for name in ("feasible_point", "positive_hull_contains", "rank"):
            monkeypatch.setattr(hcara.invariants, name, forbidden(name))
        assert is_conical_position(S) == expected


class TestConicalLocality:
    """For |S| >= dim + 2, S is in conical position exactly when every facet
    S - {s_j} is.  Conical position is hereditary.  Conversely, S fails it
    either on a circuit (a minimal positively dependent subset, which blocks
    strict separation by Gordan) or on a member s_j in the positive hull of
    the rest, and then, by conic Caratheodory, in the positive hull of a
    linearly independent B.  Either obstruction has at most dim + 1 members,
    so it misses a member of S and lies inside that member's facet."""

    @staticmethod
    def facets_agree(S):
        facets = [S[:j] + S[j + 1:] for j in range(len(S))]
        verdict = is_conical_position(S)
        assert verdict == all(is_conical_position(f) for f in facets)
        return verdict

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_pyramid_cones(self, m):
        sides = side_normals(m)
        inside = tuple(sum(col) for col in zip(*sides))
        if len(sides) >= 5:
            assert self.facets_agree(sides)
            assert lp_is_conical_position(sides)
        S = sides + [inside]
        assert not self.facets_agree(S)
        assert not lp_is_conical_position(S)
        verdicts = [is_conical_position(S[:j] + S[j + 1:]) for j in range(len(S))]
        assert verdicts[-1] and not all(verdicts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 3)).flatmap(
            lambda d: st.lists(nonzero_vectors(d), min_size=d + 2, max_size=d + 3)
        )
    )
    def test_random_sets(self, S):
        self.facets_agree(S)


class TestHellyNumber:
    def test_cube(self):
        assert helly_number(cube_normals(3)) == (2, (0, 1))

    def test_triangle(self):
        value, witness = helly_number(triangle_normals())
        assert value == 3 and witness == (0, 1, 2)

    def test_one_sided(self):
        H = NormalSet(2, ((F(1), F(0)), (F(0), F(1))))
        assert helly_number(H) == (0, ())

    def test_reads_the_polytope_table(self, monkeypatch):
        import hcara.invariants
        from conftest import named_polytopes

        cases = [
            (name, K, helly_number(NormalSet(K.dim, K.normals)))
            for name, K, _ in named_polytopes()
        ]

        def no_table(*args, **kwargs):
            raise AssertionError("the polytope's table was built again")

        monkeypatch.setattr(hcara.invariants, "conic_dependences", no_table)
        for name, K, expected in cases:
            H = K.normal_set()
            assert H.conic_dependences is K.conic_dependences, name
            assert helly_number(H) == expected, name

    def test_sets_built_directly_cache_nothing(self):
        H = NormalSet(2, ((F(1), F(0)), (F(0), F(1)), (F(-1), F(-1))))
        assert helly_number(H) == (3, (0, 1, 2))
        assert H.conic_dependences is None
        assert vars(H).keys() == {"dim", "normals"}
        K_set = triangle_normals()
        assert K_set.conic_dependences is not None
        direct = NormalSet(K_set.dim, K_set.normals)
        assert direct == K_set and hash(direct) == hash(K_set)


class TestConeNumber:
    def test_cube(self):
        value, witness = cone_number(cube_normals(3))
        assert value == 3
        assert witness == (0, 2, 4)

    def test_square_pyramid(self):
        value, witness = cone_number(pyramid_normals(4))
        assert value == 4 and witness == (0, 1, 2, 3)

    def test_singleton(self):
        assert cone_number(NormalSet(2, ((F(1), F(0)),))) == (1, (0,))


class TestRelaxedCone:
    def test_cube(self):
        assert relaxed_cone_number(cube_normals(3)) == 3

    def test_positive_hull_collision(self):
        H = NormalSet(2, ((F(1), F(0)), (F(1), F(1)), (F(2), F(1))))
        assert relaxed_cone_number(H) == 2

    def test_singleton(self):
        assert relaxed_cone_number(NormalSet(2, ((F(1), F(0)),))) == 1


class TestCaratheodoryReports:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cubes(self, n):
        r = caratheodory_number(cube_normals(n))
        assert (r.caratheodory, r.helly, r.cone) == (n, 2, n)

    def test_triangle(self):
        r = caratheodory_number(triangle_normals())
        assert (r.caratheodory, r.helly, r.cone) == (3, 3, 2)

    def test_square_pyramid(self):
        H = pyramid_normals(4)
        r = caratheodory_number(H)
        assert r.caratheodory == 4 == len(H) - 1

    def test_extra_facet(self):
        r = caratheodory_number(simplex_with_extra_facet_normals(3))
        assert (r.caratheodory, r.helly, r.cone) == (4, 4, 3)

    def test_max_identity_and_witness_sizes(self):
        for H in random_normal_sets(10, seed=77):
            r = caratheodory_number(H)
            assert r.caratheodory == max(r.helly, r.cone)
            assert len(r.helly_witness) == r.helly
            assert len(r.cone_witness) == r.cone
            assert r.relaxed_cone >= r.cone
            assert r.one_sided == (r.helly == 0)

    def test_positive_scaling_leaves_all_numbers_fixed(self):
        H = pyramid_normals(4)
        scaled = NormalSet(
            3,
            tuple(
                tuple(F(3, 2) * c if i % 2 else F(2) * c for c in a)
                for i, a in enumerate(H.normals)
            ),
        )
        a, b = caratheodory_number(H), caratheodory_number(scaled)
        assert (a.helly, a.cone, a.caratheodory, a.relaxed_cone) == (
            b.helly,
            b.cone,
            b.caratheodory,
            b.relaxed_cone,
        )

    def test_dimension_bounds(self):
        for H in random_normal_sets(10, seed=13):
            r = caratheodory_number(H)
            assert r.helly <= H.dim + 1

    def test_positively_spanning_sets_have_cone_at_least_dim(self):
        from conftest import named_polytopes

        for name, K, _ in named_polytopes():
            value, _witness = cone_number(K.normal_set())
            assert value >= K.dim, name


class TestAgainstBruteForce:
    def test_named_and_random_sets(self):
        sets = [
            cube_normals(2),
            triangle_normals(),
            pyramid_normals(4),
        ] + random_normal_sets(8, seed=5, max_size=6)
        for H in sets:
            assert helly_number(H) == brute_helly(H)
            assert cone_number(H)[0] == brute_cone(H)[0]
            assert relaxed_cone_number(H) == brute_relaxed_cone(H)

    def test_helly_needs_no_subset_test(self, monkeypatch, corpus_normal_sets):
        """The Helly number comes off the conic-dependence table alone, and
        the LP oracle agrees with it, witness included."""
        import hcara.invariants

        def no_subset_test(*args, **kwargs):
            raise AssertionError("helly_number must read the table, not test subsets")

        monkeypatch.setattr(hcara.invariants, "is_simplex_with_origin", no_subset_test)
        for name, H in corpus_normal_sets:
            assert helly_number(H) == brute_helly(H), name


@st.composite
def small_normal_sets(draw):
    """NormalSets of 1 to 6 int normals in dims 2 and 3."""
    dim = draw(st.sampled_from((2, 3)))
    coordinates = st.tuples(*([st.integers(-2, 2)] * dim)).filter(any)
    return NormalSet(dim, tuple(draw(st.lists(coordinates, min_size=1, max_size=6))))


ONE_SIDED = NormalSet(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)))


class TestCaratheodoryDefinition:
    """The paper's theorem, Caratheodory(H) = max(helly, cone), against the
    definition of the Caratheodory number (``oracles.brute_caratheodory``)."""

    def test_one_sided_set_needs_the_emptiness_condition(self):
        # The relaxed cone number is 4 here; the cone number's emptiness
        # condition is what brings the answer down to 3.
        H = ONE_SIDED
        r = caratheodory_number(H)
        assert brute_caratheodory(H) == r.caratheodory == 3
        assert r.relaxed_cone == 4

    @pytest.mark.parametrize(
        "name", [name for name, H in named_normal_sets() if H.dim <= 3]
    )
    def test_named_sets(self, name):
        H = dict(named_normal_sets())[name]
        assert brute_caratheodory(H) == caratheodory_number(H).caratheodory

    @settings(max_examples=100, deadline=None)
    @given(small_normal_sets())
    def test_agrees_with_definition(self, H):
        assert brute_caratheodory(H) == caratheodory_number(H).caratheodory

    @pytest.mark.parametrize(
        "H", [ONE_SIDED, triangle_normals()], ids=["one-sided", "triangle"]
    )
    def test_subset_bound(self, H):
        """The harness bounds Caratheodory(H') over every nonempty H' of H by
        max(helly, relaxed_cone); on these sets the bound is the largest
        value the definition gives on a subset."""
        r = caratheodory_number(H)
        best = max(
            brute_caratheodory(NormalSet(H.dim, tuple(H.normals[i] for i in idx)))
            for idx in all_subsets(len(H.normals))
        )
        assert max(r.helly, r.relaxed_cone) == best


def with_table(H):
    """H built again with its conic-dependence table attached by hand, as a
    ``Polytope`` attaches its own to its normal set."""
    T = NormalSet(H.dim, H.normals)
    object.__setattr__(T, "conic_dependences", conic_dependences(T.normals))
    return T


@st.composite
def table_candidates(draw):
    """NormalSets of 1 to d + 4 normals in dims 2-4, with negative multiples
    of earlier members drawn on purpose, and every normal sometimes lifted
    into the open upper halfspace, so one-sided sets come up often."""
    dim = draw(st.integers(2, 4))
    S = draw(st.lists(nonzero_vectors(dim), min_size=1, max_size=dim + 4))
    for i in range(1, len(S)):
        if draw(st.integers(0, 3)) == 0:
            c = draw(st.sampled_from((F(-1), F(-2), F(-1, 2))))
            S[i] = tuple(c * x for x in S[draw(st.integers(0, i - 1))])
    if draw(st.booleans()):
        S = [v[:-1] + (abs(v[-1]) + 1,) for v in S]
    return NormalSet(dim, tuple(S))


class TestTablePath:
    """The cone search on a set with a table attached reads conical
    position and hull avoidance off the table; a set built directly decides
    conical position off each candidate's own table and keeps the LP
    definition of hull avoidance.  The two paths must give equal reports."""

    @settings(max_examples=80, deadline=None)
    @given(table_candidates())
    def test_agrees_with_lp_path(self, H):
        T = with_table(H)
        assert caratheodory_number(T) == caratheodory_number(H)
        assert cone_number(T) == cone_number(H)
        assert relaxed_cone_number(T) == relaxed_cone_number(H)

    def test_one_sided_sets(self):
        for H in (ONE_SIDED, NormalSet(2, ((1, 1), (-1, 1), (0, 1), (3, 2)))):
            report = caratheodory_number(with_table(H))
            assert report.one_sided and report == caratheodory_number(H)

    @pytest.mark.parametrize(
        "name", [name for name, K, _ in named_polytopes() if len(K) <= 7]
    )
    def test_named_polytopes_against_brute_force(self, name):
        H = dict((n, K) for n, K, _ in named_polytopes())[name].normal_set()
        assert H.conic_dependences is not None
        assert helly_number(H) == brute_helly(H)
        assert cone_number(H) == brute_cone(H)
        assert relaxed_cone_number(H) == brute_relaxed_cone(H)

    def test_solves_no_lp(self, monkeypatch):
        sets = [K.normal_set() for _, K, _ in named_polytopes()]
        sets += [with_table(H) for H in random_normal_sets(30, seed=9, max_dim=4)]
        expected = [caratheodory_number(NormalSet(H.dim, H.normals)) for H in sets]

        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(hcara.invariants, "feasible_point", no_lp)
        assert [caratheodory_number(H) for H in sets] == expected

    @pytest.mark.parametrize("attached", [False, True])
    def test_the_table_chooses_the_path(self, monkeypatch, attached):
        H = pyramid_normals(5)
        H = with_table(H) if attached else NormalSet(H.dim, H.normals)
        expected = caratheodory_number(pyramid_normals(5))
        calls = []
        for name in ("is_conical_position", "positive_hull_contains"):
            def spy(*args, _name=name, _real=getattr(hcara.invariants, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(hcara.invariants, name, spy)
        assert caratheodory_number(H) == expected
        if attached:
            assert calls == []
        else:
            assert "is_conical_position" in calls and "positive_hull_contains" in calls


class TestSubsetBound:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_polytopes(self, dim):
        """max(helly, relaxed_cone) of a polytope's normal set, on the table
        path, is the largest Caratheodory number of a nonempty subset, each
        subset built directly and so decided on the LP path."""
        config = ExperimentConfig(
            seed=0, trials=1, dim=dim, max_normals=6, max_points=1,
            coordinate_bound=3, scaling_depth=0,
        )
        sizes = []
        for trial in range(12):
            H = random_instance(config, trial)[0].normal_set()
            r = caratheodory_number(H)
            best = max(
                caratheodory_number(
                    NormalSet(H.dim, tuple(H.normals[i] for i in idx))
                ).caratheodory
                for idx in all_subsets(len(H.normals))
            )
            assert max(r.helly, r.relaxed_cone) == best
            sizes.append(len(H))
        assert max(sizes) == 6
