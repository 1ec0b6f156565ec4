from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import named_normal_sets, random_normal_sets
from oracles import (
    all_subsets,
    brute_caratheodory,
    brute_cone,
    brute_helly,
    brute_relaxed_cone,
    brute_simplex_with_origin,
    lp_is_conical_position,
)

from hcara.errors import InputError
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
from hcara.linear import rank, vsub
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
def conical_candidates(draw, dim):
    """1..dim+2 nonzero vectors in R^dim with repeats, positive multiples
    and negative multiples of earlier members drawn on purpose."""
    S = draw(st.lists(nonzero_vectors(dim), min_size=1, max_size=dim + 2))
    scales = st.sampled_from((F(1), F(2), F(1, 2), F(-1), F(-2), F(-1, 2)))
    for i in range(1, len(S)):
        if draw(st.integers(0, 2)) == 0:
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
        import hcara.invariants

        def no_table(*args, **kwargs):
            raise AssertionError("too many vectors to be a circuit; build no table")

        monkeypatch.setattr(hcara.invariants, "conic_dependences", no_table)
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
    @given(st.integers(1, 4).flatmap(conical_candidates))
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
        ],
    )
    def test_independent_sets_solve_no_lp(self, monkeypatch, S):
        import hcara.invariants

        def no_lp(*args, **kwargs):
            raise AssertionError("a linearly independent set needs no LP")

        monkeypatch.setattr(hcara.invariants, "feasible_point", no_lp)
        assert is_conical_position(S)

    def test_more_than_dim_vectors_take_no_rank(self, monkeypatch):
        import hcara.invariants

        ranks = []
        original = hcara.invariants.rank

        def spy(*args):
            ranks.append(args)
            return original(*args)

        monkeypatch.setattr(hcara.invariants, "rank", spy)
        assert is_conical_position(side_normals(4))
        assert not is_conical_position([(1, 0), (0, 1), (1, 1)])
        assert not is_conical_position([(1,), (2,)])
        assert ranks == []
        assert is_conical_position([(1, 0), (0, 1)])
        assert len(ranks) == 1


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
