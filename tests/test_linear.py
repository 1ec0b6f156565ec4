import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import bareiss_rank, gram_solve_linear

import hcara.experiment
import hcara.linear
import hcara.lp
from hcara.errors import InputError
from hcara.experiment import ExperimentConfig, random_instance
from hcara.linear import (
    conic_dependences,
    dot,
    primitive_direction,
    rank,
    restrict,
    solve_linear,
    vadd,
    vscale,
)
from hcara.lp import EQ, LE

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def vectors(dim):
    return st.tuples(*([small_fractions] * dim))


# Entries small enough to make zero and parallel rows collide, and large
# enough to push the integer elimination far past machine words.
entries = st.one_of(
    small_fractions,
    st.builds(lambda s, n: s * n, st.sampled_from((1, -1)), st.integers(2**64, 10**30)),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
)
nonzero_entries = entries.filter(bool)


@st.composite
def families(draw, dim=None, min_size=1, max_size=5):
    """Equal-dimension vectors: free draws, zero vectors, multiples of an
    earlier vector and sums of two earlier ones."""
    if dim is None:
        dim = draw(st.integers(1, 4))
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(("free", "zero", "parallel", "sum")))
        if kind == "zero":
            v = (F(0),) * dim
        elif kind == "parallel" and out:
            v = vscale(draw(st.sampled_from(out)), draw(nonzero_entries))
        elif kind == "sum" and out:
            v = vadd(draw(st.sampled_from(out)), draw(st.sampled_from(out)))
        else:
            v = tuple(draw(entries) for _ in range(dim))
        out.append(v)
    return out


@st.composite
def systems(draw):
    """(rows, rhs): consistent by construction, drawn freely (often
    inconsistent once rows repeat), or a repeated row with a shifted rhs."""
    rows = draw(families(max_size=4))
    kind = draw(st.sampled_from(("consistent", "free", "contradiction")))
    if kind == "consistent":
        x = tuple(draw(entries) for _ in rows[0])
        return rows, [dot(r, x) for r in rows]
    rhs = [draw(entries) for _ in rows]
    if kind == "contradiction":
        rows, rhs = rows + [rows[0]], rhs + [rhs[0] + 1]
    return rows, rhs


class TestRank:
    def test_basis(self):
        assert rank([(F(1), F(0)), (F(0), F(1))]) == 2

    def test_parallel(self):
        assert rank([(F(1), F(1)), (F(2), F(2))]) == 1

    def test_empty(self):
        assert rank([]) == 0

    def test_mixed_dims_rejected(self):
        with pytest.raises(InputError):
            rank([(F(1), F(0)), (F(1),)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(vectors(3), min_size=1, max_size=4), st.lists(small_fractions, min_size=4, max_size=4))
    def test_rank_invariant_under_linear_combinations(self, vs, coeffs):
        combo = (F(0), F(0), F(0))
        for v, c in zip(vs, coeffs):
            combo = vadd(combo, vscale(v, c))
        assert rank(vs + [combo]) == rank(vs)

    def test_float_rejected(self):
        with pytest.raises(InputError):
            rank([(0.5, 1)])

    @settings(max_examples=150, deadline=None)
    @given(families())
    def test_agrees_with_bareiss(self, vs):
        assert rank(vs) == bareiss_rank(vs)


class TestSolveLinear:
    def test_unique_solution(self):
        assert solve_linear([(F(0), F(-1)), (F(1), F(1))], [F(-1), F(-1)]) == (
            F(-2),
            F(1),
        )

    def test_minimum_norm(self):
        assert solve_linear([(F(1), F(0))], [F(0)]) == (F(0), F(0))

    def test_inconsistent(self):
        assert solve_linear([(F(1), F(0)), (F(1), F(0))], [F(0), F(1)]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            solve_linear([(F(1), F(0)), (F(1),)], [F(0), F(0)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(vectors(3), min_size=1, max_size=3),
        vectors(3),
    )
    def test_constructed_systems_solve_exactly(self, rows, x):
        rhs = [dot(r, x) for r in rows]
        sol = solve_linear(rows, rhs)
        assert sol is not None
        for r, b in zip(rows, rhs):
            assert dot(r, sol) == b
        # minimum-norm solutions lie in the row space
        assert rank(list(rows) + [sol]) == rank(rows)

    def test_float_rejected(self):
        with pytest.raises(InputError):
            solve_linear([(1, 1)], [0.1])

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_agrees_with_fraction_gauss_jordan(self, system):
        rows, rhs = system
        assert solve_linear(rows, rhs) == gram_solve_linear(rows, rhs)


def test_every_elimination_takes_linear_pivot(monkeypatch):
    """Rank, linear solves, the conic-dependence table and both LP entry
    points all reach ``linear.pivot``, so no second elimination loop hides
    behind any of them.  The spy replaces ``pivot`` in every hcara module
    that binds it."""
    calls = []
    original = hcara.linear.pivot

    def spy(*args):
        calls.append(args[1:])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hcara.") and getattr(module, "pivot", None) is original:
            monkeypatch.setattr(module, "pivot", spy)
    cases = {
        "rank": lambda: hcara.linear.rank([(1, 2), (3, 4)]),
        "solve_linear": lambda: hcara.linear.solve_linear([(1, 2), (3, 4)], [1, 1]),
        "conic_dependences": lambda: hcara.linear.conic_dependences([(1, 0), (0, 1), (-1, -1)]),
        "maximize": lambda: hcara.lp.maximize([((1, 1), LE, 2)], (1, 0), 2, nonneg=True),
        "feasible_point": lambda: hcara.lp.feasible_point([((1, 1), EQ, 2)], 2),
    }
    for name, run in cases.items():
        calls.clear()
        run()
        assert calls, f"{name} does not reach linear.pivot"


@st.composite
def dot_pairs(draw):
    """Two vectors of one length 0-4 whose entries are ints, Fractions or a
    mix, including entries far past machine words."""
    dim = draw(st.integers(0, 4))
    entry = draw(st.sampled_from((
        st.integers(-(10**20), 10**20),
        entries,
        st.one_of(st.integers(-9, 9), entries),
    )))
    vector = st.tuples(*[entry] * dim)
    return draw(vector), draw(vector)


class TestDot:
    @settings(max_examples=300, deadline=None)
    @given(dot_pairs())
    def test_matches_the_fraction_sum(self, pair):
        a, b = pair
        value = dot(a, b)
        assert type(value) is F
        assert value == sum((F(x) * F(y) for x, y in zip(a, b)), F(0))

    def test_result_is_normalized(self):
        value = dot((F(1, 2), F(1, 3)), (F(2, 3), F(1, 2)))
        assert (value.numerator, value.denominator) == (1, 2)

    @pytest.mark.parametrize(
        "a,b",
        [((1, 2), (1,)), ((), (F(1),)), ((F(1, 2),), ())],
        ids=["shorter-right", "empty-left", "empty-right"],
    )
    def test_length_mismatch(self, a, b):
        with pytest.raises(InputError, match="dimension mismatch"):
            dot(a, b)

    @pytest.mark.parametrize(
        "bad", [True, "1", 0.5, (1,), [F(1)]], ids=["bool", "str", "float", "tuple", "list"]
    )
    @pytest.mark.parametrize("side", [0, 1])
    def test_bad_entries_raise_on_either_side(self, bad, side):
        good = (F(1, 3), 2, bad)
        other = (F(1), F(2, 5), 7)
        a, b = (good, other) if side == 0 else (other, good)
        with pytest.raises(InputError):
            dot(a, b)


class TestFloatsRejected:
    def test_dot(self):
        with pytest.raises(InputError):
            dot((1,), (0.1,))
        with pytest.raises(InputError):
            dot((0.5, F(1)), (F(2), 1))

    @pytest.mark.parametrize(
        "a,b",
        [((1,), ("a",)), ((F(1),), ((1,),)), ((1,), (True,))],
        ids=["string", "nested", "bool"],
    )
    def test_dot_non_numbers(self, a, b):
        with pytest.raises(InputError, match="not a number"):
            dot(a, b)

    def test_vscale(self):
        with pytest.raises(InputError):
            vscale((F(1),), 0.1)
        with pytest.raises(InputError):
            vscale((0.1,), 1)

    def test_primitive_direction(self):
        with pytest.raises(InputError):
            primitive_direction((0.5, 1))


class TestPrimitiveDirection:
    def test_positive_multiples_collapse(self):
        assert primitive_direction((F(1, 2), F(3, 4))) == primitive_direction(
            (F(2), F(3))
        )

    def test_opposites_stay_apart(self):
        assert primitive_direction((F(1), F(0))) != primitive_direction(
            (F(-1), F(0))
        )

    @settings(max_examples=60, deadline=None)
    @given(vectors(3), st.fractions(min_value=F(1, 5), max_value=5, max_denominator=6))
    def test_scaling_invariance(self, v, c):
        if all(x == 0 for x in v):
            return
        assert primitive_direction(v) == primitive_direction(vscale(v, c))


class TestRestrict:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_a_fresh_build(self, data):
        # families draws dims 1-4 with repeated, parallel and antiparallel
        # members; the table has no room for the zero vector.
        vs = [v for v in data.draw(families(max_size=6)) if any(v)]
        assume(vs)
        keep = sorted(data.draw(st.sets(st.integers(0, len(vs) - 1), min_size=1)))
        assert restrict(conic_dependences(vs), keep) == conic_dependences(
            [vs[i] for i in keep]
        )

    def test_keep_everything(self):
        table = conic_dependences([(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 2)])
        assert restrict(table, range(5)) == table

    @pytest.mark.parametrize("keep", [[1, 0], [0, 0], [0, 5], [-1], [True]])
    def test_bad_keep(self, keep):
        table = conic_dependences([(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 2)])
        with pytest.raises(InputError, match="increasing indices"):
            restrict(table, keep)

    def test_random_instance_polytopes(self, monkeypatch):
        # The table a drawn polytope carries is the drawn rows' table
        # restricted to the kept rows; some draws prune a row.
        pruned = []
        real = hcara.experiment.restrict

        def spy(table, keep):
            pruned.append(len(keep) < len(table[1]))
            return real(table, keep)

        monkeypatch.setattr(hcara.experiment, "restrict", spy)
        for dim in (2, 3, 4):
            config = ExperimentConfig(
                seed=11, trials=1, dim=dim, max_normals=dim + 3, max_points=1,
                coordinate_bound=3, scaling_depth=0,
            )
            for trial in range(12):
                K, _ = random_instance(config, trial)
                assert K.conic_dependences == conic_dependences(K.normals)
                assert K.normal_set().conic_dependences is K.conic_dependences
        assert any(pruned)
