from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcara.errors import InputError
from hcara.linear import dot
from hcara.lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpStatus,
    feasible_point,
    maximize,
    solve,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def row_satisfied(coeffs, rel, rhs, x):
    v = dot(coeffs, x)
    return {LE: v <= rhs, GE: v >= rhs, EQ: v == rhs}[rel]


class TestSolveExamples:
    def test_contradictory_bounds(self):
        lp = LinearProgram(1, (((F(1),), GE, F(1)), ((F(-1),), GE, F(0))))
        assert solve(lp).status is LpStatus.INFEASIBLE

    def test_feasible_with_witness(self):
        lp = LinearProgram(
            2,
            (
                ((F(1), F(1)), EQ, F(1)),
                ((F(1), F(0)), GE, F(0)),
                ((F(0), F(1)), GE, F(0)),
            ),
        )
        out = solve(lp)
        assert out.status is LpStatus.FEASIBLE
        for coeffs, rel, rhs in lp.rows:
            assert row_satisfied(coeffs, rel, rhs, out.witness)

    def test_opposite_pair_dependence(self):
        lp = LinearProgram(
            2,
            (
                ((F(1), F(-1)), EQ, F(0)),
                ((F(1), F(0)), GE, F(1)),
                ((F(0), F(1)), GE, F(1)),
            ),
        )
        out = solve(lp)
        assert out.status is LpStatus.FEASIBLE
        assert out.witness[0] == out.witness[1] >= 1

    def test_optimal_value_matches_witness(self):
        lp = LinearProgram(
            2,
            (((F(1), F(0)), LE, F(2)), ((F(0), F(1)), LE, F(3))),
            objective=(F(1), F(1)),
        )
        out = solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert out.witness == (F(2), F(3))
        assert out.value == 5
        assert out.value == dot(lp.objective, out.witness)

    def test_unbounded(self):
        lp = LinearProgram(1, (((F(1),), GE, F(0)),), objective=(F(1),))
        assert solve(lp).status is LpStatus.UNBOUNDED

    def test_degenerate_redundant_equalities(self):
        lp = LinearProgram(
            2,
            (((F(1), F(1)), EQ, F(2)), ((F(2), F(2)), EQ, F(4))),
        )
        assert solve(lp).status is LpStatus.FEASIBLE

    def test_exactness_with_awkward_fractions(self):
        # maximize x st 3x <= 1 gives exactly 1/3; no tolerance anywhere
        lp = LinearProgram(1, (((F(3),), LE, F(1)),), objective=(F(1),))
        out = solve(lp)
        assert out.value == F(1, 3)


class TestValidation:
    def test_wrong_row_width(self):
        with pytest.raises(InputError):
            LinearProgram(2, (((F(1),), LE, F(0)),))

    def test_unknown_relation(self):
        with pytest.raises(InputError):
            LinearProgram(1, (((F(1),), "<", F(0)),))

    def test_wrong_objective_width(self):
        with pytest.raises(InputError):
            LinearProgram(1, (), objective=(F(1), F(2)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: feasible_point([((1,), "<", 0)], 1),
            lambda: maximize([((1, 2), LE, 0)], (1,), 1),
            lambda: maximize([((1,), LE, 0)], (1, 2), 1),
            lambda: feasible_point([((0.1,), LE, 1)], 1),
            lambda: LinearProgram(1, (((0.1,), LE, F(1)),)),
        ],
        ids=[
            "feasible_point-unknown-relation",
            "maximize-wrong-row-width",
            "maximize-wrong-objective-width",
            "feasible_point-float",
            "LinearProgram-float",
        ],
    )
    def test_every_entry_point_rejects_malformed_input(self, call):
        with pytest.raises(InputError):
            call()


class TestDeterminism:
    def test_identical_programs_identical_outcomes(self):
        lp = LinearProgram(
            3,
            (
                ((F(1), F(2), F(-1)), LE, F(4)),
                ((F(0), F(1), F(1)), GE, F(-2)),
                ((F(1), F(0), F(1)), EQ, F(1)),
            ),
            objective=(F(1), F(-1), F(2)),
        )
        assert solve(lp) == solve(lp)


@st.composite
def feasible_row_systems(draw):
    """Rows constructed around a known solution point, hence always feasible."""
    num_vars = draw(st.integers(2, 3))
    x = tuple(draw(small_fractions) for _ in range(num_vars))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = tuple(draw(small_fractions) for _ in range(num_vars))
        rel = draw(st.sampled_from((LE, GE, EQ)))
        margin = draw(st.fractions(min_value=0, max_value=3, max_denominator=2))
        v = dot(coeffs, x)
        rhs = v + margin if rel == LE else v - margin if rel == GE else v
        rows.append((coeffs, rel, rhs))
    return num_vars, tuple(rows)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(feasible_row_systems())
    def test_feasible_systems_get_valid_witnesses(self, sys_):
        num_vars, rows = sys_
        lp = LinearProgram(num_vars, rows)
        out = solve(lp)
        assert out.status is LpStatus.FEASIBLE
        for coeffs, rel, rhs in rows:
            assert row_satisfied(coeffs, rel, rhs, out.witness)

    @settings(max_examples=80, deadline=None)
    @given(feasible_row_systems())
    def test_nonneg_mode_agrees_with_extra_rows(self, sys_):
        num_vars, rows = sys_
        explicit = list(rows)
        for j in range(num_vars):
            unit = tuple(F(1 if i == j else 0) for i in range(num_vars))
            explicit.append((unit, GE, F(0)))
        fast = feasible_point(rows, num_vars, nonneg=True)
        slow = feasible_point(explicit, num_vars, nonneg=False)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert all(c >= 0 for c in fast)
            for coeffs, rel, rhs in rows:
                assert row_satisfied(coeffs, rel, rhs, fast)

    @settings(max_examples=40, deadline=None)
    @given(feasible_row_systems(), st.integers(0, 2))
    def test_bounded_maximization_is_optimal_and_verified(self, sys_, j):
        num_vars, rows = sys_
        j = j % num_vars
        unit = tuple(F(1 if i == j else 0) for i in range(num_vars))
        bounded = list(rows) + [(unit, LE, F(100))]
        out = maximize(bounded, unit, num_vars)
        assert out.status is LpStatus.OPTIMAL
        assert out.value == out.witness[j] <= 100


class TestKernel:
    def test_int_rows_give_fraction_witnesses(self):
        point = feasible_point([((2,), GE, 1)], 1)
        assert point == (F(1, 2),)
        assert all(type(c) is F for c in point)
        assert maximize([((3,), LE, 1)], (1,), 1).value == F(1, 3)

    def test_beale_cycling_example_terminates(self):
        # Textbook pivoting rules cycle on this degenerate LP; Bland's rule
        # must terminate at the optimum.
        rows = [
            ((F(1, 4), F(-60), F(-1, 25), F(9)), LE, F(0)),
            ((F(1, 2), F(-90), F(-1, 50), F(3)), LE, F(0)),
            ((F(0), F(0), F(1), F(0)), LE, F(1)),
        ]
        objective = (F(3, 4), F(-150), F(1, 50), F(-6))
        out = maximize(rows, objective, 4, nonneg=True)
        assert out.status is LpStatus.OPTIMAL
        assert out.value == F(1, 20)
        assert out.witness == (F(1, 25), F(0), F(1), F(0))
