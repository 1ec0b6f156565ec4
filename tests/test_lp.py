from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import fraction_simplex, vertex_lp

import hcara.lp
from hcara.errors import InputError, InternalConsistencyError
from hcara.linear import dot
from hcara.lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpStatus,
    feasible_point,
    maximize,
    maximize_each,
    solve,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
int_or_fraction = st.one_of(st.integers(-5, 5), small_fractions)


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
            # checked at the call, before any outcome is read
            lambda: maximize_each([((1,), LE, 0)], [(1,), (1, 2)], 1),
            lambda: maximize_each([((1,), LE, 0.5)], [(1,)], 1),
            lambda: feasible_point([((True,), LE, 1)], 1),
            lambda: maximize_each([((1,), LE, "1")], [(1,)], 1),
            lambda: feasible_point([((1,), GE, 1)], 1.0),
            lambda: solve(LinearProgram(1.0, (((1,), GE, 1),))),
            lambda: feasible_point([((1,), GE, 1)], True),
            lambda: feasible_point(5, 1),
            lambda: feasible_point([(5, GE, 1)], 1),
            lambda: maximize([((1,), LE, 0)], 3, 1),
            lambda: maximize_each([((1,), LE, 0)], 3, 1),
        ],
        ids=[
            "feasible_point-unknown-relation",
            "maximize-wrong-row-width",
            "maximize-wrong-objective-width",
            "feasible_point-float",
            "LinearProgram-float",
            "maximize_each-wrong-objective-width",
            "maximize_each-float",
            "feasible_point-bool",
            "maximize_each-str",
            "feasible_point-float-num_vars",
            "solve-float-num_vars",
            "feasible_point-bool-num_vars",
            "feasible_point-rows-not-iterable",
            "feasible_point-coeffs-not-iterable",
            "maximize-objective-not-iterable",
            "maximize_each-objectives-not-iterable",
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


@st.composite
def linear_programs(draw):
    """(num_vars, rows, objective or None, nonneg) with int and Fraction
    entries, any relation and right-hand sides of either sign."""
    num_vars = draw(st.integers(1, 4))
    vector = st.tuples(*[int_or_fraction] * num_vars)
    row = st.tuples(vector, st.sampled_from((LE, EQ, GE)), int_or_fraction)
    rows = draw(st.lists(row, max_size=6))
    return num_vars, rows, draw(st.none() | vector), draw(st.booleans())


def fraction_kernel(num_vars, rows, objective, nonneg):
    """(status, witness, value) from the reference Fraction-tableau kernel."""
    rows = [(tuple(map(F, coeffs)), rel, F(rhs)) for coeffs, rel, rhs in rows]
    objective = None if objective is None else tuple(map(F, objective))
    status, witness = fraction_simplex(num_vars, rows, objective, nonneg)
    value = dot(objective, witness) if status == "optimal" else None
    return status, witness, value


def assert_matches_fraction_kernel(num_vars, rows, objective, nonneg):
    status, witness, value = fraction_kernel(num_vars, rows, objective, nonneg)
    if objective is None:
        assert feasible_point(rows, num_vars, nonneg) == witness
        return
    out = maximize(rows, objective, num_vars, nonneg)
    assert (out.status.value.lower(), out.witness, out.value) == (status, witness, value)


class TestAgainstFractionKernel:
    """The integer tableau takes the Fraction tableau's pivots, so status,
    witness and value agree exactly."""

    @settings(max_examples=400, deadline=None)
    @given(linear_programs())
    # Ratio-test ties between two rows, broken by the least basis index.
    @example((2, [((-4, 5), GE, -4), ((-4, -3), EQ, -4), ((5, 3), GE, -4)], None, True))
    # A tie where a strict "<" on the cross-products picks the later row.
    @example((3, [((5, 2, -4), GE, -2), ((-2, -3, 1), LE, -5), ((0, -4, -2), GE, -1)],
              None, True))
    # Rows with different denominators: phase-1 costs sum the true rows.
    @example((2, [((5, F(1, 2)), GE, -2), ((4, 1), GE, 5)], None, True))
    def test_same_status_witness_and_value(self, lp):
        assert_matches_fraction_kernel(*lp)


@st.composite
def small_programs(draw):
    """(num_vars, rows, objective or None, nonneg) with at most 3 variables
    and 5 rows of every starting kind: rows that start on their slack (LE
    with rhs >= 0, GE with rhs <= 0), rows with rhs 0, EQ rows, LE rows with
    a negative rhs and GE rows with a positive one."""
    num_vars = draw(st.integers(1, 3))
    # sampled values draw far faster than st.fractions
    positive = st.sampled_from((1, 2, 3, F(1, 2), F(4, 3), F(5, 2)))
    negative = positive.map(lambda b: -b)
    value = st.integers(-4, 4) | positive | negative
    vector = st.tuples(*[value] * num_vars)
    row = st.one_of(
        st.tuples(vector, st.just(LE), positive),
        st.tuples(vector, st.just(GE), negative),
        st.tuples(vector, st.sampled_from((LE, EQ, GE)), st.just(0)),
        st.tuples(vector, st.just(EQ), value),
        st.tuples(vector, st.just(LE), negative),
        st.tuples(vector, st.just(GE), positive),
    )
    rows = draw(st.lists(row, max_size=5))
    return num_vars, rows, draw(st.none() | vector), draw(st.booleans())


def assert_solves(rows, witness, nonneg):
    """The witness satisfies every row, and x >= 0 under ``nonneg``, by
    substitution."""
    assert all(row_satisfied(coeffs, rel, rhs, witness) for coeffs, rel, rhs in rows)
    assert not nonneg or min(witness) >= 0


class TestAgainstVertexEnumeration:
    """Status and optimum of every entry point against ``vertex_lp``, which
    enumerates basic points and shares no simplex with the kernel."""

    @settings(max_examples=200, deadline=None)
    @given(small_programs())
    # no rows, so the origin is phase 1's start and every objective's bound
    @example((2, [], (1, 0), True))
    # every row starts on its slack, and the optimum leaves the origin
    @example((2, [((1, 0), LE, 2), ((-1, -1), GE, -3), ((0, 1), GE, 0)], (1, 1), False))
    # rhs 0 of every relation, a cone with the origin as its apex
    @example((2, [((1, -1), GE, 0), ((1, 1), LE, 0), ((1, 0), EQ, 0)], (1, 2), False))
    def test_status_value_and_witnesses(self, program):
        num_vars, rows, objective, nonneg = program
        objectives = [] if objective is None else [objective, tuple(-c for c in objective)]
        expected = [vertex_lp(num_vars, rows, c, nonneg) for c in objectives or [None]]
        point = feasible_point(rows, num_vars, nonneg)
        assert (point is None) == (expected[0][0] == "infeasible")
        if point is not None:
            assert_solves(rows, point, nonneg)
        outcomes = [maximize(rows, c, num_vars, nonneg) for c in objectives]
        assert list(maximize_each(rows, objectives, num_vars, nonneg)) == outcomes
        for c, out, (status, value) in zip(objectives, outcomes, expected):
            assert (out.status.value.lower(), out.value) == (status, value)
            if out.status is LpStatus.OPTIMAL:
                assert_solves(rows, out.witness, nonneg)
                assert dot(c, out.witness) == value


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

    def test_zero_rows(self):
        assert feasible_point([], 2) == (0, 0)
        assert feasible_point([], 2, nonneg=True) == (0, 0)
        assert maximize([], (1, 0), 2).status is LpStatus.UNBOUNDED
        assert maximize([], (-1, 0), 2, nonneg=True).value == 0

    def test_redundant_equalities_drop_a_row(self):
        # After phase 1 the second row has no structural entry left, so the
        # drive-out drops it and phase 2 runs on one row.
        rows = [((1, 1), EQ, 2), ((2, 2), EQ, 4), ((3, 3), EQ, 6)]
        assert feasible_point(rows, 2, nonneg=True) == (2, 0)
        out = maximize(rows, (1, 2), 2, nonneg=True)
        assert (out.status, out.witness, out.value) == (LpStatus.OPTIMAL, (0, 2), 4)
        assert_matches_fraction_kernel(2, rows, (1, 2), True)

    def test_drive_out_pivots_on_a_negative_entry(self, monkeypatch):
        # Both rows are equalities, so both start on artificials, and the
        # phase-1 row is their sum, -x1 + x2 with value 3.  Phase 1 enters x2
        # on row 1, the only row with a positive x2, and stops at value 0
        # with the artificial of row 0 basic at level 0; row 0 still reads
        # -x0 - 2x1 = 0, so the pivot that drives it out is -1, and row 1
        # becomes -x1 + x2 = 3.  With x >= 0, x0 + 2x1 = 0 forces
        # x0 = x1 = 0 and then x2 = 3: (0, 0, 3) is the only feasible point,
        # so the witness is (0, 0, 3) and the value 0 + 0 + 3 = 3.  Phase 2
        # prices x1 at 1 + 1 = 2 and enters it through row 0 at level 0.
        rows = [((-1, -2, 0), EQ, 0), ((1, 1, 1), EQ, 3)]
        objective = (0, 1, 1)
        real = hcara.lp.pivot
        entries = []

        def spy(T, r, c):
            entries.append((r, c, T[r][c]))
            return real(T, r, c)

        monkeypatch.setattr(hcara.lp, "pivot", spy)
        assert feasible_point(rows, 3, nonneg=True) == (0, 0, 3)
        assert [(r, c, e > 0) for r, c, e in entries] == [(1, 2, True), (0, 0, False)]
        out = maximize(rows, objective, 3, nonneg=True)
        assert (out.status, out.witness, out.value) == (
            LpStatus.OPTIMAL, (0, 0, 3), 3
        )
        assert [(r, c) for r, c, _ in entries[2:]] == [(1, 2), (0, 0), (0, 1)]
        assert_matches_fraction_kernel(3, rows, objective, True)

    def test_hilbert_system_with_60_digit_data(self):
        # Hilbert coefficients 1/(i+j+1) scaled by 60-digit fractions, so the
        # integer rows carry 60-digit factors through every pivot.
        big = 10**59
        scale = [F(big + 7 * i + 1, big + 13 * i + 3) for i in range(4)]
        hilbert = [
            tuple(scale[i] / (i + j + 1) for j in range(4)) for i in range(4)
        ]
        rhs = [F(big - 11 * i - 1, big + 17 * i + 19) for i in range(4)]
        square = [(row, EQ, b) for row, b in zip(hilbert, rhs)]
        x = feasible_point(square, 4)
        assert [dot(row, x) for row in hilbert] == rhs
        assert_matches_fraction_kernel(4, square, None, False)
        boxed = [(row, LE, b) for row, b in zip(hilbert, rhs)]
        for objective in [(1, 1, 1, 1), (1, -2, 3, -4)]:
            assert_matches_fraction_kernel(4, boxed, objective, True)
        assert maximize(boxed, (1, 1, 1, 1), 4, nonneg=True).status is LpStatus.OPTIMAL

    def test_witness_check_catches_a_corrupted_tableau(self, monkeypatch):
        # Every pivot leaves its row's rhs one too high, so the tableau no
        # longer describes the input; the substitution check reads the
        # cleared input rows, not the tableau, and must see it.
        real = hcara.lp.pivot

        def corrupting(rows, r, c):
            prow = real(rows, r, c)
            rows[r][-1] += 1
            return prow

        monkeypatch.setattr(hcara.lp, "pivot", corrupting)
        rows = [((1, 1), EQ, 2), ((1, -1), EQ, 0)]
        with pytest.raises(InternalConsistencyError, match="violates row"):
            feasible_point(rows, 2)
        with pytest.raises(InternalConsistencyError, match="violates row"):
            maximize(rows, (1, 0), 2)


@st.composite
def multi_objective_programs(draw):
    """(num_vars, rows, objectives, nonneg): a ``linear_programs`` row system
    with one to four objectives."""
    num_vars, rows, _, nonneg = draw(linear_programs())
    vector = st.tuples(*[int_or_fraction] * num_vars)
    return num_vars, rows, draw(st.lists(vector, min_size=1, max_size=4)), nonneg


class pivot_log:
    """Context that records the (row, column) of every ``lp.pivot``."""

    def __enter__(self):
        self.pivots = []
        self._patch = pytest.MonkeyPatch()
        real = hcara.lp.pivot

        def spy(rows, r, c):
            self.pivots.append((r, c))
            return real(rows, r, c)

        self._patch.setattr(hcara.lp, "pivot", spy)
        return self.pivots

    def __exit__(self, *exc):
        self._patch.undo()


def lone_solves(num_vars, rows, objectives, nonneg):
    """The phase-1 pivots, drive-out included, of the row system, and per
    objective the outcome and phase-2 pivots of a lone ``maximize``."""
    with pivot_log() as pivots:
        feasible_point(rows, num_vars, nonneg)
    phase1 = pivots[:]
    solves = []
    for objective in objectives:
        with pivot_log() as pivots:
            out = maximize(rows, objective, num_vars, nonneg)
        assert pivots[:len(phase1)] == phase1
        solves.append((out, pivots[len(phase1):]))
    return phase1, solves


# One program per outcome the entry must carry through: no rows, an
# infeasible system, an unbounded objective beside a bounded one, redundant
# equalities whose rows the drive-out drops, and a drive-out on a negative
# entry.
@example((2, [], [(1, 0), (-1, 0)], True))
@example((1, [((1,), GE, 1), ((-1,), GE, 0)], [(1,), (-1,)], False))
@example((1, [((1,), GE, F(1, 2))], [(1,), (-1,)], False))
@example((2, [((1, 1), EQ, 2), ((2, 2), EQ, 4), ((3, 3), EQ, 6)], [(1, 2), (2, 1), (-1, 0)], True))
@example((3, [((-1, -2, 0), EQ, 0), ((1, 1, 1), EQ, 3)], [(0, 1, 1), (1, 0, 0)], True))
@settings(max_examples=300, deadline=None)
@given(multi_objective_programs())
def test_maximize_each_is_one_phase_1_and_the_lone_phase_2s(program):
    """Every outcome equals a lone ``maximize``'s, and the pivots are one
    phase 1 followed by each lone solve's phase-2 pivots, in order."""
    num_vars, rows, objectives, nonneg = program
    phase1, solves = lone_solves(num_vars, rows, objectives, nonneg)
    with pivot_log() as pivots:
        outcomes = list(maximize_each(rows, objectives, num_vars, nonneg))
    assert [(o.status, o.witness, o.value) for o in outcomes] == [
        (o.status, o.witness, o.value) for o, _ in solves
    ]
    assert pivots == phase1 + [p for _, phase2 in solves for p in phase2]
    if outcomes[0].status is LpStatus.INFEASIBLE:
        assert {o.status for o in outcomes} == {LpStatus.INFEASIBLE}
        assert all(not phase2 for _, phase2 in solves)


@settings(max_examples=200, deadline=None)
@given(multi_objective_programs(), st.integers(1, 6))
def test_scaled_int_rows_take_the_same_pivots(program, factor):
    """Every row times one common L > 0, as ints, gives the same outcomes,
    status, witness and value, by the same pivots: the rows stay positive
    multiples of the Fraction rows and the slack columns share the factor
    L, which neither Bland's pricing nor the ratio test can see."""
    num_vars, rows, objectives, nonneg = program
    rows = [(tuple(map(F, coeffs)), rel, F(rhs)) for coeffs, rel, rhs in rows]
    L = factor * lcm(*(c.denominator for coeffs, _, rhs in rows for c in coeffs + (rhs,)))
    scaled = [
        (tuple(int(L * c) for c in coeffs), rel, int(L * rhs)) for coeffs, rel, rhs in rows
    ]
    assert all(type(c) is int for coeffs, _, _ in hcara.lp._checked_rows(scaled, num_vars)
               for c in coeffs)
    runs = []
    for system in (rows, scaled):
        with pivot_log() as pivots:
            outcomes = [
                (o.status, o.witness, o.value)
                for o in maximize_each(system, objectives, num_vars, nonneg)
            ]
        runs.append((outcomes, pivots))
    assert runs[0] == runs[1]


def test_maximize_each_examples_reach_every_status():
    assert [o.status for o in maximize_each(
        [((1,), GE, 1), ((-1,), GE, 0)], [(1,), (-1,)], 1
    )] == [LpStatus.INFEASIBLE] * 2
    assert [o.status for o in maximize_each([((1,), GE, F(1, 2))], [(1,), (-1,)], 1)] == [
        LpStatus.UNBOUNDED, LpStatus.OPTIMAL
    ]


def test_maximize_each_runs_a_phase_2_only_when_read():
    # the box [-1, 2] x [-1, 3]; every objective leaves phase 1's vertex
    rows = [((1, 0), LE, 2), ((0, 1), LE, 3), ((-1, 0), LE, 1), ((0, -1), LE, 1)]
    objectives = [(1, 0), (0, 1), (1, 1)]
    phase1, solves = lone_solves(2, rows, objectives, False)
    assert all(phase2 for _, phase2 in solves)
    with pivot_log() as pivots:
        outcomes = maximize_each(rows, objectives, 2)
        assert pivots == []
        first = next(outcomes)
        assert pivots == phase1 + solves[0][1]
    assert (first.witness, first.value) == (solves[0][0].witness, solves[0][0].value)
