"""Exact linear programming: two-phase primal simplex with Bland's rule.

The simplex pivots on one integer tableau with ``linear.pivot``, the step
every exact elimination in hcara takes.  The phase-1 row and the phase-2 cost
rows are ordinary bottom rows of that tableau, so one step updates constraints
and objectives alike: every row is a positive integer multiple of its true
rational row, and a constraint row's basic entry is its denominator.  Phase 1
reads only its own row and the constraint rows, so ``maximize_each`` carries
several cost rows through one phase 1 and then runs each objective's phase 2,
lazily, on its own list of the constraint rows; ``maximize`` and
``feasible_point`` are the one-objective and no-objective cases of the same
kernel, whose outcomes match a lone solve's pivot for pivot.  Phase 1 starts
from the slack basis where it can (Bixby, ORSA J. Computing 1992): a row
whose slack can be basic at a nonnegative value starts on that slack, and
only the other rows take an artificial, so a system of inequalities that
the origin satisfies needs no phase-1 pivot.  Rows and objectives arrive as
ints or fractions.Fraction, and an int stays an int until the tableau clears
both kinds alike.  A witness is checked by substitution into the input rows
cleared of denominators, in ints, and only then leaves as Fractions, so
feasibility and optimality are decided with zero tolerance and no Fraction
arithmetic between the input check and the outcome.  Bland's least-index
rule for both the entering and leaving variable guarantees termination
without any numerical safeguards.

Strict inequalities are deliberately unsupported: callers encode strictness
either through homogeneous rescaling (lambda > 0 becomes lambda >= 1) or by
maximizing a slack and testing the sign of the exact optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InputError, InternalConsistencyError
from .linear import Vector, clear_denominators, exact, pivot, reduced_row

LE = "<="
EQ = "="
GE = ">="
RELATIONS = (LE, EQ, GE)


class LpStatus(Enum):
    INFEASIBLE = "INFEASIBLE"
    FEASIBLE = "FEASIBLE"
    OPTIMAL = "OPTIMAL"
    UNBOUNDED = "UNBOUNDED"


def _checked_rows(rows, num_vars):
    """The rows checked for shape, width and relation, every value an int
    or a Fraction as given, which the tableau clears alike; InputError on
    anything malformed."""
    if type(num_vars) is not int:
        raise InputError(f"num_vars must be an int, got {num_vars!r}")
    if num_vars < 1:
        raise InputError("a linear program needs at least one variable")
    checked = []
    for row in _items(rows, "rows"):
        try:
            coeffs, rel, rhs = row
            coeffs = tuple(coeffs)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed row {row!r}") from exc
        if len(coeffs) != num_vars:
            raise InputError(f"row has {len(coeffs)} coefficients, expected {num_vars}")
        if rel not in RELATIONS:
            raise InputError(f"unknown relation {rel!r}")
        checked.append((tuple(map(_number, coeffs)), rel, _number(rhs)))
    return tuple(checked)


def _items(values, what):
    """``tuple(values)``; InputError when they are not iterable."""
    try:
        return tuple(values)
    except TypeError as exc:
        raise InputError(f"{what} must be a sequence, got {values!r}") from exc


def _number(value):
    """An int kept as an int, anything else through ``linear.exact``."""
    return value if type(value) is int else exact(value)


def _checked_objective(objective, num_vars):
    """The objective as a tuple, every value an int or a Fraction as given,
    as in :func:`_checked_rows`; InputError unless it has one coefficient
    per variable."""
    objective = _items(objective, "objective")
    if len(objective) != num_vars:
        raise InputError("objective length must equal num_vars")
    return tuple(map(_number, objective))


@dataclass(frozen=True)
class LinearProgram:
    """Rows ``coeffs <rel> rhs`` over ``num_vars`` free rational variables.

    The optional objective is maximized.
    """

    num_vars: int
    rows: tuple
    objective: Vector | None = None

    def __post_init__(self):
        object.__setattr__(self, "rows", _checked_rows(self.rows, self.num_vars))
        if self.objective is not None:
            objective = _checked_objective(self.objective, self.num_vars)
            object.__setattr__(self, "objective", objective)


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    witness: Vector | None = None
    value: Fraction | None = None


def _primal(T, basis, ncols):
    """Run primal simplex on the int tableau T until optimal or unbounded.

    The first ``len(basis)`` rows of T are the constraints; T[-1] is the
    objective row being maximized, and every row of T, objective rows
    included, takes each :func:`linear.pivot`.  Entering candidates are the
    first ``ncols`` columns; Bland's rule picks the least index with a
    positive reduced cost, ties in the ratio test break on the least basis
    variable index.  A row's ratio rhs/a does not depend on the row's scale,
    so candidates are compared by cross-multiplication.
    """
    rhs = ncols
    while True:
        z = T[-1]
        pc = -1
        for j in range(ncols):
            if z[j] > 0:
                pc = j
                break
        if pc < 0:
            return "optimal"
        pr = -1
        for i in range(len(basis)):
            a = T[i][pc]
            if a > 0:
                b = T[i][rhs]
                if pr >= 0:
                    cmp = b * best_a - best_b * a
                    if cmp > 0 or (cmp == 0 and basis[i] > best_var):
                        continue
                pr, best_b, best_a, best_var = i, b, a, basis[i]
        if pr < 0:
            return "unbounded"
        pivot(T, pr, pc)
        basis[pr] = pc


def _simplex(num_vars, rows, objectives, nonneg):
    """Core solver on checked rows, a generator: the outcome of maximizing
    each of ``objectives`` in turn, or the one outcome of the feasibility
    question when ``objectives`` is None.

    When ``nonneg`` is False the variables are free and get split into
    positive/negative parts; when True every variable is constrained >= 0 and
    used directly.

    The tableau T holds ints only: the constraint rows, then one cost row per
    objective, then the phase-1 row.  Each row is a positive multiple of its
    true row, so a basic variable's value is the row's rhs over the row's
    entry in that variable's column, and an objective row is a positive
    multiple of the true reduced costs, read by sign.

    Every row is turned to a rhs >= 0, and a GE row with rhs 0 to a positive
    slack.  A row whose slack then has a positive entry, LE with rhs >= 0 or
    GE with rhs <= 0, starts with its slack basic at the rhs; every other
    row, EQ or with a slack that would start negative, starts on an
    artificial, and the phase-1 row sums those rows only.  Basic slacks and
    artificials cost 0 in phase 2, so under the starting basis the phase-2
    reduced costs are the costs: each cost row enters T as the cleared
    objective and rides through phase 1.  Phase 1 prices on its own row and
    pivots on constraint rows only, so it takes the same pivots whatever
    cost rows ride along, and one phase 1 serves every objective.  The
    artificial columns are never priced or read, so they are not stored; an
    artificial stays in ``basis`` as its index ``ncols + r``.

    Each phase 2 runs only when its outcome is asked for, on the constraint
    rows as phase 1 left them plus its own cost row, so its pivots, witness
    and value are those of a lone solve of that objective.  A witness is
    checked by substitution into the cleared input rows, which no pivot
    touches, in ints over one common denominator d of the basic entries;
    Fractions are built only for the witness and the value.
    """
    base = num_vars if nonneg else 2 * num_vars
    ineq_rows = [r for r, (_, rel, _) in enumerate(rows) if rel != EQ]
    slack_of = {r: base + k for k, r in enumerate(ineq_rows)}
    ncols = rhs_ix = base + len(ineq_rows)

    def tableau_row(ints):
        """Cleared coefficients and rhs spread over the tableau's columns."""
        row = [0] * (ncols + 1)
        row[:num_vars] = ints[:num_vars]
        if not nonneg:
            row[num_vars:base] = [-c for c in ints[:num_vars]]
        row[rhs_ix] = ints[num_vars]
        return row

    cleared = [clear_denominators(coeffs + (rhs,)) for coeffs, _, rhs in rows]
    T = []
    basis = []
    for r, (ints, scale) in enumerate(cleared):
        row = tableau_row(ints)
        rel = rows[r][1]
        if rel != EQ:
            row[slack_of[r]] = scale if rel == LE else -scale
        # rhs >= 0, and a GE row with rhs 0 turns so that its slack is +
        if ints[-1] < 0 or (ints[-1] == 0 and rel == GE):
            row = [-v for v in row]
        T.append(row)
        basis.append(slack_of[r] if rel != EQ and row[slack_of[r]] > 0 else ncols + r)

    # Phase 1 maximizes -(sum of artificials); with the starting basis the
    # reduced cost of structural column j is the column sum of the true rows
    # that start on an artificial.  An objective row keeps its NEGATED value
    # in the rhs cell, so pivoting updates it like any other row.
    artificial = [(row, scale) for row, (_, scale), b in zip(T, cleared, basis) if b >= ncols]
    common = lcm(*(scale for _, scale in artificial))
    phase1 = [0] * (rhs_ix + 1)
    for row, scale in artificial:
        k = common // scale
        for j, v in enumerate(row):
            if v:
                phase1[j] += k * v
    T = [reduced_row(row) for row in T]
    costs = [clear_denominators(c) for c in objectives or ()]
    T += [tableau_row(cost + [0]) for cost, _ in costs]
    T.append(reduced_row(phase1))
    if _primal(T, basis, ncols) == "unbounded":
        raise InternalConsistencyError("phase-1 objective cannot be unbounded")
    if T.pop()[rhs_ix] != 0:
        for _ in costs if objectives is not None else (None,):
            yield LpOutcome(LpStatus.INFEASIBLE)
        return

    # Drive leftover artificials out of the basis; a row with no structural
    # pivot left is redundant and gets dropped.
    drop = []
    for i in range(len(basis)):
        if basis[i] >= ncols:
            pc = next((j for j in range(ncols) if T[i][j]), None)
            if pc is None:
                drop.append(i)
            else:
                pivot(T, i, pc)
                basis[i] = pc
    for i in reversed(drop):
        del T[i]
        del basis[i]

    def witness(T, basis):
        """(X, d) with x_j = X_j / d, checked against every input row."""
        d = lcm(*(T[i][b] for i, b in enumerate(basis) if b < base))
        X = [0] * base
        for i, b in enumerate(basis):
            if b < base:
                X[b] = T[i][rhs_ix] * (d // T[i][b])
        if not nonneg:
            X = [p - n for p, n in zip(X[:num_vars], X[num_vars:])]
        for (ints, _), (coeffs, rel, rhs) in zip(cleared, rows):
            v = sum(map(mul, ints, X))  # X is one shorter: the rhs stays out
            b = ints[num_vars] * d
            if not (v <= b if rel == LE else v >= b if rel == GE else v == b):
                raise InternalConsistencyError(
                    f"simplex witness violates row {coeffs} {rel} {rhs}"
                )
        return X, d

    if objectives is None:
        X, d = witness(T, basis)
        yield LpOutcome(LpStatus.FEASIBLE, tuple(Fraction(x, d) for x in X))
        return
    # pivot replaces the rows it changes and never edits one in place, so a
    # phase 2 on a new list of the constraint rows leaves them intact for
    # the next.
    m = len(basis)
    for k, (cost, cost_scale) in enumerate(costs):
        Tk = T[:m] + [T[m + k]]
        basis_k = basis[:]
        if _primal(Tk, basis_k, ncols) == "unbounded":
            yield LpOutcome(LpStatus.UNBOUNDED)
            continue
        X, d = witness(Tk, basis_k)
        value = Fraction(sum(map(mul, cost, X)), d * cost_scale)
        yield LpOutcome(LpStatus.OPTIMAL, tuple(Fraction(x, d) for x in X), value)


def _solve(rows, objectives, num_vars, nonneg):
    """Check and coerce the input, then hand back the simplex's outcomes,
    which verify any witness against every row by exact substitution.  The
    input is checked at the call, the simplex runs as outcomes are read."""
    rows = _checked_rows(rows, num_vars)
    if objectives is not None:
        objectives = _items(objectives, "objectives")
        objectives = [_checked_objective(c, num_vars) for c in objectives]
    return _simplex(num_vars, rows, objectives, nonneg)


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact feasibility / optimality decision for a LinearProgram.

    Without an objective the status is FEASIBLE or INFEASIBLE; with one it is
    OPTIMAL, UNBOUNDED or INFEASIBLE.  Witnesses are verified against every
    row by exact substitution before being returned.
    """
    objectives = None if lp.objective is None else (lp.objective,)
    return next(_solve(lp.rows, objectives, lp.num_vars, nonneg=False))


def feasible_point(rows, num_vars, nonneg=False) -> Vector | None:
    """Deterministic witness of feasibility for a row system, or None.

    Lower-level sibling of :func:`solve` used by the geometry modules; with
    ``nonneg`` every variable is constrained to be >= 0 without explicit rows.
    """
    return next(_solve(rows, None, num_vars, nonneg)).witness


def maximize(rows, objective, num_vars, nonneg=False) -> LpOutcome:
    """Maximize ``objective`` subject to rows; statuses as in :func:`solve`."""
    return next(_solve(rows, (objective,), num_vars, nonneg))


def maximize_each(rows, objectives, num_vars, nonneg=False):
    """Iterator over the outcomes of maximizing each of ``objectives``
    subject to one row system, in order: each equals the matching
    :func:`maximize` call's outcome.  One phase 1 serves them all, and each
    phase 2 runs only when its outcome is read, so a caller that stops early
    skips the rest.  The input is checked at the call."""
    return _solve(rows, objectives, num_vars, nonneg)
