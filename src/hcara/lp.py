"""Exact linear programming: two-phase primal simplex with Bland's rule.

The simplex pivots on an integer tableau with ``linear.pivot``, the step
every exact elimination in hcara takes: every row, the z-row included, is
a positive integer multiple of its true rational row, and the row's own
basic entry is its denominator.  Inputs arrive as ints or fractions.Fraction
and witnesses leave as Fraction, so feasibility and optimality are decided
with zero tolerance and no Fraction arithmetic inside the pivot loop.  Bland's
least-index rule for both the entering and leaving variable guarantees
termination without any numerical safeguards.

Strict inequalities are deliberately unsupported: callers encode strictness
either through homogeneous rescaling (lambda > 0 becomes lambda >= 1) or by
maximizing a slack and testing the sign of the exact optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import InputError, InternalConsistencyError
from .linear import Vector, clear_denominators, dot, exact, pivot, reduced_row

_Q0 = Fraction(0)

LE = "<="
EQ = "="
GE = ">="
RELATIONS = (LE, EQ, GE)


class LpStatus(Enum):
    INFEASIBLE = "INFEASIBLE"
    FEASIBLE = "FEASIBLE"
    OPTIMAL = "OPTIMAL"
    UNBOUNDED = "UNBOUNDED"


def _checked(rows, objective, num_vars):
    """(rows, objective) checked for shape, width and relation, every value a
    Fraction; InputError on anything malformed."""
    if num_vars < 1:
        raise InputError("a linear program needs at least one variable")
    checked = []
    for row in rows:
        try:
            coeffs, rel, rhs = row
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed row {row!r}") from exc
        if len(coeffs) != num_vars:
            raise InputError(f"row has {len(coeffs)} coefficients, expected {num_vars}")
        if rel not in RELATIONS:
            raise InputError(f"unknown relation {rel!r}")
        checked.append((tuple(exact(c) for c in coeffs), rel, exact(rhs)))
    if objective is not None:
        if len(objective) != num_vars:
            raise InputError("objective length must equal num_vars")
        objective = tuple(exact(c) for c in objective)
    return tuple(checked), objective


@dataclass(frozen=True)
class LinearProgram:
    """Rows ``coeffs <rel> rhs`` over ``num_vars`` free rational variables.

    The optional objective is maximized.
    """

    num_vars: int
    rows: tuple
    objective: Vector | None = None

    def __post_init__(self):
        rows, objective = _checked(self.rows, self.objective, self.num_vars)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "objective", objective)


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    witness: Vector | None = None
    value: Fraction | None = None


def _pivot(T, z, basis, pr, pc):
    """Pivot on (pr, pc): :func:`linear.pivot` on the rows, the same step on
    the z-row, and pc enters the basis in row pr."""
    prow = pivot(T, pr, pc)
    f = z[pc]
    if f:
        z[:] = reduced_row([a * prow[pc] - f * b for a, b in zip(z, prow)])
    basis[pr] = pc


def _primal(T, z, basis, ncols):
    """Run primal simplex until optimal or unbounded.

    Entering candidates are the first ``ncols`` columns; Bland's rule picks the
    least index with a positive reduced cost, ties in the ratio test break on
    the least basis variable index.  A row's ratio rhs/a does not depend on the
    row's scale, so candidates are compared by cross-multiplication.
    """
    rhs = len(z) - 1
    while True:
        pc = -1
        for j in range(ncols):
            if z[j] > 0:
                pc = j
                break
        if pc < 0:
            return "optimal"
        pr = -1
        for i, row in enumerate(T):
            a = row[pc]
            if a > 0:
                b = row[rhs]
                if pr >= 0:
                    cmp = b * best_a - best_b * a
                    if cmp > 0 or (cmp == 0 and basis[i] > best_var):
                        continue
                pr, best_b, best_a, best_var = i, b, a, basis[i]
        if pr < 0:
            return "unbounded"
        _pivot(T, z, basis, pr, pc)


def _simplex(num_vars, rows, objective, nonneg):
    """Core solver.  Returns (status string, witness tuple or None).

    When ``nonneg`` is False the variables are free and get split into
    positive/negative parts; when True every variable is constrained >= 0 and
    used directly.

    The tableau holds ints only.  Each row is a positive multiple of its true
    row, so a basic variable's value is the row's rhs over the row's entry in
    that variable's column, and the z-row is a positive multiple of the true
    reduced costs, read by sign.  The artificial columns are never priced or
    read, so they are not stored; an artificial stays in ``basis`` as its
    index ``ncols + r``.
    """
    base = num_vars if nonneg else 2 * num_vars
    ineq_rows = [r for r, (_, rel, _) in enumerate(rows) if rel != EQ]
    slack_of = {r: base + k for k, r in enumerate(ineq_rows)}
    ncols = base + len(ineq_rows)
    art0 = rhs_ix = ncols

    T = []
    scales = []
    for r, (coeffs, rel, rhs) in enumerate(rows):
        ints, scale = clear_denominators(coeffs + (rhs,))
        row = [0] * (rhs_ix + 1)
        for j, c in enumerate(ints[:-1]):
            if c:
                row[j] = c
                if not nonneg:
                    row[num_vars + j] = -c
        if rel != EQ:
            row[slack_of[r]] = scale if rel == LE else -scale
        row[rhs_ix] = ints[-1]
        if ints[-1] < 0:
            row = [-v for v in row]
        T.append(row)
        scales.append(scale)
    basis = [art0 + r for r in range(len(rows))]

    # Phase 1: maximize -(sum of artificials); with the artificial basis the
    # reduced cost of structural column j is the column sum of the true rows.
    # The z-row keeps the NEGATED objective value in the rhs cell so pivoting
    # updates it like any other row.
    common = lcm(*scales)
    z = [0] * (rhs_ix + 1)
    for row, scale in zip(T, scales):
        k = common // scale
        for j, v in enumerate(row):
            if v:
                z[j] += k * v
    T = [reduced_row(row) for row in T]
    z = reduced_row(z)
    status = _primal(T, z, basis, ncols)
    if status == "unbounded":
        raise InternalConsistencyError("phase-1 objective cannot be unbounded")
    if z[rhs_ix] != 0:
        return "infeasible", None

    # Drive leftover artificials out of the basis; a row with no structural
    # pivot left is redundant and gets dropped.
    drop = []
    for i in range(len(T)):
        if basis[i] >= art0:
            pc = next((j for j in range(ncols) if T[i][j]), None)
            if pc is None:
                drop.append(i)
            else:
                _pivot(T, z, basis, i, pc)
    for i in reversed(drop):
        del T[i]
        del basis[i]

    def extract():
        vals = [_Q0] * base
        for i, b in enumerate(basis):
            if b < base:
                vals[b] = Fraction(T[i][rhs_ix], T[i][b])
        if nonneg:
            return tuple(vals)
        return tuple(vals[j] - vals[num_vars + j] for j in range(num_vars))

    if objective is None:
        return "feasible", extract()

    # Phase 2: reduced costs cost - sum over rows of cost[basis] * true row.
    ints, _ = clear_denominators(objective)
    cost = [0] * (rhs_ix + 1)
    for j, c in enumerate(ints):
        if c:
            cost[j] = c
            if not nonneg:
                cost[num_vars + j] = -c
    common = lcm(*(T[i][b] for i, b in enumerate(basis) if cost[b]))
    z = [c * common for c in cost]
    for i, b in enumerate(basis):
        if cost[b]:
            k = cost[b] * (common // T[i][b])
            z = [a - k * v for a, v in zip(z, T[i])]
    z = reduced_row(z)
    status = _primal(T, z, basis, ncols)
    if status == "unbounded":
        return "unbounded", None
    return "optimal", extract()


def _solve(rows, objective, num_vars, nonneg) -> LpOutcome:
    """Check and coerce the input, run the simplex and verify any witness
    against every row by exact substitution before building the outcome."""
    rows, objective = _checked(rows, objective, num_vars)
    status, witness = _simplex(num_vars, rows, objective, nonneg)
    if status == "infeasible":
        return LpOutcome(LpStatus.INFEASIBLE)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)
    for coeffs, rel, rhs in rows:
        v = dot(coeffs, witness)
        if not (v <= rhs if rel == LE else v >= rhs if rel == GE else v == rhs):
            raise InternalConsistencyError(
                f"simplex witness violates row {coeffs} {rel} {rhs}"
            )
    if objective is None:
        return LpOutcome(LpStatus.FEASIBLE, witness)
    return LpOutcome(LpStatus.OPTIMAL, witness, dot(objective, witness))


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact feasibility / optimality decision for a LinearProgram.

    Without an objective the status is FEASIBLE or INFEASIBLE; with one it is
    OPTIMAL, UNBOUNDED or INFEASIBLE.  Witnesses are verified against every
    row by exact substitution before being returned.
    """
    return _solve(lp.rows, lp.objective, lp.num_vars, nonneg=False)


def feasible_point(rows, num_vars, nonneg=False) -> Vector | None:
    """Deterministic witness of feasibility for a row system, or None.

    Lower-level sibling of :func:`solve` used by the geometry modules; with
    ``nonneg`` every variable is constrained to be >= 0 without explicit rows.
    """
    return _solve(rows, None, num_vars, nonneg).witness


def maximize(rows, objective, num_vars, nonneg=False) -> LpOutcome:
    """Maximize ``objective`` subject to rows; statuses as in :func:`solve`."""
    return _solve(rows, objective, num_vars, nonneg)
