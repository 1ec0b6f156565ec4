"""Exact linear programming: two-phase primal simplex with Bland's rule.

All pivoting happens in exact rational arithmetic (fractions.Fraction), so
feasibility and optimality are decided with zero tolerance.  Bland's
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

from .errors import InputError, InternalConsistencyError
from .linear import Vector, dot

_Q0 = Fraction(0)
_Q1 = Fraction(1)

LE = "<="
EQ = "="
GE = ">="
RELATIONS = (LE, EQ, GE)


class LpStatus(Enum):
    INFEASIBLE = "INFEASIBLE"
    FEASIBLE = "FEASIBLE"
    OPTIMAL = "OPTIMAL"
    UNBOUNDED = "UNBOUNDED"


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not exact; pass an int or a Fraction")
    return value if type(value) is Fraction else Fraction(value)


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
        checked.append((tuple(_exact(c) for c in coeffs), rel, _exact(rhs)))
    if objective is not None:
        if len(objective) != num_vars:
            raise InputError("objective length must equal num_vars")
        objective = tuple(_exact(c) for c in objective)
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
    prow = T[pr]
    piv = prow[pc]
    if piv != 1:
        inv = _Q1 / piv
        for k, v in enumerate(prow):
            if v:
                prow[k] = v * inv
    nz = [k for k, v in enumerate(prow) if v]
    for row in T:
        if row is prow:
            continue
        f = row[pc]
        if f:
            for k in nz:
                row[k] -= f * prow[k]
    f = z[pc]
    if f:
        for k in nz:
            z[k] -= f * prow[k]
    basis[pr] = pc


def _primal(T, z, basis, ncols):
    """Run primal simplex until optimal or unbounded.

    Entering candidates are the first ``ncols`` columns; Bland's rule picks the
    least improving index, ties in the ratio test break on the least basis
    variable index.
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
        best_ratio = None
        best_var = -1
        for i, row in enumerate(T):
            a = row[pc]
            if a > 0:
                ratio = row[rhs] / a
                if pr < 0 or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < best_var
                ):
                    pr, best_ratio, best_var = i, ratio, basis[i]
        if pr < 0:
            return "unbounded"
        _pivot(T, z, basis, pr, pc)


def _simplex(num_vars, rows, objective, nonneg):
    """Core solver.  Returns (status string, witness tuple or None).

    When ``nonneg`` is False the variables are free and get split into
    positive/negative parts; when True every variable is constrained >= 0 and
    used directly.
    """
    m = len(rows)
    base = num_vars if nonneg else 2 * num_vars
    ineq_rows = [r for r, (_, rel, _) in enumerate(rows) if rel != EQ]
    slack_of = {r: base + k for k, r in enumerate(ineq_rows)}
    ncols = base + len(ineq_rows)
    art0 = ncols
    rhs_ix = ncols + m

    T = []
    for r, (coeffs, rel, rhs) in enumerate(rows):
        row = [_Q0] * (rhs_ix + 1)
        for j, c in enumerate(coeffs):
            if c:
                row[j] = c
                if not nonneg:
                    row[num_vars + j] = -c
        if rel != EQ:
            row[slack_of[r]] = _Q1 if rel == LE else -_Q1
        b = rhs
        if b < 0:
            row = [-v for v in row]
            b = -b
        row[art0 + r] = _Q1
        row[rhs_ix] = b
        T.append(row)
    basis = [art0 + r for r in range(m)]

    # Phase 1: maximize -(sum of artificials); with the artificial basis the
    # reduced cost of structural column j is the column sum.  The z-row keeps
    # the NEGATED objective value in the rhs cell so pivoting updates it like
    # any other row.
    z = [_Q0] * (rhs_ix + 1)
    for row in T:
        for j in range(ncols):
            if row[j]:
                z[j] += row[j]
        z[rhs_ix] += row[rhs_ix]
    status = _primal(T, z, basis, ncols)
    if status == "unbounded":
        raise InternalConsistencyError("phase-1 objective cannot be unbounded")
    if z[rhs_ix] != 0:
        return "infeasible", None

    # Drive leftover artificials out of the basis; a row with no structural
    # pivot left is redundant and gets dropped.
    drop = []
    for i in range(m):
        if basis[i] >= art0:
            pc = next((j for j in range(ncols) if T[i][j]), None)
            if pc is None:
                drop.append(i)
            else:
                _pivot(T, z, basis, i, pc)
    for i in reversed(drop):
        del T[i]
        del basis[i]

    # Strip artificial columns; rhs moves to index ncols.
    for row in T:
        del row[art0:rhs_ix]
    rhs_ix = ncols

    def extract():
        vals = [_Q0] * base
        for i, b in enumerate(basis):
            if b < base:
                vals[b] = T[i][rhs_ix]
        if nonneg:
            return tuple(vals)
        return tuple(vals[j] - vals[num_vars + j] for j in range(num_vars))

    if objective is None:
        return "feasible", extract()

    z = [_Q0] * (rhs_ix + 1)
    cost = [_Q0] * ncols
    for j, c in enumerate(objective):
        if c:
            cost[j] = c
            if not nonneg:
                cost[num_vars + j] = -c
    for j in range(ncols):
        z[j] = cost[j]
    for i, b in enumerate(basis):
        cb = cost[b] if b < ncols else _Q0
        if cb:
            row = T[i]
            for j in range(ncols):
                if row[j]:
                    z[j] -= cb * row[j]
            z[rhs_ix] -= cb * row[rhs_ix]
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
