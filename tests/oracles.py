"""Brute-force oracles: no size caps, no hereditary pruning, no early exits.

Everything enumerates all 2^|H| subsets directly so the pruned searches in the
package have an independent path to agree with.  ``fraction_simplex`` is the
LP kernel on a Fraction tableau, frozen as the reference for the integer one;
``lp_minimal_strong_witness`` is the minimal strong witness searched with the
facet LPs on ``fraction_simplex``, so it shares no code with the facet region
of ``hcara.strong``, and ``lp_interior_slack`` and ``lp_redundant_rows`` are the
``Polytope`` construction checks as LPs, the references for the
conic-dependence table.  ``bareiss_rank`` and ``gram_solve_linear`` are the
linear algebra that ``hcara.linear.pivot`` replaced.  ``brute_helly`` tests
each subset with the LP definition, ``brute_simplex_with_origin``, so it
shares no code with the conic-dependence table that ``helly_number`` reads.
``brute_point_set_verdicts`` judges a point set by the three definitions that
``hconvex.point_set_verdicts`` reads off one sign matrix.  ``tight_supports``
reads the strong hull's supports off ``Polytope.conic_dependences`` in
``Fraction`` sums, the values that the facet LPs must reach and that the
integer search over the same table decides without computing.
``brute_caratheodory`` is the Caratheodory number from its definition, with
``fraction_simplex`` and a search over covers, against the paper's theorem.
``lp_is_conical_position`` is conical position by its LP definition on
``fraction_simplex``, so ``brute_cone`` and ``brute_relaxed_cone`` share
no code with ``is_conical_position``, which decides independent sets by
rank alone.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hcara.errors import InputError, InternalConsistencyError, PreconditionError
from hcara.hconvex import PointSet
from hcara.invariants import positive_hull_contains
from hcara.linear import Vector, clear_denominators, dot
from hcara.lp import EQ, GE, LE, LpStatus, feasible_point, maximize
from hcara.strong import Polytope

_Q0 = Fraction(0)
_Q1 = Fraction(1)


def all_subsets(n):
    for k in range(1, n + 1):
        yield from combinations(range(n), k)


def brute_helly(H):
    best = (0, ())
    for idx in all_subsets(len(H.normals)):
        if brute_simplex_with_origin([H.normals[i] for i in idx]):
            if len(idx) > best[0]:
                best = (len(idx), idx)
    return best


@lru_cache(maxsize=1)
def lp_conical_subsets(normals):
    """Every index subset of ``normals`` that ``lp_is_conical_position``
    accepts, in ``all_subsets`` order.  The last set's family is kept, as
    ``brute_cone`` and ``brute_relaxed_cone`` of one set enumerate it."""
    return tuple(
        idx for idx in all_subsets(len(normals))
        if lp_is_conical_position([normals[i] for i in idx])
    )


def brute_cone(H):
    best = (0, ())
    for idx in lp_conical_subsets(H.normals):
        vectors = [H.normals[i] for i in idx]
        chosen = set(idx)
        if any(
            positive_hull_contains(vectors, H.normals[i])
            for i in range(len(H.normals))
            if i not in chosen
        ):
            continue
        if len(idx) > best[0]:
            best = (len(idx), idx)
    return best


def brute_relaxed_cone(H):
    return max(len(idx) for idx in lp_conical_subsets(H.normals))


def lp_is_conical_position(S):
    """Conical position by LP, straight from the definition, on
    ``fraction_simplex``: some n has <n, s> >= 1 for every s in S (strict
    separation from the origin, rescaled), and no s_j is a nonnegative
    combination of the others.  S holds nonzero vectors of one dimension."""
    S = [tuple(Fraction(c) for c in s) for s in S]
    dim = len(S[0])
    rows = [(s, GE, _Q1) for s in S]
    if fraction_simplex(dim, rows, None, nonneg=False)[0] != "feasible":
        return False
    for j in range(len(S)):
        rest = S[:j] + S[j + 1:]
        rows = [(tuple(s[d] for s in rest), EQ, S[j][d]) for d in range(dim)]
        if fraction_simplex(len(rest), rows, None, nonneg=True)[0] == "feasible":
            return False
    return True


def brute_simplex_with_origin(S):
    """Minimal positive dependence by LP, straight from the definition: a
    vanishing combination of all of S with every coefficient >= 1 (lambda =
    1 + mu, mu >= 0), and no drop-one subset with the origin in its convex
    hull."""
    S = [tuple(Fraction(c) for c in s) for s in S]
    dim = len(S[0])

    def columns(sub):
        return [tuple(s[d] for s in sub) for d in range(dim)]

    rows = [(col, EQ, -sum(col)) for col in columns(S)]
    if feasible_point(rows, len(S), nonneg=True) is None:
        return False
    for j in range(len(S)):
        sub = S[:j] + S[j + 1:]
        if not sub:
            continue
        rows = [(col, EQ, 0) for col in columns(sub)]
        rows.append(((1,) * len(sub), EQ, 1))
        if feasible_point(rows, len(sub), nonneg=True) is not None:
            return False
    return True


def brute_point_set_verdicts(H, X):
    """``(covering, drop_one, assignment)`` of X under H from ``dot`` alone,
    each verdict by its own definition: X covers when every normal sees some
    point nonnegatively; drop-one holds when X without x_j covers for no j;
    the assignment lists, per point, the least normal that sees it and no
    other point nonnegatively, and is None when some point has none."""
    points = X.points

    def covers(subset):
        return all(any(dot(a, x) >= 0 for x in subset) for a in H.normals)

    covering = covers(points)
    drop_one = all(
        not covers(points[:j] + points[j + 1:]) for j in range(len(points))
    )
    chosen = []
    for j, x in enumerate(points):
        found = None
        for i, a in enumerate(H.normals):
            if dot(a, x) >= 0 and all(
                dot(a, y) < 0 for jj, y in enumerate(points) if jj != j
            ):
                found = i
                break
        if found is None:
            return covering, drop_one, None
        chosen.append(found)
    return covering, drop_one, tuple(chosen)


def brute_caratheodory(H):
    """The Caratheodory number of H from the definition: the largest
    minimum-size witness of p in the restricted hull of X.

    Translated so that p = 0, X witnesses exactly when every normal sees a
    point of X nonnegatively, so a minimum witness is an irredundant cover of
    H by sign sets S(x) = {i : <a_i, x> >= 0}: each member has a normal no
    other member holds.  T is some S(x) exactly when <a_i, x> >= 0 (i in T)
    and <a_i, x> <= -1 (i not in T) is feasible, as the system is
    homogeneous; ``fraction_simplex`` decides it.  Subfamilies of an
    irredundant family are irredundant, so a depth-first search that adds
    sign sets in order and drops a family once some member loses its last
    private normal meets every irredundant cover.
    """
    m = len(H.normals)
    signs = []
    for T in range(1 << m):
        rows = [
            (a, GE, _Q0) if T >> i & 1 else (a, LE, -_Q1)
            for i, a in enumerate(H.normals)
        ]
        if fraction_simplex(H.dim, rows, None, nonneg=False)[0] == "feasible":
            signs.append(T)
    everything = (1 << m) - 1
    best = 0

    def extend(start, covered, private):
        nonlocal best
        if covered == everything:
            best = max(best, len(private))
        for k in range(start, len(signs)):
            T = signs[k]
            kept = [own & ~T for own in private]
            if T & ~covered and all(kept):
                extend(k + 1, covered | T, kept + [T & ~covered])

    extend(0, 0, [])
    return best


def brute_spans_positively(normals, dim):
    """Positive spanning straight from the definition: both directions of
    every coordinate axis lie in the positive hull of the normals."""
    for j in range(dim):
        for sign in (1, -1):
            axis = tuple(Fraction(sign if i == j else 0) for i in range(dim))
            if not positive_hull_contains(normals, axis):
                return False
    return True


def brute_conic_dependences(vectors):
    """``linear.conic_dependences`` from the definitions: circuits are the
    subsets ``brute_simplex_with_origin`` accepts, and a representation of
    a_i is a linearly independent B with i not in B whose unique solution of
    sum lam_j a_j = a_i is strictly positive, emitted as ``(B, nums, d)`` with
    lam = nums / d cleared of denominators."""
    vectors = [tuple(Fraction(c) for c in v) for v in vectors]
    dim = len(vectors[0])
    circuits = [
        S for S in all_subsets(len(vectors))
        if len(S) >= 2 and brute_simplex_with_origin([vectors[j] for j in S])
    ]
    reps = []
    for i, a in enumerate(vectors):
        others = [j for j in range(len(vectors)) if j != i]
        found = [((i,), (1,), 1)]
        for k in range(1, dim + 1):
            for B in combinations(others, k):
                basis = [vectors[j] for j in B]
                if bareiss_rank(basis) < k:
                    continue
                lam = gram_solve_linear([tuple(v[d] for v in basis) for d in range(dim)], a)
                if lam is not None and all(x > 0 for x in lam):
                    nums, d = clear_denominators(lam)
                    found.append((B, tuple(nums), d))
        reps.append(found)
    return circuits, reps


def lp_interior_slack(normals, offsets, dim) -> Fraction:
    """Exact optimum of the uniform-slack program max s, <a_i, x> + s <= b_i.

    Positive exactly when the polytope has nonempty interior.  Requires a
    bounded polytope, otherwise the program may be unbounded.
    """
    rows = []
    for a, b in zip(normals, offsets):
        rows.append((tuple(a) + (Fraction(1),), LE, b))
    outcome = maximize(
        rows, (Fraction(0),) * dim + (Fraction(1),), dim + 1, nonneg=False
    )
    if outcome.status is not LpStatus.OPTIMAL:
        raise InternalConsistencyError(
            "slack program of a bounded polytope must have an optimum"
        )
    return outcome.value


def lp_redundant_rows(normals, offsets, dim) -> list[int]:
    """Indices of rows implied by the others (non-facets).

    Simultaneous deletion of all reported rows is sound only when no two rows
    describe the same halfspace (equal up to positive scaling): a doubly
    represented facet flags both copies.
    """
    out = []
    for i in range(len(normals)):
        rows = [
            (normals[j], LE, offsets[j])
            for j in range(len(normals))
            if j != i
        ]
        outcome = maximize(rows, normals[i], dim, nonneg=False)
        if outcome.status is LpStatus.OPTIMAL and outcome.value <= offsets[i]:
            out.append(i)
    return out


def _fraction_strong_member(K: Polytope, supports, p):
    """Membership of p in the strong hull of a point set with these
    supports, by the facet LPs on ``fraction_simplex``; None when the
    translate region {t : <a_i, t> >= s_i - b_i} is empty.  Facet i holds p
    when <a_i, p> - b_i plus the maximum of -<a_i, t> over the region is at
    most 0.  Every t in the region has -<a_i, t> <= b_i - s_i, so a facet
    with <a_i, p> <= s_i holds p without its LP once the region is known to
    be nonempty."""
    rows = [(tuple(a), GE, s - b) for a, s, b in zip(K.normals, supports, K.offsets)]
    if fraction_simplex(K.dim, rows, None, nonneg=False)[0] != "feasible":
        return None
    for a, s, b in zip(K.normals, supports, K.offsets):
        if dot(a, p) <= s:
            continue
        status, t = fraction_simplex(K.dim, rows, tuple(-c for c in a), nonneg=False)
        if status != "optimal":
            raise InternalConsistencyError("translate region must be bounded")
        if dot(a, p) - b - dot(a, t) > 0:
            return False
    return True


def lp_minimal_strong_witness(K: Polytope, X: PointSet, p):
    """Minimum-cardinality subset of X whose hull under K still contains p,
    by exhaustive search in (size, lexicographic index) order, each subset
    decided by ``_fraction_strong_member``."""
    p = tuple(Fraction(c) for c in p)
    dots = [[dot(a, x) for x in X.points] for a in K.normals]

    def contains(idx):
        return _fraction_strong_member(K, [max(row[j] for j in idx) for row in dots], p)

    whole = contains(range(len(X)))
    if whole is None:
        raise PreconditionError("X does not fit in any translate of K")
    if not whole:
        raise PreconditionError("query point is not in the hull of X")
    return X.minimal_subset(contains)


def tight_supports(K: Polytope, supports):
    """The supports raised to the strong hull's: b_i - min over the
    representations (B, lam, d) of a_i of <lam, c_B> / d, with c = b - supports;
    None when X fits in no translate, i.e. <mu, c_S> < 0 for some circuit S.
    p is in the strong hull exactly when <a_i, p> <= tight_i for every i."""
    circuits, reps = K.conic_dependences
    c = [b - s for b, s in zip(K.offsets, supports)]

    def weighted(indices, coeffs):
        return sum(x * c[j] for j, x in zip(indices, coeffs))

    if any(weighted(S, mu) < 0 for S, mu in circuits):
        return None
    return [
        b - min(weighted(B, lam) / d for B, lam, d in entries)
        for b, entries in zip(K.offsets, reps)
    ]


def _fraction_pivot(T, z, basis, pr, pc):
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


def _fraction_primal(T, z, basis, ncols):
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
        _fraction_pivot(T, z, basis, pr, pc)


def fraction_simplex(num_vars, rows, objective, nonneg):
    """The Fraction-tableau simplex the integer kernel in hcara.lp replaced,
    kept as a pivot-for-pivot reference.  Rows and objective must already be
    Fractions.  Returns (status string, witness tuple or None).

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
    status = _fraction_primal(T, z, basis, ncols)
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
                _fraction_pivot(T, z, basis, i, pc)
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
    status = _fraction_primal(T, z, basis, ncols)
    if status == "unbounded":
        return "unbounded", None
    return "optimal", extract()


# The exact linear algebra that ``hcara.linear`` replaced with one integer
# pivot: Bareiss rank and a Fraction Gauss-Jordan on the Gram system, kept
# as references for ``rank`` and ``solve_linear``.


def bareiss_rank(vectors) -> int:
    """Exact rank of a family of vectors via fraction-free (Bareiss) elimination."""
    vectors = list(vectors)
    if not vectors:
        return 0
    dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise InputError("rank: all vectors must share one dimension")
    m = [clear_denominators(v)[0] for v in vectors]
    nrows = len(m)
    row = 0
    prev = 1
    for col in range(dim):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, dim):
                m[r][c] = (m[r][c] * m[row][col] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        row += 1
        if row == nrows:
            break
    return row


def _gauss_any_solution(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """One exact solution of matrix * y = rhs with free variables set to 0,
    or None if the system is inconsistent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(matrix[i]) + [rhs[i]] for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if aug[r][ncols] != 0:
            return None
    y = [Fraction(0)] * ncols
    for r, c in pivots:
        y[c] = aug[r][ncols]
    return y


def gram_solve_linear(rows, rhs) -> Vector | None:
    """Solve the linear system ``rows . x = rhs`` exactly.

    Returns None when inconsistent.  Underdetermined systems yield the unique
    minimum-norm solution, i.e. the solution lying in the row space: with
    G = A A^T we solve G y = rhs and return A^T y.
    """
    rows = [tuple(Fraction(c) for c in r) for r in rows]
    rhs = [Fraction(b) for b in rhs]
    if len(rows) != len(rhs):
        raise InputError("solve_linear: one right-hand side per row required")
    if not rows:
        raise InputError("solve_linear: empty system has no defined dimension")
    dim = len(rows[0])
    for r in rows:
        if len(r) != dim:
            raise InputError("solve_linear: rows must share one dimension")
    k = len(rows)
    gram = [[dot(rows[i], rows[j]) for j in range(k)] for i in range(k)]
    y = _gauss_any_solution(gram, rhs)
    if y is None:
        return None
    x = [Fraction(0)] * dim
    for i in range(k):
        if y[i]:
            for j in range(dim):
                x[j] += y[i] * rows[i][j]
    return tuple(x)
