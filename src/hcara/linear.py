"""Exact rational vectors and dense linear algebra over the rationals.

Vectors are plain tuples of ``fractions.Fraction``; every operation here is
exact, deterministic and free of floating point.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .errors import InputError, InternalConsistencyError

Vector = tuple[Fraction, ...]


def exact(value) -> Fraction:
    """``value`` as a Fraction; InputError for a float, whose binary value is
    almost never the number that was meant."""
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not exact; pass an int or a Fraction")
    return value if type(value) is Fraction else Fraction(value)


def zero_vector(dim: int) -> Vector:
    return (Fraction(0),) * dim


def dot(a: Vector, b: Vector) -> Fraction:
    if len(a) != len(b):
        raise InputError(f"dimension mismatch in inner product: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vadd(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise InputError("dimension mismatch in vector addition")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise InputError("dimension mismatch in vector subtraction")
    return tuple(x - y for x, y in zip(a, b))


def vscale(v: Vector, c) -> Vector:
    c = Fraction(c)
    return tuple(c * x for x in v)


def vneg(v: Vector) -> Vector:
    return tuple(-x for x in v)


def is_zero_vector(v: Vector) -> bool:
    return all(x == 0 for x in v)


def clear_denominators(v) -> tuple[list[int], int]:
    """``v`` times the lcm of its denominators, as ints, and that lcm."""
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v], scale


def reduced_row(row: list[int]) -> list[int]:
    """An int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def primitive_direction(v: Vector) -> tuple[int, ...]:
    """Canonical integer representative of a nonzero vector's positive ray.

    Two vectors are positive multiples of one another exactly when their
    primitive directions are equal.
    """
    if is_zero_vector(v):
        raise InputError("the zero vector has no direction")
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    return tuple(n // g for n in ints)


def rank(vectors) -> int:
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


def solve_linear(rows, rhs) -> Vector | None:
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


def vanishing_combination(vectors) -> Vector | None:
    """The lambda with lambda_0 = 1 and sum lambda_i s_i = 0 when the vanishing
    combinations of the vectors form a line (rank |S| - 1) that does not lie
    in lambda_0 = 0; None otherwise."""
    vectors = list(vectors)
    if not vectors or rank(vectors) != len(vectors) - 1:
        return None
    first, rest = vectors[0], vectors[1:]
    tail = solve_linear(list(zip(*rest)), [-c for c in first]) if rest else ()
    return None if tail is None else (Fraction(1),) + tail


def _pivoted(M, r, k, c):
    """Copy of the int matrix M after a fraction-free Gauss-Jordan pivot on
    (r, c), with row r moved to position k and its pivot made positive."""
    M = [row[:] for row in M]
    M[k], M[r] = M[r], M[k]
    prow = M[k]
    p = prow[c]
    if p < 0:
        prow = M[k] = [-v for v in prow]
        p = -p
    for i, row in enumerate(M):
        f = row[c]
        if f and i != k:
            M[i] = reduced_row([x * p - f * y for x, y in zip(row, prow)])
    return M


def conic_dependences(vectors):
    """The conic-dependence table ``(circuits, reps)`` of nonzero vectors
    a_0, ..., a_{m-1} in R^d, as tuples, so a cached table can be shared.

    ``circuits`` lists ``(S, mu)`` for every index set S whose vanishing
    combinations form the line spanned by a strictly positive ``mu``
    (primitive ints): the minimal positively dependent subsets, which
    generate the cone {mu >= 0 : sum mu_j a_j = 0}.  ``reps[i]`` lists
    ``(B, lam)`` for every linearly independent B and ``lam > 0`` with
    a_i = sum lam_j a_j, the trivial ``((i,), (1,))`` first: the vertices of
    {lam >= 0 : sum lam_j a_j = a_i}.  Index sets are increasing tuples and
    both lists are in (size, lexicographic) order, apart from the trivial
    representation, which stays first even when a parallel a_j with j < i
    gives a one-element representation too.

    One pass over the linearly independent B with |B| <= d, depth first, so
    each B extends its prefix's fraction-free Gauss-Jordan elimination of the
    d x m matrix whose columns are all the a_j.  Every a_i in the span of B is
    then a right-hand side solved for free: lam > 0 is a representation of i,
    lam < 0 everywhere is the circuit B + {i}.  Every entry is checked by
    substitution.
    """
    vectors = [tuple(exact(c) for c in v) for v in vectors]
    if not vectors:
        return (), ()
    dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise InputError("conic_dependences: all vectors must share one dimension")
        if is_zero_vector(v):
            raise InputError("conic_dependences: the zero vector has no direction")
    m = len(vectors)
    cleared = [clear_denominators(v) for v in vectors]
    scale = [s for _, s in cleared]
    circuits = {}
    reps = [[((i,), (Fraction(1),))] for i in range(m)]

    def visit(M, B):
        k = len(B)
        for i in range(m):
            if i in B or any(M[r][i] for r in range(k, dim)):
                continue
            # Column i is a_i in the basis B: lam'_r = M[r][i] / M[r][B[r]]
            # for the cleared vectors, whose pivots M[r][B[r]] are positive.
            lam = [
                Fraction(M[r][i] * scale[j], M[r][j] * scale[i])
                for r, j in enumerate(B)
            ]
            if all(x > 0 for x in lam):
                reps[i].append((B, tuple(lam)))
            elif all(x < 0 for x in lam):
                mu = dict(zip(B, (-x for x in lam)))
                mu[i] = Fraction(1)
                S = tuple(sorted(mu))
                if S not in circuits:
                    ints, _ = clear_denominators([mu[j] for j in S])
                    circuits[S] = tuple(reduced_row(ints))
        if k == dim:
            return
        for c in range(B[-1] + 1 if B else 0, m):
            r = next((r for r in range(k, dim) if M[r][c]), None)
            if r is not None:
                visit(_pivoted(M, r, k, c), B + (c,))

    visit([list(row) for row in zip(*(ints for ints, _ in cleared))], ())

    def combination(indices, coeffs):
        terms = (vscale(vectors[j], x) for j, x in zip(indices, coeffs))
        return reduce(vadd, terms, zero_vector(dim))

    for S, mu in circuits.items():
        if combination(S, mu) != zero_vector(dim):
            raise InternalConsistencyError(f"circuit {S} does not vanish")
    for i, entries in enumerate(reps):
        entries.sort(key=lambda e: (e[0] != (i,), len(e[0]), e[0]))
        for B, lam in entries:
            if combination(B, lam) != vectors[i]:
                raise InternalConsistencyError(f"representation {B} of {i} is wrong")
    ordered = sorted(circuits.items(), key=lambda e: (len(e[0]), e[0]))
    return tuple(ordered), tuple(tuple(entries) for entries in reps)
