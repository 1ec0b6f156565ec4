"""Exact rational vectors and fraction-free integer elimination.

Vectors are plain tuples of ``fractions.Fraction``; every operation here is
exact, deterministic and free of floating point.  Rank, linear solves, the
conic-dependence table and the simplex in ``lp`` all eliminate on int rows
cleared of denominators, with one Gauss-Jordan step, :func:`pivot`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, InternalConsistencyError

Vector = tuple[Fraction, ...]


def exact(value) -> Fraction:
    """``value`` as a Fraction; InputError for anything but an int or a
    Fraction.  A float's binary value is almost never the number that was
    meant, and a bool, a string or a sequence is not a coordinate."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not exact; pass an int or a Fraction")
    raise InputError(f"{value!r} is not a number; pass an int or a Fraction")


def zero_vector(dim: int) -> Vector:
    return (Fraction(0),) * dim


def dot(a: Vector, b: Vector) -> Fraction:
    """Exact inner product: one int numerator over the product of the
    denominators, normalized once into a Fraction."""
    if len(a) != len(b):
        raise InputError(f"dimension mismatch in inner product: {len(a)} vs {len(b)}")
    num, den = 0, 1
    for x, y in zip(a, b):
        x, y = exact(x), exact(y)
        d = x.denominator * y.denominator
        num = num * d + x.numerator * y.numerator * den
        den *= d
    return Fraction(num, den)


def vadd(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise InputError("dimension mismatch in vector addition")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise InputError("dimension mismatch in vector subtraction")
    return tuple(x - y for x, y in zip(a, b))


def vscale(v: Vector, c) -> Vector:
    c = exact(c)
    return tuple(c * exact(x) for x in v)


def vneg(v: Vector) -> Vector:
    return tuple(-x for x in v)


def is_zero_vector(v: Vector) -> bool:
    return all(x == 0 for x in v)


def clear_denominators(v) -> tuple[list[int], int]:
    """``v`` times the lcm of its denominators, as ints, and that lcm."""
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v], scale


def levels(vectors, points) -> tuple[int, list[list[int]]]:
    """One common L > 0 and M[i][j] = L <a_i, x_j> as ints, which order and
    sign as the inner products do: L is the vectors' common denominator
    times the points', so every entry is an int dot product."""
    qa = lcm(*(c.denominator for a in vectors for c in a))
    qx = lcm(*(c.denominator for x in points for c in x))
    xs = [[c.numerator * (qx // c.denominator) for c in x] for x in points]
    return qa * qx, [
        [sum(a * v for a, v in zip(A, x)) for x in xs]
        for A in ([c.numerator * (qa // c.denominator) for c in a] for a in vectors)
    ]


def reduced_row(row: list[int]) -> list[int]:
    """An int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def primitive_direction(v: Vector) -> tuple[int, ...]:
    """Canonical integer representative of a nonzero vector's positive ray.

    Two vectors are positive multiples of one another exactly when their
    primitive directions are equal.
    """
    v = [exact(x) for x in v]
    if is_zero_vector(v):
        raise InputError("the zero vector has no direction")
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    return tuple(n // g for n in ints)


def pivot(rows, r, c):
    """Fraction-free Gauss-Jordan step on entry (r, c) of an int matrix, in
    place; returns the pivot row.

    Each row stands for a positive integer multiple of a true row, so the
    pivot row is only sign-flipped when its pivot is negative, and every
    other row with a nonzero in column c becomes ``row*p - f*prow`` divided
    by its gcd, again a positive multiple of its true row.  The simplex, the
    conic-dependence table and every elimination here take this one step.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = rows[r] = [-v for v in prow]
        p = -p
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i] = reduced_row([x * p - f * y for x, y in zip(row, prow)])
    return prow


def echelon(m, ncols) -> list[int]:
    """Bring the int matrix ``m`` to reduced echelon form in its first
    ``ncols`` columns, in place, by :func:`pivot`; later columns ride along
    as right-hand sides.  Returns the pivot columns: the k-th pivot sits in
    row k with a positive entry, and every row past the last pivot is zero
    in the first ``ncols`` columns."""
    cols = []
    for c in range(ncols):
        k = len(cols)
        r = next((r for r in range(k, len(m)) if m[r][c]), None)
        if r is not None:
            m[k], m[r] = m[r], m[k]
            pivot(m, k, c)
            cols.append(c)
    return cols


def exact_vectors(vectors, what) -> list[Vector]:
    """The vectors with every entry through :func:`exact`; InputError when
    their dimensions differ."""
    vectors = [tuple(exact(c) for c in v) for v in vectors]
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise InputError(f"{what}: all vectors must share one dimension")
    return vectors


def rank(vectors) -> int:
    """Exact rank of a family of vectors: the pivots of one fraction-free
    elimination."""
    vectors = exact_vectors(vectors, "rank")
    if not vectors:
        return 0
    return len(echelon([clear_denominators(v)[0] for v in vectors], len(vectors[0])))


def solve_linear(rows, rhs) -> Vector | None:
    """Solve the linear system ``rows . x = rhs`` exactly.

    Returns None when inconsistent.  Underdetermined systems yield the unique
    minimum-norm solution, i.e. the solution lying in the row space: with
    G = A A^T we solve G y = rhs and return A^T y.  Each row and its
    right-hand side are cleared of denominators together, so G, y's
    numerators and A^T y's numerators are all ints.
    """
    rows = exact_vectors(rows, "solve_linear")
    rhs = [exact(b) for b in rhs]
    if len(rows) != len(rhs):
        raise InputError("solve_linear: one right-hand side per row required")
    if not rows:
        raise InputError("solve_linear: empty system has no defined dimension")
    dim, k = len(rows[0]), len(rows)
    A = [clear_denominators(r + (b,))[0] for r, b in zip(rows, rhs)]
    m = [[sum(x * y for x, y in zip(a[:dim], b)) for b in A] + [a[dim]] for a in A]
    cols = echelon(m, k)
    if any(row[k] for row in m[len(cols):]):
        return None
    # y_c = m[r][k] / m[r][c] for the pivot c of row r, free y_c = 0; over
    # the common denominator d, x = A^T y is (sum_r y_c d * A[c]) / d.
    d = lcm(*(m[r][c] for r, c in enumerate(cols)))
    x = [0] * dim
    for r, c in enumerate(cols):
        w = m[r][k] * (d // m[r][c])
        if w:
            x = [v + w * a for v, a in zip(x, A[c])]
    return tuple(Fraction(v, d) for v in x)


def conic_dependences(vectors):
    """The conic-dependence table ``(circuits, reps)`` of nonzero vectors
    a_0, ..., a_{m-1} in R^d, as tuples, so a cached table can be shared;
    every entry is ints.

    ``circuits`` lists ``(S, mu)`` for every index set S whose vanishing
    combinations form the line spanned by a strictly positive ``mu``
    (primitive ints): the minimal positively dependent subsets, which
    generate the cone {mu >= 0 : sum mu_j a_j = 0}.  ``reps[i]`` lists
    ``(B, lam, d)`` for every linearly independent B and ints lam > 0, d > 0
    with d a_i = sum lam_j a_j, primitive together, the trivial
    ``((i,), (1,), 1)`` first: the vertices of {lam >= 0 : sum lam_j a_j = a_i}
    are the lam / d.  Index sets are increasing tuples and both lists are in
    (size, lexicographic) order, apart from the trivial representation, which
    stays first even when a parallel a_j with j < i gives a one-element
    representation too.

    One pass over the linearly independent B with |B| <= d, depth first, so
    each B extends its prefix's fraction-free Gauss-Jordan elimination of the
    d x m matrix whose columns are all the a_j.  Every a_i in the span of B is
    then a right-hand side solved for free: lam > 0 is a representation of i,
    lam < 0 everywhere is the circuit B + {i}.  The signs are read off the
    int elimination, one lcm of the pivots clears both kinds of entry, and
    every entry is checked by substitution in ints.
    """
    vectors = exact_vectors(vectors, "conic_dependences")
    if not vectors:
        return (), ()
    dim = len(vectors[0])
    if any(is_zero_vector(v) for v in vectors):
        raise InputError("conic_dependences: the zero vector has no direction")
    m = len(vectors)
    cleared = [clear_denominators(v) for v in vectors]
    scale = [s for _, s in cleared]
    circuits = {}
    reps = [[((i,), (1,), 1)] for i in range(m)]

    def on_basis(M, B, i, col):
        """Primitive ints (lam, d), d > 0, with d a_i = sum lam_r a_{B[r]}:
        the column times D s_i, D the lcm of the pivots."""
        D = lcm(*(M[r][j] for r, j in enumerate(B)))
        row = reduced_row(
            [x * scale[j] * (D // M[r][j]) for r, (j, x) in enumerate(zip(B, col))]
            + [D * scale[i]]
        )
        return tuple(row[:-1]), row[-1]

    def visit(M, B):
        k = len(B)
        for i in range(m):
            if i in B or any(M[r][i] for r in range(k, dim)):
                continue
            # Column i is a_i in the basis B: with s the denominator scales,
            # a_i = sum_r (M[r][i] s_j / (M[r][j] s_i)) a_j for j = B[r], and
            # the pivots M[r][j] are positive, so each sign is M[r][i]'s.
            col = [M[r][i] for r in range(k)]
            if all(x > 0 for x in col):
                reps[i].append((B, *on_basis(M, B, i, col)))
            elif all(x < 0 for x in col):
                S = tuple(sorted(B + (i,)))
                if S not in circuits:
                    lam, d = on_basis(M, B, i, col)
                    mu = dict(zip(B, (-x for x in lam)))
                    mu[i] = d
                    circuits[S] = tuple(mu[j] for j in S)
        if k == dim:
            return
        for c in range(B[-1] + 1 if B else 0, m):
            r = next((r for r in range(k, dim) if M[r][c]), None)
            if r is not None:
                N = [row[:] for row in M]
                N[k], N[r] = N[r], N[k]
                pivot(N, k, c)
                visit(N, B + (c,))

    visit([list(row) for row in zip(*(ints for ints, _ in cleared))], ())

    # Each a_j times the lcm of all the scales, so that every entry is
    # checked by substitution in ints.
    common = lcm(*scale)
    W = [[x * (common // s) for x in ints] for ints, s in cleared]

    def combination(indices, coeffs):
        return [sum(c * W[j][t] for j, c in zip(indices, coeffs)) for t in range(dim)]

    for S, mu in circuits.items():
        if any(combination(S, mu)):
            raise InternalConsistencyError(f"circuit {S} does not vanish")
    for i, entries in enumerate(reps):
        entries.sort(key=lambda e: (e[0] != (i,), len(e[0]), e[0]))
        for B, lam, d in entries:
            if combination(B, lam) != [d * x for x in W[i]]:
                raise InternalConsistencyError(f"representation {B} of {i} is wrong")
    ordered = sorted(circuits.items(), key=lambda e: (len(e[0]), e[0]))
    return tuple(ordered), tuple(tuple(entries) for entries in reps)


def restrict(table, keep):
    """The conic-dependence table of the vectors a_k, k in ``keep``, read off
    ``table``, the table of all of them: the entries whose index sets lie
    inside ``keep``, each index renamed to its position in ``keep``.

    Circuits are intrinsic to their members, and a representation of a_i by
    a linearly independent B depends on a_i and B alone, so these entries
    are exactly those a fresh :func:`conic_dependences` of the kept vectors
    lists.  ``keep`` is increasing, so the renaming is monotone and keeps
    the (size, lexicographic) order, with the trivial representation first.
    """
    circuits, reps = table
    keep = tuple(keep)
    if any(j <= i for i, j in zip(keep, keep[1:])) or not all(
        type(k) is int and 0 <= k < len(reps) for k in keep
    ):
        raise InputError(
            "restrict: keep must be increasing indices of the table's vectors"
        )
    position = {k: r for r, k in enumerate(keep)}
    return (
        tuple(
            (tuple(position[j] for j in S), mu)
            for S, mu in circuits if all(j in position for j in S)
        ),
        tuple(
            tuple(
                (tuple(position[j] for j in B), lam, d)
                for B, lam, d in reps[k] if all(j in position for j in B)
            )
            for k in keep
        ),
    )
