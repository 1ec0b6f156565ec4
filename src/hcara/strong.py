"""Hull membership for convexity by intersections of translates of a polytope.

The body K is a bounded, full-dimensional polytope given by irredundant facet
rows <a_i, x> <= b_i.  The hull of X under K is the intersection of all
translates of K containing X.  With s_i the support of X in direction a_i and
c = b - s, X fits in some translate exactly when {y : <a_i, y> <= c_i} is
nonempty, and p lies in the hull exactly when, for every facet,
<a_i, p> - b_i plus the maximum of <a_i, y> over that region is <= 0.

Two paths decide this, and each checks the other:

* the facet LPs, the reference: ``fits_in_translate``,
  ``strong_hull_contains`` and ``h_subset_strong_check`` solve the region's
  feasibility and the m facet maxima as exact LPs.  The m maxima share one
  row system, so ``lp.maximize_each`` runs one phase 1 for all of them and a
  phase 2 per facet only until the first violated facet;
* the conic-dependence table of the normals (``linear.conic_dependences``),
  built once per polytope and read in ints through its ``int_view`` by
  ``minimal_strong_witness`` and ``shrink_intervals``, with no LP.  By
  Farkas, X fits exactly when <mu_S, c_S> >= 0 for every circuit S; by LP
  duality the facet maximum is the least <lam_B, c_B> over the
  representations B of a_i, so p is in the hull exactly when every a_i has a
  representation with <a_i, p> - b_i + <lam_B, c_B> <= 0.  Scaling X by eps
  scales its supports, so the same rules give, for each subset, the interval
  of eps at which the origin lies in the hull of eps times it.

K bounded makes the region bounded, so the optima exist.  ``Polytope``
construction reads its own validity checks off the same table, with no LP.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import InputError, InternalConsistencyError, PreconditionError
from .hconvex import NormalSet, PointSet, h_hull_contains, support
from .jsonio import (
    positive_int,
    rational_from_json,
    rational_to_json,
    require_keys,
    vector_from_json,
    vector_to_json,
)
from .linear import (
    Vector, clear_denominators, conic_dependences, dot, exact, rank, vneg,
)
from .lp import GE, LpStatus, feasible_point, maximize_each

__all__ = [
    "Polytope",
    "fits_in_translate",
    "strong_hull_contains",
    "minimal_strong_witness",
    "shrink_intervals",
    "guard_assignment",
    "h_subset_strong_check",
]


def _weighted(indices, coeffs, values):
    """sum of coeffs[k] * values[indices[k]]: a table entry applied to a
    per-row vector such as the offsets, in Fractions or in ints."""
    return sum(x * values[j] for j, x in zip(indices, coeffs))


def _on_rows(indices, coeffs, sigma, scale=1):
    """Ints ``(lam, d)`` with d > 0 and scale * sum coeffs_k a_j equal to
    sum (lam_k / d) A_j, j = indices[k], for the int rows A_j = sigma_j a_j."""
    dens = [x.denominator * sigma[j] for j, x in zip(indices, coeffs)]
    d = lcm(*dens)
    g = gcd(scale, d)
    return [scale // g * x.numerator * (d // e) for x, e in zip(coeffs, dens)], d // g


def spans_positively(normals, dim, table) -> bool:
    """True iff the positive hull of the normals is all of R^dim, which is
    exactly boundedness of any polytope with those outer normals; ``table``
    is ``linear.conic_dependences(normals)``.

    Decided as: the normals span R^dim and every normal lies in a circuit.
    The circuits generate the cone of vanishing combinations mu >= 0, so a
    strictly positive one exists exactly when they cover every normal.
    """
    circuits, _ = table
    covered = {j for S, _ in circuits for j in S}
    return rank(normals) == dim and len(covered) == len(normals)


def redundant_rows(offsets, table) -> list[int]:
    """Indices of rows implied by the others (non-facets), given the
    conic-dependence table of the normals of rows with nonempty interior.

    By LP duality the maximum of <a_i, x> under the other rows is the least
    <lam, b_B> over the nontrivial representations (B, lam) of a_i, or
    unbounded when there is none.  Simultaneous deletion of all reported rows
    is sound only when no two rows describe the same halfspace (equal up to
    positive scaling): a doubly represented facet flags both copies.
    """
    _, reps = table
    return [
        i for i, entries in enumerate(reps)
        if any(_weighted(B, lam, offsets) <= offsets[i] for B, lam in entries[1:])
    ]


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope {x : <a_i, x> <= b_i}.

    The normals are checked by the ``NormalSet`` rules.  Construction then
    reads three checks off the conic-dependence table of the rows as given,
    with no LP: bounded (``spans_positively``), nonempty interior
    (<mu_S, b_S> > 0 for every circuit S, by Gordan), and every row a facet
    (``redundant_rows``), in that order.  Every row being a facet, no two
    normals are positive multiples, so the normal set H of K, built once and
    handed out by ``normal_set()``, keeps K's normals and indices.  The table,
    ``linear.conic_dependences`` of the facet normals, stays on K and on H as
    the attribute ``conic_dependences``, and ``int_view`` is the same table over
    the rows cleared to ints A_i = sigma_i a_i: ``(rows, beta, den, circuits,
    reps)`` with beta_i / den = sigma_i b_i, sum mu_j A_j = 0 for each circuit
    (S, mu), and delta A_i = sum Lam_j A_j for each representation
    (B, Lam, delta) in ``reps[i]``, the trivial one first; all ints.
    """

    dim: int
    normals: tuple[Vector, ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        normals = tuple(tuple(exact(c) for c in a) for a in self.normals)
        offsets = tuple(exact(b) for b in self.offsets)
        if len(normals) != len(offsets):
            raise InputError("one offset per normal required")
        if len(normals) < self.dim + 1:
            raise InputError("a bounded polytope needs at least dim + 1 facets")
        H = NormalSet(self.dim, normals)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        table = conic_dependences(normals)
        if not spans_positively(normals, self.dim, table):
            raise InputError("polytope is unbounded: normals do not span positively")
        if any(_weighted(S, mu, offsets) <= 0 for S, mu in table[0]):
            raise InputError("polytope has empty interior")
        bad = redundant_rows(offsets, table)
        if bad:
            raise InputError(f"rows {bad} are redundant, not facets")
        cleared = [clear_denominators(a) for a in normals]
        sigma = [s for _, s in cleared]
        beta, den = clear_denominators([s * b for s, b in zip(sigma, offsets)])
        circuits, reps = table
        # not fields, so equality and hashing ignore them
        object.__setattr__(self, "conic_dependences", table)
        object.__setattr__(self, "int_view", (
            tuple(tuple(ints) for ints, _ in cleared),
            beta,
            den,
            tuple((S, _on_rows(S, mu, sigma)[0]) for S, mu in circuits),
            tuple(
                tuple((B, *_on_rows(B, lam, sigma, sigma[i])) for B, lam in entries)
                for i, entries in enumerate(reps)
            ),
        ))
        object.__setattr__(H, "conic_dependences", table)
        object.__setattr__(self, "_normal_set", H)

    def __len__(self):
        return len(self.normals)

    def normal_set(self) -> NormalSet:
        """The normal set H of K, the same object on every call."""
        return self._normal_set

    def contains(self, p: Vector) -> bool:
        return all(dot(a, p) <= b for a, b in zip(self.normals, self.offsets))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "normals": [vector_to_json(a) for a in self.normals],
            "offsets": [rational_to_json(b) for b in self.offsets],
        }

    @classmethod
    def from_json(cls, obj) -> "Polytope":
        require_keys(obj, ("dim", "normals", "offsets"), "polytope")
        dim = positive_int(obj, "dim", "polytope")
        if not isinstance(obj["normals"], list) or not isinstance(obj["offsets"], list):
            raise InputError("polytope needs 'normals' and 'offsets' arrays")
        return cls(
            dim,
            tuple(vector_from_json(a, dim) for a in obj["normals"]),
            tuple(rational_from_json(b) for b in obj["offsets"]),
        )


def _translate_rows(K: Polytope, supports):
    """X lies in K + t exactly when <a_i, t> >= support_i - b_i for every i."""
    return [
        (a, GE, s - b)
        for a, s, b in zip(K.normals, supports, K.offsets)
    ]


def _check_joint(K: Polytope, X: PointSet):
    if K.dim != X.dim:
        raise InputError(f"dimension mismatch: polytope {K.dim}, points {X.dim}")
    if not X.points:
        raise InputError("hull of an empty point set is undefined")


def fits_in_translate(K: Polytope, X: PointSet) -> Vector | None:
    """A translate vector t with X inside K + t, or None if none exists."""
    _check_joint(K, X)
    supports = [support(X, a) for a in K.normals]
    return feasible_point(_translate_rows(K, supports), K.dim, nonneg=False)


def _member_with_supports(K: Polytope, supports, p: Vector) -> bool:
    """Membership via per-facet violation maxima; supports are precomputed.
    The facet LPs share their rows, so one phase 1 serves them all, an
    infeasible one means X fits nowhere, and the first violated facet ends
    the query before the later facets' phase 2."""
    outcomes = maximize_each(
        _translate_rows(K, supports), [vneg(a) for a in K.normals], K.dim
    )
    for i, (a, outcome) in enumerate(zip(K.normals, outcomes)):
        if outcome.status is LpStatus.INFEASIBLE:
            raise PreconditionError("X does not fit in any translate of K")
        if outcome.status is not LpStatus.OPTIMAL:
            raise InternalConsistencyError(
                "translate region of a bounded polytope must be bounded"
            )
        if dot(a, p) - K.offsets[i] + outcome.value > 0:
            return False
    return True


def _query(K: Polytope, X: PointSet, p: Vector) -> Vector:
    """p as an exact vector, after the input checks of a strong-hull query."""
    _check_joint(K, X)
    p = tuple(exact(c) for c in p)
    if len(p) != K.dim:
        raise InputError("query point has the wrong dimension")
    return p


def strong_hull_contains(K: Polytope, X: PointSet, p: Vector) -> bool:
    """Membership of p in the intersection of all translates of K containing X.

    Raises PreconditionError unless X fits in some translate of K.
    """
    p = _query(K, X, p)
    return _member_with_supports(K, [support(X, a) for a in K.normals], p)


def _levels(K: Polytope, points):
    """L beta and, per row i, L <A_i, x> for each of the points, all ints,
    for the least L that clears beta and the points' coordinates."""
    rows, beta, den, _, _ = K.int_view
    flat, q = clear_denominators([c for x in points for c in x])
    L = lcm(den, q)
    xs = [[L // q * v for v in flat[k:k + K.dim]] for k in range(0, len(flat), K.dim)]
    return (
        [L // den * b for b in beta],
        [[sum(a * v for a, v in zip(A, x)) for x in xs] for A in rows],
    )


def minimal_strong_witness(K: Polytope, X: PointSet, p: Vector) -> PointSet:
    """Minimum-cardinality subset of X whose hull under K still contains p,
    by exhaustive search in (size, lexicographic index) order.

    Decided in ints from ``K.int_view``, with no LP: with s the supports of a
    subset, C = L(beta - s) and E_i = L(<A_i, p> - beta_i), the subset fits
    exactly when <mu, C_S> >= 0 for every circuit, and then p is in its hull
    exactly when every i has a representation with delta E_i + <Lam, C_B> <= 0.
    """
    p = _query(K, X, p)
    *_, circuits, reps = K.int_view
    lb, levels = _levels(K, X.points + (p,))
    E = [row[-1] - b for row, b in zip(levels, lb)]

    def contains(idx):
        """Membership of p in the hull of X[idx]; None when X[idx] fits nowhere."""
        C = [b - max(row[j] for j in idx) for row, b in zip(levels, lb)]
        if any(_weighted(S, mu, C) < 0 for S, mu in circuits):
            return None
        return all(
            any(d * e + _weighted(B, lam, C) <= 0 for B, lam, d in entries)
            for e, entries in zip(E, reps)
        )

    whole = contains(range(len(X)))
    if whole is None:
        raise PreconditionError("X does not fit in any translate of K")
    if not whole:
        raise PreconditionError("query point is not in the hull of X")
    return X.minimal_subset(contains)


def shrink_intervals(K: Polytope, X: PointSet):
    """``(idx, lo, fit)`` for every nonempty subset Y = X[idx], in (size,
    lexicographic index) order: for eps > 0, eps Y fits in a translate of K
    exactly when eps <= fit, and then the origin is in its hull exactly when
    lo <= eps; None is no bound (fit) or no reachable one (lo).

    Scaling Y scales its supports, so, with S = L s(Y) and the rules of
    :func:`minimal_strong_witness` in ints: a circuit with <mu, S_S> > 0
    bounds eps by <mu, L beta_S> / <mu, S_S>; for S_i < 0 a nontrivial
    representation of a_i holds exactly when <Lam, S_B> > 0 and eps >=
    (<Lam, L beta_B> - delta L beta_i) / <Lam, S_B>, a positive bound since
    every row is a facet.
    """
    _check_joint(K, X)
    *_, circuits, reps = K.int_view
    lb, levels = _levels(K, X.points)
    out = []
    for k in range(1, len(X) + 1):
        for idx in combinations(range(len(X)), k):
            S = [max(row[j] for j in idx) for row in levels]
            fit = min((
                Fraction(_weighted(T, mu, lb), t)
                for T, mu in circuits if (t := _weighted(T, mu, S)) > 0
            ), default=None)
            lows = [min((
                Fraction(_weighted(B, lam, lb) - d * lb[i], t)
                for B, lam, d in reps[i][1:] if (t := _weighted(B, lam, S)) > 0
            ), default=None) for i, v in enumerate(S) if v < 0]
            lo = None if None in lows else max(lows, default=Fraction(0))
            out.append((idx, lo, fit))
    return out


def guard_assignment(K: Polytope, X: PointSet, p: Vector):
    """For each point x, the least-index facet normal with
    <a, x> >= <a, p> and <a, x> > <a, y> for every other y in X.

    Returns the full map {point index: normal index} or None when some point
    has no such normal.
    """
    p = _query(K, X, p)
    out = {}
    for j, x in enumerate(X.points):
        found = None
        for i, a in enumerate(K.normals):
            if dot(a, x) < dot(a, p):
                continue
            if all(
                dot(a, x) > dot(a, y)
                for jj, y in enumerate(X.points)
                if jj != j
            ):
                found = i
                break
        if found is None:
            return None
        out[j] = found
    return out


def h_subset_strong_check(K: Polytope, X: PointSet, p: Vector) -> bool:
    """Probe of the containment of the normal-restricted hull in the
    translate-intersection hull: membership in the former must imply
    membership in the latter.  Always true mathematically; exercised as a
    runtime property."""
    _check_joint(K, X)
    if h_hull_contains(K.normal_set(), X, p):
        return strong_hull_contains(K, X, p)
    if fits_in_translate(K, X) is None:
        raise PreconditionError("X does not fit in any translate of K")
    return True
