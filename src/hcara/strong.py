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
  feasibility and the m facet maxima as exact LPs.  The maxima depend on X,
  not on the query point, and share one row system, so one facet region per
  point set (``_FacetRegion``) reads them off one ``lp.maximize_each``: one
  phase 1, which is also the fit test, and each facet's phase 2 the first
  time a query reaches that facet.  The queries on one X share the region:
  ``h_subset_strong_check`` takes any number of points, and the harness's
  cube check asks its two queries of one region;
* the conic-dependence table of the normals (``linear.conic_dependences``),
  all ints and built once per polytope, read by ``minimal_strong_witness``
  and ``shrink_intervals`` with no LP.  By Farkas, X fits exactly when
  <mu_S, c_S> >= 0 for every circuit S; by LP duality the facet maximum is
  the least <lam_B, c_B> / d over the representations d a_i = sum lam_j a_j,
  so p is in the hull exactly when every a_i has a representation with
  d (<a_i, p> - b_i) + <lam_B, c_B> <= 0.  Both searches take the supports
  and offsets times one common L > 0 as ints (``linear.levels``, with L
  raised to clear the offsets too), so every test is an integer inequality.
  Scaling X by eps scales its supports, so the same rules give, for each
  subset, the interval of eps at which the origin lies in the hull of eps
  times it.

The supports of X come from the same levels, and the restricted hull from
``hconvex.h_hull_contains``: a hull check weighs ints against facet LPs.

K bounded makes the region bounded, so the optima exist.  ``Polytope``
construction reads its own validity checks off the same table, with no LP.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import InputError, InternalConsistencyError, PreconditionError
from .hconvex import NormalSet, PointSet, h_hull_contains
from .jsonio import (
    positive_int,
    rational_from_json,
    rational_to_json,
    require_keys,
    vector_from_json,
    vector_to_json,
)
from .linear import Vector, conic_dependences, dot, exact, levels, rank, vneg
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
    per-row vector such as the offsets."""
    return sum(x * values[j] for j, x in zip(indices, coeffs))


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
    <lam, b_B> / d over the nontrivial representations (B, lam, d) of a_i, or
    unbounded when there is none.  Simultaneous deletion of all reported rows
    is sound only when no two rows describe the same halfspace (equal up to
    positive scaling): a doubly represented facet flags both copies.
    """
    _, reps = table
    return [
        i for i, entries in enumerate(reps)
        if any(_weighted(B, lam, offsets) <= d * offsets[i] for B, lam, d in entries[1:])
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
    handed out by ``normal_set()``, keeps K's normals and indices.  The one
    table, ``linear.conic_dependences`` of the facet normals as given and all
    ints, stays on K and on H as the attribute ``conic_dependences``;
    ``experiment.random_instance``, which has already built the table of the
    rows it drew, hands the part of it on the kept rows to ``_with_table``.
    """

    dim: int
    normals: tuple[Vector, ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self, table=None):
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
        if table is None:
            table = conic_dependences(normals)
        if not spans_positively(normals, self.dim, table):
            raise InputError("polytope is unbounded: normals do not span positively")
        if any(_weighted(S, mu, offsets) <= 0 for S, mu in table[0]):
            raise InputError("polytope has empty interior")
        bad = redundant_rows(offsets, table)
        if bad:
            raise InputError(f"rows {bad} are redundant, not facets")
        # not fields, so equality and hashing ignore them
        object.__setattr__(self, "conic_dependences", table)
        object.__setattr__(H, "conic_dependences", table)
        object.__setattr__(self, "_normal_set", H)

    @classmethod
    def _with_table(cls, dim, normals, offsets, table) -> "Polytope":
        """``Polytope(dim, normals, offsets)``, every check included, with
        ``table``, the conic-dependence table of the normals, taken as given
        rather than built again."""
        K = cls.__new__(cls)
        for name, value in (("dim", dim), ("normals", normals), ("offsets", offsets)):
            object.__setattr__(K, name, value)
        K.__post_init__(table)
        return K

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


def _translate_rows(K: Polytope, X: PointSet):
    """X lies in K + t exactly when <a_i, t> >= s_i - b_i for every i, with
    s_i the support of X, read off the int levels of ``linear.levels``."""
    L, M = levels(K.normals, X.points)
    return [
        (a, GE, Fraction(max(row), L) - b)
        for a, row, b in zip(K.normals, M, K.offsets)
    ]


def _check_joint(K: Polytope, X: PointSet):
    if K.dim != X.dim:
        raise InputError(f"dimension mismatch: polytope {K.dim}, points {X.dim}")
    if not X.points:
        raise InputError("hull of an empty point set is undefined")


def fits_in_translate(K: Polytope, X: PointSet) -> Vector | None:
    """A translate vector t with X inside K + t, or None if none exists."""
    _check_joint(K, X)
    return feasible_point(_translate_rows(K, X), K.dim, nonneg=False)


class _FacetRegion:
    """The translate region {t : X in K + t} of one point set X, given by its
    supports, and the m facet maxima of the strong hull over it.

    The maxima depend on X alone, not on a query point, so every query on X
    reads one ``lp.maximize_each``: one phase 1 for the region, and each
    facet's phase 2 the first time a query reaches that facet."""

    def __init__(self, K: Polytope, X: PointSet):
        self._K = K
        self._outcomes = maximize_each(
            _translate_rows(K, X), [vneg(a) for a in K.normals], K.dim
        )
        self._optima = []

    def _optimum(self, i):
        """The maximum of -<a_i, t> over the region; None when it is empty."""
        while self._optima is not None and len(self._optima) <= i:
            outcome = next(self._outcomes)
            if outcome.status is LpStatus.INFEASIBLE:
                self._optima = None
            elif outcome.status is not LpStatus.OPTIMAL:
                raise InternalConsistencyError(
                    "translate region of a bounded polytope must be bounded"
                )
            else:
                self._optima.append(outcome.value)
        return None if self._optima is None else self._optima[i]

    def fits(self) -> bool:
        """Whether X fits in some translate of K: phase 1's verdict, which
        arrives with the first facet's optimum."""
        return self._optimum(0) is not None

    def contains(self, p: Vector) -> bool:
        """Membership of p in the hull by the per-facet violation maxima; the
        first violated facet ends the query before the later facets'
        phase 2."""
        for i, (a, b) in enumerate(zip(self._K.normals, self._K.offsets)):
            value = self._optimum(i)
            if value is None:
                raise PreconditionError("X does not fit in any translate of K")
            if dot(a, p) - b + value > 0:
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
    return _FacetRegion(K, X).contains(p)


def _levels(K: Polytope, points):
    """``(L b, M)``, all ints: M the levels L <a_i, x> of ``linear.levels``
    of K's normals against the points, with L raised to clear the offsets."""
    L, M = levels(K.normals, points)
    k = lcm(L, *(b.denominator for b in K.offsets)) // L
    return [int(k * L * b) for b in K.offsets], [[k * v for v in row] for row in M]


def minimal_strong_witness(K: Polytope, X: PointSet, p: Vector) -> PointSet:
    """Minimum-cardinality subset of X whose hull under K still contains p,
    by exhaustive search in (size, lexicographic index) order.

    Decided in ints from ``K.conic_dependences``, with no LP: with s the
    supports of a subset, C = L(b - s) and E_i = L(<a_i, p> - b_i), the subset
    fits exactly when <mu, C_S> >= 0 for every circuit, and then p is in its
    hull exactly when every i has a representation with d E_i + <lam, C_B> <= 0.
    """
    p = _query(K, X, p)
    circuits, reps = K.conic_dependences
    lb, M = _levels(K, X.points + (p,))
    E = [row[-1] - b for row, b in zip(M, lb)]

    def contains(idx):
        """Membership of p in the hull of X[idx]; None when X[idx] fits nowhere."""
        C = [b - max(row[j] for j in idx) for row, b in zip(M, lb)]
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
    bounds eps by <mu, L b_S> / <mu, S_S>; for S_i < 0 a nontrivial
    representation of a_i holds exactly when <lam, S_B> > 0 and eps >=
    (<lam, L b_B> - d L b_i) / <lam, S_B>, a positive bound since every row
    is a facet.
    """
    _check_joint(K, X)
    circuits, reps = K.conic_dependences
    lb, M = _levels(K, X.points)
    out = []
    for k in range(1, len(X) + 1):
        for idx in combinations(range(len(X)), k):
            S = [max(row[j] for j in idx) for row in M]
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
    has no such normal.  Compares the int levels L <a, x> of
    ``linear.levels``, which order as the inner products do since L > 0.
    """
    p = _query(K, X, p)
    _, M = levels(K.normals, X.points + (p,))
    n = len(X)
    out = {}
    for j in range(n):
        found = next((
            i for i, row in enumerate(M)
            if row[j] >= row[n] and all(row[j] > row[k] for k in range(n) if k != j)
        ), None)
        if found is None:
            return None
        out[j] = found
    return out


def h_subset_strong_check(K: Polytope, X: PointSet, *points) -> bool:
    """Probe of the containment of the normal-restricted hull in the
    translate-intersection hull: membership of each point in the former
    must imply membership in the latter.  Always true mathematically;
    exercised as a runtime property.

    Restricted membership is ``h_hull_contains`` under the normals of K.
    All the points share the one facet region of X: a point inside the
    restricted hull is decided by the region's facet LPs, and a point
    outside needs only the region's phase 1, which must find that X fits."""
    _check_joint(K, X)
    points = [_query(K, X, p) for p in points]
    region = _FacetRegion(K, X)
    for p in points:
        if h_hull_contains(K.normal_set(), X, p):
            if not region.contains(p):
                return False
        elif not region.fits():
            raise PreconditionError("X does not fit in any translate of K")
    return True
