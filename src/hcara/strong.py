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
  point set (``_FacetRegion``) solves them all at once with one
  ``lp.maximize_each``: one phase 1, which is also the fit test, and then
  every facet's phase 2.  A row <a_i, t> >= s_i - b_i with
  s_i <= b_i, X inside facet i at t = 0, starts on its slack, so only the
  facets that X sticks out of take artificials, and phase 1 makes no pivot
  when X lies in K, as on the harness's cube.  The queries on one X share
  the region: ``h_subset_strong_check`` takes any number of points, and the
  harness's cube check asks its two queries of one region;
* the conic-dependence table of the normals (``linear.conic_dependences``),
  all ints and built once per polytope, read with no LP by one interval
  rule (``_interval_rule``).  By Farkas, X fits exactly when
  <mu_S, c_S> >= 0 for every circuit S; by LP duality the facet maximum is
  the least <lam_B, c_B> / d over the representations d a_i = sum lam_j a_j,
  so p is in the hull exactly when every a_i has a representation with
  d (<a_i, p> - b_i) + <lam_B, c_B> <= 0.  The rule takes supports and
  offsets times one common L > 0 as ints and gives each subset the interval
  of scales about a centre at which the centre lies in its hull, its bounds
  compared as int ratios: ``shrink_intervals`` reads it about the origin,
  and a minimal strong witness of p is a least subset whose interval about
  p holds 1.

Each ``Polytope`` clears its rows once, at construction, to the ints
q a_i and q b_i over one common q > 0.  Every level matrix is
``linear.levels`` of those int rows against the points (``_levels``), so
both paths work in ints from there: a region's rows and objectives are the
same ints, so the simplex gets ints, and its restricted hull is
``hconvex``'s rule on its levels, so a hull check weighs ints against
facet LPs.  A Fraction is built only for a value that leaves: a bound, a
point or an LP outcome.

K bounded makes the region bounded, so the optima exist.  ``Polytope``
construction reads boundedness and its other checks off the table, no LP;
``spans_positively`` decides boundedness in ints with no table, for a
sampler that filters draws before building one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .errors import InputError, InternalConsistencyError, PreconditionError
from .hconvex import NormalSet, PointSet, hull_rule
from .jsonio import (
    positive_int,
    rational_from_json,
    rational_to_json,
    require_keys,
    vector_from_json,
    vector_to_json,
)
from .linear import Vector, clear_denominators, conic_dependences, dot, echelon
from .linear import exact, levels, restrict, vneg
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


def spans_positively(normals, dim) -> bool:
    """True iff the positive hull of the normals is all of R^dim, which is
    exactly boundedness of any polytope with those outer normals.

    Decided in ints with no table (Davis 1954): the normals span positively
    exactly when no closed halfspace through 0 holds them all.  A
    full-dimensional polyhedral cone other than R^dim has a facet, spanned
    by dim - 1 independent generators, so it suffices to try, for every
    (dim - 1)-subset A, one e != 0 with A e = 0: one fraction-free
    elimination of [A^T | I] leaves it in the last row.  A rank below dim
    shows up as an e orthogonal to every normal, or as too few normals.
    """
    ints = [clear_denominators(a)[0] for a in normals]
    for subset in combinations(ints, dim - 1):
        m = [[a[t] for a in subset] + [int(t == u) for u in range(dim)] for t in range(dim)]
        echelon(m, dim - 1)
        products = [sum(map(mul, a, m[-1][dim - 1:])) for a in ints]
        if max(products, default=0) <= 0 or min(products, default=0) >= 0:
            return False
    return len(ints) > dim


def _spans_by_table(A, table, dim) -> bool:
    """:func:`spans_positively` read off the conic-dependence table of the
    int rows A: they span R^dim, one ``echelon`` of A having rank dim, and
    every row lies in some circuit, so the circuits add up to a strictly
    positive vanishing combination (Davis 1954)."""
    covered = {j for S, _ in table[0] for j in S}
    return len(covered) == len(A) and len(echelon([list(a) for a in A], dim)) == dim


def redundant_rows(offsets, table) -> list[int]:
    """Indices of rows implied by the others (non-facets), given the
    conic-dependence table of the normals of rows with nonempty interior.

    By LP duality the maximum of <a_i, x> under the other rows is the least
    <lam, b_B> / d over the nontrivial representations (B, lam, d) of a_i, or
    unbounded when there is none.  Simultaneous deletion of all reported rows
    is sound only when no two rows describe the same halfspace (equal up to
    positive scaling): a doubly represented facet flags both copies.  One
    positive scale clears the offsets to ints.
    """
    _, reps = table
    offsets, _ = clear_denominators(offsets)
    return [
        i for i, entries in enumerate(reps)
        if any(_weighted(B, lam, offsets) <= d * offsets[i] for B, lam, d in entries[1:])
    ]


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope {x : <a_i, x> <= b_i}.

    The normals are checked by the ``NormalSet`` rules.  Construction then
    runs three checks with no LP off the conic-dependence table of the rows
    as given, in this order: bounded (``_spans_by_table``), nonempty
    interior (<mu_S, b_S> > 0 for every circuit S, by Gordan) and every row
    a facet (``redundant_rows``).  Every row being a facet, no two normals
    are positive multiples, so the normal set H of K, built once and handed
    out by ``normal_set()``, keeps K's normals and indices.  The one table,
    all ints, stays on K and on H as the attribute ``conic_dependences``;
    ``_irredundant`` restricts it from the table of the rows it prunes.
    After the checks K keeps its int form ``_cleared`` = (q, A, b): the
    least common q > 0 of every denominator, with A = q normals and
    b = q offsets as ints, which every level matrix and region row reads.
    Neither is a field, so equality and hashing ignore them.
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
        q = lcm(*(c.denominator for a in normals for c in a), *(b.denominator for b in offsets))
        A = tuple(tuple(c.numerator * (q // c.denominator) for c in a) for a in normals)
        if table is None:
            table = conic_dependences(normals)
        if not _spans_by_table(A, table, self.dim):
            raise InputError("polytope is unbounded: normals do not span positively")
        b = tuple(v.numerator * (q // v.denominator) for v in offsets)
        if any(_weighted(S, mu, b) <= 0 for S, mu in table[0]):
            raise InputError("polytope has empty interior")
        bad = redundant_rows(b, table)
        if bad:
            raise InputError(f"rows {bad} are redundant, not facets")
        # not fields, so equality and hashing ignore them
        object.__setattr__(self, "conic_dependences", table)
        object.__setattr__(H, "conic_dependences", table)
        object.__setattr__(self, "_normal_set", H)
        object.__setattr__(self, "_cleared", (q, A, b))

    @classmethod
    def _irredundant(cls, dim, normals, offsets) -> "Polytope":
        """``Polytope`` of the facets among rows with nonempty interior and
        distinct directions, every check included, off one conic-dependence
        table: ``redundant_rows`` drops the other rows, and the checks take
        the table restricted to the kept ones (``linear.restrict``)."""
        table = conic_dependences(normals)
        bad = set(redundant_rows(offsets, table))
        keep = [i for i in range(len(normals)) if i not in bad]
        K = cls.__new__(cls)
        object.__setattr__(K, "dim", dim)
        object.__setattr__(K, "normals", tuple(normals[i] for i in keep))
        object.__setattr__(K, "offsets", tuple(offsets[i] for i in keep))
        K.__post_init__(restrict(table, keep))
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


def _translate_rows(K: Polytope, L, lb, M, n):
    """X lies in K + t exactly when <a_i, t> >= s_i - b_i for every i, with
    s_i the support of X; each row times L, so all ints: K's int rows
    q a_i times L / q, and the right-hand sides read off the ``_levels``
    (L, lb, M) of points whose first n are X."""
    q, A, _ = K._cleared
    k = L // q
    return [
        (tuple(k * c for c in a), GE, max(row[:n]) - b)
        for a, row, b in zip(A, M, lb)
    ]


def _check_joint(K: Polytope, X: PointSet):
    if K.dim != X.dim:
        raise InputError(f"dimension mismatch: polytope {K.dim}, points {X.dim}")
    if not X.points:
        raise InputError("hull of an empty point set is undefined")


def fits_in_translate(K: Polytope, X: PointSet) -> Vector | None:
    """A translate vector t with X inside K + t, or None if none exists."""
    _check_joint(K, X)
    rows = _translate_rows(K, *_levels(K, X.points), len(X))
    return feasible_point(rows, K.dim, nonneg=False)


class _FacetRegion:
    """The translate region {t : X in K + t} of one point set X, the m facet
    maxima of the strong hull over it, and the exact query points
    ``queries``, indexed j in order.  One level matrix of K's normals
    against X and the queries gives the region's int rows, each query's
    restricted-hull test (``hconvex.hull_rule``) and its facet tests.  The
    maxima depend on X alone, so construction solves them all with one
    ``lp.maximize_each``: one phase 1, then every facet's phase 2.  Its
    objectives are K's int rows -q a_i, whose maxima are q times the
    facets'.  Raises PreconditionError unless X fits in some translate of
    K."""

    def __init__(self, K: Polytope, X: PointSet, queries):
        self._n = len(X)
        L, self._lb, self._M = _levels(K, X.points + tuple(queries))
        q, A, _ = K._cleared
        self._scale = L // q
        outcomes = maximize_each(
            _translate_rows(K, L, self._lb, self._M, self._n),
            [vneg(a) for a in A], K.dim,
        )
        if outcomes[0].status is LpStatus.INFEASIBLE:
            raise PreconditionError("X does not fit in any translate of K")
        if any(o.status is not LpStatus.OPTIMAL for o in outcomes):
            raise InternalConsistencyError(
                "translate region of a bounded polytope must be bounded"
            )
        self._optima = [o.value for o in outcomes]

    def in_h_hull(self, j) -> bool:
        """Membership of query j in the hull of X restricted to K's normals."""
        return hull_rule(self._M, range(self._n), self._n + j)

    def contains(self, j) -> bool:
        """Membership of query p_j in the hull by the facet maxima num / den
        of -q <a_i, t> in ints: (L <a_i, p_j> - L b_i) den + (L / q) num > 0
        violates facet i."""
        return all(
            (row[self._n + j] - b) * v.denominator + self._scale * v.numerator <= 0
            for row, b, v in zip(self._M, self._lb, self._optima)
        )


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
    return _FacetRegion(K, X, [_query(K, X, p)]).contains(0)


def _levels(K: Polytope, points):
    """``(L, L b, M)``, all ints, with M[i][j] = L <a_i, x_j>: the
    ``linear.levels`` (L', M) of K's int rows q a_i against the points,
    with L = q L'."""
    q, A, b = K._cleared
    L, M = levels(A, points)
    return q * L, [L * v for v in b], M


def _interval_rule(K: Polytope, points):
    """``interval(idx) -> (lo, fit)`` for the subsets Y = points[idx] of
    points[:-1] about the centre c = points[-1]: for eps > 0, c + eps (Y - c)
    fits in a translate of K exactly when eps <= fit, and then c is in its
    hull exactly when lo <= eps; None is no bound (fit) or no reachable one
    (lo).

    In ints off ``K.conic_dependences``, with no LP.  Circuits and
    representations vanish on translations, so only S = L s(Y) - L <a, c>
    scales: a circuit with <mu, S_S> > 0 bounds eps by <mu, L b_S> /
    <mu, S_S> (Farkas); for S_i < 0 a nontrivial representation of a_i holds
    exactly when <lam, S_B> > 0 and eps >= (<lam, L b_B> - d L b_i) /
    <lam, S_B> (LP duality), a positive bound since every row is a facet.
    Each bound stays a pair (num, den > 0) of ints, compared by
    cross-multiplication; only lo and fit become Fractions.  The numerators
    depend on K and L alone, so they are formed once for every subset.
    """
    circuits, reps = K.conic_dependences
    _, lb, M = _levels(K, points)
    fits = [(T, mu, _weighted(T, mu, lb)) for T, mu in circuits]
    lows = [
        [(B, lam, _weighted(B, lam, lb) - d * lb[i]) for B, lam, d in entries[1:]]
        for i, entries in enumerate(reps)
    ]

    def interval(idx):
        S = [max(row[j] for j in idx) - row[-1] for row in M]
        fit = _least((n, t) for T, mu, n in fits if (t := _weighted(T, mu, S)) > 0)
        fit = None if fit is None else Fraction(*fit)
        lo = None
        for i, v in enumerate(S):
            if v < 0:
                low = _least((n, t) for B, lam, n in lows[i] if (t := _weighted(B, lam, S)) > 0)
                if low is None:
                    return None, fit
                if lo is None or low[0] * lo[1] > lo[0] * low[1]:
                    lo = low
        return Fraction(*(lo or (0, 1))), fit

    return interval


def _least(bounds):
    """The least ratio num / den of int pairs with den > 0, as its pair, by
    cross-multiplication; None when there are none."""
    best = None
    for n, t in bounds:
        if best is None or n * best[1] < best[0] * t:
            best = n, t
    return best


def _holds(lo, fit, eps) -> bool:
    """Whether eps lies in the interval [lo, fit] of :func:`_interval_rule`."""
    return lo is not None and lo <= eps and (fit is None or eps <= fit)


def minimal_strong_witness(K: Polytope, X: PointSet, p: Vector) -> PointSet:
    """Minimum-cardinality subset of X whose hull under K still contains p,
    by exhaustive search in (size, lexicographic index) order.

    A subset is a witness exactly when 1 lies in its interval about p
    (:func:`_interval_rule`), read off the table with no LP.
    """
    p = _query(K, X, p)
    interval = _interval_rule(K, X.points + (p,))
    lo, fit = interval(range(len(X)))
    if fit is not None and fit < 1:
        raise PreconditionError("X does not fit in any translate of K")
    if lo is None or lo > 1:
        raise PreconditionError("query point is not in the hull of X")
    return X.minimal_subset(lambda idx: _holds(*interval(idx), 1))


def shrink_intervals(K: Polytope, X: PointSet):
    """``(idx, lo, fit)`` for every nonempty subset Y = X[idx], in (size,
    lexicographic index) order: for eps > 0, eps Y fits in a translate of K
    exactly when eps <= fit, and then the origin is in its hull exactly when
    lo <= eps; None is no bound (fit) or no reachable one (lo).  This is
    :func:`_interval_rule` about the origin.
    """
    _check_joint(K, X)
    interval = _interval_rule(K, X.points + ((Fraction(0),) * K.dim,))
    return [
        (idx, *interval(idx))
        for k in range(1, len(X) + 1) for idx in combinations(range(len(X)), k)
    ]


def guard_assignment(K: Polytope, X: PointSet, p: Vector):
    """For each point x, the least-index facet normal with
    <a, x> >= <a, p> and <a, x> > <a, y> for every other y in X.

    Returns the full map {point index: normal index} or None when some point
    has no such normal.  Compares the int levels L <a, x> of ``_levels``,
    which order as the inner products do since L > 0.
    """
    p = _query(K, X, p)
    _, _, M = _levels(K, X.points + (p,))
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

    Restricted membership is ``hconvex``'s rule under the normals of K.
    All the points share the one facet region of X and its level matrix: a
    point inside the restricted hull is decided by the region's facet
    maxima.  With no points no region is built and no LP is solved;
    otherwise the region raises PreconditionError unless X fits."""
    _check_joint(K, X)
    queries = [_query(K, X, p) for p in points]
    if not queries:
        return True
    region = _FacetRegion(K, X, queries)
    return all(region.contains(j) for j in range(len(queries)) if region.in_h_hull(j))
