"""Hull membership for convexity by intersections of translates of a polytope.

The body K is a bounded, full-dimensional polytope given by irredundant facet
rows <a_i, x> <= b_i.  The hull of X under K is the intersection of all
translates of K containing X; membership of p reduces to one exact LP per
facet: maximize the violation <a_i, p - t> - b_i over all translate vectors t
with X inside K + t.  K bounded makes that region bounded, so the optima
exist.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import InputError, InternalConsistencyError, PreconditionError
from .hconvex import NormalSet, PointSet, h_hull_contains, support
from .invariants import positive_hull_contains
from .jsonio import (
    positive_int,
    rational_from_json,
    rational_to_json,
    require_keys,
    vector_from_json,
    vector_to_json,
)
from .linear import Vector, dot, is_zero_vector, rank, vadd, vneg, zero_vector
from .lp import GE, LE, LpStatus, feasible_point, maximize

__all__ = [
    "Polytope",
    "fits_in_translate",
    "strong_hull_contains",
    "minimal_strong_witness",
    "guard_assignment",
    "h_subset_strong_check",
]


def spans_positively(normals, dim) -> bool:
    """True iff the positive hull of the normals is all of R^dim, which is
    exactly boundedness of any polytope with those outer normals.

    Decided as: the normals span R^dim and some strictly positive combination
    of them vanishes, i.e. (lambda = 1 + mu) -(sum of the normals) lies in
    their positive hull, one LP.
    """
    total = reduce(vadd, normals, zero_vector(dim))
    return rank(normals) == dim and positive_hull_contains(normals, vneg(total))


def interior_slack(normals, offsets, dim) -> Fraction:
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


def redundant_rows(normals, offsets, dim) -> list[int]:
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


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope {x : <a_i, x> <= b_i}.

    Construction verifies boundedness (the normals positively span), nonempty
    interior (positive uniform slack), and that every row is a facet (no row
    is implied by the others).  Facet count therefore equals the size of the
    collapsed normal set.
    """

    dim: int
    normals: tuple[Vector, ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        normals = tuple(
            tuple(Fraction(c) for c in a) for a in self.normals
        )
        offsets = tuple(Fraction(b) for b in self.offsets)
        if len(normals) != len(offsets):
            raise InputError("one offset per normal required")
        if len(normals) < self.dim + 1:
            raise InputError("a bounded polytope needs at least dim + 1 facets")
        for a in normals:
            if len(a) != self.dim:
                raise InputError("facet normal with wrong dimension")
            if is_zero_vector(a):
                raise InputError("zero vector cannot be a facet normal")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        if not spans_positively(normals, self.dim):
            raise InputError("polytope is unbounded: normals do not span positively")
        if interior_slack(normals, offsets, self.dim) <= 0:
            raise InputError("polytope has empty interior")
        bad = redundant_rows(normals, offsets, self.dim)
        if bad:
            raise InputError(f"rows {bad} are redundant, not facets")

    def __len__(self):
        return len(self.normals)

    def normal_set(self) -> NormalSet:
        return NormalSet(self.dim, self.normals)

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
    The facet LPs share their rows, so an infeasible one means X fits nowhere."""
    rows = _translate_rows(K, supports)
    for i, a in enumerate(K.normals):
        outcome = maximize(rows, vneg(a), K.dim, nonneg=False)
        if outcome.status is LpStatus.INFEASIBLE:
            raise PreconditionError("X does not fit in any translate of K")
        if outcome.status is not LpStatus.OPTIMAL:
            raise InternalConsistencyError(
                "translate region of a bounded polytope must be bounded"
            )
        if dot(a, p) - K.offsets[i] + outcome.value > 0:
            return False
    return True


def strong_hull_contains(K: Polytope, X: PointSet, p: Vector) -> bool:
    """Membership of p in the intersection of all translates of K containing X.

    Raises PreconditionError unless X fits in some translate of K.
    """
    _check_joint(K, X)
    p = tuple(Fraction(c) for c in p)
    if len(p) != K.dim:
        raise InputError("query point has the wrong dimension")
    return _member_with_supports(K, [support(X, a) for a in K.normals], p)


def minimal_strong_witness(K: Polytope, X: PointSet, p: Vector) -> PointSet:
    """Minimum-cardinality subset of X whose hull under K still contains p,
    by exhaustive search in (size, lexicographic index) order."""
    if not strong_hull_contains(K, X, p):
        raise PreconditionError("query point is not in the hull of X")
    p = tuple(Fraction(c) for c in p)
    dots = [[dot(a, x) for x in X.points] for a in K.normals]
    return X.minimal_subset(lambda idx: _member_with_supports(
        K, [max(row[j] for j in idx) for row in dots], p
    ))


def guard_assignment(K: Polytope, X: PointSet, p: Vector):
    """For each point x, the least-index facet normal with
    <a, x> >= <a, p> and <a, x> > <a, y> for every other y in X.

    Returns the full map {point index: normal index} or None when some point
    has no such normal.
    """
    _check_joint(K, X)
    p = tuple(Fraction(c) for c in p)
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
