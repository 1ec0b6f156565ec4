"""Hull membership for convexity restricted to a finite set of outer normals.

The hull of a finite point set X under a normal set H is
``{p : <a, p> <= max_{x in X} <a, x> for every a in H}``.  Everything here is
positively homogeneous in the normals, so they are kept as arbitrary nonzero
rational vectors instead of being forced onto the unit sphere.

Membership, minimal witnesses and point-set verdicts compare the int levels
of ``linear.levels``; ``support`` stays the ``dot`` definition.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError, PreconditionError
from .jsonio import (
    positive_int,
    require_keys,
    vector_from_json,
    vector_to_json,
)
from .linear import Vector, dot, exact, is_zero_vector, levels, primitive_direction

__all__ = [
    "NormalSet",
    "PointSet",
    "ExclusionAssignment",
    "support",
    "h_hull_contains",
    "covering_holds",
    "excluding_holds",
    "point_set_verdicts",
    "minimal_h_witness",
]


@dataclass(frozen=True)
class NormalSet:
    """A finite set of nonzero direction vectors.

    Construction collapses normals that are positive multiples of one another,
    keeping the first occurrence, so indices always refer to the collapsed
    list.  ``conic_dependences`` is the normals' int table
    (``linear.conic_dependences``) when the ``Polytope`` that built the set
    attached its own, the same object as the polytope's, and None on a set
    built directly, which caches nothing.
    """

    dim: int
    normals: tuple[Vector, ...]
    # not a field, so equality and hashing ignore it
    conic_dependences = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        seen = {}
        kept = []
        for v in self.normals:
            v = tuple(exact(c) for c in v)
            if len(v) != self.dim:
                raise InputError(
                    f"normal {v} has dimension {len(v)}, expected {self.dim}"
                )
            if is_zero_vector(v):
                raise InputError("the zero vector is not a valid normal")
            key = primitive_direction(v)
            if key not in seen:
                seen[key] = True
                kept.append(v)
        object.__setattr__(self, "normals", tuple(kept))

    def __len__(self):
        return len(self.normals)

    def __iter__(self):
        return iter(self.normals)

    def checked_indices(self, indices) -> tuple[int, ...]:
        """``indices`` as a tuple; InputError unless they are distinct and
        each is an int, not a bool, that indexes a normal."""
        try:
            idx = tuple(indices)
        except TypeError:
            raise InputError(f"normal indices {indices!r} are not a sequence") from None
        for i in idx:
            if type(i) is not int or not 0 <= i < len(self.normals):
                raise InputError(f"normal index {i!r} out of range")
        if len(set(idx)) != len(idx):
            raise InputError("normal indices must be distinct")
        return idx

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "normals": [vector_to_json(a) for a in self.normals],
        }

    @classmethod
    def from_json(cls, obj) -> "NormalSet":
        require_keys(obj, ("dim", "normals"), "normal set")
        dim = positive_int(obj, "dim", "normal set")
        if not isinstance(obj["normals"], list) or not obj["normals"]:
            raise InputError("normal set needs a nonempty 'normals' array")
        return cls(dim, tuple(vector_from_json(v, dim) for v in obj["normals"]))


@dataclass(frozen=True)
class PointSet:
    """A finite set of pairwise distinct rational points."""

    dim: int
    points: tuple[Vector, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        pts = {}  # in order; each point hashed once
        for p in self.points:
            p = tuple(exact(c) for c in p)
            if len(p) != self.dim:
                raise InputError(
                    f"point {p} has dimension {len(p)}, expected {self.dim}"
                )
            n = len(pts)
            pts[p] = None
            if len(pts) == n:
                raise InputError(f"duplicate point {p}")
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def subset(self, indices) -> "PointSet":
        return PointSet(self.dim, tuple(self.points[i] for i in indices))

    def minimal_subset(self, accepts) -> "PointSet":
        """The first proper subset, in (size, lexicographic index) order,
        whose index tuple passes ``accepts``; the set itself when none does."""
        for k in range(1, len(self.points)):
            for idx in combinations(range(len(self.points)), k):
                if accepts(idx):
                    return self.subset(idx)
        return self

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "points": [vector_to_json(p) for p in self.points],
        }

    @classmethod
    def from_json(cls, obj) -> "PointSet":
        require_keys(obj, ("dim", "points"), "point set")
        dim = positive_int(obj, "dim", "point set")
        if not isinstance(obj["points"], list):
            raise InputError("point set needs a 'points' array")
        return cls(dim, tuple(vector_from_json(p, dim) for p in obj["points"]))


@dataclass(frozen=True)
class ExclusionAssignment:
    """Per point j, a normal index f(j) whose nonnegative halfspace contains
    x_j and no other point of X.  Validated on construction."""

    by_point: tuple[int, ...]

    @classmethod
    def build(cls, H: NormalSet, X: PointSet, by_point) -> "ExclusionAssignment":
        by_point = H.checked_indices(by_point)
        if len(by_point) != len(X):
            raise InputError("assignment must cover every point")
        for j, i in enumerate(by_point):
            a = H.normals[i]
            if dot(a, X.points[j]) < 0:
                raise InputError(f"normal {i} does not see point {j}")
            for jj, x in enumerate(X.points):
                if jj != j and dot(a, x) >= 0:
                    raise InputError(f"normal {i} is not exclusive to point {j}")
        return cls(by_point)

    def to_json(self) -> dict:
        return {str(j): i for j, i in enumerate(self.by_point)}


def _check_joint(H: NormalSet, X: PointSet):
    if H.dim != X.dim:
        raise InputError(f"dimension mismatch: normals {H.dim}, points {X.dim}")


def support(X: PointSet, a: Vector) -> Fraction:
    """max over X of the inner product with a."""
    if not X.points:
        raise InputError("support of an empty point set is undefined")
    return max(dot(a, p) for p in X.points)


def hull_rule(M, idx, j) -> bool:
    """The restricted-hull rule on a level matrix M of the normals against
    points: point j lies in the hull of the points idx exactly when none of
    its levels lies above their top level."""
    return all(row[j] <= max(row[k] for k in idx) for row in M)


def _subset_test(H: NormalSet, X: PointSet, p: Vector):
    """After the input checks of a hull query, the test of p against the
    restricted hull of X[idx]: no level of p above the subset's top level,
    read off one level matrix of H against X and then p."""
    _check_joint(H, X)
    if not X.points:
        raise InputError("hull of an empty point set is undefined")
    p = tuple(exact(c) for c in p)
    if len(p) != H.dim:
        raise InputError("query point has the wrong dimension")
    _, M = levels(H.normals, X.points + (p,))
    return lambda idx: hull_rule(M, idx, -1)


def h_hull_contains(H: NormalSet, X: PointSet, p: Vector) -> bool:
    """Membership of p in the hull of X restricted to normals H."""
    return _subset_test(H, X, p)(range(len(X)))


def point_set_verdicts(
    H: NormalSet, X: PointSet
) -> tuple[bool, bool, ExclusionAssignment | None]:
    """``(covering, drop_one, assignment)`` of X under H, read off one sign
    matrix rows[i][j] = (<a_i, x_j> >= 0), the signs of the levels, each row
    kept as the indices j where it is True.

    X covers when no row is all False.  Dropping x_j uncovers exactly when
    some row is True at j at most, and drop-one holds when that is so for
    every j.  The exclusive normal of x_j is the least row True at j alone;
    the assignment is None when some point has none.  Drop-one is its own
    verdict: a non-covering X is drop-one minimal with or without an
    assignment.
    """
    _check_joint(H, X)
    rows = [
        tuple(j for j, v in enumerate(row) if v >= 0)
        for row in levels(H.normals, X.points)[1]
    ]
    points = range(len(X.points))
    covering = all(rows)
    drop_one = all(any(row in ((), (j,)) for row in rows) for j in points)
    chosen = [
        next((i for i, row in enumerate(rows) if row == (j,)), None) for j in points
    ]
    assignment = None if None in chosen else ExclusionAssignment.build(H, X, chosen)
    return covering, drop_one, assignment


def covering_holds(H: NormalSet, X: PointSet) -> bool:
    """True iff every normal sees some point nonnegatively, i.e. the origin
    lies in the restricted hull of X.  An empty X covers nothing."""
    return point_set_verdicts(H, X)[0]


def excluding_holds(H: NormalSet, X: PointSet) -> ExclusionAssignment | None:
    """Assign to each point a normal that sees it nonnegatively and every
    other point strictly negatively; None when no such normal exists for some
    point.  Per point, the least qualifying normal index is chosen."""
    return point_set_verdicts(H, X)[2]


def minimal_h_witness(H: NormalSet, X: PointSet, p: Vector) -> PointSet:
    """Minimum-cardinality subset of X whose restricted hull still contains p.

    Exhaustive search by increasing size, lexicographic index order inside a
    size, so the result is canonical.  One level matrix serves every subset.
    """
    contains = _subset_test(H, X, p)
    if not contains(range(len(X))):
        raise PreconditionError("query point is not in the hull of X")
    return X.minimal_subset(contains)
