"""The three combinatorial invariants of a finite normal set.

* Helly number: largest subset forming the vertex set of a simplex whose
  relative interior contains the origin (equivalently, a minimal positively
  dependent subset): the largest circuit of the conic-dependence table
  ``linear.conic_dependences``.
* Cone number: largest subset in conical position whose positive hull avoids
  every remaining normal.
* Caratheodory number: the maximum of the two.

A relaxed cone number (conical position only, no emptiness requirement) is
reported alongside.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalConsistencyError
from .hconvex import NormalSet
from .linear import (
    Vector, conic_dependences, exact, exact_vectors, is_zero_vector, rank, vsub,
)
from .lp import EQ, GE, feasible_point

__all__ = [
    "InvariantReport",
    "positive_hull_contains",
    "is_simplex_with_origin",
    "is_conical_position",
    "helly_number",
    "cone_number",
    "relaxed_cone_number",
    "caratheodory_number",
]


@dataclass(frozen=True)
class InvariantReport:
    helly: int
    cone: int
    caratheodory: int
    relaxed_cone: int
    helly_witness: tuple[int, ...]
    cone_witness: tuple[int, ...]
    one_sided: bool

    def __post_init__(self):
        if self.caratheodory != max(self.helly, self.cone):
            raise InternalConsistencyError(
                "caratheodory must be the max of helly and cone"
            )
        if self.relaxed_cone < self.cone:
            raise InternalConsistencyError("relaxed cone number below cone number")
        if len(self.helly_witness) != self.helly:
            raise InternalConsistencyError("helly witness has the wrong size")
        if len(self.cone_witness) != self.cone:
            raise InternalConsistencyError("cone witness has the wrong size")

    def to_json(self) -> dict:
        return {
            "helly": self.helly,
            "cone": self.cone,
            "caratheodory": self.caratheodory,
            "relaxed_cone": self.relaxed_cone,
            "helly_witness": list(self.helly_witness),
            "cone_witness": list(self.cone_witness),
            "one_sided": self.one_sided,
        }


def positive_hull_contains(S, a: Vector) -> bool:
    """True iff a is a nonnegative combination of S.  pos({}) = {0}."""
    S = exact_vectors(S, "positive_hull_contains")
    a = tuple(exact(c) for c in a)
    if not S:
        return is_zero_vector(a)
    dim = len(S[0])
    if len(a) != dim:
        raise InputError("target vector has the wrong dimension")
    rows = [
        (tuple(s[d] for s in S), EQ, a[d])
        for d in range(dim)
    ]
    return feasible_point(rows, len(S), nonneg=True) is not None


def is_simplex_with_origin(S) -> bool:
    """True iff S is minimally positively dependent: some strictly positive
    combination of all of S vanishes, and no proper subset has a nonzero
    nonnegative vanishing combination.  ``[0]`` qualifies; any other S that
    holds the zero vector does not.

    Decided without an LP: S qualifies exactly when all of S is the last
    circuit of its conic-dependence table.  A circuit has at most dim + 1
    members, so a larger S fails without building a table.

    A passing S is cross-checked to be affinely independent, which makes it
    the vertex set of a simplex with the origin in its relative interior.
    """
    S = exact_vectors(S, "is_simplex_with_origin")
    if not S:
        raise InputError("is_simplex_with_origin needs at least one vector")
    if any(is_zero_vector(s) for s in S):
        return len(S) == 1
    if len(S) > len(S[0]) + 1:
        return False
    circuits, _ = conic_dependences(S)
    if not circuits or circuits[-1][0] != tuple(range(len(S))):
        return False
    diffs = [vsub(s, S[0]) for s in S[1:]]
    if rank(diffs) != len(S) - 1:
        raise InternalConsistencyError(
            "minimal positive dependence without affine independence"
        )
    return True


def _strictly_separable(S) -> bool:
    """True iff some direction n has <n, s> >= 1 for every s in S (the
    homogeneous rescaling of strict set-level separation from 0)."""
    dim = len(S[0])
    rows = [(s, GE, Fraction(1)) for s in S]
    return feasible_point(rows, dim, nonneg=False) is not None


def is_conical_position(S) -> bool:
    """Strict set-level separation from the origin plus no member lying in the
    positive hull of the rest.

    A linearly independent S passes without an LP (Gordan; Davis 1954): the
    system <n, s> = 1 for every s in S has a solution n, which separates S
    strictly from the origin, and no member lies even in the span of the
    others.  Only a dependent S, which includes every S with more than dim
    members, solves the separability LP and one hull LP per member.
    """
    S = exact_vectors(S, "is_conical_position")
    if not S:
        raise InputError("is_conical_position needs at least one vector")
    for s in S:
        if is_zero_vector(s):
            raise InputError("the zero vector cannot be in conical position")
    if len(S) <= len(S[0]) and rank(S) == len(S):
        return True
    if not _strictly_separable(S):
        return False
    for j in range(len(S)):
        if positive_hull_contains(S[:j] + S[j + 1:], S[j]):
            return False
    return True


def helly_number(H: NormalSet) -> tuple[int, tuple[int, ...]]:
    """Largest minimal positively dependent subset, with its index witness:
    the first circuit of the largest size in H's conic-dependence table, in
    its (size, lexicographic) order.  Returns (0, ()) for a one-sided H.
    The table a ``Polytope`` attached to its normal set is read, not rebuilt.
    """
    circuits, _ = H.conic_dependences or conic_dependences(H.normals)
    if not circuits:
        return (0, ())
    k = len(circuits[-1][0])
    return (k, next(S for S, _ in circuits if len(S) == k))


def _conical_levels(H: NormalSet) -> list[list[tuple[int, ...]]]:
    """All conical-position index subsets, grouped by size.

    Conical position is hereditary, so the family is built level-wise and a
    candidate is tested only when all its facets passed the previous level.
    """
    n = len(H.normals)
    vectors = H.normals
    levels = []
    current = [(i,) for i in range(n)]
    while current:
        levels.append(current)
        prev = set(current)
        nxt = []
        for S in current:
            for j in range(S[-1] + 1, n):
                cand = S + (j,)
                if all(
                    cand[:i] + cand[i + 1:] in prev for i in range(len(cand) - 1)
                ):
                    if is_conical_position([vectors[i] for i in cand]):
                        nxt.append(cand)
        current = nxt
    return levels


def _hull_avoids_rest(H: NormalSet, idx) -> bool:
    chosen = [H.normals[i] for i in idx]
    members = set(idx)
    return not any(
        positive_hull_contains(chosen, H.normals[i])
        for i in range(len(H.normals))
        if i not in members
    )


def _cone_from_levels(H: NormalSet, levels) -> tuple[int, tuple[int, ...]]:
    """Largest subset in ``levels`` (as built by :func:`_conical_levels`)
    whose positive hull contains no other normal; ties go to level order."""
    for level in reversed(levels):
        for idx in level:
            if _hull_avoids_rest(H, idx):
                return (len(idx), idx)
    raise InternalConsistencyError("singletons always qualify")


def cone_number(H: NormalSet) -> tuple[int, tuple[int, ...]]:
    """Largest conical-position subset whose positive hull contains no other
    normal, with its index witness."""
    if not H.normals:
        raise InputError("cone number of an empty normal set is undefined")
    return _cone_from_levels(H, _conical_levels(H))


def relaxed_cone_number(H: NormalSet) -> int:
    """Largest conical-position subset, the emptiness condition dropped."""
    if not H.normals:
        raise InputError("relaxed cone number of an empty normal set is undefined")
    return len(_conical_levels(H))


def caratheodory_number(H: NormalSet) -> InvariantReport:
    """Full invariant report; the Caratheodory number is the exact maximum of
    the Helly and cone numbers."""
    if not H.normals:
        raise InputError("caratheodory number of an empty normal set is undefined")
    helly, helly_witness = helly_number(H)
    levels = _conical_levels(H)
    cone, cone_witness = _cone_from_levels(H, levels)
    return InvariantReport(
        helly=helly,
        cone=cone,
        caratheodory=max(helly, cone),
        relaxed_cone=len(levels),
        helly_witness=helly_witness,
        cone_witness=cone_witness,
        one_sided=helly == 0,
    )
