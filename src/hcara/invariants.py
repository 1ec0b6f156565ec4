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

The cone search takes one of two paths, chosen by whether the normal set
carries a table.  The normal set of a ``Polytope`` does, and the search reads
conical position and hull avoidance off it by bitmask, with no LP.  A set
built directly carries none: each candidate decides conical position off its
own table (``is_conical_position``, no LP) and keeps the LP definition of
hull avoidance, ``positive_hull_contains``.  The benchmark's ``normal-sets``
workload keeps every set it draws, so a faster cone search there only grows
its peak memory; once it stops keeping them, every set can build its table
and the last LP in the search can go.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalConsistencyError
from .hconvex import NormalSet
from .linear import (
    Vector, conic_dependences, exact, exact_vectors, is_zero_vector, rank, vsub,
    whole_circuit,
)
from .lp import EQ, feasible_point

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

    Decided without an LP by ``linear.whole_circuit``: S qualifies exactly
    when all of S is the last circuit of its conic-dependence table.

    A passing S is cross-checked to be affinely independent, which makes it
    the vertex set of a simplex with the origin in its relative interior.
    """
    S = exact_vectors(S, "is_simplex_with_origin")
    if not S:
        raise InputError("is_simplex_with_origin needs at least one vector")
    if any(is_zero_vector(s) for s in S):
        return len(S) == 1
    if whole_circuit(S) is None:
        return False
    diffs = [vsub(s, S[0]) for s in S[1:]]
    if rank(diffs) != len(S) - 1:
        raise InternalConsistencyError(
            "minimal positive dependence without affine independence"
        )
    return True


def is_conical_position(S) -> bool:
    """Strict set-level separation from the origin plus no member lying in the
    positive hull of the rest.

    Read off S's own conic-dependence table, with no LP: S contains a
    positively dependent subset exactly when it contains a circuit, so by
    Gordan S is strictly separable from the origin exactly when its table
    has no circuit; and by conic Caratheodory s_j lies in the positive hull
    of the rest exactly when s_j has a representation besides the trivial
    one.
    """
    S = exact_vectors(S, "is_conical_position")
    if not S:
        raise InputError("is_conical_position needs at least one vector")
    for s in S:
        if is_zero_vector(s):
            raise InputError("the zero vector cannot be in conical position")
    circuits, reps = conic_dependences(S)
    return not circuits and all(len(entries) == 1 for entries in reps)


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


def _subset_tests(H: NormalSet):
    """``(conical, avoids_rest)``: whether the normals at an index subset
    are in conical position, and whether their positive hull holds no other
    normal of H.

    With a table attached (``H.conic_dependences``, as on the normal set of
    a ``Polytope``) both are read off it by bitmask, with no LP.  S contains
    a positively dependent subset exactly when it contains a circuit, so by
    Gordan S is strictly separable from the origin exactly when it contains
    none; and by conic Caratheodory a_i lies in pos(T) exactly when a_i has
    a representation with B inside T.  So S is in conical position exactly
    when it contains no circuit and no i in S has a nontrivial
    representation inside S, and pos(S) holds a_i, i not in S, exactly when
    a_i has a representation inside S.  A set built directly applies the
    same conical-position rule to each candidate's own table
    (``is_conical_position``) and keeps the LP definition of hull
    avoidance, ``positive_hull_contains``.
    """
    normals = H.normals
    if H.conic_dependences is None:
        def conical(idx):
            return is_conical_position([normals[i] for i in idx])

        def avoids_rest(idx):
            chosen = [normals[i] for i in idx]
            return not any(
                positive_hull_contains(chosen, normals[i])
                for i in range(len(normals)) if i not in idx
            )

        return conical, avoids_rest

    def mask(indices):
        return sum(1 << j for j in indices)

    circuits, reps = H.conic_dependences
    circuit_masks = [mask(S) for S, _ in circuits]
    rep_masks = [[mask(B) for B, _, _ in entries[1:]] for entries in reps]

    def conical(idx):
        s = mask(idx)
        return not any(c & s == c for c in circuit_masks) and not any(
            r & s == r for i in idx for r in rep_masks[i]
        )

    def avoids_rest(idx):
        s = mask(idx)
        return not any(
            r & s == r
            for i, masks in enumerate(rep_masks) if not s >> i & 1
            for r in masks
        )

    return conical, avoids_rest


def _conical_levels(H: NormalSet, conical) -> list[list[tuple[int, ...]]]:
    """All index subsets that ``conical`` accepts, grouped by size.

    Conical position is hereditary, so the family is built level-wise and a
    candidate is tested only when all its facets passed the previous level.
    """
    n = len(H.normals)
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
                    if conical(cand):
                        nxt.append(cand)
        current = nxt
    return levels


def _cone_from_levels(levels, avoids_rest) -> tuple[int, tuple[int, ...]]:
    """Largest subset in ``levels`` (as built by :func:`_conical_levels`)
    whose positive hull contains no other normal; ties go to level order."""
    for level in reversed(levels):
        for idx in level:
            if avoids_rest(idx):
                return (len(idx), idx)
    raise InternalConsistencyError("singletons always qualify")


def cone_number(H: NormalSet) -> tuple[int, tuple[int, ...]]:
    """Largest conical-position subset whose positive hull contains no other
    normal, with its index witness."""
    if not H.normals:
        raise InputError("cone number of an empty normal set is undefined")
    conical, avoids_rest = _subset_tests(H)
    return _cone_from_levels(_conical_levels(H, conical), avoids_rest)


def relaxed_cone_number(H: NormalSet) -> int:
    """Largest conical-position subset, the emptiness condition dropped."""
    if not H.normals:
        raise InputError("relaxed cone number of an empty normal set is undefined")
    conical, _ = _subset_tests(H)
    return len(_conical_levels(H, conical))


def caratheodory_number(H: NormalSet) -> InvariantReport:
    """Full invariant report; the Caratheodory number is the exact maximum of
    the Helly and cone numbers."""
    if not H.normals:
        raise InputError("caratheodory number of an empty normal set is undefined")
    helly, helly_witness = helly_number(H)
    conical, avoids_rest = _subset_tests(H)
    levels = _conical_levels(H, conical)
    cone, cone_witness = _cone_from_levels(levels, avoids_rest)
    return InvariantReport(
        helly=helly,
        cone=cone,
        caratheodory=max(helly, cone),
        relaxed_cone=len(levels),
        helly_witness=helly_witness,
        cone_witness=cone_witness,
        one_sided=helly == 0,
    )
