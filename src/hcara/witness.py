"""Extremal point sets certifying the lower bounds of the two invariants.

Both constructions produce a point set X whose restricted hull contains the
origin while every drop-one subset's hull does not, which certifies that no
smaller witness can work, i.e. the Caratheodory number is at least |X|.
One evaluation, ``hconvex.point_set_verdicts``, judges a point set: its
covering, drop-one and exclusion verdicts all come from a single sign matrix
of <a, x> over the normals and the points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    InputError,
    InternalConsistencyError,
    NotMaximalWitnessError,
    PreconditionError,
)
from .hconvex import ExclusionAssignment, NormalSet, PointSet, point_set_verdicts
from .linear import clear_denominators, echelon, whole_circuit
from .lp import EQ, LE, feasible_point

__all__ = [
    "HELLY",
    "CONE",
    "UNSPECIFIED",
    "WitnessReport",
    "helly_witness_points",
    "cone_witness_points",
    "validate_witness",
]

HELLY = "HELLY"
CONE = "CONE"
UNSPECIFIED = "UNSPECIFIED"


@dataclass(frozen=True)
class WitnessReport:
    kind: str
    normals_used: tuple[int, ...]
    points: PointSet
    covering_ok: bool
    drop_one_ok: bool
    assignment: ExclusionAssignment | None

    @property
    def valid(self) -> bool:
        return self.covering_ok and self.drop_one_ok

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "normals_used": list(self.normals_used),
            "points": self.points.to_json(),
            "covering_ok": self.covering_ok,
            "drop_one_ok": self.drop_one_ok,
            "assignment": None if self.assignment is None else self.assignment.to_json(),
        }


def _report(H: NormalSet, X: PointSet, kind, normals_used) -> WitnessReport:
    covering, drop_one, assignment = point_set_verdicts(H, X)
    return WitnessReport(kind, normals_used, X, covering, drop_one, assignment)


def helly_witness_points(H: NormalSet, B) -> WitnessReport:
    """Witness points for a maximal simplex-with-origin subset B.

    B qualifies when it is a circuit of the conic-dependence table: the one
    a ``Polytope`` attached to H, read and not rebuilt, or else the table of
    B's own normals, of which all of B must be the last circuit.  They are
    rescaled by that circuit's mu so they sum to zero; each point x_i is the
    unique vector in the span of B with <a_j, x_i> = -1 for all j != i, which
    forces <a_i, x_i> = |B| - 1 and sum x_i = 0.

    All k points come from one fraction-free elimination: any k - 1 of the
    scaled b_j are a basis of the span, so with y_j the dual basis of
    b_0, ..., b_{k-2} (the Gram matrix's inverse applied to them),
    x_i = k y_i - sum y for i < k - 1 and x_{k-1} = -sum y.
    """
    idx = H.checked_indices(B)
    S = [H.normals[i] for i in idx]
    k = len(S)
    if k < 2:
        raise InputError("a simplex-with-origin witness needs at least 2 normals")
    lam = None
    if H.conic_dependences is not None:
        key = tuple(sorted(idx))
        mu = dict(H.conic_dependences[0]).get(key)
        if mu is not None:
            lam = [mu[key.index(i)] for i in idx]
    else:
        lam = whole_circuit(S)
    if lam is None:
        raise InputError("B is not minimally positively dependent")
    # b_r = lam_r a_r = W_r / q_r in ints; one elimination ends row r of
    # [W W^T | I] as p_r [e_r | row r of G^-1], G = W W^T, so
    # y_r = q_r (G^-1 W)_r, over D.
    W, q = zip(*(
        ([c * x for x in ints], s)
        for c, (ints, s) in zip(lam, map(clear_denominators, S))
    ))
    basis = W[:-1]
    m = [
        [sum(map(mul, u, v)) for v in basis] + [int(r == c) for c in range(k - 1)]
        for r, u in enumerate(basis)
    ]
    if len(echelon(m, k - 1)) < k - 1:
        raise InternalConsistencyError("witness system must be consistent")
    D = lcm(*(m[r][r] for r in range(k - 1)))
    Y = [[q[r] * (D // m[r][r]) * sum(g * w[t] for g, w in zip(m[r][k - 1:], basis))
          for t in range(H.dim)] for r in range(k - 1)]
    neg_sum = [-sum(col) for col in zip(*Y)]
    X = [[v + k * y for v, y in zip(neg_sum, Y[i])] for i in range(k - 1)] + [neg_sum]
    # the checks in ints over D: <b_i, x_i> = k - 1 and sum x_i = 0
    for w, s, x in zip(W, q, X):
        if sum(map(mul, w, x)) != (k - 1) * s * D:
            raise InternalConsistencyError("self inner product must be k - 1")
    if any(map(sum, zip(*X))):
        raise InternalConsistencyError("witness points must sum to zero")
    points = tuple(tuple(Fraction(v, D) for v in x) for x in X)
    report = _report(H, PointSet(H.dim, points), HELLY, idx)
    if not report.valid:
        raise InternalConsistencyError("constructed witness failed validation")
    return report


def cone_witness_points(H: NormalSet, B) -> WitnessReport:
    """Witness points for a cone-number witness B.

    Each x_i solves <a_i, x_i> = 0 with <a_j, x_i> <= -1 for the other members
    of B (strictness via rescaling; the feasible set is a cone).  These LPs
    are feasible precisely when B is in conical position.  The covering check
    over all of H is what certifies that B realizes the cone number; a
    covering failure is reported as a not-maximal-witness error.
    """
    idx = H.checked_indices(B)
    if not idx:
        raise InputError("a cone witness needs at least one normal")
    S = [H.normals[i] for i in idx]
    k = len(S)
    points = []
    for i in range(k):
        rows = [(S[i], EQ, Fraction(0))]
        rows.extend((S[j], LE, Fraction(-1)) for j in range(k) if j != i)
        x = feasible_point(rows, H.dim, nonneg=False)
        if x is None:
            raise PreconditionError("B is not in conical position")
        points.append(x)
    report = _report(H, PointSet(H.dim, tuple(points)), CONE, idx)
    if not report.covering_ok:
        raise NotMaximalWitnessError(
            "constructed points do not cover every normal; "
            "B does not realize the cone number"
        )
    if not report.drop_one_ok:
        raise InternalConsistencyError("cone witness must be drop-one minimal")
    return report


def validate_witness(H: NormalSet, X: PointSet, kind: str = UNSPECIFIED) -> WitnessReport:
    """Evaluate the covering and drop-one properties of an arbitrary point set
    and extract the exclusion assignment when one exists."""
    if kind not in (HELLY, CONE, UNSPECIFIED):
        raise InputError(f"unknown witness kind {kind!r}")
    return _report(H, X, kind, ())
