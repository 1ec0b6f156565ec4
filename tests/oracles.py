"""Brute-force oracles: no size caps, no hereditary pruning, no early exits.

Everything enumerates all 2^|H| subsets directly so the pruned searches in the
package have an independent path to agree with.
"""
from fractions import Fraction
from itertools import combinations

from hcara.invariants import (
    is_conical_position,
    is_simplex_with_origin,
    positive_hull_contains,
)
from hcara.lp import EQ, feasible_point


def all_subsets(n):
    for k in range(1, n + 1):
        yield from combinations(range(n), k)


def brute_helly(H):
    best = (0, ())
    for idx in all_subsets(len(H.normals)):
        if is_simplex_with_origin([H.normals[i] for i in idx]):
            if len(idx) > best[0]:
                best = (len(idx), idx)
    return best


def brute_cone(H):
    best = (0, ())
    for idx in all_subsets(len(H.normals)):
        vectors = [H.normals[i] for i in idx]
        if not is_conical_position(vectors):
            continue
        chosen = set(idx)
        if any(
            positive_hull_contains(vectors, H.normals[i])
            for i in range(len(H.normals))
            if i not in chosen
        ):
            continue
        if len(idx) > best[0]:
            best = (len(idx), idx)
    return best


def brute_relaxed_cone(H):
    best = 0
    for idx in all_subsets(len(H.normals)):
        if is_conical_position([H.normals[i] for i in idx]):
            best = max(best, len(idx))
    return best


def brute_simplex_with_origin(S):
    """Minimal positive dependence by LP, straight from the definition: a
    vanishing combination of all of S with every coefficient >= 1 (lambda =
    1 + mu, mu >= 0), and no drop-one subset with the origin in its convex
    hull."""
    S = [tuple(Fraction(c) for c in s) for s in S]
    dim = len(S[0])

    def columns(sub):
        return [tuple(s[d] for s in sub) for d in range(dim)]

    rows = [(col, EQ, -sum(col)) for col in columns(S)]
    if feasible_point(rows, len(S), nonneg=True) is None:
        return False
    for j in range(len(S)):
        sub = S[:j] + S[j + 1:]
        if not sub:
            continue
        rows = [(col, EQ, 0) for col in columns(sub)]
        rows.append(((1,) * len(sub), EQ, 1))
        if feasible_point(rows, len(sub), nonneg=True) is not None:
            return False
    return True


def brute_spans_positively(normals, dim):
    """Positive spanning straight from the definition: both directions of
    every coordinate axis lie in the positive hull of the normals."""
    for j in range(dim):
        for sign in (1, -1):
            axis = tuple(Fraction(sign if i == j else 0) for i in range(dim))
            if not positive_hull_contains(normals, axis):
                return False
    return True
