"""Named polytopes and normal sets with exact rational data.

These are the standing corpus for tests and experiments: cubes, standard
simplices, pyramids over a square / pentagon / hexagon base, simplices bounded
by an extra opposite facet, and cross-polytopes.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .hconvex import NormalSet
from .strong import Polytope

F = Fraction


def _e(dim, j, sign=1):
    v = [F(0)] * dim
    v[j] = F(sign)
    return tuple(v)


def cube_normals(n: int) -> NormalSet:
    """Outer normals of [0, 1]^n, ordered e1, -e1, e2, -e2, ..."""
    return cube_polytope(n).normal_set()


@cache
def cube_polytope(n: int) -> Polytope:
    """[0, 1]^n, built once per n: a Polytope is frozen, so sharing it is safe."""
    normals, offsets = [], []
    for j in range(n):
        normals.append(_e(n, j, 1))
        offsets.append(F(1))
        normals.append(_e(n, j, -1))
        offsets.append(F(0))
    return Polytope(n, tuple(normals), tuple(offsets))


def simplex_normals(n: int) -> NormalSet:
    """Outer normals of the standard simplex {x >= 0, sum x <= 1}: -e1, ...,
    -en, then (1, ..., 1)."""
    return simplex_polytope(n).normal_set()


def simplex_polytope(n: int) -> Polytope:
    """{x >= 0, sum x <= 2}: the standard simplex scaled by 2."""
    normals = [_e(n, j, -1) for j in range(n)]
    offsets = [F(0)] * n
    normals.append((F(1),) * n)
    offsets.append(F(2))
    return Polytope(n, tuple(normals), tuple(offsets))


_PYRAMID_ROWS = {
    # Apex (0, 0, 1) over the square base [-1, 1]^2 at height 0.
    4: (
        ((F(1), F(0), F(1)), F(1)),
        ((F(-1), F(0), F(1)), F(1)),
        ((F(0), F(1), F(1)), F(1)),
        ((F(0), F(-1), F(1)), F(1)),
        ((F(0), F(0), F(-1)), F(0)),
    ),
    # Apex (1, 1, 1) over a pentagon base: the square [0, 2]^2 with the
    # corner at (2, 2) cut off by x + y <= 3.
    5: (
        ((F(0), F(-1), F(1)), F(0)),
        ((F(1), F(0), F(1)), F(2)),
        ((F(1), F(1), F(1)), F(3)),
        ((F(0), F(1), F(1)), F(2)),
        ((F(-1), F(0), F(1)), F(0)),
        ((F(0), F(0), F(-1)), F(0)),
    ),
    # Apex (3/2, 3/2, 1) over a hexagon base: the square [0, 3]^2 with two
    # opposite corners cut off.
    6: (
        ((F(0), F(-2), F(3)), F(0)),
        ((F(2), F(0), F(3)), F(6)),
        ((F(1), F(1), F(2)), F(5)),
        ((F(0), F(2), F(3)), F(6)),
        ((F(-2), F(0), F(3)), F(0)),
        ((F(-1), F(-1), F(2)), F(-1)),
        ((F(0), F(0), F(-1)), F(0)),
    ),
}


def pyramid_normals(m: int) -> NormalSet:
    """Normals of a pyramid in R^3 over an m-gon base (m in {4, 5, 6});
    the m slanted facets come first, the base normal last."""
    return pyramid_polytope(m).normal_set()


def pyramid_polytope(m: int) -> Polytope:
    """The pyramid itself, scaled up by 4 so it has a roomy interior."""
    if m not in _PYRAMID_ROWS:
        raise ValueError(f"no pyramid with base size {m}")
    normals = tuple(a for a, _ in _PYRAMID_ROWS[m])
    offsets = tuple(b * 4 for _, b in _PYRAMID_ROWS[m])
    return Polytope(3, normals, offsets)


def simplex_with_extra_facet_normals(n: int) -> NormalSet:
    """Standard simplex normals plus the opposite of its slanted facet."""
    return simplex_with_extra_facet_polytope(n).normal_set()


def simplex_with_extra_facet_polytope(n: int) -> Polytope:
    """{x >= 0, 1 <= sum x <= 4}: a simplex truncated by one extra facet."""
    normals = [_e(n, j, -1) for j in range(n)]
    offsets = [F(0)] * n
    normals.append((F(1),) * n)
    offsets.append(F(4))
    normals.append((F(-1),) * n)
    offsets.append(F(-1))
    return Polytope(n, tuple(normals), tuple(offsets))


def triangle_normals() -> NormalSet:
    return triangle_polytope().normal_set()


def triangle_polytope() -> Polytope:
    """{x >= 0, y >= 0, x + y <= 2}."""
    return Polytope(
        2,
        ((F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))),
        (F(0), F(0), F(2)),
    )


def cross_polytope_normals(n: int) -> NormalSet:
    """Normals of {x : sum |x_i| <= 1}: all sign vectors."""
    normals = []
    for mask in range(2 ** n):
        normals.append(tuple(F(1) if mask & (1 << j) else F(-1) for j in range(n)))
    return NormalSet(n, tuple(normals))


def cross_polytope(n: int) -> Polytope:
    H = cross_polytope_normals(n)
    return Polytope(n, H.normals, (F(1),) * len(H.normals))
