import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest
from oracles import per_point_helly_witness

import hcara.hconvex
from hcara.errors import InputError, NotMaximalWitnessError
from hcara.hconvex import NormalSet, PointSet, covering_holds, minimal_h_witness
from hcara.invariants import caratheodory_number
from hcara.jsonio import dump_canonical
from hcara.linear import conic_dependences, dot, levels
from hcara.shapes import cube_normals, pyramid_normals, triangle_normals
from hcara.witness import (
    CONE,
    HELLY,
    cone_witness_points,
    helly_witness_points,
    validate_witness,
)

BOX = cube_normals(2)
ORIGIN2 = (F(0), F(0))


class TestHellyWitness:
    def test_opposite_pair(self):
        H = NormalSet(2, ((F(1), F(0)), (F(-1), F(0))))
        rep = helly_witness_points(H, (0, 1))
        assert rep.kind == HELLY
        assert rep.points.points == ((F(1), F(0)), (F(-1), F(0)))
        assert rep.covering_ok and rep.drop_one_ok

    def test_triangle_construction_identities(self):
        H = triangle_normals()
        rep = helly_witness_points(H, (0, 1, 2))
        X = rep.points.points
        assert set(X) == {(F(-2), F(1)), (F(1), F(-2)), (F(1), F(1))}
        k = 3
        for i, a in enumerate(H.normals):
            for j, x in enumerate(X):
                assert dot(a, x) == (k - 1 if i == j else -1)
        total = tuple(sum(c) for c in zip(*X))
        assert total == ORIGIN2

    def test_rescaling_handles_unbalanced_circuits(self):
        # (2,0) + 2*(-1,1) + 2*(0,-1) = 0: dependence coefficients not all equal
        H = NormalSet(2, ((F(2), F(0)), (F(-1), F(1)), (F(0), F(-1))))
        rep = helly_witness_points(H, (0, 1, 2))
        assert rep.covering_ok and rep.drop_one_ok
        assert len(rep.points) == 3

    def test_not_a_circuit_rejected(self):
        with pytest.raises(InputError):
            helly_witness_points(BOX, (0, 2))  # e1, e2: independent

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            helly_witness_points(BOX, (0,))

    def test_more_than_dim_plus_one_rejected(self):
        with pytest.raises(InputError, match="not minimally positively dependent"):
            helly_witness_points(BOX, (0, 1, 2, 3))

    def test_reads_the_polytope_table(self, monkeypatch):
        """On a polytope's normal set every circuit of the attached table, in
        either order, gives the report the set's own subset table gives, and
        every other B of 2 to dim + 2 normals is rejected as before, with no
        table built."""
        import hcara.witness
        from conftest import named_polytopes

        cases = []
        for name, K, _ in named_polytopes():
            direct = NormalSet(K.dim, K.normals)
            circuits = {S for S, _ in K.conic_dependences[0]}
            for k in range(2, K.dim + 3):
                for B in combinations(range(len(K.normals)), k):
                    for idx in (B, B[::-1]):
                        if B in circuits:
                            expected = helly_witness_points(direct, idx)
                        else:
                            with pytest.raises(InputError) as info:
                                helly_witness_points(direct, idx)
                            expected = str(info.value)
                        cases.append((name, K, idx, expected))
        assert sum(not isinstance(e, str) for *_, e in cases) > len(named_polytopes())

        def no_table(*args, **kwargs):
            raise AssertionError("the polytope's table was built again")

        monkeypatch.setattr(hcara.witness, "conic_dependences", no_table)
        for name, K, idx, expected in cases:
            H = K.normal_set()
            if isinstance(expected, str):
                with pytest.raises(InputError) as info:
                    helly_witness_points(H, idx)
                assert str(info.value) == expected, (name, idx)
            else:
                assert helly_witness_points(H, idx) == expected, (name, idx)

    def test_equals_per_point_solves(self):
        """Every circuit of the named polytopes and of seeded random tables
        in dims 2 to 4, in either order, gives the points of one linear
        solve per point."""
        from conftest import named_polytopes, random_normal_sets

        sets = [K.normal_set() for _, K, _ in named_polytopes()]
        sets += random_normal_sets(60, seed=24, max_size=7, max_dim=4)
        checked = 0
        for H in sets:
            circuits = H.conic_dependences or conic_dependences(H.normals)
            for S, _ in circuits[0]:
                for idx in (S, S[::-1]):
                    expected = per_point_helly_witness(H.normals, idx)
                    assert helly_witness_points(H, idx).points.points == expected
                    checked += 1
        assert checked > 200

    def test_errors_on_the_table_path(self):
        H = triangle_normals()
        assert H.conic_dependences is not None
        with pytest.raises(InputError, match="at least 2 normals"):
            helly_witness_points(H, (0,))
        with pytest.raises(InputError, match="distinct"):
            helly_witness_points(H, (0, 0))
        with pytest.raises(InputError, match="not minimally positively dependent"):
            helly_witness_points(H, (0, 1))

    @pytest.mark.parametrize("B", [None, 3, [False, True], [0, 1.0]])
    def test_non_index_sequences_rejected(self, B):
        with pytest.raises(InputError):
            helly_witness_points(BOX, B)
        with pytest.raises(InputError):
            cone_witness_points(BOX, B)


class TestConeWitness:
    def test_box_pair(self):
        rep = cone_witness_points(BOX, (0, 2))
        assert rep.kind == CONE
        assert rep.covering_ok and rep.drop_one_ok
        a_first, a_second = BOX.normals[0], BOX.normals[2]
        x_first, x_second = rep.points.points
        assert dot(a_first, x_first) == 0 and dot(a_first, x_second) <= -1
        assert dot(a_second, x_second) == 0 and dot(a_second, x_first) <= -1

    def test_square_pyramid_covers_base_normal(self):
        H = pyramid_normals(4)
        rep = cone_witness_points(H, (0, 1, 2, 3))
        assert rep.covering_ok and rep.drop_one_ok
        assert len(rep.points) == 4

    def test_single_normal(self):
        H = NormalSet(2, ((F(1), F(0)),))
        rep = cone_witness_points(H, (0,))
        assert len(rep.points) == 1
        assert dot(H.normals[0], rep.points.points[0]) == 0

    def test_not_conical_rejected(self):
        # e1 and -e1 cannot be strictly separated from the origin together
        with pytest.raises(Exception) as exc_info:
            cone_witness_points(BOX, (0, 1))
        assert not isinstance(exc_info.value, NotMaximalWitnessError)

    def test_non_maximal_covering_failure(self):
        # (2,1) = (1,0) + (1,1) lies in the positive hull of B, so every
        # constructed point sees it strictly negatively and covering fails
        H = NormalSet(2, ((F(1), F(0)), (F(1), F(1)), (F(2), F(1))))
        with pytest.raises(NotMaximalWitnessError):
            cone_witness_points(H, (0, 1))

    def test_degenerate_small_witness_still_validates(self):
        # a non-maximal B may still luckily produce a valid (weaker) witness;
        # it certifies only |B|, which is allowed
        rep = cone_witness_points(BOX, (0,))
        assert rep.covering_ok and rep.drop_one_ok and len(rep.points) == 1

    def test_deterministic(self):
        a = cone_witness_points(BOX, (0, 2))
        b = cone_witness_points(BOX, (0, 2))
        assert a == b


class TestValidate:
    def test_valid_pair(self):
        rep = validate_witness(BOX, PointSet(2, ((F(0), F(-1)), (F(-1), F(0)))))
        assert rep.covering_ok and rep.drop_one_ok and rep.assignment is not None

    def test_redundant_extra_point(self):
        rep = validate_witness(
            BOX, PointSet(2, ((F(0), F(-1)), (F(-1), F(0)), (F(1), F(1))))
        )
        assert rep.covering_ok and not rep.drop_one_ok

    def test_covering_failure(self):
        H = NormalSet(2, ((F(1), F(0)),))
        rep = validate_witness(H, PointSet(2, ((F(-1), F(0)),)))
        assert not rep.covering_ok
        # dropping the only point leaves nothing that covers, yet no normal
        # sees the point, so there is no assignment
        assert rep.drop_one_ok is True
        assert rep.assignment is None

    @pytest.mark.parametrize(
        "H,points",
        [
            (BOX, ((F(0), F(-1)), (F(-1), F(0)), (F(1), F(1)))),
            (
                pyramid_normals(4),
                cone_witness_points(pyramid_normals(4), (0, 1, 2, 3)).points.points,
            ),
        ],
        ids=["no-assignment", "assignment"],
    )
    def test_each_inner_product_once(self, monkeypatch, H, points):
        # one sign matrix: one level matrix of H against X, with no Fraction
        # inner product, plus the |X|^2 dots with which
        # ExclusionAssignment.build checks an assignment it is handed
        calls = []

        def counted(a, b):
            calls.append("dot")
            return dot(a, b)

        def counted_levels(vectors, points):
            calls.append(("levels", len(vectors), len(points)))
            return levels(vectors, points)

        monkeypatch.setattr(hcara.hconvex, "dot", counted)
        monkeypatch.setattr(hcara.hconvex, "levels", counted_levels)
        rep = validate_witness(H, PointSet(H.dim, points))
        n = len(points)
        assert calls[0] == ("levels", len(H), n)
        assert calls[1:] == ["dot"] * (n * n if rep.assignment is not None else 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            validate_witness(BOX, PointSet(2, (ORIGIN2,)), kind="OTHER")


class TestCrossModuleConsistency:
    @pytest.mark.parametrize(
        "H,B,builder",
        [
            (triangle_normals(), (0, 1, 2), helly_witness_points),
            (cube_normals(3), (0, 2, 4), cone_witness_points),
            (pyramid_normals(4), (0, 1, 2, 3), cone_witness_points),
        ],
    )
    def test_valid_witnesses_are_minimal(self, H, B, builder):
        rep = builder(H, B)
        assert minimal_h_witness(H, rep.points, (F(0),) * H.dim) == rep.points

    def test_dropping_any_point_breaks_covering(self):
        rep = cone_witness_points(cube_normals(3), (0, 2, 4))
        n = len(rep.points)
        for j in range(n):
            rest = rep.points.subset(k for k in range(n) if k != j)
            assert not covering_holds(cube_normals(3), rest)


def _bench_normal_set(rng):
    """A normal set drawn by the rule of the ``normal-sets`` benchmark
    workload: dim 3, 6 to 9 nonzero normals with coordinates p/q, |p| <= 3,
    q <= 3 (the target count is drawn afresh on every pass)."""
    normals = []
    while len(normals) < rng.randint(6, 9) or not normals:
        v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        if any(v):
            normals.append(v)
    return NormalSet(3, tuple(normals))


def test_seed42_normal_sets_digest():
    """Records 0..15 of the ``normal-sets`` benchmark workload at seed 42 hash,
    as the benchmark hashes them, to the digest stored beside the benchmark.
    The Helly witness points scale with the circuit's mu, so this pins mu."""
    stored = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text()
    )["normal-sets"]
    assert (stored["seed"], stored["ops"]) == (42, 16)
    sha = hashlib.sha256()
    for i in range(16):
        H = _bench_normal_set(random.Random(42 * 2**32 + i))
        report = caratheodory_number(H)
        if report.helly >= report.cone:
            built = helly_witness_points(H, report.helly_witness)
        else:
            built = cone_witness_points(H, report.cone_witness)
        record = {
            "normals": H.to_json(),
            "invariants": report.to_json(),
            "witness": built.to_json(),
            "validation": validate_witness(H, built.points, built.kind).to_json(),
        }
        sha.update(dump_canonical(record).encode())
    assert sha.hexdigest() == stored["sha256"]
