"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.  All numeric assertions are exact; the only tolerances are the wall
clock budgets stated inline.
"""
import time
from fractions import Fraction as F

import pytest

from conftest import named_normal_sets, named_polytopes, random_normal_sets
from oracles import brute_cone, brute_helly, brute_relaxed_cone

from hcara.experiment import (
    ExperimentConfig,
    check_guard_existence,
    check_lower_bound_scaling,
    check_upper_bounds,
    random_instance,
    recheck_instance,
    run_suite,
    _convex_combination,
    _cube_equality_record,
    _nearby_point,
    _trial_rng,
)
from hcara.invariants import caratheodory_number
from hcara.jsonio import dump_canonical
from hcara.shapes import (
    cube_normals,
    cube_polytope,
    pyramid_normals,
    pyramid_polytope,
    simplex_normals,
    simplex_polytope,
    simplex_with_extra_facet_normals,
)
from hcara.strong import h_subset_strong_check, minimal_strong_witness
from hcara.witness import cone_witness_points, helly_witness_points


def _timed(budget_s, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
    return result


def _announce(label):
    print(f"acceptance [{label}]: PASS")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cube_invariants(n):
    report = _timed(1.0, caratheodory_number, cube_normals(n))
    assert report.caratheodory == n
    assert report.helly == 2
    assert report.cone == n
    _announce(f"cube n={n}: caratheodory={n}, helly=2, cone={n}")


@pytest.mark.parametrize("n", [2, 3])
def test_simplex_invariants(n):
    report = _timed(1.0, caratheodory_number, simplex_normals(n))
    assert report.caratheodory == n + 1
    assert report.helly == n + 1
    assert report.cone == n
    _announce(f"simplex n={n}: caratheodory={n + 1} carried by helly")


def test_only_simplices_reach_facet_count():
    for name, K, is_simplex in named_polytopes():
        H = K.normal_set()
        report = caratheodory_number(H)
        if is_simplex:
            assert report.caratheodory == len(H), name
        else:
            assert report.caratheodory < len(H), name
    _announce("facet-count equality holds exactly for the simplices")


@pytest.mark.parametrize("m", [4, 5, 6])
def test_pyramid_caratheodory_carried_by_cone(m):
    H = pyramid_normals(m)
    report = _timed(5.0, caratheodory_number, H)
    assert report.caratheodory == m == len(H) - 1
    assert report.cone == m
    assert report.helly <= report.cone
    _announce(f"pyramid m={m}: caratheodory={m}=|H|-1 carried by cone")


_PENTAGON_HELLY_NOTE = (
    "every pentagon/hexagon base contains three positively dependent edge "
    "normals; together with the base normal they form a 4-vertex simplex "
    "with the origin in its relative interior, so the Helly number is 4"
)


@pytest.mark.parametrize(
    "m",
    [
        4,
        pytest.param(5, marks=pytest.mark.xfail(reason=_PENTAGON_HELLY_NOTE, strict=True)),
        pytest.param(6, marks=pytest.mark.xfail(reason=_PENTAGON_HELLY_NOTE, strict=True)),
    ],
)
def test_pyramid_helly_is_three(m):
    report = caratheodory_number(pyramid_normals(m))
    assert report.helly == 3
    _announce(f"pyramid m={m}: helly=3")


@pytest.mark.parametrize("m,expected", [(4, 3), (5, 4), (6, 4)])
def test_pyramid_actual_helly_value(m, expected):
    H = pyramid_normals(m)
    report = caratheodory_number(H)
    assert report.helly == expected
    assert brute_helly(H)[0] == expected
    _announce(f"pyramid m={m}: helly={expected} (enumeration-confirmed)")


@pytest.mark.parametrize("n", [2, 3])
def test_simplex_with_extra_facet(n):
    report = _timed(1.0, caratheodory_number, simplex_with_extra_facet_normals(n))
    assert report.caratheodory == n + 1
    assert report.helly == n + 1
    assert report.cone == n
    _announce(f"simplex plus facet n={n}: caratheodory={n + 1}")


def test_witness_attainment_across_corpus():
    failures = []
    for name, H in named_normal_sets():
        report = caratheodory_number(H)
        helly_rep = helly_witness_points(H, report.helly_witness)
        if not (helly_rep.valid and len(helly_rep.points) == report.helly):
            failures.append((name, "helly"))
        cone_rep = cone_witness_points(H, report.cone_witness)
        if not (cone_rep.valid and len(cone_rep.points) == report.cone):
            failures.append((name, "cone"))
    assert failures == []
    _announce("witness attainment: both constructions valid on every corpus set")


def test_pruned_searches_match_brute_force():
    sets = [
        (name, H) for name, H in named_normal_sets()
        if H.dim <= 3 and len(H) <= 8
    ]
    sets += [
        (f"random{i}", H)
        for i, H in enumerate(random_normal_sets(50 - len(sets), seed=90125))
    ]
    assert len(sets) >= 50
    start = time.perf_counter()
    for name, H in sets:
        report = caratheodory_number(H)
        assert report.helly == brute_helly(H)[0], name
        assert report.cone == brute_cone(H)[0], name
        assert report.relaxed_cone == brute_relaxed_cone(H), name
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"
    _announce(f"oracle equivalence on {len(sets)} sets in {elapsed:.1f}s")


def test_strong_convexity_properties_bulk():
    """500 seeded trials in dims 2 and 3: hull implication, facet upper bound,
    guard existence, cube equality.  Zero violations allowed."""
    start = time.perf_counter()
    violations = []
    for dim, trials, seed in ((2, 250, 1001), (3, 250, 1002)):
        config = ExperimentConfig(
            seed=seed, trials=trials, dim=dim, max_normals=dim + 3,
            max_points=4, coordinate_bound=4, scaling_depth=0,
        )
        for i in range(trials):
            K, X = random_instance(config, i)
            rng = _trial_rng(config, i, stream=1)
            p = _convex_combination(rng, X, config.coordinate_bound)
            q = _nearby_point(rng, X, config.coordinate_bound)
            invariants = caratheodory_number(K.normal_set())

            if not h_subset_strong_check(K, X, p) or not h_subset_strong_check(K, X, q):
                violations.append((dim, i, "hull-implication"))
            witness = minimal_strong_witness(K, X, p)
            upper = check_upper_bounds(K, witness, invariants=invariants)
            if not upper["facet_bound_ok"]:
                violations.append((dim, i, "facet-upper-bound"))
            guard = check_guard_existence(K, witness, p)
            if not guard["guard_ok"]:
                violations.append((dim, i, "guard"))
            cube = _cube_equality_record(rng, dim, config.coordinate_bound)
            if not cube["ok"]:
                violations.append((dim, i, "cube-equality"))
    elapsed = time.perf_counter() - start
    assert violations == []
    assert elapsed < 600, f"bulk property run took {elapsed:.1f}s"
    _announce(f"strong-convexity properties: 500 trials, 0 violations, {elapsed:.1f}s")


def test_scaling_certifies_lower_bound_on_named_bodies():
    cases = [
        ("cube2", cube_polytope(2)),
        ("cube3", cube_polytope(3)),
        ("square pyramid", pyramid_polytope(4)),
        ("simplex2", simplex_polytope(2)),
    ]
    start = time.perf_counter()
    for name, K in cases:
        record = check_lower_bound_scaling(K, 8)
        assert record["certified"], name
        assert record["target_size"] == record["caratheodory"], name
        eps = F(record["epsilon"])
        assert F(1, 2 ** 8) <= eps <= 1, name
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"scaling checks took {elapsed:.1f}s"
    _announce(f"scaling certificates on all named bodies in {elapsed:.1f}s")


def test_conjecture_harness_run():
    config = ExperimentConfig(
        seed=42, trials=500, dim=2, max_normals=5, max_points=4,
        coordinate_bound=4, scaling_depth=3,
    )
    report = run_suite(config)
    assert report["summary"]["trials"] == 500
    assert report["violations"] == []
    assert report["counterexample_candidates"] == []
    # determinism: the exact run replays byte-identically
    again = run_suite(config)
    assert dump_canonical(report) == dump_canonical(again)
    # replayability: serialized instances reproduce their recorded checks
    for record in report["records"][:10]:
        inst = record["instance"]
        rerun = recheck_instance(inst["polytope"], inst["points"], inst["query"])
        assert rerun["upper_bounds"] == record["upper_bounds"]
        assert rerun["guard"] == record["guard"]
    _announce("conjecture harness: 500 deterministic trials, 0 candidates")
