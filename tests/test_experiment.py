import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import lp_minimal_strong_witness

import hcara.experiment
import hcara.invariants
import hcara.linear
import hcara.lp
import hcara.strong
from hcara.errors import InputError, InternalConsistencyError, PreconditionError
from hcara.experiment import (
    ExperimentConfig,
    _ray_exit_scale,
    check_guard_existence,
    check_lower_bound_scaling,
    check_upper_bounds,
    random_instance,
    recheck_instance,
    run_suite,
    run_trial,
)
from hcara.hconvex import PointSet
from hcara.invariants import caratheodory_number
from hcara.jsonio import dump_canonical
from hcara.linear import dot, vadd, vscale
from hcara.shapes import cube_polytope, pyramid_polytope, simplex_polytope
from hcara.strong import (
    Polytope, fits_in_translate, minimal_strong_witness, shrink_intervals,
)

SMALL = ExperimentConfig(
    seed=7, trials=6, dim=2, max_normals=5, max_points=4,
    coordinate_bound=4, scaling_depth=3,
)


class TestConfig:
    def test_round_trip(self):
        assert ExperimentConfig.from_json(SMALL.to_json()) == SMALL

    def test_unknown_fields_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig.from_json({"seed": 1, "spam": 2})

    @pytest.mark.parametrize(
        "bad",
        [
            {"trials": 0},
            {"dim": 1},
            {"dim": 5},
            {"max_normals": 2, "dim": 2},
            {"seed": -1},
            {"seed": 2 ** 64},
            {"dim": 0},
            {"max_normals": 0},
            {"max_points": 0},
            {"coordinate_bound": 0},
            {"scaling_depth": -1},
        ],
    )
    def test_invariants(self, bad):
        with pytest.raises(InputError):
            ExperimentConfig(**bad)
        with pytest.raises(InputError):
            ExperimentConfig.from_json(bad)

    @pytest.mark.parametrize("bad", [{"trials": True}, {"trials": "3"}])
    def test_from_json_rejects_non_integers(self, bad):
        with pytest.raises(InputError):
            ExperimentConfig.from_json(bad)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(SMALL, 0)
        b = random_instance(SMALL, 0)
        assert a[0].to_json() == b[0].to_json()
        assert a[1].to_json() == b[1].to_json()

    def test_respects_config_shape(self):
        for i in range(4):
            K, X = random_instance(SMALL, i)
            assert K.dim == 2
            assert len(K) <= SMALL.max_normals
            assert 1 <= len(X) <= SMALL.max_points
            assert fits_in_translate(K, X) is not None

    def test_distinct_trials_differ(self):
        instances = {dump_canonical(random_instance(SMALL, i)[0].to_json()) for i in range(5)}
        assert len(instances) > 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 3)), st.integers(0, 10 ** 6),
        st.sampled_from((F(1), F(2, 3), F(5, 4))), st.data(),
    )
    def test_ray_exit_is_least_offset_ratio(self, dim, seed, stretch, data):
        # the int cross-multiplication against min b_i / <a_i, d> in
        # Fractions, on polytopes whose offsets need not be ints
        config = ExperimentConfig(seed=seed, trials=1, dim=dim, max_normals=dim + 3)
        K, _ = random_instance(config, 0)
        K = Polytope(dim, K.normals, tuple(stretch * b for b in K.offsets))
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        d = data.draw(st.tuples(*[entry] * dim).filter(any))
        exit_scale = _ray_exit_scale(K, d)
        assert type(exit_scale) is F
        assert exit_scale == min(
            b / dot(a, d) for a, b in zip(K.normals, K.offsets) if dot(a, d) > 0
        )


class TestChecks:
    def test_upper_bounds_on_cube(self):
        K, X = random_instance(SMALL, 1)
        p = X.points[0]
        record = check_upper_bounds(K, minimal_strong_witness(K, X, p))
        assert record["facet_bound_ok"] and record["subset_bound_ok"]
        assert record["witness_size"] == 1  # p is one of the points

    def test_guard_on_trivial_instance(self):
        K = cube_polytope(2)
        X = PointSet(2, ((F(0), F(0)),))
        p = (F(0), F(0))
        record = check_guard_existence(K, minimal_strong_witness(K, X, p), p)
        assert record["guard_ok"] and record["witness_size"] == 1

    @pytest.mark.parametrize(
        "K,expected",
        [
            (cube_polytope(3), 3),
            (pyramid_polytope(4), 4),
            (simplex_polytope(2), 3),
        ],
    )
    def test_scaling_certifies(self, K, expected):
        record = check_lower_bound_scaling(K, 8)
        assert record["certified"]
        assert record["target_size"] == expected == record["caratheodory"]

    def test_scaling_schedule_records_does_not_fit(self):
        record = check_lower_bound_scaling(simplex_polytope(2), 3)
        outcomes = [s["outcome"] for s in record["schedule"]]
        assert outcomes == ["does-not-fit", "does-not-fit", "witness-size", "witness-size"]

    def test_scaling_surfaces_a_hull_fault_when_the_set_fits(self, monkeypatch):
        # Moving the witness set off the origin keeps every fit but takes the
        # origin out of its H-hull: at the first scale where it fits, lo(X)
        # exceeds the scale, a fault and not a "does-not-fit" outcome.
        real = hcara.experiment._witness_for_maximum

        def shifted(H, report):
            witness = real(H, report)
            points = tuple(vadd(x, (F(3),) * H.dim) for x in witness.points.points)
            return SimpleNamespace(points=PointSet(H.dim, points), kind=witness.kind)

        monkeypatch.setattr(hcara.experiment, "_witness_for_maximum", shifted)
        with pytest.raises(PreconditionError, match="not in the hull"):
            check_lower_bound_scaling(cube_polytope(3), 3)

    def test_scaling_surfaces_a_fit_the_table_missed(self, monkeypatch):
        # The table says the scaled set fits nowhere; a translate from the
        # facet LP contradicts it.
        monkeypatch.setattr(
            hcara.experiment, "fits_in_translate", lambda K, X: (F(0),) * K.dim
        )
        with pytest.raises(InternalConsistencyError, match="disagree"):
            check_lower_bound_scaling(simplex_polytope(2), 3)

    @pytest.mark.parametrize(
        "K,depth,expected",
        [(cube_polytope(3), 8, []), (simplex_polytope(2), 3, 2 * ["feasible_point"])],
    )
    def test_scaling_solves_one_lp_per_does_not_fit(self, monkeypatch, K, depth, expected):
        calls = []

        def spy(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(hcara.strong, "maximize_each", spy(hcara.strong.maximize_each))
        monkeypatch.setattr(
            hcara.strong, "feasible_point", spy(hcara.strong.feasible_point)
        )
        record = check_lower_bound_scaling(K, depth)
        assert len(record["schedule"]) == depth + 1
        outcomes = [s["outcome"] for s in record["schedule"]]
        assert outcomes.count("does-not-fit") == len(expected)
        assert calls == expected


def _certifying_bound(intervals):
    """eps* = min(fit(X), lo(Y) over the proper Y whose interval is not
    empty), None when unbounded: the scales at which every proper subset
    misses the origin while X fits are eps <= fit(X) with eps < lo(Y)."""
    *proper, (_, _, fit_all) = intervals
    bounds = [lo for _, lo, fit in proper if lo is not None and (fit is None or lo <= fit)]
    if fit_all is not None:
        bounds.append(fit_all)
    return min(bounds, default=None)


def _scaled(X, eps):
    return PointSet(X.dim, tuple(vscale(x, eps) for x in X.points))


def _search_outcome(search, K, X):
    """The witness size of the origin, or "does-not-fit"."""
    try:
        return len(search(K, X, (F(0),) * K.dim))
    except PreconditionError as exc:
        assert "does not fit" in str(exc)
        return "does-not-fit"


def _witness_set(K):
    H = K.normal_set()
    return hcara.experiment._witness_for_maximum(H, caratheodory_number(H)).points


class TestParametricSchedule:
    """The schedule read off the intervals against a search at every scale."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 3)), st.integers(0, 10 ** 6), st.integers(0, 5),
        st.sampled_from((F(1), F(2, 3), F(5, 4))),
    )
    # does-not-fit then certified; smaller witnesses then certified; both
    # and inconclusive; a subset whose lo is exactly 1/2
    @example(2, 1, 5, F(1))
    @example(2, 2, 5, F(1))
    @example(3, 133, 5, F(1))
    @example(2, 57, 5, F(1))
    def test_equals_per_scale_searches(self, dim, seed, depth, stretch):
        """K is a ``random_instance`` polytope stretched about the origin,
        so that its offsets need not be ints."""
        config = ExperimentConfig(
            seed=seed, trials=1, dim=dim, max_normals=dim + 3, max_points=4,
            coordinate_bound=3, scaling_depth=depth,
        )
        K, _ = random_instance(config, 0)
        K = Polytope(dim, K.normals, tuple(stretch * b for b in K.offsets))
        X = _witness_set(K)
        record = check_lower_bound_scaling(K, depth)
        *proper, (_, _, fit_all) = shrink_intervals(K, X)
        for i, step in enumerate(record["schedule"]):
            eps = F(1, 2 ** i)
            assert step["epsilon"] == str(eps)
            got = step.get("size", step["outcome"])
            assert got == _search_outcome(minimal_strong_witness, K, _scaled(X, eps))
            assert got == _search_outcome(lp_minimal_strong_witness, K, _scaled(X, eps))
            certifies = (fit_all is None or eps <= fit_all) and all(
                lo is None or eps < lo for _, lo, _ in proper
            )
            assert (got == len(X)) == certifies

    @pytest.mark.parametrize(
        "trial,star", [(18, F(275, 5208)), (125, F(81, 1397)), (204, F(3, 143))]
    )
    def test_inconclusive_trials_certify_below_the_schedule(self, trial, star):
        config = ExperimentConfig(
            seed=7, trials=1, dim=3, max_normals=6, max_points=4,
            coordinate_bound=3, scaling_depth=3,
        )
        K, _ = random_instance(config, trial)
        record = check_lower_bound_scaling(K, config.scaling_depth)
        assert not record["certified"] and record["epsilon"] is None
        X = _witness_set(K)
        assert _certifying_bound(shrink_intervals(K, X)) == star < F(1, 8)
        # The facet LPs see the same boundary: just below eps* every point
        # is needed, at eps* a proper subset is a witness or X does not fit.
        below = _scaled(X, star * F(999, 1000))
        assert _search_outcome(lp_minimal_strong_witness, K, below) == len(X)
        assert _search_outcome(lp_minimal_strong_witness, K, _scaled(X, star)) != len(X)


class TestSuite:
    def test_zero_violations_and_determinism(self):
        a = run_suite(SMALL)
        b = run_suite(SMALL)
        assert dump_canonical(a) == dump_canonical(b)
        assert a["violations"] == []
        assert a["counterexample_candidates"] == []
        assert a["summary"]["trials"] == SMALL.trials

    def test_parallel_equals_serial(self):
        serial = run_suite(SMALL, parallel=False)
        parallel = run_suite(SMALL, parallel=True)
        assert dump_canonical(serial) == dump_canonical(parallel)

    def test_records_replay(self):
        report = run_suite(ExperimentConfig(seed=11, trials=2, dim=2, scaling_depth=2))
        for record in report["records"]:
            inst = record["instance"]
            again = recheck_instance(inst["polytope"], inst["points"], inst["query"])
            assert again["upper_bounds"] == record["upper_bounds"]
            assert again["guard"] == record["guard"]

    def test_report_is_json_serializable(self):
        report = run_suite(ExperimentConfig(seed=3, trials=2, dim=3, scaling_depth=1))
        doc = dump_canonical(report)
        assert json.loads(doc)["summary"]["trials"] == 2


def test_run_suite_hash():
    """The canonical reports of the (7, 11) x (2, 3) suite hash to the
    value every change to the trial path keeps."""
    sha = hashlib.sha256()
    for seed in (7, 11):
        for dim in (2, 3):
            config = ExperimentConfig(seed=seed, trials=60, dim=dim, max_normals=dim + 3)
            sha.update(dump_canonical(run_suite(config)).encode())
    assert sha.hexdigest() == (
        "f66960263192869ef9800869c3bbe2e863baeeab27bd0329a268ad8dba8f0b53"
    )


@pytest.mark.parametrize(
    "workload,ops,dim,max_normals",
    [("trial-d2", 16, 2, 5), ("trial-d3", 8, 3, 6)],
    ids=["trial-d2", "trial-d3"],
)
def test_seed42_trial_digest(workload, ops, dim, max_normals):
    """The first trial records of a trial benchmark config hash, as the
    benchmark hashes them, to the digest stored beside the benchmark."""
    stored = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text()
    )[workload]
    assert (stored["seed"], stored["ops"]) == (42, ops)
    config = ExperimentConfig(
        seed=42, trials=1, dim=dim, max_normals=max_normals, max_points=4,
        coordinate_bound=3, scaling_depth=3,
    )
    sha = hashlib.sha256()
    for i in range(ops):
        sha.update(dump_canonical(run_trial(config, i)).encode())
    assert sha.hexdigest() == stored["sha256"]


def test_a_trial_builds_one_table_per_polytope(monkeypatch):
    """16 seed-42 trials of the benchmark's dim-2 shape build the table of a
    whole normal set 17 times, all in ``strong``: once per row set
    ``random_instance`` accepts (16), which ``Polytope._irredundant`` prunes,
    and once for the cube.  A rejected draw is found unbounded in ints
    before any table (36 builds when every draw built one).  The accepted
    table, restricted to the kept rows, is the polytope's (52 builds when
    ``Polytope`` built it again), and ``helly_number``, the cone search and
    ``helly_witness_points`` read it, so neither the invariants nor the
    witness module builds one."""
    original = hcara.linear.conic_dependences
    builds = []
    for name, module in list(sys.modules.items()):
        if name.startswith("hcara.") and getattr(module, "conic_dependences", None) is original:
            def spy(*args, _name=name):
                builds.append(_name)
                return original(*args)
            monkeypatch.setattr(module, "conic_dependences", spy)
    cube_polytope.cache_clear()
    config = ExperimentConfig(
        seed=42, trials=1, dim=2, max_normals=5, max_points=4,
        coordinate_bound=3, scaling_depth=3,
    )
    for i in range(16):
        run_trial(config, i)
    assert builds == ["hcara.strong"] * 17


def test_a_trial_solves_one_phase_1_per_point_set(monkeypatch):
    """Every LP of 16 seed-42 trials of the benchmark's dim-2 shape is one
    region's phase 1 with the phase 2s its queries read: the hull-implication
    check's X and the cube check's point set each take one, whatever the
    number of query points, and a scaled set the scaling check finds too
    wide takes its fit LP.  No row system is solved twice in a trial, and
    the invariants, read off the polytope's table, solve none (193 LP
    entries when every query and conical-position test solved its own)."""
    solved = []
    real = hcara.lp._solve

    def spy(rows, objectives, num_vars, nonneg):
        solved.append(tuple(rows))
        return real(rows, objectives, num_vars, nonneg)

    def no_lp(*args, **kwargs):
        raise AssertionError("the invariants solved an LP")

    monkeypatch.setattr(hcara.lp, "_solve", spy)
    monkeypatch.setattr(hcara.invariants, "feasible_point", no_lp)
    cube_polytope.cache_clear()
    config = ExperimentConfig(
        seed=42, trials=1, dim=2, max_normals=5, max_points=4,
        coordinate_bound=3, scaling_depth=3,
    )
    counts = []
    for i in range(16):
        solved.clear()
        record = run_trial(config, i)
        outcomes = [s["outcome"] for s in record["scaling"]["schedule"]]
        assert len(solved) == 2 + outcomes.count("does-not-fit")
        assert len(set(solved)) == len(solved)
        counts.append(len(solved))
    assert sum(counts) == 32
