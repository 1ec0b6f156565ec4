import hashlib
import json
from pathlib import Path

import pytest

from hcara.errors import InputError, PreconditionError
from hcara.experiment import (
    ExperimentConfig,
    check_guard_existence,
    check_lower_bound_scaling,
    check_upper_bounds,
    random_instance,
    recheck_instance,
    run_suite,
    run_trial,
)
from hcara.jsonio import dump_canonical
from hcara.shapes import cube_polytope, pyramid_polytope, simplex_polytope
from hcara.strong import fits_in_translate, minimal_strong_witness

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


class TestChecks:
    def test_upper_bounds_on_cube(self):
        K, X = random_instance(SMALL, 1)
        p = X.points[0]
        record = check_upper_bounds(K, minimal_strong_witness(K, X, p))
        assert record["facet_bound_ok"] and record["subset_bound_ok"]
        assert record["witness_size"] == 1  # p is one of the points

    def test_guard_on_trivial_instance(self):
        K = cube_polytope(2)
        from fractions import Fraction as F
        from hcara.hconvex import PointSet

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
        # A fitting set whose witness search still fails is a fault, not a
        # "does-not-fit" outcome.
        def not_in_hull(K, X, p):
            raise PreconditionError("query point is not in the hull of X")

        monkeypatch.setattr("hcara.experiment.minimal_strong_witness", not_in_hull)
        with pytest.raises(PreconditionError, match="not in the hull"):
            check_lower_bound_scaling(cube_polytope(3), 3)


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
