"""Seed-driven randomized experiments over random polytopes and point sets.

Each trial is a pure function of (seed, trial index), so reports are
byte-identical across runs and across serial/parallel execution.  The suite
checks, per trial:

* the minimal-witness upper bounds (hard bound max(caratheodory, |H| - 1);
  conjectured bound max over subsets of the caratheodory number, whose
  failures are flagged as counterexample candidates, never as violations),
* existence of a guard assignment on every minimal witness,
* the membership implication from the normal-restricted hull to the
  translate-intersection hull, plus equality of the two on cubes,
* a shrink-schedule scaling check certifying the hull lower bound, read for
  every scale at once off the interval of scales at which each subset of
  the extremal witness set is a strong witness of the origin.

Reports carry the full instance serialization so any record can be replayed.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from . import __version__
from .errors import (
    InputError, InternalConsistencyError, PreconditionError, SamplingError,
)
from .hconvex import NormalSet, PointSet, h_hull_contains
from .invariants import InvariantReport, caratheodory_number
from .jsonio import require_keys, vector_to_json
from .linear import (
    Vector, conic_dependences, dot, restrict, vadd, vscale, zero_vector,
)
from .shapes import cube_polytope
from .strong import (
    Polytope,
    _region,
    fits_in_translate,
    guard_assignment,
    h_subset_strong_check,
    minimal_strong_witness,
    redundant_rows,
    shrink_intervals,
    spans_positively,
)
from .witness import cone_witness_points, helly_witness_points

__all__ = [
    "ExperimentConfig",
    "random_instance",
    "check_lower_bound_scaling",
    "check_upper_bounds",
    "check_guard_existence",
    "run_trial",
    "run_suite",
    "recheck_instance",
]

_REJECTION_BUDGET = 500


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 42
    trials: int = 100
    dim: int = 2
    max_normals: int = 6
    max_points: int = 5
    coordinate_bound: int = 4
    scaling_depth: int = 4

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 64):
            raise InputError("seed must fit in 64 unsigned bits")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not (2 <= self.dim <= 4):
            raise InputError("dim must be between 2 and 4")
        if self.max_normals < self.dim + 1:
            raise InputError("max_normals must be at least dim + 1")
        if self.max_points < 1:
            raise InputError("max_points must be >= 1")
        if self.coordinate_bound < 1:
            raise InputError("coordinate_bound must be >= 1")
        if self.scaling_depth < 0:
            raise InputError("scaling_depth must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        require_keys(obj, (), "experiment config")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown config fields {sorted(unknown)}")
        for key, v in obj.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"config field {key!r} must be an integer")
        return cls(**obj)


def _trial_rng(config: ExperimentConfig, trial_index: int, stream: int = 0) -> random.Random:
    # Distinct seeds per (seed, trial, stream) so the instance stream and the
    # query stream never overlap.
    return random.Random((config.seed * (2 ** 64) + trial_index) * 4 + stream)


def _rand_fraction(rng, bound, allow_negative=True) -> Fraction:
    lo = -bound if allow_negative else 0
    return Fraction(rng.randint(lo, bound), rng.randint(1, bound))


def _rand_vector(rng, dim, bound) -> Vector:
    return tuple(_rand_fraction(rng, bound) for _ in range(dim))


def _rand_nonzero_vector(rng, dim, bound) -> Vector:
    while True:
        v = _rand_vector(rng, dim, bound)
        if any(c != 0 for c in v):
            return v


def _ray_exit_scale(K: Polytope, direction: Vector) -> Fraction:
    """Largest alpha with alpha * direction inside K (K must contain 0).

    K is bounded, so some facet normal has a positive product with any
    nonzero direction, and the minimum is over a nonempty set."""
    rows = ((dot(a, direction), b) for a, b in zip(K.normals, K.offsets))
    return min(b / d for d, b in rows if d > 0)


def random_instance(config: ExperimentConfig, trial_index: int):
    """Deterministic (polytope, point set) pair for one trial.

    The polytope is rejection-sampled until bounded; its offsets are >= 1 so
    the origin is interior, then redundant rows are pruned.  The drawn rows'
    conic-dependence table, restricted to the kept rows, is the polytope's,
    so each drawn polytope builds one table.  Points are drawn
    inside the polytope along random rays from the origin and shifted by a
    common random translate.
    """
    rng = _trial_rng(config, trial_index)
    dim, cb = config.dim, config.coordinate_bound
    for _ in range(_REJECTION_BUDGET):
        m = rng.randint(dim + 1, config.max_normals)
        draws = [_rand_nonzero_vector(rng, dim, cb) for _ in range(m)]
        # one row per direction: parallel rows could doubly represent a
        # facet, and simultaneous redundancy pruning would drop both
        normals = NormalSet(dim, draws).normals
        table = conic_dependences(normals)
        if not spans_positively(normals, dim, table):
            continue
        # offsets >= 1 put the origin inside, as redundant_rows requires
        offsets = [Fraction(rng.randint(1, cb)) for _ in normals]
        bad = set(redundant_rows(offsets, table))
        keep = [i for i in range(len(normals)) if i not in bad]
        K = Polytope._with_table(
            dim,
            tuple(normals[i] for i in keep),
            tuple(offsets[i] for i in keep),
            restrict(table, keep),
        )

        count = rng.randint(1, config.max_points)
        shift = _rand_vector(rng, dim, cb)
        points = []
        seen_pts = set()
        for _ in range(count):
            direction = _rand_nonzero_vector(rng, dim, cb)
            alpha = _ray_exit_scale(K, direction)
            r = Fraction(rng.randint(0, cb), cb)
            p = vadd(vscale(direction, r * alpha), shift)
            if p not in seen_pts:
                seen_pts.add(p)
                points.append(p)
        return K, PointSet(dim, tuple(points))
    raise SamplingError(
        f"no admissible instance for trial {trial_index} within "
        f"{_REJECTION_BUDGET} attempts (dim={dim}, bound={cb})"
    )


def _convex_combination(rng, X: PointSet, bound) -> Vector:
    weights = [rng.randint(0, bound) for _ in X.points]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    p = zero_vector(X.dim)
    for w, x in zip(weights, X.points):
        if w:
            p = vadd(p, vscale(x, Fraction(w, total)))
    return p


def _nearby_point(rng, X: PointSet, bound) -> Vector:
    """A query point in a slightly inflated bounding box of X; may or may not
    lie in any hull."""
    coords = []
    for d in range(X.dim):
        lo = min(x[d] for x in X.points) - 1
        hi = max(x[d] for x in X.points) + 1
        span = hi - lo
        coords.append(lo + span * Fraction(rng.randint(0, bound), bound))
    return tuple(coords)


def _witness_for_maximum(H: NormalSet, report: InvariantReport):
    if report.helly >= report.cone:
        return helly_witness_points(H, report.helly_witness)
    return cone_witness_points(H, report.cone_witness)


def check_lower_bound_scaling(K: Polytope, depth: int, invariants=None) -> dict:
    """Shrink a hull-extremal witness set X by powers of two until its minimal
    strong witness of the origin reaches full size, certifying that the
    strong-convexity number is at least the restricted-hull number.

    One pass over the subsets Y of X gives the whole schedule
    (:func:`shrink_intervals`): the origin is in the strong hull of eps Y
    exactly for eps in [lo(Y), fit(Y)].  At eps = 2^-i the set does not fit
    exactly when eps > fit(X), and otherwise the minimal witness size is the
    least |Y| whose interval holds eps.  The facet LP of ``fits_in_translate``
    confirms every "does-not-fit"; a fit found there is a fault.

    An exhausted schedule is reported as inconclusive, never asserted: the
    certifying scale exists but no a-priori bound on it is available.
    """
    H = K.normal_set()
    report = invariants if invariants is not None else caratheodory_number(H)
    witness = _witness_for_maximum(H, report)
    X = witness.points
    target = len(X)
    intervals = shrink_intervals(K, X)
    _, lo_all, fit_all = intervals[-1]
    outcomes = []
    certified_eps = None
    for i in range(depth + 1):
        eps = Fraction(1, 2 ** i)
        if fit_all is not None and eps > fit_all:
            scaled = PointSet(K.dim, tuple(vscale(x, eps) for x in X.points))
            if fits_in_translate(K, scaled) is not None:
                raise InternalConsistencyError(
                    "the conic-dependence table and the facet LP disagree on a fit"
                )
            outcomes.append({"epsilon": str(eps), "outcome": "does-not-fit"})
            continue
        # The origin is in the H-hull of X, so lo(X) = 0 and X is a witness
        # whenever it fits; anything else is a hull fault.
        if lo_all is None or lo_all > eps:
            raise PreconditionError("query point is not in the hull of X")
        size = next(
            len(idx) for idx, lo, fit in intervals
            if lo is not None and lo <= eps and (fit is None or eps <= fit)
        )
        outcomes.append({"epsilon": str(eps), "outcome": "witness-size", "size": size})
        if size == target:
            certified_eps = eps
    return {
        "caratheodory": report.caratheodory,
        "target_size": target,
        "witness_kind": witness.kind,
        "certified": certified_eps is not None,
        "epsilon": None if certified_eps is None else str(certified_eps),
        "schedule": outcomes,
    }


def check_upper_bounds(K: Polytope, witness: PointSet, invariants=None) -> dict:
    """Size of ``witness``, the minimal strong witness of a query point (see
    :func:`minimal_strong_witness`), against the hard facet bound and the
    conjectured subset bound.  ``subset_bound_ok: False`` marks a
    counterexample candidate."""
    H = K.normal_set()
    report = invariants if invariants is not None else caratheodory_number(H)
    w = len(witness)
    hard_bound = max(report.caratheodory, len(H) - 1)
    conj_bound = max(report.helly, report.relaxed_cone)
    record = {
        "witness_size": w,
        "caratheodory": report.caratheodory,
        "facets": len(H),
        "facet_bound": hard_bound,
        "facet_bound_ok": w <= hard_bound,
        "subset_bound": conj_bound,
        "subset_bound_ok": w <= conj_bound,
    }
    if w == len(H) - 1:
        record["attains_facets_minus_one"] = {
            "pyramid_like": report.relaxed_cone == len(H) - 1,
            "simplex_plus_facet": report.helly == len(H) - 1,
        }
    return record


def check_guard_existence(K: Polytope, witness: PointSet, p: Vector) -> dict:
    """Require a full guard assignment on ``witness``, the minimal strong
    witness of p (see :func:`minimal_strong_witness`); absence would be a
    hard violation."""
    guards = guard_assignment(K, witness, p)
    return {
        "witness_size": len(witness),
        "guard_ok": guards is not None,
        "guards": None if guards is None else {str(j): i for j, i in guards.items()},
    }


def _cube_equality_record(rng, dim, bound) -> dict:
    """Membership equality of the two hulls on a cube, for one inside and one
    arbitrary nearby query point; both strong verdicts read the facet LPs of
    one region."""
    K = cube_polytope(dim)
    H = K.normal_set()
    points = []
    seen = set()
    for _ in range(rng.randint(1, 4)):
        p = tuple(Fraction(rng.randint(0, bound), bound) for _ in range(dim))
        if p not in seen:
            seen.add(p)
            points.append(p)
    X = PointSet(dim, tuple(points))
    queries = [
        _convex_combination(rng, X, bound),
        tuple(Fraction(rng.randint(-bound, 2 * bound), bound) for _ in range(dim)),
    ]
    region, _ = _region(K, X)
    ok = True
    mismatches = []
    for q in queries:
        h_member = h_hull_contains(H, X, q)
        s_member = region.contains(q)
        if h_member != s_member:
            ok = False
            mismatches.append(vector_to_json(q))
    return {
        "ok": ok,
        "points": X.to_json(),
        "queries": [vector_to_json(q) for q in queries],
        "mismatches": mismatches,
    }


def run_trial(config: ExperimentConfig, trial_index: int) -> dict:
    """All checks on one deterministic random instance."""
    rng_points = _trial_rng(config, trial_index, stream=1)
    K, X = random_instance(config, trial_index)
    p = _convex_combination(rng_points, X, config.coordinate_bound)
    q = _nearby_point(rng_points, X, config.coordinate_bound)
    H = K.normal_set()
    invariants = caratheodory_number(H)

    witness = minimal_strong_witness(K, X, p)
    upper = check_upper_bounds(K, witness, invariants=invariants)
    guard = check_guard_existence(K, witness, p)
    implication = {"ok": h_subset_strong_check(K, X, p, q)}
    cube = _cube_equality_record(rng_points, config.dim, config.coordinate_bound)
    scaling = check_lower_bound_scaling(K, config.scaling_depth, invariants=invariants)

    record = {
        "trial": trial_index,
        "instance": {
            "polytope": K.to_json(),
            "points": X.to_json(),
            "query": vector_to_json(p),
            "extra_query": vector_to_json(q),
        },
        "invariants": invariants.to_json(),
        "upper_bounds": upper,
        "guard": guard,
        "hull_implication": implication,
        "cube_equality": cube,
        "scaling": scaling,
    }
    return record


def _violations_of(record: dict) -> list[dict]:
    out = []

    def flag(check, details):
        out.append({
            "trial": record["trial"],
            "check": check,
            "details": details,
            "instance": record["instance"],
        })

    if not record["upper_bounds"]["facet_bound_ok"]:
        flag("facet-upper-bound", record["upper_bounds"])
    if not record["guard"]["guard_ok"]:
        flag("guard-assignment", record["guard"])
    if not record["hull_implication"]["ok"]:
        flag("hull-implication", record["hull_implication"])
    if not record["cube_equality"]["ok"]:
        flag("cube-equality", record["cube_equality"])
    return out


def _candidates_of(record: dict) -> list[dict]:
    if record["upper_bounds"]["subset_bound_ok"]:
        return []
    return [{
        "kind": "COUNTEREXAMPLE-CANDIDATE",
        "trial": record["trial"],
        "check": "subset-bound",
        "details": record["upper_bounds"],
        "instance": record["instance"],
    }]


def run_suite(config: ExperimentConfig, parallel: bool = False) -> dict:
    """Execute every check over all trials; deterministic given the seed.

    With ``parallel`` the trials run in worker processes; records are
    assembled in trial order so the report does not depend on scheduling.
    """
    indices = range(config.trials)
    if parallel:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            records = list(pool.map(_trial_worker, [(config, i) for i in indices]))
    else:
        records = [run_trial(config, i) for i in indices]

    violations = []
    candidates = []
    for record in records:
        violations.extend(_violations_of(record))
        candidates.extend(_candidates_of(record))

    summary = {
        "trials": config.trials,
        "violations": len(violations),
        "counterexample_candidates": len(candidates),
        "max_witness_size": max(
            r["upper_bounds"]["witness_size"] for r in records
        ),
        "facets_minus_one_attained": sum(
            1 for r in records if "attains_facets_minus_one" in r["upper_bounds"]
        ),
        "scaling_certified": sum(1 for r in records if r["scaling"]["certified"]),
        "scaling_inconclusive": sum(
            1 for r in records if not r["scaling"]["certified"]
        ),
    }
    return {
        "tool": "hcara",
        "version": __version__,
        "config": config.to_json(),
        "records": records,
        "violations": violations,
        "counterexample_candidates": candidates,
        "summary": summary,
    }


def _trial_worker(args):
    config, index = args
    return run_trial(config, index)


def recheck_instance(polytope_json: dict, points_json: dict, query_json) -> dict:
    """Replay the bound checks on a serialized instance, e.g. from a report
    record or a counterexample candidate."""
    from .jsonio import vector_from_json

    K = Polytope.from_json(polytope_json)
    X = PointSet.from_json(points_json)
    p = vector_from_json(query_json, K.dim)
    witness = minimal_strong_witness(K, X, p)
    upper = check_upper_bounds(K, witness)
    guard = check_guard_existence(K, witness, p)
    return {"upper_bounds": upper, "guard": guard}
