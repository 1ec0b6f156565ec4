"""hcara benchmark: seeded experiment trials in dims 2 and 3, and the
normal-set invariant and witness pipeline, timed end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload trial-d2 --seed 42 --seconds 10 --trace 0

The library is imported from ``src/`` next to this directory.  Ops run one
at a time in a closed loop in this process.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes over
a fixed op set and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every output passed its checks, 1 when one failed
and 2 when the library or an argument is missing.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 42
WARMUP_SEED = 0
SETUP_REPEATS = 5
TAIL_BEYOND = 10

# The ROADMAP baseline trial shape; dims 2 and 3 differ only in max_normals.
TRIAL_SHAPE = {"max_points": 4, "coordinate_bound": 3, "scaling_depth": 3}


def import_hcara():
    """Fresh import of hcara from ``src/``, dropping any earlier import."""
    for name in tracing.hcara_modules():
        del sys.modules[name]
    hcara = importlib.import_module("hcara")
    importlib.import_module("hcara.experiment")
    if Path(hcara.__file__).resolve().parent != SRC / "hcara":
        raise ImportError(f"hcara was imported from {hcara.__file__}, not {SRC}")
    return hcara


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """``build(hcara, seed)`` makes the inputs; ``run(hcara, inputs, i)``
    is op i and returns its JSON output; ``check(output)`` lists what is
    wrong with it.  The first ``fixed_ops`` ops are the digest prefix and the
    traced pass."""

    name: str
    fixed_ops: int
    build: object
    run: object
    check: object


def _trial_workload(name, dim, max_normals, fixed_ops):
    def build(hcara, seed):
        return hcara.experiment.ExperimentConfig(
            seed=seed, trials=1, dim=dim, max_normals=max_normals, **TRIAL_SHAPE
        )

    def run(hcara, config, i):
        return hcara.experiment.run_trial(config, i)

    return Workload(name, fixed_ops, build, run, _check_trial)


def _check_trial(record):
    checks = {
        "facet_bound_ok": record["upper_bounds"]["facet_bound_ok"],
        "guard_ok": record["guard"]["guard_ok"],
        "hull_implication.ok": record["hull_implication"]["ok"],
        "cube_equality.ok": record["cube_equality"]["ok"],
    }
    return [name for name, ok in checks.items() if ok is not True]


def _random_normal_set(hcara, rng):
    """Dim 3, 6 to 9 nonzero normals with coordinates p/q, |p| <= 3, q <= 3."""
    normals = []
    while len(normals) < rng.randint(6, 9) or not normals:
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        if any(v):
            normals.append(v)
    return hcara.NormalSet(3, tuple(normals))


class _NormalSets:
    """Normal sets drawn on demand from (seed, op index), so op i sees the
    same set however many ops a run reaches."""

    def __init__(self, hcara, seed):
        self._hcara = hcara
        self._seed = seed
        self._made = []

    def __getitem__(self, i):
        while len(self._made) <= i:
            rng = random.Random(self._seed * 2 ** 32 + len(self._made))
            self._made.append(_random_normal_set(self._hcara, rng))
        return self._made[i]


def _run_normal_set(hcara, sets, i):
    H = sets[i]
    report = hcara.invariants.caratheodory_number(H)
    # The same choice as the experiment's witness for the larger invariant.
    if report.helly >= report.cone:
        built = hcara.witness.helly_witness_points(H, report.helly_witness)
    else:
        built = hcara.witness.cone_witness_points(H, report.cone_witness)
    validated = hcara.witness.validate_witness(H, built.points, built.kind)
    return {
        "normals": H.to_json(),
        "invariants": report.to_json(),
        "witness": built.to_json(),
        "validation": validated.to_json(),
    }


def _check_normal_set(out):
    problems = []
    validation = out["validation"]
    if not (validation["covering_ok"] and validation["drop_one_ok"]):
        problems.append("validate_witness.valid")
    if len(out["witness"]["points"]["points"]) != out["invariants"]["caratheodory"]:
        problems.append("witness size != caratheodory")
    return problems


WORKLOADS = {
    w.name: w for w in (
        _trial_workload("trial-d2", 2, 5, fixed_ops=16),
        _trial_workload("trial-d3", 3, 6, fixed_ops=8),
        Workload("normal-sets", 16, _NormalSets, _run_normal_set, _check_normal_set),
    )
}


# ---------------------------------------------------------------- measuring


def setup(workload, seed):
    """Import, build the inputs and warm up; (hcara, inputs, seconds).

    The warm-up op uses a fixed seed, so set-up cost does not depend on the
    measured seed.
    """
    start = perf_counter()
    hcara = import_hcara()
    inputs = workload.build(hcara, seed)
    workload.run(hcara, workload.build(hcara, WARMUP_SEED), 0)
    return hcara, inputs, perf_counter() - start


def setup_again(workload, seed):
    """Seconds of one more set-up; the modules in use stay in place."""
    kept = tracing.hcara_modules()
    try:
        return setup(workload, seed)[2]
    finally:
        sys.modules.update(kept)


class Outputs:
    """Checks every op's output and hashes the first ``fixed_ops`` of them,
    serialized with ``jsonio.dump_canonical``."""

    def __init__(self, hcara, workload):
        # Looked up per call, so a traced pass times the serialization.
        self._dump = lambda obj: hcara.jsonio.dump_canonical(obj)
        self._workload = workload
        self._sha = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, i, output, error):
        self.attempted += 1
        if error is None:
            problems = self._workload.check(output)
        else:
            problems = [f"raised {error!r}"]
        if i < self._workload.fixed_ops:
            text = self._dump(output) if error is None else f"error {error!r}\n"
            self._sha.update(text.encode())
        if problems:
            self.failed += 1
            self.problems.append((i, problems))

    @property
    def digest(self):
        return self._sha.hexdigest()


def run_op(run, hcara, inputs, i):
    """(output, error, seconds) of ``run(hcara, inputs, i)``."""
    start = perf_counter()
    try:
        output = run(hcara, inputs, i)
        error = None
    except Exception as exc:  # a raising op is a failed op, not a dead run
        output, error = None, exc
    return output, error, perf_counter() - start


def tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile with at
    least ``TAIL_BEYOND`` samples beyond it; the maximum when too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def measure(workload, hcara, inputs, seconds, seed):
    """Closed loop over ops 0, 1, ... for ``seconds`` (at least the fixed ops).

    The set-up is repeated ``SETUP_REPEATS - 1`` times, spread evenly over
    the run and outside the op timings: CPU speed on a shared VM can shift
    for seconds at a time, and one burst of set-ups would sample one phase.
    Returns the outputs, the op latencies and the set-up times.
    """
    outputs = Outputs(hcara, workload)
    latencies = []
    setups = []
    start = perf_counter()
    i = 0
    while i < workload.fixed_ops or perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS - 1 and (
            perf_counter() - start >= seconds * (len(setups) + 1) / SETUP_REPEATS
        ):
            setups.append(setup_again(workload, seed))
            continue
        output, error, took = run_op(workload.run, hcara, inputs, i)
        latencies.append(took)
        outputs.add(i, output, error)
        i += 1
    return outputs, latencies, setups


def run_pass(workload, hcara, inputs, tracer=None):
    """Ops 0 .. fixed_ops-1 once; with a tracer, each op is a ``bench.op``
    span and its serialization a root ``jsonio`` span."""
    outputs = Outputs(hcara, workload)
    run = workload.run
    if tracer is not None:
        run = tracer.wrap(tracing.OP_SPAN, workload.run)
    busy = 0.0
    for i in range(workload.fixed_ops):
        if tracer is not None:
            tracer.op = i
        output, error, took = run_op(run, hcara, inputs, i)
        outputs.add(i, output, error)
        busy += took
    if tracer is not None:
        tracer.op = None
    return outputs, busy


# ---------------------------------------------------------------- reporting


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, latencies):
    value, pct, beyond = tail(latencies)
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1000 * value, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }, f"op_tail_ms is p{pct:.1f} of {len(latencies)} ops ({beyond} beyond it)"


def per_layer(counts, times, ops_untraced, ops_traced):
    """Per-layer metrics from the exact counts of one traced pass and the
    mean times over all traced passes."""
    def n(key):
        return counts.get(key, 0)

    def s(key):
        return times.get(key, 0) / 1e9

    calls = n("lp.calls")
    msw_calls = n("strong.minimal_strong_witness.calls")
    out = {
        "lp.calls": metric(calls, "count"),
        "lp.s": metric(s("lp.s"), "s"),
        "lp.us_per_call": metric(1e6 * s("lp.s") / calls if calls else 0, "us"),
        "lp.rows_per_call": metric(n("lp.rows") / calls if calls else 0, "count"),
        "lp.vars_per_call": metric(n("lp.vars") / calls if calls else 0, "count"),
    }
    for bucket in tracing.LP_PARENT_BUCKETS:
        out[f"lp.calls.{bucket}"] = metric(n(f"lp.calls.{bucket}"), "count")
    out["strong.minimal_strong_witness.lp_calls_per_call"] = metric(
        n("lp.calls_under_minimal_strong_witness") / msw_calls if msw_calls else 0,
        "count",
    )
    for name in (
        "strong.minimal_strong_witness", "strong.strong_hull_contains",
        "strong.fits_in_translate", "strong.polytope_init",
        "invariants.caratheodory_number", "invariants.positive_hull_contains",
        "invariants.is_conical_position", "invariants.is_simplex_with_origin",
        "linear.solve_linear", "linear.rank", "hconvex.h_hull_contains",
    ):
        out[f"{name}.calls"] = metric(n(f"{name}.calls"), "count")
    for name in (
        "strong.minimal_strong_witness", "strong.strong_hull_contains",
        "strong.fits_in_translate", "strong.polytope_init",
        "strong.guard_assignment", "strong.h_subset_strong_check",
        "invariants.caratheodory_number", "invariants.positive_hull_contains",
        "witness.helly_witness_points", "witness.cone_witness_points",
        "witness.validate_witness", "linear.solve_linear", "linear.rank",
        "hconvex.h_hull_contains", "hconvex.covering_holds",
        "hconvex.excluding_holds", "experiment.random_instance",
        "experiment.check_upper_bounds", "experiment.check_guard_existence",
        "experiment.check_lower_bound_scaling", "jsonio.dump_canonical",
    ):
        out[f"{name}.s"] = metric(s(f"{name}.s"), "s")
    out["experiment.run_trial.self_s"] = metric(s("experiment.run_trial.self_s"), "s")
    root = times["root"]
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = metric(s(f"{layer}.self_s"), "s")
        out[f"{layer}.self_share"] = metric(
            times[f"{layer}.self_s"] / root if root else 0, "fraction"
        )
    out["trace.ops_per_s_untraced"] = metric(ops_untraced, "1/s")
    out["trace.ops_per_s_traced"] = metric(ops_traced, "1/s")
    out["trace.overhead_pct"] = metric(100 * (1 - ops_traced / ops_untraced), "%")
    return out


def traced_run(workload, hcara, inputs, seconds, label):
    """Pairs of one untraced and one traced pass over the fixed ops until
    ``seconds`` would be exceeded (at least two pairs).  Returns the per-layer
    metrics, the outputs of every pass and the problems found."""
    tracer = tracing.Tracer(hcara)
    passes, span_passes = [], []
    busy_untraced = busy_traced = 0.0
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        outputs, busy = run_pass(workload, hcara, inputs)
        passes.append(outputs)
        busy_untraced += busy
        tracer.install()
        try:
            outputs, busy = run_pass(workload, hcara, inputs, tracer)
        finally:
            tracer.remove()
        passes.append(outputs)
        busy_traced += busy
        span_passes.append(tracer.reset())
        now = perf_counter()
        if len(span_passes) >= 2 and now - start + (now - pair_start) > seconds:
            break

    summaries = [tracing.summarize(spans) for spans in span_passes]
    counts = summaries[0][0]
    problems = []
    if any(c != counts for c, _ in summaries[1:]):
        problems.append("per-layer counts differ between traced passes")
    for _, times in summaries:
        self_total = sum(times[f"{layer}.self_s"] for layer in tracing.LAYERS)
        if self_total != times["root"]:
            problems.append("layer self times do not add up to the root span time")
    mean_times = {
        key: statistics.fmean(times.get(key, 0) for _, times in summaries)
        for key in summaries[0][1]
    }
    n_pairs = len(span_passes)
    ops = workload.fixed_ops * n_pairs
    metrics = per_layer(counts, mean_times, ops / busy_untraced, ops / busy_traced)
    try:
        tracing.write_spans(OUT / f"spans-{label}.tsv.gz", span_passes)
    except OSError as exc:  # the spans are a by-product; the metrics stand
        print(f"warning: spans not written: {exc}", file=sys.stderr)
    return metrics, passes, problems, n_pairs


def stored_digest(workload, seed):
    entry = json.loads(DIGESTS.read_text()).get(workload.name)
    if entry and entry["seed"] == seed and entry["ops"] == workload.fixed_ops:
        return entry["sha256"]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2**32)")
    if not (SRC / "hcara" / "__init__.py").is_file():
        print(f"error: no hcara sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    hcara, inputs, setup_s = setup(workload, args.seed)
    lp_numeric = getattr(getattr(hcara.lp, "_q", None), "__name__", "none")
    print(
        f"env workload={workload.name} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} lp_numeric={lp_numeric} "
        f"nproc={len(os.sched_getaffinity(0))} machine={platform.machine()}"
    )

    label = f"{workload.name}-seed{args.seed}"
    if args.trace:
        metrics, passes, problems, pairs = traced_run(
            workload, hcara, inputs, args.seconds, label
        )
        print(f"traced {pairs} pairs of untraced+traced passes over "
              f"{workload.fixed_ops} ops; spans in {OUT.name}/spans-{label}.tsv.gz")
    else:
        outputs, latencies, setups = measure(workload, hcara, inputs, args.seconds, args.seed)
        metrics, tail_note = end_to_end(statistics.median([setup_s] + setups), latencies)
        passes, problems = [outputs], []
        print(tail_note)

    digests = {p.digest for p in passes}
    expected = stored_digest(workload, args.seed)
    digest = passes[0].digest
    if len(digests) > 1:
        problems.append("outputs differ between passes")
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} != stored {expected}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for i, what in p.problems[:5]:
            problems.append(f"op {i}: {', '.join(what)}")
    if expected is None:
        status = "no stored digest for this seed"
    else:
        status = "matches stored" if digest == expected else "MISMATCH"
    print(f"digest sha256={digest} over ops 0..{workload.fixed_ops - 1} ({status})")
    print(f"failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
