"""In-memory span tracing of hcara's modules for the benchmark.

Each traced function is replaced by a wrapper in every hcara module that
binds it, because callers look functions up in their own globals
(``strong`` does ``from .lp import maximize``), so patching only the defining
module would miss most calls.  A span is ``(name, start_ns, end_ns, parent,
op, rows, vars)``: ``parent`` is the index of the enclosing span or -1, and
``rows``/``vars`` are the LP shape for ``lp.*`` spans (None elsewhere).
"""
from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Layer -> traced public functions.  linear.dot/vadd and hconvex.support are
# left out on purpose: they run in microseconds, so a wrapper would cost more
# than the call and distort every parent's time.
TRACED = {
    "lp": ("maximize", "feasible_point", "solve"),
    "linear": ("rank", "solve_linear"),
    "hconvex": ("h_hull_contains", "covering_holds", "excluding_holds", "minimal_h_witness"),
    "invariants": (
        "positive_hull_contains", "is_simplex_with_origin", "is_conical_position",
        "helly_number", "cone_number", "relaxed_cone_number", "caratheodory_number",
    ),
    "witness": ("helly_witness_points", "cone_witness_points", "validate_witness"),
    "strong": (
        "fits_in_translate", "strong_hull_contains", "minimal_strong_witness",
        "guard_assignment", "h_subset_strong_check",
    ),
    "experiment": (
        "random_instance", "check_upper_bounds", "check_guard_existence",
        "check_lower_bound_scaling", "run_trial",
    ),
    "jsonio": ("dump_canonical",),
}
LAYERS = tuple(TRACED) + ("bench",)

OP_SPAN = "bench.op"
POLYTOPE_INIT = "strong.polytope_init"


def hcara_modules():
    """{name: module} of every loaded hcara module."""
    return {
        name: m for name, m in sys.modules.items()
        if name == "hcara" or name.startswith("hcara.")
    }


def _lp_shape(name, args, kwargs):
    """(rows, num_vars) of one LP entry call."""
    if name == "solve":
        lp = args[0] if args else kwargs["lp"]
        return len(lp.rows), lp.num_vars
    rows = args[0] if args else kwargs["rows"]
    pos = 2 if name == "maximize" else 1
    num_vars = args[pos] if len(args) > pos else kwargs["num_vars"]
    return len(rows), num_vars


class Tracer:
    """Patches hcara's modules on ``install`` and restores them on ``remove``.

    Spans accumulate in ``spans`` until ``reset``; ``op`` is the id stamped on
    every span opened while it is set.
    """

    def __init__(self, hcara):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        modules = hcara_modules().values()
        for layer, names in TRACED.items():
            module = getattr(hcara, layer)
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original, layer == "lp")
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, attr, original, wrapper))
        polytope = hcara.strong.Polytope
        self._patches.append((
            polytope, "__post_init__", polytope.__post_init__,
            self.wrap(POLYTOPE_INIT, polytope.__post_init__),
        ))

    def wrap(self, name, fn, is_lp=False):
        """``fn`` recording a span named ``name`` per call; with ``is_lp``
        the span also carries the LP's rows and variables."""
        spans, stack = self.spans, self._stack
        short = name.split(".", 1)[1]

        def traced(*args, **kwargs):
            shape = _lp_shape(short, args, kwargs) if is_lp else (None, None)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op) + shape

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset(self):
        spans = self.spans[:]
        self.spans.clear()
        return spans


# Parent span of an LP call -> the bucket of lp.calls.<parent>.
_LP_PARENTS = {
    "strong.minimal_strong_witness": "minimal_strong_witness",
    "strong.strong_hull_contains": "strong_hull_contains",
    "strong.fits_in_translate": "fits_in_translate",
    POLYTOPE_INIT: "polytope_init",
}
LP_PARENT_BUCKETS = tuple(_LP_PARENTS.values()) + ("invariants", "witness", "other")


def _lp_bucket(parent_name):
    if parent_name in _LP_PARENTS:
        return _LP_PARENTS[parent_name]
    layer = parent_name.split(".", 1)[0]
    return layer if layer in ("invariants", "witness") else "other"


def summarize(spans):
    """Counts and times of one traced pass.

    Returns ``(counts, times_ns)``: ``counts`` holds only exact integers
    (calls per function, LP rows and variables, LP calls per parent bucket,
    LP calls under minimal_strong_witness); ``times_ns`` holds inclusive and
    self time per function, self time per layer, and the total time of the
    root spans, in nanoseconds.
    """
    calls = Counter()
    inclusive = Counter()
    self_ns = Counter()
    child_ns = [0] * len(spans)
    counts = Counter()
    root_ns = 0
    for name, start, end, parent, _, rows, nvars in spans:
        duration = end - start
        calls[name] += 1
        inclusive[name] += duration
        if parent < 0:
            root_ns += duration
        else:
            child_ns[parent] += duration
        if rows is not None:
            counts["lp.rows"] += rows
            counts["lp.vars"] += nvars
            counts["lp.calls." + _lp_bucket(spans[parent][0] if parent >= 0 else "")] += 1
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != "strong.minimal_strong_witness":
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                counts["lp.calls_under_minimal_strong_witness"] += 1
    layer_self = defaultdict(int)
    for i, (name, start, end, *_) in enumerate(spans):
        own = end - start - child_ns[i]
        self_ns[name] += own
        layer_self[name.split(".", 1)[0]] += own
    for name, n in calls.items():
        counts[name + ".calls"] = n
    counts["lp.calls"] = sum(n for name, n in calls.items() if name.startswith("lp."))
    times = {"root": root_ns}
    for name in calls:
        times[name + ".s"] = inclusive[name]
        times[name + ".self_s"] = self_ns[name]
    for layer in LAYERS:
        times[layer + ".self_s"] = layer_self.get(layer, 0)
    times["lp.s"] = sum(v for k, v in inclusive.items() if k.startswith("lp."))
    return dict(counts), times


def write_spans(path, passes):
    """Spans of every traced pass as gzip'd tab-separated lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass\tindex\tname\tstart_ns\tend_ns\tparent\top\trows\tvars\n")
        for p, spans in enumerate(passes):
            for i, (name, start, end, parent, op, rows, nvars) in enumerate(spans):
                fh.write(f"{p}\t{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\t{rows}\t{nvars}\n")
