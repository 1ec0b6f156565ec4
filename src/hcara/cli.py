"""Command-line front end.

One verb per invocation; data goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 a violation or counterexample candidate was found (the
experiment verb only), 2 input or parse errors, 3 precondition errors.
"""
from __future__ import annotations

import argparse
import sys

from .errors import InputError, PreconditionError
from .experiment import ExperimentConfig, run_suite
from .hconvex import NormalSet, PointSet, h_hull_contains
from .invariants import caratheodory_number, cone_number, helly_number
from .jsonio import (
    dump_canonical,
    load_json_file,
    rational_from_json,
)
from .linear import Vector
from .strong import Polytope, strong_hull_contains
from .witness import cone_witness_points, helly_witness_points, validate_witness


def parse_point(text: str) -> Vector:
    """Parse a comma-separated list of exact rational literals."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise InputError("empty point literal")
    return tuple(rational_from_json(p) for p in parts)


def _load_normals(path: str) -> NormalSet:
    return NormalSet.from_json(load_json_file(path))


def _load_points(path: str) -> PointSet:
    return PointSet.from_json(load_json_file(path))


def _load_polytope(path: str) -> Polytope:
    return Polytope.from_json(load_json_file(path))


def _emit(doc, as_json: bool, summary_lines) -> None:
    if as_json:
        sys.stdout.write(dump_canonical(doc))
    else:
        for line in summary_lines:
            print(line)


def _cmd_cara(args) -> int:
    report = caratheodory_number(_load_normals(args.normals))
    _emit(
        report.to_json(),
        args.json,
        [
            f"caratheodory = {report.caratheodory} "
            f"(helly = {report.helly}, cone = {report.cone}, "
            f"relaxed cone = {report.relaxed_cone})",
            f"helly witness: {list(report.helly_witness)}",
            f"cone witness: {list(report.cone_witness)}",
            f"one-sided: {'yes' if report.one_sided else 'no'}",
        ],
    )
    return 0


def _cmd_helly(args) -> int:
    value, witness = helly_number(_load_normals(args.normals))
    _emit(
        {"helly": value, "witness": list(witness)},
        args.json,
        [f"helly = {value}; witness: {list(witness)}"],
    )
    return 0


def _cmd_cone(args) -> int:
    value, witness = cone_number(_load_normals(args.normals))
    _emit(
        {"cone": value, "witness": list(witness)},
        args.json,
        [f"cone = {value}; witness: {list(witness)}"],
    )
    return 0


def _cmd_h_member(args) -> int:
    H = _load_normals(args.normals)
    X = _load_points(args.points)
    member = h_hull_contains(H, X, parse_point(args.point))
    _emit(member, args.json, ["true" if member else "false"])
    return 0


def _cmd_strong_member(args) -> int:
    K = _load_polytope(args.polytope)
    X = _load_points(args.points)
    member = strong_hull_contains(K, X, parse_point(args.point))
    _emit(member, args.json, ["true" if member else "false"])
    return 0


def _witness_summary(report) -> list[str]:
    return [
        f"kind: {report.kind}",
        f"normals used: {list(report.normals_used)}",
        f"points: {[[str(c) for c in p] for p in report.points.points]}",
        f"covering: {'ok' if report.covering_ok else 'FAILED'}; "
        f"drop-one: {'ok' if report.drop_one_ok else 'FAILED'}",
    ]


def _cmd_witness(args) -> int:
    H = _load_normals(args.normals)
    if args.kind == "helly":
        value, witness = helly_number(H)
        if value < 2:
            raise PreconditionError(
                "this normal set has no simplex-with-origin subset"
            )
        report = helly_witness_points(H, witness)
    else:
        report = cone_witness_points(H, cone_number(H)[1])
    _emit(report.to_json(), args.json, _witness_summary(report))
    return 0


def _cmd_validate(args) -> int:
    H = _load_normals(args.normals)
    X = _load_points(args.points)
    report = validate_witness(H, X)
    _emit(report.to_json(), args.json, _witness_summary(report))
    return 0


def _write(path, mode, text) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_experiment(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(load_json_file(args.config))
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.depth is not None:
        overrides["scaling_depth"] = args.depth
    if overrides:
        merged = config.to_json()
        merged.update(overrides)
        config = ExperimentConfig.from_json(merged)
    if args.out:
        # Fail before the trials run; append mode keeps an existing file.
        _write(args.out, "a", "")
    report = run_suite(config, parallel=args.parallel)
    doc = dump_canonical(report)
    if args.out:
        _write(args.out, "w", doc)
    if args.json:
        sys.stdout.write(doc)
    else:
        s = report["summary"]
        print(
            f"trials: {s['trials']}; violations: {s['violations']}; "
            f"counterexample candidates: {s['counterexample_candidates']}"
        )
        print(
            f"scaling certified: {s['scaling_certified']}; "
            f"inconclusive: {s['scaling_inconclusive']}"
        )
    failed = report["violations"] or report["counterexample_candidates"]
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcara",
        description=(
            "Exact Caratheodory-type invariants, hull membership queries and "
            "randomized bound checks for restricted convexity."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit raw JSON")

    p = sub.add_parser("cara", help="all invariants of a normal set")
    p.add_argument("normals", help="normal-set JSON file")
    add_json(p)
    p.set_defaults(func=_cmd_cara)

    p = sub.add_parser("helly", help="helly number of a normal set")
    p.add_argument("normals")
    add_json(p)
    p.set_defaults(func=_cmd_helly)

    p = sub.add_parser("cone", help="cone number of a normal set")
    p.add_argument("normals")
    add_json(p)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("h-member", help="restricted-hull membership query")
    p.add_argument("normals")
    p.add_argument("points")
    p.add_argument("--point", required=True, help='query point, e.g. "1/2,-3,0"')
    add_json(p)
    p.set_defaults(func=_cmd_h_member)

    p = sub.add_parser("strong-member", help="translate-hull membership query")
    p.add_argument("polytope")
    p.add_argument("points")
    p.add_argument("--point", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_strong_member)

    p = sub.add_parser("witness", help="construct extremal witness points")
    p.add_argument("--kind", choices=("helly", "cone"), required=True)
    p.add_argument("normals")
    add_json(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("validate", help="check covering/drop-one for a point set")
    p.add_argument("normals")
    p.add_argument("points")
    add_json(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("experiment", help="run the randomized check suite")
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--depth", type=int, help="scaling schedule depth")
    p.add_argument("--out", help="also write the report to this file")
    p.add_argument("--parallel", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _normalize_argv(argv):
    """Join '--point <value>' into '--point=<value>' so point literals with a
    leading minus sign are not mistaken for option flags."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--point":
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"--point={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
