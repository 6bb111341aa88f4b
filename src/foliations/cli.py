"""Command-line interface.

Subcommands map one-to-one onto the library operations::

    foliations parse FILE                      # canonical re-rendering
    foliations classify FILE                   # singularity report (JSON)
    foliations blowup FILE [--center ...] [--weights ...] [--chart K]
    foliations resolve FILE [--max-steps N] [--probe-budget N]
                            [--standard-only] [--dot]
    foliations integrals FILE [--verify EXPR] [--independent EXPR EXPR]
                              [--formal] [--jet-degree N]
    foliations dynamics {holonomy,timeform,semicomplete,descent} FILE ...
    foliations corpus [--filter SUBSTRING] [--fixtures DIR]

All results go to standard output as JSON unless ``--dot`` or ``--csv`` is
given.  Exit codes: 0 success, 1 analysis-negative outcome (failed check,
exhausted budget, false verification), 2 usage or parse errors.

Each run is a fresh process, so start-up counts.  This module imports only
the parser layer (``errors``, ``expressions``, ``fields``) and the JSON
writer (``jsontext``); each ``_cmd_*`` handler imports the modules it calls
when it runs.  NumPy is loaded only by the certification of roots outside
Q(i).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import DegenerateInputError, FoliationError, NotApplicableError, ParseError
from .expressions import parse_expression, parse_field, render_field
from .fields import OneForm, VectorField
from .jsontext import dumps

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _load(path: str) -> VectorField | OneForm:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_field(handle.read())


def _load_field(path: str) -> VectorField:
    obj = _load(path)
    if not isinstance(obj, VectorField):
        raise ParseError(f"{path} holds a form, expected a vector field")
    return obj


def _emit(data) -> None:
    sys.stdout.write(dumps(data) + "\n")


def _parse_path_flag(text: str):
    from .dynamics import CircularArc, Segment, full_circle, half_circle

    kind, _, rest = text.partition(":")
    arity = {"circle": 1, "half": 1, "arc": 3, "segment": 4}.get(kind)
    try:
        values = [float(v) for v in rest.split(":")]
    except ValueError:
        values = []
    if len(values) != arity:
        raise ParseError(f"bad path spec {text!r} "
                         "(circle:R, half:R, arc:R:A0:A1, segment:X0:Y0:X1:Y1)")
    if not all(math.isfinite(v) for v in values):
        raise DegenerateInputError(f"path parameters must be finite, got {text!r}")
    if kind == "circle":
        return full_circle(values[0])
    if kind == "half":
        return half_circle(values[0])
    if kind == "arc":
        return CircularArc(0j, *values)
    x0, y0, x1, y1 = values
    return Segment(complex(x0, y0), complex(x1, y1))


def _cmd_parse(args) -> int:
    obj = _load(args.file)
    sys.stdout.write(render_field(obj))
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .classify import classify_singularity, resonant_relations

    field = _load_field(args.file)
    report = classify_singularity(field)
    out = report.to_json()
    if report.eigen is not None and report.eigen.all_exact():
        out["resonant_relations"] = [
            {"index": i, "exponents": list(exps)}
            for i, exps in resonant_relations(report.eigen.exact_values(),
                                              args.resonance_bound)]
    _emit(out)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    from .blowup import POINT, BlowupSpec, all_charts, weighted_blowup

    field = _load_field(args.file)
    if args.center != POINT and not args.center.startswith("curve:"):
        raise ParseError(f"bad center {args.center!r} (point or curve:VAR)")
    center = args.center
    weights = None
    if args.weights:
        try:
            weights = tuple(int(w) for w in args.weights.split(","))
        except ValueError:
            raise ParseError(f"bad weights {args.weights!r} "
                             "(comma-separated integers)") from None
    if args.chart is None:
        charts = enumerate(all_charts(field, center, weights))
    else:
        charts = [(args.chart,
                   weighted_blowup(field, BlowupSpec(center, weights, args.chart)))]
    output = []
    for idx, result in charts:
        output.append({
            "chart_index": idx,
            "divisor_var": result.divisor_var,
            "field": result.field.render(),
            "representative": result.representative.render(),
            "divisor_multiplicity": result.divisor_multiplicity,
            "pole_order": result.pole_order,
            "dicritical": result.dicritical,
        })
    _emit(output if args.chart is None else output[0])
    return EXIT_OK


def _cmd_resolve(args) -> int:
    from .resolve import STATUS_RESOLVED, emit_tree, resolve3, seidenberg_resolve

    field = _load_field(args.file)
    if field.chart.dim == 2:
        tree = seidenberg_resolve(field, max_steps=args.max_steps)
    elif field.chart.dim == 3:
        tree = resolve3(field, max_steps=args.max_steps,
                        probe_budget=args.probe_budget,
                        allow_weighted=not args.standard_only)
    else:
        raise NotApplicableError("resolution needs a field in two or three variables")
    text = emit_tree(tree, "dot" if args.dot else "json")
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_OK if tree.status == STATUS_RESOLVED else EXIT_NEGATIVE


def _cmd_integrals(args) -> int:
    from .integrals import formal_first_integral, independence_check, verify_first_integral

    field = _load_field(args.file)
    names = field.chart.var_names
    out: dict = {}
    negative = False
    if args.verify:
        results = []
        for text in args.verify:
            poly = parse_expression(text, names)
            ok = verify_first_integral(field, poly)
            results.append({"function": poly.render(), "first_integral": ok})
            negative = negative or not ok
        out["verify"] = results
    if args.independent:
        f = parse_expression(args.independent[0], names)
        g = parse_expression(args.independent[1], names)
        ok = independence_check(f, g)
        out["independent"] = ok
        negative = negative or not ok
    if args.formal or not out:
        space = formal_first_integral(field, args.jet_degree)
        out["formal"] = space.to_json()
        negative = negative or space.dimension == 0
    _emit(out)
    return EXIT_NEGATIVE if negative else EXIT_OK


def _cmd_dynamics(args) -> int:
    from .dynamics import (loop_lift_ratio, semicomplete_order_test, time_form_integral,
                           trace_descent)

    if args.operation == "holonomy":
        field = _load_field(args.file)
        ratio, err = loop_lift_ratio(field, args.base, args.loop_radius,
                                complex(args.fiber_seed),
                                rtol=args.tol_rel, atol=args.tol_abs)
        _emit({
            "base_var": args.base,
            "loop_radius": args.loop_radius,
            "fiber_seed": args.fiber_seed,
            "ratio": [ratio.real, ratio.imag],
            "error_estimate": err,
            "argument_over_pi": math.atan2(ratio.imag, ratio.real) / math.pi,
        })
        return EXIT_OK
    field = _load_field(args.file)
    comp = field.components[0].expand()
    if args.operation == "semicomplete":
        verdict = semicomplete_order_test(comp, radius=args.loop_radius)
        _emit(verdict.to_json())
        return EXIT_OK if verdict.verdict == "semicomplete" else EXIT_NEGATIVE
    if args.operation == "timeform":
        path = _parse_path_flag(args.path)
        value, err = time_form_integral(comp, path,
                                        abs_tol=args.tol_abs, rel_tol=args.tol_rel)
        _emit({"integral": [value.real, value.imag], "error_estimate": err})
        return EXIT_OK
    h = parse_expression(args.numerator, comp.vars)
    try:
        start = complex(*(float(v) for v in args.start.split(",")))
    except (TypeError, ValueError):
        raise ParseError(f"bad start point {args.start!r} "
                         "(use RE,IM)") from None
    trajectory = trace_descent(comp, h, args.theta, start, args.t_max,
                               rtol=args.tol_rel, atol=args.tol_abs)
    if args.csv:
        sys.stdout.write(trajectory.to_csv())
    else:
        _emit(trajectory.to_json())
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from .corpus import render_report, run_corpus

    report = run_corpus(args.filter, args.fixtures)
    sys.stdout.write(render_report(report))
    return EXIT_OK if report["failures"] == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliations",
        description="exact and numeric analysis of holomorphic foliation germs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a field file and re-render it")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("classify", help="classify the singular point at the origin")
    p.add_argument("file")
    p.add_argument("--resonance-bound", type=int, default=6)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("blowup", help="transform the field under one blow-up")
    p.add_argument("file")
    p.add_argument("--center", default="point",
                   help="'point' or 'curve:VAR' (axis with VAR free)")
    p.add_argument("--weights", default=None, help="comma-separated positive integers")
    p.add_argument("--chart", type=int, default=None,
                   help="chart index (default: all charts)")
    p.set_defaults(fn=_cmd_blowup)

    p = sub.add_parser("resolve", help="run the resolution driver")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=40)
    p.add_argument("--probe-budget", type=int, default=6)
    p.add_argument("--standard-only", action="store_true",
                   help="disable the weight-2 escape (dimension 3)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("integrals", help="first-integral analyses")
    p.add_argument("file")
    p.add_argument("--verify", action="append", default=[],
                   help="polynomial to test as a first integral (repeatable)")
    p.add_argument("--independent", nargs=2, metavar=("F", "G"),
                   help="test functional independence of two polynomials")
    p.add_argument("--formal", action="store_true",
                   help="solve for truncated formal first integrals")
    p.add_argument("--jet-degree", type=int, default=8)
    p.set_defaults(fn=_cmd_integrals)

    p = sub.add_parser("dynamics", help="numeric path analyses")
    p.add_argument("operation",
                   choices=["holonomy", "timeform", "semicomplete", "descent"])
    p.add_argument("file")
    p.add_argument("--base", default="y", help="base variable for lifting")
    p.add_argument("--loop-radius", type=float, default=0.1)
    p.add_argument("--fiber-seed", type=float, default=0.01)
    p.add_argument("--path", default="half:0.1",
                   help="circle:R, half:R, arc:R:A0:A1, or segment:X0:Y0:X1:Y1")
    p.add_argument("--numerator", default="1",
                   help="numerator polynomial of the traced form (descent)")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--start", default="0.5,0.5")
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--tol-abs", type=float, default=1e-10)
    p.add_argument("--tol-rel", type=float, default=1e-8)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_dynamics)

    p = sub.add_parser("corpus", help="run the example-catalog verification suite")
    p.add_argument("--filter", default=None)
    p.add_argument("--fixtures", default=None, help="override the fixture directory")
    p.set_defaults(fn=_cmd_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused: parsing leaves the
    # parser unchanged (``append`` copies its default list)
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except FileNotFoundError as exc:
        sys.stderr.write(f"cannot read {exc.filename}\n")
        return EXIT_USAGE
    except FoliationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NEGATIVE
