"""Command-line interface.

Subcommands: gen, boundary, hull, separate, extreme, kyfan, convexify,
check-convex, keyinterval, bauer, multimax, expose, generic, plot.

Exit codes: 0 success, 1 verification failure (an invariant the theory
guarantees was found violated), 2 input error.  Reports are JSON by
default (``--csv`` where a table makes sense) and byte-deterministic for
fixed inputs and seeds.
"""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import lp, measures, plotting, sets
from ._util import dumps
from .convexify import ConvexTraceSpec, biconjugate, hat_signed
from .errors import ConsistencyError, IterationLimitError, ValidationError
from .generators import GENERATORS
from .maxprinciple import bauer_verify, expose, genericity_experiment, multi_max_verify
from .space import (
    FiniteSpace,
    FunctionSystem,
    as_field,
    basis_from_csv,
    load_instance,
    system_to_dict,
)

STRICT_TOL = 1e-12

# gen subcommand: each family's integer arguments, in the order its
# generator takes them, with the default of each optional flag
_GEN_ARGS = {
    "naturals": [("n", None)],
    "interval": [("n_grid", None)],
    "cantor": [("level", None), ("--points-per-cell", 3)],
    "disk": [("--n-circle", 64), ("--rings", 2), ("--degree", 8)],
    "random": [("n", None), ("d", None), ("--seed", None)],
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dump_lp", None):
        lp.set_dump_path(args.dump_lp)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, IterationLimitError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        lp.set_dump_path(None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="choquet",
        description="Choquet boundaries, trace-convex hulls and maximum "
        "principles on finite point spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    common.add_argument("--dump-lp", metavar="PATH",
                        help="append every solved LP instance to PATH as JSON lines")

    inst = argparse.ArgumentParser(add_help=False)
    inst.add_argument("instance", nargs="?", default="-",
                      help="instance JSON path ('-' = stdin)")
    inst.add_argument("--basis-csv", metavar="PATH",
                      help="build the instance from a CSV basis matrix instead")

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None,
                     help="classification tolerance (module default when omitted)")
    tol.add_argument("--strict", action="store_true",
                     help=f"pin the classification tolerance to {STRICT_TOL:g}")

    p = sub.add_parser("gen", parents=[common], help="generate an instance")
    gsub = p.add_subparsers(dest="generator", required=True)
    for name, arguments in _GEN_ARGS.items():
        g = gsub.add_parser(name, parents=[common])
        for flag, default in arguments:
            if flag.startswith("-"):
                g.add_argument(flag, type=int, default=default)
            else:
                g.add_argument(flag, type=int)
        g.set_defaults(handler=_cmd_gen)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("boundary", parents=[common, inst],
                       help="classify every point against the Choquet boundary")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--plot", metavar="PATH", help="also write an SVG rendering")
    p.set_defaults(handler=_cmd_boundary)

    p = sub.add_parser("hull", parents=[common, inst], help="trace-convex hull of a point set")
    p.add_argument("--points", required=True, help="comma-separated point labels")
    p.add_argument("--ambient", help="restrict reported membership to these labels")
    p.add_argument("--plot", metavar="PATH", help="also write an SVG rendering")
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("separate", parents=[common, inst],
                       help="separate a point from a set by a basis element")
    p.add_argument("--points", required=True, help="comma-separated labels of the set")
    p.add_argument("--target", required=True, help="label of the point to separate")
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("extreme", parents=[common, inst], help="extreme points of a set")
    p.add_argument("--points", help="comma-separated labels (default: all points)")
    p.add_argument("--krein-milman", action="store_true",
                   help="also verify hull(S) == hull(extreme(S))")
    p.set_defaults(handler=_cmd_extreme)

    p = sub.add_parser("kyfan", parents=[common, inst],
                       help="Ky Fan segments and extreme points")
    p.add_argument("--segment", metavar="Y,Z", help="labels of the two endpoints")
    p.add_argument("--points", help="set for extreme-point search (default: all)")
    p.set_defaults(handler=_cmd_kyfan)

    p = sub.add_parser("keyinterval", parents=[common, inst],
                       help="representing-measure value range of a field per point")
    p.add_argument("--field", required=True, help="field JSON/CSV path")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_keyinterval)

    p = sub.add_parser("convexify", parents=[common, inst, tol],
                       help="biconjugate and both convexification variants")
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", type=float, default=1.0, help="signed-variant strip width")
    p.set_defaults(handler=_cmd_convexify)

    p = sub.add_parser("check-convex", parents=[common, inst, tol],
                       help="test a field for Choquet convexity")
    p.add_argument("--field", required=True)
    p.set_defaults(handler=_cmd_check_convex)

    p = sub.add_parser("bauer", parents=[common, inst, tol],
                       help="verify the maximum principle for a convex-trace spec")
    p.add_argument("--spec", required=True, help="max-of-affine spec JSON path")
    p.set_defaults(handler=_cmd_bauer)

    p = sub.add_parser("multimax", parents=[common, inst, tol],
                       help="verify the common-maximizer principle for a family")
    p.add_argument("--spec", action="append", required=True,
                   help="spec JSON path (repeatable)")
    p.set_defaults(handler=_cmd_multimax)

    p = sub.add_parser("expose", parents=[common, inst],
                       help="exposing functional of a boundary point")
    p.add_argument("--target", required=True)
    p.set_defaults(handler=_cmd_expose)

    p = sub.add_parser("generic", parents=[common, inst],
                       help="unique-maximizer frequency under random perturbations")
    p.add_argument("--field", help="base field (default: identically zero)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tie-tol", type=float, default=1e-9)
    p.add_argument("--trial-csv", metavar="PATH", help="per-trial outcomes as CSV")
    p.set_defaults(handler=_cmd_generic)

    p = sub.add_parser("plot", parents=[common, inst], help="SVG rendering of the instance")
    p.add_argument("--axes", help="one or two basis-row indices, comma-separated")
    p.add_argument("--boundary", action="store_true", help="highlight the Choquet boundary")
    p.add_argument("--hull", metavar="LABELS", help="highlight the hull of these labels")
    p.set_defaults(handler=_cmd_plot)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _write(args, text):
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _load_system(args):
    if getattr(args, "basis_csv", None):
        with open(args.basis_csv, encoding="utf-8") as fh:
            B = basis_from_csv(fh)
        labels = tuple(f"x{j}" for j in range(B.shape[1]))
        return FunctionSystem(FiniteSpace(labels), B)
    if args.instance == "-":
        system, _ = load_instance(sys.stdin)
        return system
    with open(args.instance, encoding="utf-8") as fh:
        system, _ = load_instance(fh)
    return system


def _load_field(system, path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        try:
            values = [float(line.split(",")[0]) for line in text.splitlines() if line.strip()]
        except ValueError as exc:
            raise ValidationError(f"field file is neither JSON nor CSV: {exc}") from exc
    return as_field(system, values)


def _load_spec(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return ConvexTraceSpec.from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from exc


def _labels_to_indices(system, text):
    labels = [t.strip() for t in text.split(",") if t.strip()]
    if not labels:
        raise ValidationError("empty label list")
    return tuple(system.space.index(lbl) for lbl in labels)


def _classification_tol(args, default):
    if getattr(args, "strict", False):
        if args.tol is not None:
            raise ValidationError("--strict and --tol are mutually exclusive")
        return STRICT_TOL
    if getattr(args, "tol", None) is not None:
        if args.tol <= 0:
            raise ValidationError("tolerance must be positive")
        return args.tol
    return default


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CHOQUET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"CHOQUET_SEED must be an integer: {env!r}") from exc
    return 0


# ---------------------------------------------------------------------------
# handlers


def _cmd_gen(args):
    values = [
        _seed(args) if flag == "--seed" else getattr(args, flag.lstrip("-").replace("-", "_"))
        for flag, _ in _GEN_ARGS[args.generator]
    ]
    inst = GENERATORS[args.generator](*values)
    doc = system_to_dict(inst.system, expected=inst.expected_dict())
    return _write(args, dumps(doc))


def _cmd_boundary(args):
    system = _load_system(args).require_valid()
    report = measures.choquet_boundary(system)
    if args.plot:
        svg = plotting.render_svg(system, boundary=report.boundary)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
    if args.csv:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["label", "is_boundary", "min_self_mass", "vertex"])
        for row in report.to_dict(system)["points"]:
            w.writerow([row["label"], row["is_boundary"],
                        f"{row['min_self_mass']:.12g}", row["vertex"]])
        return _write(args, buf.getvalue())
    return _write(args, dumps(report.to_dict(system)))


def _cmd_hull(args):
    system = _load_system(args).require_valid()
    S = _labels_to_indices(system, args.points)
    ambient = _labels_to_indices(system, args.ambient) if args.ambient else None
    hull = sets.trace_hull(system, S, ambient=ambient)
    if args.plot:
        svg = plotting.render_svg(system, hull=hull)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
    doc = {
        "points": [system.space.labels[j] for j in S],
        "hull": [system.space.labels[j] for j in hull],
        "is_trace_convex": hull == S,
    }
    return _write(args, dumps(doc))


def _cmd_separate(args):
    system = _load_system(args).require_valid()
    C = _labels_to_indices(system, args.points)
    xbar = system.space.index(args.target)
    result = sets.separate(system, C, xbar)
    doc = result.to_dict()
    doc["target"] = args.target
    doc["set"] = [system.space.labels[j] for j in C]
    return _write(args, dumps(doc))


def _cmd_extreme(args):
    system = _load_system(args).require_valid()
    S = _labels_to_indices(system, args.points) if args.points else tuple(range(system.n))
    ext = sets.phi_extreme_points(system, S)
    doc = {
        "points": [system.space.labels[j] for j in S],
        "extreme": [system.space.labels[j] for j in ext],
    }
    code = 0
    if args.krein_milman:
        km = sets.krein_milman_verify(system, S)
        doc["krein_milman"] = km.to_dict(system)
        code = 0 if km.ok else 1
    _write(args, dumps(doc))
    return code


def _cmd_kyfan(args):
    system = _load_system(args).require_valid()
    doc = {}
    if args.segment:
        yz = _labels_to_indices(system, args.segment)
        if len(yz) != 2:
            raise ValidationError("--segment needs exactly two labels")
        seg = sets.kyfan_segment(system, yz[0], yz[1])
        doc["segment"] = {
            "endpoints": [system.space.labels[j] for j in yz],
            "members": [system.space.labels[j] for j in seg],
        }
    else:
        S = _labels_to_indices(system, args.points) if args.points else tuple(range(system.n))
        ext = sets.kyfan_extreme_points(system, S)
        doc["extreme"] = {
            "points": [system.space.labels[j] for j in S],
            "members": [system.space.labels[j] for j in ext],
        }
    return _write(args, dumps(doc))


def _cmd_keyinterval(args):
    system = _load_system(args).require_valid()
    f = _load_field(system, args.field)
    rows = []
    for x in range(system.n):
        iv = measures.key_interval(system, f, x)
        rows.append({"label": system.space.labels[x], "lo": iv.lo,
                     "value": float(f[x]), "hi": iv.hi})
    if args.csv:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["label", "lo", "value", "hi"])
        for r in rows:
            w.writerow([r["label"], f"{r['lo']:.12g}", f"{r['value']:.12g}", f"{r['hi']:.12g}"])
        return _write(args, buf.getvalue())
    return _write(args, dumps({"intervals": rows}))


def _cmd_convexify(args):
    system = _load_system(args).require_valid()
    f = _load_field(system, args.field)
    tol = _classification_tol(args, 1e-7)
    if args.alpha <= 0:
        raise ValidationError("--alpha must be positive")
    fxx = biconjugate(system, f)  # hat_positive is this same sweep
    hsig = hat_signed(system, f, alpha=args.alpha)
    doc = {
        "field": [float(v) for v in f],
        "biconjugate": [float(v) for v in fxx],
        "hat_positive": [float(v) for v in fxx],
        "hat_signed": [float(v) for v in hsig],
        "alpha": args.alpha,
        "is_choquet_convex": bool(np.max(f - fxx) <= tol),
        "signed_vs_positive_gap": float(np.max(fxx - hsig)),
        "tolerance": tol,
    }
    return _write(args, dumps(doc))


def _cmd_check_convex(args):
    system = _load_system(args).require_valid()
    f = _load_field(system, args.field)
    tol = _classification_tol(args, 1e-7)
    fxx = biconjugate(system, f)
    gap = float(np.max(f - fxx))
    doc = {"is_choquet_convex": gap <= tol, "max_gap": gap, "tolerance": tol}
    return _write(args, dumps(doc))


def _cmd_bauer(args):
    system = _load_system(args).require_valid()
    spec = _load_spec(args.spec)
    tol = _classification_tol(args, 1e-9)
    report = bauer_verify(system, spec, tol=tol)
    _write(args, dumps(report.to_dict(system)))
    return 0 if report.bauer_ok else 1


def _cmd_multimax(args):
    system = _load_system(args).require_valid()
    specs = [_load_spec(path) for path in args.spec]
    tol = _classification_tol(args, 1e-9)
    report = multi_max_verify(system, specs, tol=tol)
    _write(args, dumps(report.to_dict(system)))
    return 0 if report.ok else 1


def _cmd_expose(args):
    system = _load_system(args).require_valid()
    xbar = system.space.index(args.target)
    phi = expose(system, xbar)
    vals = system.basis.T @ phi.coeffs
    others = np.delete(vals, xbar)
    doc = {
        "target": args.target,
        "coeffs": [float(v) for v in phi.coeffs],
        "margin": float(vals[xbar] - others.max()) if others.size else float("inf"),
    }
    return _write(args, dumps(doc))


def _cmd_generic(args):
    system = _load_system(args).require_valid()
    f = _load_field(system, args.field) if args.field else np.zeros(system.n)
    if args.tie_tol <= 0:
        raise ValidationError("--tie-tol must be positive")
    report = genericity_experiment(
        system, f, trials=args.trials, eps=args.eps, seed=_seed(args), tie_tol=args.tie_tol
    )
    if args.trial_csv:
        with open(args.trial_csv, "w", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["trial", "unique_max"])
            for t, flag in enumerate(report.singleton_flags):
                w.writerow([t, flag])
    return _write(args, dumps(report.to_dict()))


def _cmd_plot(args):
    system = _load_system(args).require_valid()
    axes = None
    if args.axes:
        axes = tuple(int(a) for a in args.axes.split(","))
    boundary = measures.choquet_boundary(system).boundary if args.boundary else ()
    hull = ()
    if args.hull:
        hull = sets.trace_hull(system, _labels_to_indices(system, args.hull))
    return _write(args, plotting.render_svg(system, boundary=boundary, hull=hull, axes=axes))


if __name__ == "__main__":
    sys.exit(main())
