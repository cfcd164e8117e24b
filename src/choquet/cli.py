"""Command-line interface.

Subcommands: gen, boundary, hull, separate, extreme, kyfan, convexify,
check-convex, keyinterval, bauer, multimax, expose, generic, plot.

``main`` loads and validates the instance (every subcommand but ``gen``),
rejects a ``--tol``, ``--alpha``, ``--eps`` or ``--tie-tol`` that is not
positive and finite, and writes the report to ``-o``; each handler only
computes the report, a dict (canonical JSON) or a str (CSV or SVG).
``keyinterval`` reads every point's interval off two ``biconjugate``
sweeps: the lower ends are f**, the upper ends -(-f)**.
``--tol`` defaults to ``CONVEX_TOL`` (1e-7) for convexify and check-convex
and to ``ARGMAX_TOL`` (1e-9) for bauer and multimax, ``--tie-tol`` to
``TIE_TOL`` (1e-9); ``--seed`` defaults to 0.

Exit codes: 0 success, 1 verification failure (an invariant the theory
guarantees was found violated), 2 input error.  Reports are JSON by
default (``--csv`` where a table makes sense) and byte-deterministic for
fixed inputs and seeds.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import lp, measures, plotting, sets
from ._util import dumps, jsonable
from .convexify import CONVEX_TOL, ConvexTraceSpec, biconjugate, convexity_gap, hat_signed
from .errors import ConsistencyError, IterationLimitError, ValidationError
from .generators import GENERATORS
from .maxprinciple import (ARGMAX_TOL, TIE_TOL, bauer_verify, expose,
                           genericity_experiment, multi_max_verify)
from .space import (
    FiniteSpace,
    FunctionSystem,
    as_field,
    basis_from_csv,
    load_instance,
    system_to_dict,
)

# gen subcommand: each family's integer arguments, in the order its
# generator takes them, with the default of each optional flag
_GEN_ARGS = {
    "naturals": [("n", None)],
    "interval": [("n_grid", None)],
    "cantor": [("level", None), ("--points-per-cell", 3)],
    "disk": [("--n-circle", 64), ("--rings", 2), ("--degree", 8)],
    "random": [("n", None), ("d", None), ("--seed", 0)],
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    lp.set_dump_path(args.dump_lp)
    try:
        system = None if args.command == "gen" else _load_system(args).require_valid()
        for name in ("tol", "alpha", "eps", "tie_tol"):  # where the subcommand has them
            if not 0 < getattr(args, name, 1.0) < np.inf:
                raise ValidationError(f"--{name.replace('_', '-')} must be positive and finite")
        report, code = args.handler(system, args)
        text = report if isinstance(report, str) else dumps(report)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            _write_file(args.output, text)
        return code
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

    def command(name, handler, help, tol=None):
        p = sub.add_parser(name, parents=[common, inst], help=help)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol,
                           help="classification tolerance (default: %(default)g)")
        p.set_defaults(handler=handler)
        return p

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

    p = command("boundary", _cmd_boundary,
                "classify every point against the Choquet boundary")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--plot", metavar="PATH", help="also write an SVG rendering")

    p = command("hull", _cmd_hull, "trace-convex hull of a point set")
    p.add_argument("--points", required=True, help="comma-separated point labels")
    p.add_argument("--ambient", help="restrict reported membership to these labels")
    p.add_argument("--plot", metavar="PATH", help="also write an SVG rendering")

    p = command("separate", _cmd_separate, "separate a point from a set by a basis element")
    p.add_argument("--points", required=True, help="comma-separated labels of the set")
    p.add_argument("--target", required=True, help="label of the point to separate")

    p = command("extreme", _cmd_extreme, "extreme points of a set")
    p.add_argument("--points", help="comma-separated labels (default: all points)")
    p.add_argument("--krein-milman", action="store_true",
                   help="also verify hull(S) == hull(extreme(S))")

    p = command("kyfan", _cmd_kyfan, "Ky Fan segments and extreme points")
    p.add_argument("--segment", metavar="Y,Z", help="labels of the two endpoints")
    p.add_argument("--points", help="set for extreme-point search (default: all)")

    p = command("keyinterval", _cmd_keyinterval,
                "representing-measure value range of a field per point")
    p.add_argument("--field", required=True, help="field JSON/CSV path")
    p.add_argument("--csv", action="store_true")

    p = command("convexify", _cmd_convexify, "biconjugate and both convexification variants",
                tol=CONVEX_TOL)
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", type=float, default=1.0, help="signed-variant strip width")

    p = command("check-convex", _cmd_check_convex, "test a field for Choquet convexity",
                tol=CONVEX_TOL)
    p.add_argument("--field", required=True)

    p = command("bauer", _cmd_bauer, "verify the maximum principle for a convex-trace spec",
                tol=ARGMAX_TOL)
    p.add_argument("--spec", required=True, help="max-of-affine spec JSON path")

    p = command("multimax", _cmd_multimax,
                "verify the common-maximizer principle for a family", tol=ARGMAX_TOL)
    p.add_argument("--spec", action="append", required=True,
                   help="spec JSON path (repeatable)")

    p = command("expose", _cmd_expose, "exposing functional of a boundary point")
    p.add_argument("--target", required=True)

    p = command("generic", _cmd_generic,
                "unique-maximizer frequency under random perturbations")
    p.add_argument("--field", help="base field (default: identically zero)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tie-tol", type=float, default=TIE_TOL)
    p.add_argument("--trial-csv", metavar="PATH", help="per-trial outcomes as CSV")

    p = command("plot", _cmd_plot, "SVG rendering of the instance")
    p.add_argument("--axes", help="one or two basis-row indices, comma-separated")
    p.add_argument("--boundary", action="store_true", help="highlight the Choquet boundary")
    p.add_argument("--hull", metavar="LABELS", help="highlight the hull of these labels")

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _write_file(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _load_system(args):
    if args.basis_csv:
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


def _names(system, idx):
    return [system.space.labels[j] for j in idx]


# ---------------------------------------------------------------------------
# handlers: (validated system, args) -> (report, exit code)


def _cmd_gen(_system, args):
    values = [getattr(args, flag.lstrip("-").replace("-", "_"))
              for flag, _ in _GEN_ARGS[args.generator]]
    inst = GENERATORS[args.generator](*values)
    return system_to_dict(inst.system, expected=inst.expected_dict()), 0


def _cmd_boundary(system, args):
    report = measures.choquet_boundary(system)
    if args.plot:
        _write_file(args.plot, plotting.render_svg(system, boundary=report.boundary))
    doc = report.to_dict(system)
    if not args.csv:
        return doc, 0
    rows = [[r["label"], r["is_boundary"], f"{r['min_self_mass']:.12g}", r["vertex"]]
            for r in doc["points"]]
    return _csv(["label", "is_boundary", "min_self_mass", "vertex"], rows), 0


def _cmd_hull(system, args):
    S = _labels_to_indices(system, args.points)
    ambient = _labels_to_indices(system, args.ambient) if args.ambient else None
    hull = sets.trace_hull(system, S, ambient=ambient)
    if args.plot:
        _write_file(args.plot, plotting.render_svg(system, hull=hull))
    return {"points": _names(system, S), "hull": _names(system, hull),
            "is_trace_convex": hull == S}, 0


def _cmd_separate(system, args):
    C = _labels_to_indices(system, args.points)
    doc = sets.separate(system, C, system.space.index(args.target)).to_dict()
    doc["target"] = args.target
    doc["set"] = _names(system, C)
    return doc, 0


def _cmd_extreme(system, args):
    S = _labels_to_indices(system, args.points) if args.points else tuple(range(system.n))
    if not args.krein_milman:
        return {"points": _names(system, S),
                "extreme": _names(system, sets.phi_extreme_points(system, S))}, 0
    km = sets.krein_milman_verify(system, S)
    doc = {"points": _names(system, S), "extreme": _names(system, km.extreme),
           "krein_milman": km.to_dict(system)}
    return doc, 0 if km.ok else 1


def _cmd_kyfan(system, args):
    if args.segment:
        yz = _labels_to_indices(system, args.segment)
        if len(yz) != 2:
            raise ValidationError("--segment needs exactly two labels")
        seg = sets.kyfan_segment(system, yz[0], yz[1])
        return {"segment": {"endpoints": _names(system, yz), "members": _names(system, seg)}}, 0
    S = _labels_to_indices(system, args.points) if args.points else tuple(range(system.n))
    ext = sets.kyfan_extreme_points(system, S)
    return {"extreme": {"points": _names(system, S), "members": _names(system, ext)}}, 0


def _cmd_keyinterval(system, args):
    f = _load_field(system, args.field)
    lo, hi = biconjugate(system, f), -biconjugate(system, -f)
    rows = jsonable([{"label": label, "lo": a, "value": v, "hi": b}
                     for label, a, v, b in zip(system.space.labels, lo, f, hi)])
    if not args.csv:
        return {"intervals": rows}, 0
    table = [[r["label"], *(f"{r[k]:.12g}" for k in ("lo", "value", "hi"))] for r in rows]
    return _csv(["label", "lo", "value", "hi"], table), 0


def _cmd_convexify(system, args):
    f = _load_field(system, args.field)
    fxx = biconjugate(system, f)  # hat_positive is this same sweep
    hsig = hat_signed(system, f, alpha=args.alpha)
    doc = {
        "field": [float(v) for v in f],
        "biconjugate": [float(v) for v in fxx],
        "hat_positive": [float(v) for v in fxx],
        "hat_signed": [float(v) for v in hsig],
        "alpha": args.alpha,
        "is_choquet_convex": bool(np.max(f - fxx) <= args.tol),
        "signed_vs_positive_gap": float(np.max(fxx - hsig)),
        "tolerance": args.tol,
    }
    return doc, 0


def _cmd_check_convex(system, args):
    gap = convexity_gap(system, _load_field(system, args.field))
    return {"is_choquet_convex": gap <= args.tol, "max_gap": gap, "tolerance": args.tol}, 0


def _cmd_bauer(system, args):
    report = bauer_verify(system, _load_spec(args.spec), tol=args.tol)
    return report.to_dict(system), 0 if report.bauer_ok else 1


def _cmd_multimax(system, args):
    report = multi_max_verify(system, [_load_spec(path) for path in args.spec], tol=args.tol)
    return report.to_dict(system), 0 if report.ok else 1


def _cmd_expose(system, args):
    xbar = system.space.index(args.target)
    phi = expose(system, xbar)
    vals = system.basis.T @ phi.coeffs
    others = np.delete(vals, xbar)
    # a one-point space has no other point to compare against
    margin = float(vals[xbar] - others.max()) if others.size else None
    return {"target": args.target, "coeffs": [float(v) for v in phi.coeffs],
            "margin": margin}, 0


def _cmd_generic(system, args):
    f = _load_field(system, args.field) if args.field else np.zeros(system.n)
    report = genericity_experiment(
        system, f, trials=args.trials, eps=args.eps, seed=args.seed, tie_tol=args.tie_tol
    )
    if args.trial_csv:
        _write_file(args.trial_csv,
                    _csv(["trial", "unique_max"], enumerate(report.singleton_flags)))
    return report.to_dict(), 0


def _cmd_plot(system, args):
    axes = None
    if args.axes:
        try:
            axes = tuple(int(a) for a in args.axes.split(","))
        except ValueError as exc:
            raise ValidationError(f"--axes takes integer row indices: {args.axes!r}") from exc
    boundary = measures.choquet_boundary(system).boundary if args.boundary else ()
    hull = sets.trace_hull(system, _labels_to_indices(system, args.hull)) if args.hull else ()
    return plotting.render_svg(system, boundary=boundary, hull=hull, axes=axes), 0


if __name__ == "__main__":
    sys.exit(main())
