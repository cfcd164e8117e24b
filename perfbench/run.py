"""choquet benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 20 --trace 0

Workloads: boundary, convexify, queries, cli (see README.md).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Call timings are
wall times scaled by a calibration chunk timed next to each call
(``worker.calibrate``), summarized as each operation's median over the
run's passes.  Set-up is measured in separate worker processes
(``SETUP_SAMPLES`` in all) and reported as their median.  Every
operation's output is checked against an independent ground truth
(``truth.py``); wrong verdicts and raised errors are counted in
``failed``.  ``correct`` is false when the run itself
cannot be trusted: an output that changes between passes of the same
operation, or a ground truth that could not be certified.
"""

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
# BLAS helper threads spin on the program's small matrices: on two cores
# they cost CPU, not wall time, and make timings depend on whatever else
# runs on the second core.  The worker and its CLI children get one BLAS
# thread unless the caller sets these variables.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_worker(args, mode, workdir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir,
           "--mode", mode]
    proc = subprocess.run(cmd, capture_output=True, timeout=WORKER_TIMEOUT_S, env=worker_env())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"benchmark worker ({mode}) exited with code {proc.returncode}")
    return pickle.loads(proc.stdout)


def environment():
    import numpy as np
    import worker

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build record varies by version
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_cpu": worker.pinned_cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "worker_thread_env": {k: worker_env().get(k) for k in (
            *BLAS_THREAD_VARS, "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def grade(wl, phases, checker, truth):
    """Check every executed operation; returns (attempted, failures, problems).

    Outputs are deterministic, so each operation's first output is checked
    against the truth and every later one must equal it.
    """
    import numpy as np

    def same(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
        if isinstance(a, tuple) and isinstance(b, tuple):
            return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
        return a == b

    first, verdict = {}, {}
    failures, problems = [], []
    attempted = 0
    for outputs in phases:
        for i, out in enumerate(outputs):
            k = i % len(wl.ops)
            op = wl.ops[k]
            attempted += 1
            if k not in first:
                first[k] = out
                try:
                    verdict[k] = checker.check(op, out)
                except truth.Uncertified as exc:
                    verdict[k] = None
                    problems.append(f"uncertified truth for {op.fn} on {op.tag}: {exc}")
            elif not same(first[k], out):
                problems.append(f"output of {op.fn} on {op.tag} changed between passes")
            if verdict[k] is not None:
                failures.append({"fn": op.fn, "tag": op.tag, "reason": verdict[k]})
    return attempted, failures, problems


def timings(wl, latency_s):
    """verdicts_per_s, call_p50_ms and call_tail_ms from each operation's
    median latency over the run's passes."""
    import numpy as np

    lat = np.median(np.asarray(latency_s).reshape(-1, len(wl.ops)), axis=0)
    verdicts = sum(op.verdicts for op in wl.ops)
    return {
        "verdicts_per_s": {"value": verdicts / float(lat.sum()), "unit": "1/s"},
        "call_p50_ms": {"value": float(np.percentile(lat, 50)) * 1e3, "unit": "ms"},
        "call_tail_ms": {"value": float(np.percentile(lat, wl.tail_percentile)) * 1e3,
                         "unit": "ms"},
    }


def end_to_end(wl, res, setups):
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    metrics.update(timings(wl, res["scaled_s"]))
    metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    return metrics


def per_layer(wl, res):
    import numpy as np

    s = res["summary"]

    def get(name, key="self_s"):
        return s.get(name, {}).get(key, 0)

    lp = res["lp"]
    traced = res["traced"]
    verdicts = traced["passes"] * sum(op.verdicts for op in wl.ops)
    plain_scaled = sum(res["plain"]["scaled_s"])
    m = {
        "lp.solve.calls": (get("lp.solve", "calls"), "count"),
        "lp.solve.per_verdict": (get("lp.solve", "calls") / verdicts, "ratio"),
        "lp.solve.self_s": (get("lp.solve"), "s"),
        "lp.solve.matrix_cells": (lp["cells"], "count"),
        "lp.solve.p50_ms": (float(np.median(lp["durations_s"])) * 1e3 if lp["durations_s"] else 0.0,
                            "ms"),
        "lp.solve.infeasible": (lp["statuses"].count("infeasible"), "count"),
        "lp.solve.errors": (lp["statuses"].count("error"), "count"),
        "lp.solve.status_mismatch": (lp["status_mismatch"], "count"),
        "measures.choquet_boundary.self_s": (get("measures.choquet_boundary"), "s"),
        "measures.min_self_mass.calls": (get("measures.min_self_mass", "calls"), "count"),
        "measures.min_self_mass.self_s": (get("measures.min_self_mass"), "s"),
        "measures.is_vertex.calls": (get("measures.is_vertex", "calls"), "count"),
        "measures.is_vertex.self_s": (get("measures.is_vertex"), "s"),
        "measures.key_interval.self_s": (get("measures.key_interval"), "s"),
    }
    for fn in ("biconjugate", "hat_positive", "hat_signed"):
        m[f"convexify.{fn}.self_s"] = (get(f"convexify.{fn}"), "s")
        m[f"convexify.{fn}.lp_calls"] = (get(f"convexify.{fn}", "lp_calls"), "count")
    m["convexify.is_choquet_convex.self_s"] = (get("convexify.is_choquet_convex"), "s")
    m["sets.in_hull.calls"] = (get("sets.in_hull", "calls"), "count")
    m["sets.in_hull.self_s"] = (get("sets.in_hull"), "s")
    for fn in ("trace_hull", "separate", "kyfan_segment"):
        m[f"sets.{fn}.self_s"] = (get(f"sets.{fn}"), "s")
        m[f"sets.{fn}.lp_calls"] = (get(f"sets.{fn}", "lp_calls"), "count")
    m["sets.phi_extreme_points.self_s"] = (get("sets.phi_extreme_points"), "s")
    m["maxprinciple.expose.self_s"] = (get("maxprinciple.expose"), "s")
    m["maxprinciple.expose.lp_calls"] = (get("maxprinciple.expose", "lp_calls"), "count")
    m["space.validate.self_s"] = (get("space.validate"), "s")
    m["space.validate.alloc_peak_mb"] = (max(res["validate_peak_bytes"], default=0) / 2**20, "MB")
    m["space.load_instance.self_s"] = (get("space.load_instance"), "s")
    m["generators.self_s"] = (sum(v["self_s"] for k, v in s.items() if k.startswith("generators.")),
                              "s")
    m["cli.import_ms"] = (statistics.median(res["import_ms"]), "ms")
    m["cli.main.self_s"] = (get("cli.main"), "s")
    m["plotting.render_svg.self_s"] = (get("plotting.render_svg"), "s")
    m["util.dumps.self_s"] = (get("_util.dumps"), "s")
    m["trace.overhead_frac"] = (sum(traced["scaled_s"]) / plain_scaled - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "choquet" / "__init__.py").is_file():
        print(f"error: no choquet sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import truth
    import worker
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        setups = [run_worker(args, "setup", workdir)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, "trace" if args.trace else "run", workdir)
        setups.append(res["setup_s"])
        wl = workloads.build(args.workload, args.seed, workdir)
        phases = ([res["plain"]["outputs"], res["traced"]["outputs"]] if args.trace
                  else [res["outputs"]])
        attempted, failures, problems = grade(wl, phases, truth.Checker(), truth)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_per_pass": len(wl.ops),
        "setup_samples_s": setups,
        "fail_frac": {"value": len(failures) / attempted, "unit": "ratio",
                      "failed": len(failures), "attempted": attempted,
                      "base": "operations attempted (all passes)"},
        "failures": [{"fn": fn, "tag": tag, "reason": reason, "count": n} for (fn, tag, reason), n
                     in sorted(Counter((f["fn"], f["tag"], f["reason"]) for f in failures).items())],
        "problems": problems,
    }
    if args.trace:
        metrics = per_layer(wl, res)
        report["passes"] = res["traced"]["passes"]
        report["lp_distinct_resolved"] = res["lp"]["distinct"]
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(res["spans"]))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(wl, res, setups)
        report["passes"] = res["passes"]
        report["tail_percentile"] = wl.tail_percentile
        report["samples"] = len(res["latency_s"])
        cal = sorted(res["calibration_s"])
        report["calibration_ms"] = {"reference": worker.CAL_REFERENCE_S * 1e3,
                                    "count": len(cal),
                                    "min_median_max": [cal[0] * 1e3, statistics.median(cal) * 1e3,
                                                       cal[-1] * 1e3]}
        report["wall"] = {k: v["value"] for k, v in timings(wl, res["latency_s"]).items()}
    report["metrics"] = metrics

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    fail = report["fail_frac"]
    print(f"{'fail_frac':40s} {fail['value']:.6g} ratio "
          f"({fail['failed']} of {fail['attempted']} operations)")
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
