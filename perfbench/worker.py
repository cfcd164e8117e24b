"""Benchmark worker: sets up one workload in a fresh process and times it.

Run by ``run.py``, never by hand.  Modes:

* ``setup``: import, build and validate the workload, report the time.
* ``run``: after set-up, repeat whole passes until ``--seconds`` have gone
  by (and at least the workload's minimum), timing each top-level call
  and scaling it by the calibration chunk timed around it.
* ``trace``: an untraced phase of about ``--seconds / 2``, then a fresh
  set-up and the same number of passes under ``tracing.Tracer``; then the
  recorded LPs are re-solved with HiGHS.

Only ``choquet`` and numpy are imported before timing ends, so the peak
resident memory reported is the program's own.  The raw results go to
stdout as one pickle; ``run.py`` checks and summarizes them.
"""

import argparse
import contextlib
import hashlib
import io
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# On a two-core virtual machine with a shared host, CPU speed moved by up
# to ~1.7x within seconds and for minutes at a time, with nothing else
# running in the machine.  Every timing is therefore scaled by a
# calibration chunk timed next to it (see ``calibrate``): a call that took
# t seconds of wall time while the chunk took c reports
# t * CAL_REFERENCE_S / c, its wall time on a machine where the chunk takes
# CAL_REFERENCE_S.  The raw wall times travel in the report as well.
CAL_REFERENCE_S = 2.0e-3
CAL_EVERY_S = 0.05  # at most this much call time between two calibrations


def pinned_cpu():
    """The CPU the worker runs on: the highest one it may use."""
    return max(os.sched_getaffinity(0))


def calibrate():
    """Wall time of a fixed chunk of pure-Python and small-numpy work, the
    same mix the program runs; the chunk never touches ``choquet``."""
    import numpy as np

    A = np.random.default_rng(0).normal(size=(20, 20)) + 20.0 * np.eye(20)
    t0 = time.perf_counter()
    acc = 0
    for i in range(12_000):
        acc += i % 7
    for _ in range(80):
        np.linalg.solve(A, A[:, 0]) @ A
    return time.perf_counter() - t0


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def summarize(fn, out):
    """The verdict part of a return value, in plain picklable form."""
    import numpy as np

    if fn == "choquet_boundary":
        return out.boundary
    if fn == "separate":
        return (bool(out.separable), None if out.witness is None else np.array(out.witness.coeffs))
    if fn == "expose":
        return np.array(out.coeffs)
    if fn == "key_interval":
        return (float(out.lo), float(out.hi))
    if isinstance(out, (bool, np.bool_)):
        return bool(out)
    return out


class Runner:
    def __init__(self, mode):
        import choquet

        if mode == "inproc":
            import choquet.cli  # noqa: F401  (makes choquet.cli an attribute)
        self.choquet = choquet
        self.mode = mode  # how CLI operations run: "subprocess" or "inproc"
        self.env = cli_env()

    def call(self, op):
        if op.fn != "cli":
            return getattr(self.choquet, op.fn)(*op.args, **op.kwargs)
        if self.mode == "subprocess":
            proc = subprocess.run([sys.executable, "-m", "choquet.cli", *op.args],
                                  env=self.env, capture_output=True, timeout=120)
            return proc.returncode, proc.stdout
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.choquet.cli.main(list(op.args))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue().encode()

    def run_passes(self, ops, seconds, min_passes, passes=None, tracer=None):
        """Whole passes over ``ops``: exactly ``passes`` when given, else
        until ``seconds`` have gone by and at least ``min_passes`` are done.

        A calibration runs at the start and end of every pass and before any
        call that follows more than ``CAL_EVERY_S`` of calls; each call is
        scaled by the mean of the two calibrations around it."""
        latencies, scaled, outputs, cals = [], [], [], []
        done = 0
        t_start = time.perf_counter()

        def close(pending, before, after):
            factor = CAL_REFERENCE_S / ((before + after) / 2.0)
            scaled.extend(latencies[i] * factor for i in pending)
            pending.clear()

        while True:
            before = calibrate()
            cals.append(before)
            since, pending = 0.0, []
            for k, op in enumerate(ops):
                if since >= CAL_EVERY_S:
                    after = calibrate()
                    cals.append(after)
                    close(pending, before, after)
                    before, since = after, 0.0
                if tracer is not None:
                    tracer.call_id = done * len(ops) + k
                t0 = time.perf_counter()
                try:
                    out = self.call(op)
                    err = None
                except Exception as exc:  # counted as a failed operation
                    out, err = None, f"{type(exc).__name__}: {exc}"[:300]
                latencies.append(time.perf_counter() - t0)
                since += latencies[-1]
                pending.append(len(latencies) - 1)
                outputs.append(("error", err) if err else ("ok", summarize(op.fn, out)))
            after = calibrate()
            cals.append(after)
            close(pending, before, after)
            done += 1
            if passes is not None:
                if done >= passes:
                    break
            elif done >= min_passes and time.perf_counter() - t_start >= seconds:
                break
        return {"passes": done, "latency_s": latencies, "scaled_s": scaled, "outputs": outputs,
                "calibration_s": cals}


def setup(name, seed, workdir):
    """Import, build and validate; returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import choquet  # noqa: F401  (the import is part of what set-up costs)
    import workloads

    wl = workloads.build(name, seed, workdir)
    wl.prepare()
    return wl, time.perf_counter() - t0


def highs_status(prog):
    """Status HiGHS gives the same LinearProgram (scipy is imported only
    after timing, so it never counts toward the program's memory)."""
    import numpy as np
    from scipy.optimize import linprog

    A, b, rel = prog.constraint_matrix, prog.rhs, np.asarray(prog.relations)
    le, ge, eq = rel == "LE", rel == "GE", rel == "EQ"
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(prog.lower, prog.upper)]
    res = linprog(prog.objective, A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
                  bounds=bounds, method="highs")
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, f"highs-{res.status}")


def trace_run(wl, args):
    import workloads
    from tracing import Tracer

    runner = Runner("inproc")
    plain = runner.run_passes(wl.ops, args.seconds / 2.0, 1)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call_id = "setup"
        traced_wl = workloads.build(args.workload, args.seed, args.workdir)
        traced_wl.prepare()
        traced = runner.run_passes(traced_wl.ops, 0.0, 1, passes=plain["passes"], tracer=tracer)
    finally:
        tracer.uninstall()

    # Re-solve each distinct recorded LP once with HiGHS.
    seen, mismatch = {}, 0
    for _, prog, status in tracer.lps:
        if status == "error":
            continue
        h = hashlib.blake2b(digest_size=16)
        for arr in (prog.objective, prog.constraint_matrix, prog.rhs, prog.lower, prog.upper):
            h.update(arr.tobytes())
        h.update(repr(prog.relations).encode())
        key = h.digest()
        if key not in seen:
            seen[key] = highs_status(prog)
        mismatch += seen[key] != status

    import_ms = []
    for _ in range(3):
        code = "import time; t = time.perf_counter(); import choquet.cli; print((time.perf_counter() - t) * 1e3)"
        proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        import_ms.append(float(proc.stdout))

    dur, _, _ = tracer.span_table()
    lp_spans = [i for i, _, _ in tracer.lps]
    return {
        "plain": plain,
        "traced": traced,
        "summary": tracer.summary(),
        "lp": {
            "statuses": [s for _, _, s in tracer.lps],
            "cells": sum(p.n_rows * p.n_vars for _, p, _ in tracer.lps),
            "durations_s": [float(dur[i]) for i in lp_spans],
            "distinct": len(seen),
            "status_mismatch": mismatch,
        },
        "validate_peak_bytes": tracer.validate_peaks,
        "import_ms": import_ms,
        "spans": tracer.to_json(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    # One CPU for the worker and its CLI children, so that the calibration
    # chunk runs where the calls run; CLI children moved between CPUs at
    # will and their times spread twice as wide.
    os.sched_setaffinity(0, {pinned_cpu()})

    wl, setup_s = setup(args.workload, args.seed, args.workdir)
    result = {"setup_s": setup_s}
    if args.mode == "run":
        runner = Runner("subprocess")
        result.update(runner.run_passes(wl.ops, args.seconds, wl.min_passes))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    elif args.mode == "trace":
        result.update(trace_run(wl, args))
    sys.stdout.flush()
    pickle.dump(result, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
