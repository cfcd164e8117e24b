import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import choquet
from choquet import lp
from choquet.errors import IterationLimitError, ValidationError
from conftest import count_calls


def test_single_variable_bound():
    # min x subject to x >= 3, written as the row -x + s = -3 with slack s >= 0,
    # from the basis {x}
    out = lp.solve(lp.LinearProgram([1.0, 0.0], [[-1.0, 1.0]], [-3.0]), ((0,), [True]))
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert out.point[0] == pytest.approx(3.0, abs=1e-9)


def test_contradictory_simplex_constraints_reject_every_basis():
    # x1 + x2 = 1 and x1 - x2 = 3 force x2 = -1: no basis is primal feasible,
    # and the engine, which has no phase 1, rejects each one handed to it
    prog = lp.LinearProgram(
        [0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 3.0]
    )
    for basis in [((0, 1), [True, True]), ((0,), [True, False]), ((1,), [False, True]),
                  ((), [False, False])]:
        with pytest.raises(ValidationError):
            lp.solve(prog, basis)


def test_free_variable_unbounded():
    # a free variable is a (+, -) pair of columns; max of it is unbounded
    prog = lp.LinearProgram([-1.0, 1.0], np.zeros((0, 2)), [])
    assert lp.solve(prog, ((), [])).status == lp.UNBOUNDED


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        lp.LinearProgram([1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(ValidationError):
        lp.LinearProgram([1.0], [[1.0]], [1.0, 2.0])
    with pytest.raises(ValidationError):
        lp.LinearProgram([np.nan], [[1.0]], [1.0])


def test_iteration_limit_is_explicit():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 9))
    lead = rng.choice(9, size=6, replace=False)
    prog = lp.LinearProgram(rng.normal(size=9), A, A[:, lead] @ rng.uniform(0.0, 1.0, 6))
    basis = lp._crash(A, lead)
    assert lp.solve(prog, basis).status in (lp.OPTIMAL, lp.UNBOUNDED)
    with pytest.raises(IterationLimitError):
        lp.solve(prog, basis, max_iter=1)


def _with_slacks(c, A, rels, b):
    """min c.x over x >= 0 with row i of ``A x`` at most (``rels[i]`` "LE")
    or equal to (``rels[i]`` "EQ") ``b[i]``, as an equality program with one
    slack column per LE row."""
    le = np.flatnonzero(np.asarray(rels) == "LE")
    slacks = np.zeros((len(b), le.size))
    slacks[le, np.arange(le.size)] = 1.0
    return lp.LinearProgram(np.concatenate([c, np.zeros(le.size)]), np.hstack([A, slacks]), b)


def _bland_cycle_lp():
    """The LE rows A x <= b of ``bland_cycle_lp.json`` as [A | I] (x, s) = b,
    with its slack basis, feasible since b >= 0."""
    data = json.loads((Path(__file__).parent / "data" / "bland_cycle_lp.json").read_text())
    b = data["rhs"]
    prog = _with_slacks(data["objective"], data["matrix"], ["LE"] * len(b), b)
    return prog, (tuple(range(prog.n_vars - len(b), prog.n_vars)), [True] * len(b))


def test_rhs_shift_ends_dantzigs_cycle(monkeypatch):
    # from its degenerate slack basis Dantzig's rule cycles on this LP;
    # with the rhs shifted before each stretch it reaches the optimum
    prog, basis = _bland_cycle_lp()
    status, value = _highs(prog)
    assert status == 0
    assert lp.solve(prog, basis, max_iter=5000).value == pytest.approx(value, abs=1e-9)
    monkeypatch.setattr(lp, "_SHIFT", 0.0)
    with pytest.raises(IterationLimitError):
        lp.solve(prog, basis, max_iter=5000)


def _rows(rng, m, n):
    """A random m x n matrix and relations "LE" or "EQ" for its rows."""
    return rng.normal(size=(m, n)), [("LE", "EQ")[i] for i in rng.integers(0, 2, m)]


def _at_random_basis(rng, c, A, rels):
    """The program with rows ``A``, ``rels`` and objective ``c`` whose rhs is
    a combination, with weights in [0, 1], of the columns of a random basis
    of its equality form; returns it with that basis (``lp._crash`` on those
    columns), a feasible start."""
    M = _with_slacks(c, A, rels, np.zeros(len(rels))).constraint_matrix
    lead = rng.choice(M.shape[1], size=min(M.shape), replace=False)
    b = M[:, lead] @ rng.uniform(0.0, 1.0, lead.size)
    return _with_slacks(c, A, rels, b), lp._crash(M, lead)


def _random_feasible_bounded(rng):
    """(program, feasible starting basis), bounded below by 0."""
    A, rels = _rows(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    return _at_random_basis(rng, np.abs(rng.normal(size=A.shape[1])), A, rels)


def _random_lp(rng):
    """(program, feasible starting basis) over x >= 0, in equality form:
    half the draws LE/EQ rows with the rhs at a random basis, the others LE
    rows with a random rhs b >= 0 that start at their slacks; the objective
    has either sign, so unbounded and optimal programs both occur."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    if rng.uniform() < 0.5:
        A, rels = _rows(rng, m, n)
        return _at_random_basis(rng, rng.normal(size=n), A, rels)
    prog = _with_slacks(rng.normal(size=n), rng.normal(size=(m, n)), ["LE"] * m,
                        np.abs(rng.normal(size=m)))
    return prog, (tuple(range(n, n + m)), [True] * m)


def _highs(prog):
    """HiGHS on the same program: (status, value)."""
    res = linprog(prog.objective, A_eq=prog.constraint_matrix, b_eq=prog.rhs, bounds=(0, None),
                  method="highs")
    return res.status, res.fun


def test_strong_duality_200_random():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        prog, basis = _random_feasible_bounded(rng)
        out = lp.solve(prog, basis)
        assert out.status == lp.OPTIMAL
        # every variable sits at x >= 0, so the dual objective is exactly b . y
        dual_value = float(prog.rhs @ out.dual_point)
        assert abs(out.value - dual_value) <= 1e-7 * max(1.0, abs(out.value))
        status, value = _highs(prog)
        assert status == 0
        assert out.value == pytest.approx(value, abs=1e-6, rel=1e-6)


def test_resubstitution_within_feas_tol():
    rng = np.random.default_rng(77)
    for _ in range(50):
        prog, basis = _random_feasible_bounded(rng)
        out = lp.solve(prog, basis)
        worst = np.abs(prog.constraint_matrix @ out.point - prog.rhs).max()
        assert worst <= 1e-9 * max(1.0, np.abs(prog.rhs).max())
        assert out.point.min() >= 0.0


def test_deterministic_outcomes():
    rng = np.random.default_rng(9)
    prog, basis = _random_feasible_bounded(rng)
    a, b = lp.solve(prog, basis), lp.solve(prog, basis)
    assert a.status == b.status and a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.dual_point, b.dual_point)


def test_against_scipy_reference():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(120):
        prog, basis = _random_lp(rng)
        out = lp.solve(prog, basis)
        status, value = _highs(prog)
        seen.add(out.status)
        if out.status == lp.OPTIMAL:
            assert status == 0
            assert out.value == pytest.approx(value, abs=1e-6, rel=1e-6)
        else:
            # HiGHS presolve may fold unbounded into "infeasible or unbounded"
            assert status in (2, 3)
    assert seen == {lp.OPTIMAL, lp.UNBOUNDED}


def test_zero_variable_program():
    # its one row 0 = 1 holds at no point: the empty basis that drops it is
    # not primal feasible, and no other fits
    prog = lp.LinearProgram([], np.zeros((1, 0)), [1.0])
    for basis in [((), [False]), None]:
        with pytest.raises(ValidationError):
            lp.solve(prog, basis)


def test_dump_lp_writes_json_lines(tmp_path):
    path = tmp_path / "dump.jsonl"
    lp.set_dump_path(str(path))
    try:
        # min x subject to x >= 2: the row -x + s = -2 with slack s >= 0
        prog = lp.LinearProgram([1.0, 0.0], [[-1.0, 1.0]], [-2.0])
        lp.solve(prog, ((0,), [True]))
    finally:
        lp.set_dump_path(None)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["status"] == lp.OPTIMAL and rec["basis"] == [[0], [True]]
    assert sorted(rec["lp"]) == ["matrix", "objective", "rhs"]
    rebuilt = lp.LinearProgram.from_dict(rec["lp"])
    assert lp.solve(rebuilt, rec["basis"]).value == pytest.approx(2.0)
    # every variable lies in [0, inf) and every row is an equality
    assert rebuilt.lower.tolist() == [0.0, 0.0] and rebuilt.upper.tolist() == [np.inf, np.inf]
    assert rebuilt.relations == ("EQ",)


def test_from_dict_reads_records_with_equality_relations():
    # the record format that named each row's relation, all of them "EQ"
    rebuilt = lp.LinearProgram.from_dict(
        {"objective": [1.0, 0.0], "matrix": [[-1.0, 1.0]], "rhs": [-2.0], "relations": ["EQ"]}
    )
    assert lp.solve(rebuilt, ((0,), [True])).value == pytest.approx(2.0)


@pytest.mark.parametrize("relations", [["LE"], ["GE"], ["XX"]], ids=["LE", "GE", "XX"])
def test_from_dict_rejects_records_with_other_relations(relations):
    # min x subject to -x <= -2 is not min x subject to -x = -2 with x >= 0:
    # read as equalities such a record would be another program
    with pytest.raises(ValidationError):
        lp.LinearProgram.from_dict({"objective": [1.0], "matrix": [[-1.0]], "rhs": [-2.0],
                                    "relations": relations})


def _standardize_loop(prog):
    """``lp._standardize`` as loops over the rows and the standard-form
    columns, frozen as its reference."""
    A0, b0 = prog.constraint_matrix, prog.rhs
    m, n = A0.shape
    scale, sign = np.ones(m), np.ones(m)
    for i in range(m):
        s = max(np.abs(A0[i]).max(initial=0.0), abs(b0[i]))
        scale[i] = s if s > 0.0 else 1.0
        sign[i] = -1.0 if b0[i] < 0 else 1.0
    columns = [A0[:, j] / scale * sign for j in range(n)]
    A = np.column_stack(columns) if columns else np.zeros((m, 0))
    return A, b0 / scale * sign, prog.objective, sign / scale


def _lp_corpus():
    rng = np.random.default_rng(1234)
    progs = [_random_feasible_bounded(rng) for _ in range(100)]
    rng = np.random.default_rng(42)
    return progs + [_random_lp(rng) for _ in range(200)]


def test_standardize_matches_column_loop():
    for prog, _ in _lp_corpus():
        for a, r in zip(lp._standardize(prog), _standardize_loop(prog)):
            assert np.array_equal(a, r)


def test_solve_bit_identical_to_column_loop(monkeypatch):
    progs = _lp_corpus()
    new = [lp.solve(prog, basis) for prog, basis in progs]
    monkeypatch.setattr(lp, "_standardize", _standardize_loop)
    for (prog, basis), out in zip(progs, new):
        ref = lp.solve(prog, basis)
        assert out.status == ref.status
        if ref.status == lp.OPTIMAL:
            assert out.value == ref.value
            assert np.array_equal(out.point, ref.point)
            assert np.array_equal(out.dual_point, ref.dual_point)


@pytest.mark.parametrize("extra", [0, 2], ids=["one-dependency", "five-dependencies"])
def test_dependent_row_dropped_by_its_weight_and_dual_certified(extra):
    # the self-mass LP of p55 in gen_random(80, 6, seed=3): min mu_55 over
    # probability measures representing column 55, whose appended ones row
    # duplicates the basis's constant row.  Phase 1 once dropped the
    # constraint row of a stuck artificial, kept both ones rows and ended on
    # a basis of condition 6.6e16 whose dual had value 0.45 and reduced
    # costs down to -2.3.  The crash basis at column 55 now finds the
    # dependencies: each of them, 1 and 5 here, drops its own row
    rng = np.random.default_rng(3)
    B = np.vstack([np.ones(80), rng.uniform(0.0, 1.0, size=(5, 80))])
    A = np.vstack([B, np.ones((1, 80)), 2.0 * B[:extra], B[1:1 + extra] + B[2:2 + extra]])
    rhs = A[:, 55].copy()
    c = np.eye(80)[55]
    basis = lp._crash(A, [55])
    assert basis[0][0] == 55 and np.count_nonzero(~basis[1]) == 1 + 2 * extra
    out = lp.solve(lp.LinearProgram(c, A, rhs), basis)
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    y = out.dual_point
    assert rhs @ y == pytest.approx(1.0, abs=1e-9)
    assert (c - A.T @ y).min() >= -1e-9


def _warm_corpus():
    rng = np.random.default_rng(2024)
    rows = np.vstack([np.ones(6), np.arange(6.0), 2.0 * np.arange(6.0)])  # one dependent row
    return [_bland_cycle_lp(),
            (lp.LinearProgram(np.arange(6.0) ** 2, rows, rows[:, 2]), lp._crash(rows, [2])),
            *(_random_feasible_bounded(rng) for _ in range(20))]


def test_warm_start_from_its_own_optimal_basis_takes_no_pivot(monkeypatch):
    for prog, basis in _warm_corpus():
        cold = lp.solve(prog, basis)
        pivots = count_calls(monkeypatch, "_pivot")
        warm = lp.solve(prog, basis=cold.basis)
        assert len(pivots) == 0
        assert warm.status == lp.OPTIMAL
        assert abs(warm.value - cold.value) <= lp.GAP_TOL * max(1.0, abs(cold.value))
        assert np.array_equal(warm.basis[1], cold.basis[1])
        monkeypatch.undo()


# min x1 + x2 + x3 with x1 + x2 = 1, x2 + x3 = 2: optimum 2 at (0, 1, 1);
# the basis {x1, x2} is nonsingular but puts x1 at -1
_SMALL = lp.LinearProgram([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 2.0])


_SMALL_START = ((0, 2), [True, True])  # x1 = 1, x3 = 2


@pytest.mark.parametrize(
    "prog, start",
    [(_SMALL, "none"), (_SMALL, "singular"), (_SMALL, "infeasible"),
     (_bland_cycle_lp()[0], "none"), (_bland_cycle_lp()[0], "singular")],
    ids=["small-none", "small-singular", "small-infeasible", "bland-cycle-none",
         "bland-cycle-singular"],
)
def test_unusable_starting_basis_is_rejected(prog, start, monkeypatch):
    # with no phase 1 to fall back on, a missing, singular or primal
    # infeasible basis is rejected before any pivot
    good = _SMALL_START if prog is _SMALL else _bland_cycle_lp()[1]
    assert lp.solve(prog, good).status == lp.OPTIMAL
    cols, keep = good
    basis = {
        "none": None,
        "singular": ((cols[0], *cols[:-1]), keep),  # a repeated column
        "infeasible": ((0, 1), np.ones(2, dtype=bool)),
    }[start]
    pivots = count_calls(monkeypatch, "_pivot")
    with pytest.raises(ValidationError):
        lp.solve(prog, basis=basis)
    assert not pivots


def test_basis_that_does_not_fit_is_rejected():
    cols, keep = lp.solve(_SMALL, _SMALL_START).basis
    for basis in [(cols, keep[:1]), (cols[:1], keep), ((0, 9), keep)]:
        with pytest.raises(ValidationError):
            lp.solve(_SMALL, basis=basis)


def test_repair_runs_only_where_the_certificate_fails(monkeypatch):
    # the shift leaves negative basic values for the true rhs, so repairs
    # run, but each only after a failed certificate, and the last
    # certificate of every solve passes
    events, certificate, repair = [], lp._certificate, lp._repair

    def certifying(*args):
        out = certificate(*args)
        events.append(out[2] is None)
        return out

    def repairing(*args):
        events.append("repair")
        return repair(*args)

    monkeypatch.setattr(lp, "_certificate", certifying)
    monkeypatch.setattr(lp, "_repair", repairing)
    for prog, basis in [*_lp_corpus(), *_warm_corpus(), (_SMALL, _SMALL_START)]:
        events.clear()
        if lp.solve(prog, basis).status == lp.OPTIMAL:
            assert events[-1] is True
        for before, event in zip(events, events[1:]):
            assert event != "repair" or before is False


@pytest.mark.parametrize("k", [0, 1], ids=["ring2_087", "ring3_081"])
def test_failed_certificate_is_repaired_from_its_basis(k, monkeypatch):
    # the lower-end LPs of key_interval at two points of the seed-2
    # convex-trace field on disk(128,3,12).  Their simplex used to stop on
    # a basis whose certificate fails: at ring2_087 the tableau's reduced
    # costs had drifted from the refactorized ones (least reduced cost
    # -8.0e-08), and at ring3_081 a basic value of -7.2e-05 never left,
    # because the ratio test clips negative basics to 0 (gap 3.0e-04)
    # because the ratio test clips negative basics to 0 (gap 3.0e-04).  Each
    # record holds the basis that simplex stopped on; the repair rounds
    # start there, and the LP solved from its crash basis agrees too
    path = Path(__file__).parent / "data" / "disk128_lower_end_lps.jsonl"
    rec = json.loads(path.read_text().splitlines()[k])
    prog = lp.LinearProgram.from_dict(rec["lp"])
    A, b, c, _ = lp._standardize(prog)
    basis = list(rec["failed_basis"][0])
    assert all(rec["failed_basis"][1])
    assert lp._certificate(A, b, c, basis)[2] is not None
    for rounds in range(1, lp._REPAIR_ROUNDS + 1):
        status, _, basis = lp._repair(A, b, c, basis, lp.MAX_ITER, 0)
        y_std, _, failure = lp._certificate(A, b, c, basis)
        if status == lp.OPTIMAL and failure is None:
            break
    assert failure is None
    status, value = _highs(prog)
    assert status == 0
    assert abs(c @ y_std - value) <= 1e-9 * (1.0 + np.abs(prog.objective).max())
    x = int(np.flatnonzero((prog.constraint_matrix == prog.rhs[:, None]).all(axis=0))[0])
    out = lp.solve(prog, lp._crash(prog.constraint_matrix, [x]))
    assert abs(out.value - value) <= 1e-9 * (1.0 + np.abs(prog.objective).max())


def _pivot_outer(T, z, basis, row, col):
    """``lp._pivot`` with the row update as ``np.outer``, frozen as its
    reference."""
    T[row] /= T[row, col]
    fac = T[:, col].copy()
    fac[row] = 0.0
    T -= np.outer(fac, T[row])
    z -= z[col] * T[row]
    basis[row] = col


def _run_simplex_masks(T, z, basis, cost, pivots):
    """``lp._run_simplex`` with the entering column picked from the list of
    negative reduced costs and the ratio test over every row, infinite where
    the column entry is not positive, frozen as its reference; it pivots by
    ``lp._pivot``."""
    ncols = T.shape[1] - 1
    cscale = max(1.0, float(np.abs(cost).max(initial=0.0)))
    enter_tol = lp._PIVOT_TOL * cscale
    for k in range(pivots):
        neg = np.flatnonzero(z[:ncols] < -enter_tol)
        if neg.size == 0:
            return lp.OPTIMAL, k
        enter = int(neg[np.argmin(z[neg])])
        col = T[:, enter]
        pos = col > lp._PIVOT_TOL
        if not pos.any():
            if k:
                return None, k
            if z[enter] >= -1e-7 * cscale:
                return lp.OPTIMAL, 0
            return lp.UNBOUNDED, 0
        rhs = np.maximum(T[:, -1], 0.0)
        ratios = np.where(pos, rhs / np.where(pos, col, 1.0), np.inf)
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + best))
        lp._pivot(T, z, basis, int(ties[np.argmax(col[ties])]), enter)
    return None, pivots


def _outcome(prog, **kwargs):
    """The outcome of ``prog`` and its pivots as (row, column) pairs."""
    pivots = []
    pivot = lp._pivot
    lp._pivot = lambda *args: (pivots.append(args[3:]), pivot(*args))
    try:
        out = lp.solve(prog, **kwargs)
    finally:
        lp._pivot = pivot
    return out, pivots


def test_pivot_loop_bit_identical_to_its_reference(monkeypatch):
    # the corpus holds optimal and unbounded programs, a degenerate LP on
    # which unshifted Dantzig pricing cycles (``bland_cycle_lp.json``) and
    # warm starts from optimal bases
    progs = [*_lp_corpus(), *_warm_corpus()]
    progs += [(prog, lp.solve(prog, basis).basis) for prog, basis in _warm_corpus()]
    new = [_outcome(prog, basis=basis) for prog, basis in progs]
    monkeypatch.setattr(lp, "_pivot", _pivot_outer)
    monkeypatch.setattr(lp, "_run_simplex", _run_simplex_masks)
    for (prog, basis), (out, cols) in zip(progs, new):
        ref, ref_cols = _outcome(prog, basis=basis)
        assert cols == ref_cols
        assert (out.status, out.value) == (ref.status, ref.value)
        for a, b in [(out.point, ref.point), (out.dual_point, ref.dual_point)]:
            assert (a is None and b is None) or np.array_equal(a, b)
        if ref.basis is not None:
            assert out.basis[0] == ref.basis[0]
            assert np.array_equal(out.basis[1], ref.basis[1])


def _crash_rows(A, lead):
    """``lp._crash`` eliminating on the rows without a pivot only, frozen as
    its reference."""
    scale = np.abs(A).max(axis=1, initial=0.0)
    M = A / np.where(scale > 0.0, scale, 1.0)[:, None]
    left, cols = np.ones(A.shape[0], dtype=bool), []
    for j in [*lead, None]:
        while left.any():
            rows = np.flatnonzero(left)
            if j is None:
                k = int(np.argmax(np.abs(M[rows])))
                r, col = rows[k // A.shape[1]], k % A.shape[1]
            else:
                r, col = rows[np.argmax(np.abs(M[rows, j]))], j
            if not abs(M[r, col]) > lp._RANK_TOL:
                break
            M[rows] -= np.outer(M[rows, col] / M[r, col], M[r])
            left[r] = False
            cols.append(int(col))
            if j is not None:
                break
    return tuple(cols), ~left


def _convexify_workload(seed):
    """The operations of one pass of the benchmark's ``convexify`` workload."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.build("convexify", seed, None).ops


def test_crash_bit_identical_to_its_reference(monkeypatch):
    # every matrix and lead crashed by the corpora and by one pass of the
    # convexify workload at seeds 1-3: least-pairing LPs on disk(32,1,8)
    # and cantor(3), whose matrix has more columns than rows
    crashes = count_calls(monkeypatch, "_crash")
    _lp_corpus(), _warm_corpus()
    corpora = len(crashes)
    for seed in (1, 2, 3):
        for op in _convexify_workload(seed):
            getattr(choquet, op.fn)(*op.args, **op.kwargs)
    monkeypatch.undo()
    assert corpora > 200 and len(crashes) > corpora
    for A, lead in crashes:
        cols, keep = lp._crash(A, lead)
        ref_cols, ref_keep = _crash_rows(A, lead)
        assert cols == ref_cols and np.array_equal(keep, ref_keep)
