import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from choquet import lp
from choquet.errors import IterationLimitError, ValidationError


def test_single_variable_bound():
    prog = lp.LinearProgram.build([1.0], [[1.0]], ["GE"], [3.0], bounds=[(-np.inf, np.inf)])
    out = lp.solve(prog)
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert out.point[0] == pytest.approx(3.0, abs=1e-9)


def test_contradictory_simplex_constraints_infeasible():
    prog = lp.LinearProgram.build(
        [0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], ["EQ", "EQ"], [1.0, 3.0]
    )
    assert lp.solve(prog).status == lp.INFEASIBLE


def test_free_variable_unbounded():
    prog = lp.LinearProgram.build([-1.0], bounds=[(-np.inf, np.inf)])
    assert lp.solve(prog).status == lp.UNBOUNDED


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        lp.LinearProgram.build([1.0, 2.0], [[1.0]], ["LE"], [1.0])
    with pytest.raises(ValidationError):
        lp.LinearProgram.build([1.0], [[1.0]], ["LE", "GE"], [1.0])
    with pytest.raises(ValidationError):
        lp.LinearProgram.build([np.nan], [[1.0]], ["LE"], [1.0])
    with pytest.raises(ValidationError):
        lp.LinearProgram.build([1.0], [[1.0]], ["XX"], [1.0])


def test_iteration_limit_is_explicit():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 9))
    x0 = rng.uniform(0.0, 1.0, 9)
    prog = lp.LinearProgram.build(rng.normal(size=9), A, ["EQ"] * 6, A @ x0)
    with pytest.raises(IterationLimitError):
        lp.solve(prog, max_iter=1)


def test_restricted_bland_rule_cannot_cycle(monkeypatch):
    # with a wider pivot filter Bland's rule cycles on this degenerate LP;
    # the unrestricted rule that takes over after a long stall ends it
    data = json.loads((Path(__file__).parent / "data" / "bland_cycle_lp.json").read_text())
    prog = lp.LinearProgram.build(
        data["objective"], data["matrix"], [lp.LE] * len(data["rhs"]), data["rhs"]
    )
    ref = linprog(prog.objective, A_ub=prog.constraint_matrix, b_ub=prog.rhs, method="highs")
    monkeypatch.setattr(lp, "_BLAND_PIVOT_FRAC", 0.25)
    assert lp.solve(prog, max_iter=5000).value == pytest.approx(ref.fun, abs=1e-9)
    monkeypatch.setattr(lp, "_BLAND_EXACT_AFTER", 10**9)
    with pytest.raises(IterationLimitError):
        lp.solve(prog, max_iter=5000)


def test_feasible_simplex_point():
    prog = lp.LinearProgram.build([0.0] * 3, [[1.0, 1.0, 1.0]], ["EQ"], [1.0])
    x = lp.feasible(prog)
    assert x is not None
    assert x.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(x >= -1e-12)


def test_feasible_none_on_contradiction():
    prog = lp.LinearProgram.build(
        [0.0] * 3, [[1.0] * 3, [1.0] * 3], ["EQ", "EQ"], [1.0, 2.0]
    )
    assert lp.feasible(prog) is None


def _random_feasible_bounded(rng):
    """Feasible by construction (b from a feasible x0), bounded below by 0."""
    m = int(rng.integers(1, 8))
    n = int(rng.integers(1, 8))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    rels = [("LE", "EQ", "GE")[i] for i in rng.integers(0, 3, m)]
    b = A @ x0 + np.where([r == "LE" for r in rels], rng.uniform(0, 1, m), 0.0)
    c = np.abs(rng.normal(size=n))
    return lp.LinearProgram.build(c, A, rels, b)


def test_strong_duality_200_random():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        prog = _random_feasible_bounded(rng)
        out = lp.solve(prog)
        assert out.status == lp.OPTIMAL
        # all variables sit at the default x >= 0 bounds, so the dual
        # objective is exactly b . y
        dual_value = float(prog.rhs @ out.dual_point)
        assert abs(out.value - dual_value) <= 1e-7 * max(1.0, abs(out.value))


def test_resubstitution_within_feas_tol():
    rng = np.random.default_rng(77)
    for _ in range(50):
        prog = _random_feasible_bounded(rng)
        out = lp.solve(prog)
        assert lp.residual(prog, out.point) <= 1e-9 * max(1.0, np.abs(prog.rhs).max())


def test_residual_by_relation_and_bound():
    prog = lp.LinearProgram.build(
        [0.0, 0.0], [[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]], [lp.LE, lp.GE, lp.EQ],
        [1.0, 0.0, 0.5], bounds=[(-np.inf, np.inf), (0.0, 1.0)],
    )
    assert lp.residual(prog, [0.5, 0.5]) == 0.0
    assert lp.residual(prog, [2.0, 0.5]) == pytest.approx(1.5)  # LE row
    assert lp.residual(prog, [0.0, 0.5]) == pytest.approx(0.5)  # GE row
    assert lp.residual(prog, [0.8, 0.2]) == pytest.approx(0.3)  # EQ row
    assert lp.residual(prog, [2.5, 1.5]) == pytest.approx(3.0)  # LE row beats bound
    assert lp.residual(lp.LinearProgram.build([1.0], bounds=(0.0, 1.0)), [-0.25]) == 0.25


def _residual_by_row(prog, x):
    """Row-by-row reference for ``lp.residual``."""
    r = prog.constraint_matrix @ x
    worst = 0.0
    for i, rel in enumerate(prog.relations):
        d = r[i] - prog.rhs[i]
        worst = max(worst, d if rel == "LE" else -d if rel == "GE" else abs(d))
    return max(worst, np.max(prog.lower - x, initial=0.0), np.max(x - prog.upper, initial=0.0))


def test_residual_matches_row_loop():
    rng = np.random.default_rng(78)
    for _ in range(100):
        prog = _random_feasible_bounded(rng)
        x = rng.normal(size=prog.n_vars)
        assert lp.residual(prog, x) == _residual_by_row(prog, x)


def test_deterministic_outcomes():
    rng = np.random.default_rng(9)
    prog = _random_feasible_bounded(rng)
    a, b = lp.solve(prog), lp.solve(prog)
    assert a.status == b.status and a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.dual_point, b.dual_point)


def test_against_scipy_reference():
    rng = np.random.default_rng(42)
    for _ in range(120):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        rels = [("LE", "EQ", "GE")[i] for i in rng.integers(0, 3, m)]
        kinds = rng.integers(0, 3, n)
        lo = np.where(kinds == 0, -np.inf, -rng.uniform(0, 2, n))
        hi = np.where(kinds <= 1, np.inf, rng.uniform(0.5, 3, n))
        x0 = np.clip(rng.uniform(-0.5, 0.5, n),
                     np.where(np.isfinite(lo), lo, -0.5),
                     np.where(np.isfinite(hi), hi, 0.5))
        b = A @ x0 + np.where([r == "LE" for r in rels], rng.uniform(0, 1, m), 0.0)
        c = rng.normal(size=n)
        out = lp.solve(lp.LinearProgram.build(c, A, rels, b, bounds=list(zip(lo, hi))))

        Aub, bub, Aeq, beq = [], [], [], []
        for i, r in enumerate(rels):
            if r == "LE":
                Aub.append(A[i]); bub.append(b[i])
            elif r == "GE":
                Aub.append(-A[i]); bub.append(-b[i])
            else:
                Aeq.append(A[i]); beq.append(b[i])
        ref = linprog(
            c,
            A_ub=np.asarray(Aub) if Aub else None,
            b_ub=np.asarray(bub) if bub else None,
            A_eq=np.asarray(Aeq) if Aeq else None,
            b_eq=np.asarray(beq) if beq else None,
            bounds=[(None if not np.isfinite(l) else l, None if not np.isfinite(h) else h)
                    for l, h in zip(lo, hi)],
            method="highs",
        )
        if out.status == lp.OPTIMAL:
            assert ref.status == 0
            assert out.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        elif out.status == lp.UNBOUNDED:
            # HiGHS presolve may fold unbounded into "infeasible or unbounded"
            assert ref.status in (2, 3)
        else:
            assert ref.status == 2


def test_zero_variable_program():
    prog = lp.LinearProgram.build([], np.zeros((1, 0)), ["EQ"], [1.0], bounds=np.zeros((0, 2)))
    assert lp.solve(prog).status == lp.INFEASIBLE


def test_dump_lp_writes_json_lines(tmp_path):
    path = tmp_path / "dump.jsonl"
    lp.set_dump_path(str(path))
    try:
        prog = lp.LinearProgram.build([1.0], [[1.0]], ["GE"], [2.0])
        lp.solve(prog)
    finally:
        lp.set_dump_path(None)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["status"] == lp.OPTIMAL
    rebuilt = lp.LinearProgram.from_dict(rec["lp"])
    assert lp.solve(rebuilt).value == pytest.approx(2.0)


def test_json_round_trip_with_infinite_bounds():
    prog = lp.LinearProgram.build(
        [1.0, -2.0], [[1.0, 1.0]], ["LE"], [4.0],
        bounds=[(-np.inf, 3.0), (0.0, np.inf)],
    )
    again = lp.LinearProgram.from_dict(prog.to_dict())
    assert np.array_equal(again.lower, prog.lower)
    assert np.array_equal(again.upper, prog.upper)
    assert lp.solve(again).value == pytest.approx(lp.solve(prog).value)
