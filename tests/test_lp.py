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


def _standardize_loop(prog):
    """``lp._standardize`` as a per-column loop, frozen as its reference."""
    A0, b0, c0 = prog.constraint_matrix, prog.rhs, prog.objective
    m, n = A0.shape
    col_map = []
    col_vectors = []
    cvals = []
    shift = np.zeros(n)
    range_rows = []  # (std column, width) for doubly bounded variables
    for j in range(n):
        lo, hi = prog.lower[j], prog.upper[j]
        aj = A0[:, j]
        if np.isinf(lo) and np.isinf(hi):
            col_map.append((j, 1.0))
            col_vectors.append(aj)
            cvals.append(c0[j])
            col_map.append((j, -1.0))
            col_vectors.append(-aj)
            cvals.append(-c0[j])
        elif np.isinf(hi):
            shift[j] = lo
            col_map.append((j, 1.0))
            col_vectors.append(aj)
            cvals.append(c0[j])
        elif np.isinf(lo):
            shift[j] = hi
            col_map.append((j, -1.0))
            col_vectors.append(-aj)
            cvals.append(-c0[j])
        else:
            shift[j] = lo
            col_map.append((j, 1.0))
            col_vectors.append(aj)
            cvals.append(c0[j])
            range_rows.append((len(col_map) - 1, hi - lo))

    k = len(col_map)
    A = np.empty((m + len(range_rows), k))
    A[:m] = np.column_stack(col_vectors) if k else np.zeros((m, 0))
    b = np.concatenate([b0 - A0 @ shift, [w for _, w in range_rows]])
    rels = list(prog.relations) + [lp.LE] * len(range_rows)
    for i, (col, _) in enumerate(range_rows):
        A[m + i] = 0.0
        A[m + i, col] = 1.0

    # Row equilibration: every row is scaled by its coefficient magnitude;
    # rows that will need an artificial variable (equalities, and
    # inequalities violated at y = 0) additionally count their rhs, so the
    # phase-1 infeasibility measure is relative per row.  Slack-started rows
    # never carry artificial mass and keep their natural coefficient scale.
    needs_artificial = np.array(
        [
            r == lp.EQ or (r == lp.LE and b[i] < 0) or (r == lp.GE and b[i] >= 0)
            for i, r in enumerate(rels)
        ]
    )
    row_scale = np.abs(A).max(axis=1, initial=0.0)
    row_scale = np.maximum(row_scale, np.where(needs_artificial, np.abs(b), 0.0))
    row_scale[row_scale == 0.0] = 1.0
    A /= row_scale[:, None]
    b = b / row_scale

    # slack / surplus columns turn every row into an equality
    slack_cols = []
    slack_of_row = np.full(A.shape[0], -1, dtype=int)
    for i, r in enumerate(rels):
        if r == lp.LE:
            slack_of_row[i] = k + len(slack_cols)
            slack_cols.append((i, 1.0))
        elif r == lp.GE:
            slack_of_row[i] = k + len(slack_cols)
            slack_cols.append((i, -1.0))
    S = np.zeros((A.shape[0], len(slack_cols)))
    for p, (i, s) in enumerate(slack_cols):
        S[i, p] = s
    A = np.hstack([A, S])
    c = np.concatenate([np.asarray(cvals, dtype=float), np.zeros(len(slack_cols))])

    signs = np.where(b < 0, -1.0, 1.0)
    A *= signs[:, None]
    b = b * signs
    const = float(c0 @ shift)
    return A, b, c, const, col_map, shift, signs / row_scale, m, slack_of_row


def _random_bounded_lp(rng, m_max=6, n_max=6):
    """Random LP over every bound class: free, lower-only, ranged, upper-only."""
    m = int(rng.integers(1, m_max))
    n = int(rng.integers(1, n_max))
    A = rng.normal(size=(m, n))
    rels = [("LE", "EQ", "GE")[i] for i in rng.integers(0, 3, m)]
    kinds = rng.integers(0, 4, n)
    lo = np.where((kinds == 0) | (kinds == 3), -np.inf, -rng.uniform(0, 2, n))
    hi = np.where(kinds <= 1, np.inf, rng.uniform(0.5, 3, n))
    x0 = np.clip(rng.uniform(-0.5, 0.5, n),
                 np.where(np.isfinite(lo), lo, -0.5),
                 np.where(np.isfinite(hi), hi, 0.5))
    b = A @ x0 + np.where([r == "LE" for r in rels], rng.uniform(0, 1, m), 0.0)
    return lp.LinearProgram.build(rng.normal(size=n), A, rels, b, bounds=list(zip(lo, hi)))


def _loop_as_arrays(prog):
    A, b, c, const, col_map, shift, row_factor, m, slack_of_row = _standardize_loop(prog)
    col_of = np.array([j for j, _ in col_map], dtype=int)
    sign_of = np.array([s for _, s in col_map], dtype=float)
    return A, b, c, const, col_of, sign_of, shift, row_factor, m, slack_of_row


def _lp_corpus():
    rng = np.random.default_rng(1234)
    progs = [_random_feasible_bounded(rng) for _ in range(100)]
    rng = np.random.default_rng(42)
    return progs + [_random_bounded_lp(rng) for _ in range(200)]


def test_standardize_matches_column_loop():
    rng = np.random.default_rng(3)
    for prog in _lp_corpus():
        new = lp._standardize(prog)
        ref = _loop_as_arrays(prog)
        for a, r in zip(new, ref):
            assert np.array_equal(a, r)
        # the scatter that rebuilds x adds in the loop's order
        col_of, sign_of, shift = new[4], new[5], new[6]
        y = rng.uniform(0.0, 2.0, col_of.shape[0])
        x = shift.copy()
        for k, (j, s) in enumerate(zip(col_of, sign_of)):
            x[j] += s * y[k]
        scattered = shift.copy()
        np.add.at(scattered, col_of, sign_of * y)
        assert np.array_equal(scattered, x)


def test_solve_bit_identical_to_column_loop(monkeypatch):
    progs = _lp_corpus()
    new = [lp.solve(prog) for prog in progs]
    monkeypatch.setattr(lp, "_standardize", _loop_as_arrays)
    for prog, out in zip(progs, new):
        ref = lp.solve(prog)
        assert out.status == ref.status
        if ref.status == lp.OPTIMAL:
            assert out.value == ref.value
            assert np.array_equal(out.point, ref.point)
            assert np.array_equal(out.dual_point, ref.dual_point)


@pytest.mark.parametrize("extra", [0, 2], ids=["one-dependency", "five-dependencies"])
def test_dependent_row_dropped_by_its_weight_and_dual_certified(extra):
    # the self-mass LP of p55 in gen_random(80, 6, seed=3): min mu_55 over
    # probability measures representing column 55, whose appended ones row
    # duplicates the basis's constant row.  Dropping the constraint row of
    # the stuck artificial kept both ones rows and ended on a basis of
    # condition 6.6e16 whose dual had value 0.45 and reduced costs down to
    # -2.3; the dependency's heaviest row must go instead.  With extra
    # dependent rows each dependency must drop a different row.
    rng = np.random.default_rng(3)
    B = np.vstack([np.ones(80), rng.uniform(0.0, 1.0, size=(5, 80))])
    A = np.vstack([B, np.ones((1, 80)), 2.0 * B[:extra], B[1:1 + extra] + B[2:2 + extra]])
    rhs = A[:, 55].copy()
    c = np.eye(80)[55]
    out = lp.solve(lp.LinearProgram.build(c, A, [lp.EQ] * len(rhs), rhs))
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    y = out.dual_point
    assert rhs @ y == pytest.approx(1.0, abs=1e-9)
    assert (c - A.T @ y).min() >= -1e-9
