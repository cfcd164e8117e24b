import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from choquet import lp
from choquet.errors import IterationLimitError, ValidationError
from conftest import count_calls


def test_single_variable_bound():
    # min x subject to x >= 3, written as the row -x + s = -3 with slack s >= 0
    out = lp.solve(lp.LinearProgram([1.0, 0.0], [[-1.0, 1.0]], [-3.0]))
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert out.point[0] == pytest.approx(3.0, abs=1e-9)


def test_contradictory_simplex_constraints_infeasible():
    prog = lp.LinearProgram(
        [0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 3.0]
    )
    assert lp.solve(prog).status == lp.INFEASIBLE


def test_free_variable_unbounded():
    # a free variable is a (+, -) pair of columns; max of it is unbounded
    prog = lp.LinearProgram([-1.0, 1.0], np.zeros((0, 2)), [])
    assert lp.solve(prog).status == lp.UNBOUNDED


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
    x0 = rng.uniform(0.0, 1.0, 9)
    prog = lp.LinearProgram(rng.normal(size=9), A, A @ x0)
    with pytest.raises(IterationLimitError):
        lp.solve(prog, max_iter=1)


def _with_slacks(c, A, rels, b):
    """min c.x over x >= 0 with row i of ``A x`` at most (``rels[i]`` "LE")
    or equal to (``rels[i]`` "EQ") ``b[i]``, as an equality program with one
    slack column per LE row."""
    le = np.flatnonzero(np.asarray(rels) == "LE")
    slacks = np.zeros((len(b), le.size))
    slacks[le, np.arange(le.size)] = 1.0
    return lp.LinearProgram(np.concatenate([c, np.zeros(le.size)]), np.hstack([A, slacks]), b)


def _bland_cycle_lp():
    """The LE rows A x <= b of ``bland_cycle_lp.json`` as [A | I] (x, s) = b."""
    data = json.loads((Path(__file__).parent / "data" / "bland_cycle_lp.json").read_text())
    b = data["rhs"]
    return _with_slacks(data["objective"], data["matrix"], ["LE"] * len(b), b)


def test_restricted_bland_rule_cannot_cycle(monkeypatch):
    # with a wider pivot filter Bland's rule cycles on this degenerate LP;
    # the unrestricted rule that takes over after a long stall ends it
    prog = _bland_cycle_lp()
    status, value = _highs(prog)
    assert status == 0
    monkeypatch.setattr(lp, "_BLAND_PIVOT_FRAC", 0.25)
    assert lp.solve(prog, max_iter=5000).value == pytest.approx(value, abs=1e-9)
    monkeypatch.setattr(lp, "_BLAND_EXACT_AFTER", 10**9)
    with pytest.raises(IterationLimitError):
        lp.solve(prog, max_iter=5000)


def _random_feasible_bounded(rng):
    """Feasible by construction (b from a feasible x0), bounded below by 0."""
    m = int(rng.integers(1, 8))
    n = int(rng.integers(1, 8))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    rels = [("LE", "EQ")[i] for i in rng.integers(0, 2, m)]
    b = A @ x0 + np.where([r == "LE" for r in rels], rng.uniform(0, 1, m), 0.0)
    c = np.abs(rng.normal(size=n))
    return _with_slacks(c, A, rels, b)


def _random_lp(rng):
    """Random LE/EQ rows over x >= 0, in equality form: half the draws
    feasible by construction, the others with a random rhs; the objective
    has either sign, so infeasible, unbounded and optimal programs all
    occur."""
    m = int(rng.integers(1, 6))
    n = int(rng.integers(1, 6))
    A = rng.normal(size=(m, n))
    rels = [("LE", "EQ")[i] for i in rng.integers(0, 2, m)]
    if rng.uniform() < 0.5:
        b = A @ rng.uniform(0.0, 1.0, n) + np.where([r == "LE" for r in rels],
                                                    rng.uniform(0, 1, m), 0.0)
    else:
        b = rng.normal(size=m)
    return _with_slacks(rng.normal(size=n), A, rels, b)


def _highs(prog):
    """HiGHS on the same program: (status, value)."""
    res = linprog(prog.objective, A_eq=prog.constraint_matrix, b_eq=prog.rhs, bounds=(0, None),
                  method="highs")
    return res.status, res.fun


def test_strong_duality_200_random():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        prog = _random_feasible_bounded(rng)
        out = lp.solve(prog)
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
        prog = _random_feasible_bounded(rng)
        out = lp.solve(prog)
        worst = np.abs(prog.constraint_matrix @ out.point - prog.rhs).max()
        assert worst <= 1e-9 * max(1.0, np.abs(prog.rhs).max())
        assert out.point.min() >= 0.0


def test_deterministic_outcomes():
    rng = np.random.default_rng(9)
    prog = _random_feasible_bounded(rng)
    a, b = lp.solve(prog), lp.solve(prog)
    assert a.status == b.status and a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.dual_point, b.dual_point)


def test_against_scipy_reference():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(120):
        prog = _random_lp(rng)
        out = lp.solve(prog)
        status, value = _highs(prog)
        seen.add(out.status)
        if out.status == lp.OPTIMAL:
            assert status == 0
            assert out.value == pytest.approx(value, abs=1e-6, rel=1e-6)
        elif out.status == lp.UNBOUNDED:
            # HiGHS presolve may fold unbounded into "infeasible or unbounded"
            assert status in (2, 3)
        else:
            assert status == 2
    assert seen == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_zero_variable_program():
    prog = lp.LinearProgram([], np.zeros((1, 0)), [1.0])
    assert lp.solve(prog).status == lp.INFEASIBLE


def test_dump_lp_writes_json_lines(tmp_path):
    path = tmp_path / "dump.jsonl"
    lp.set_dump_path(str(path))
    try:
        # min x subject to x >= 2: the row -x + s = -2 with slack s >= 0
        prog = lp.LinearProgram([1.0, 0.0], [[-1.0, 1.0]], [-2.0])
        lp.solve(prog)
    finally:
        lp.set_dump_path(None)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["status"] == lp.OPTIMAL
    assert sorted(rec["lp"]) == ["matrix", "objective", "rhs"]
    rebuilt = lp.LinearProgram.from_dict(rec["lp"])
    assert lp.solve(rebuilt).value == pytest.approx(2.0)
    # every variable lies in [0, inf) and every row is an equality
    assert rebuilt.lower.tolist() == [0.0, 0.0] and rebuilt.upper.tolist() == [np.inf, np.inf]
    assert rebuilt.relations == ("EQ",)


def test_from_dict_reads_records_with_equality_relations():
    # the record format that named each row's relation, all of them "EQ"
    rebuilt = lp.LinearProgram.from_dict(
        {"objective": [1.0, 0.0], "matrix": [[-1.0, 1.0]], "rhs": [-2.0], "relations": ["EQ"]}
    )
    assert lp.solve(rebuilt).value == pytest.approx(2.0)


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
    for prog in _lp_corpus():
        for a, r in zip(lp._standardize(prog), _standardize_loop(prog)):
            assert np.array_equal(a, r)


def test_solve_bit_identical_to_column_loop(monkeypatch):
    progs = _lp_corpus()
    new = [lp.solve(prog) for prog in progs]
    monkeypatch.setattr(lp, "_standardize", _standardize_loop)
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
    out = lp.solve(lp.LinearProgram(c, A, rhs))
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    y = out.dual_point
    assert rhs @ y == pytest.approx(1.0, abs=1e-9)
    assert (c - A.T @ y).min() >= -1e-9


def _warm_corpus():
    rng = np.random.default_rng(2024)
    rows = np.vstack([np.ones(6), np.arange(6.0), 2.0 * np.arange(6.0)])  # one dependent row
    return [_bland_cycle_lp(),
            lp.LinearProgram(np.arange(6.0) ** 2, rows, rows[:, 2]),
            *(_random_feasible_bounded(rng) for _ in range(20))]


def test_warm_start_from_its_own_optimal_basis_takes_no_pivot(monkeypatch):
    for prog in _warm_corpus():
        cold = lp.solve(prog)
        pivots, phase1 = count_calls(monkeypatch, "_pivot"), count_calls(monkeypatch, "_phase1")
        warm = lp.solve(prog, basis=cold.basis)
        assert (len(pivots), len(phase1)) == (0, 0)
        assert warm.status == lp.OPTIMAL
        assert abs(warm.value - cold.value) <= lp.GAP_TOL * max(1.0, abs(cold.value))
        assert np.array_equal(warm.basis[1], cold.basis[1])
        monkeypatch.undo()


# min x1 + x2 + x3 with x1 + x2 = 1, x2 + x3 = 2: optimum 2 at (0, 1, 1);
# the basis {x1, x2} is nonsingular but puts x1 at -1
_SMALL = lp.LinearProgram([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 2.0])


@pytest.mark.parametrize(
    "prog, start",
    [(_SMALL, "none"), (_SMALL, "singular"), (_SMALL, "infeasible"),
     (_bland_cycle_lp(), "none"), (_bland_cycle_lp(), "singular")],
    ids=["small-none", "small-singular", "small-infeasible", "bland-cycle-none",
         "bland-cycle-singular"],
)
def test_unusable_starting_basis_gives_the_cold_outcome(prog, start, monkeypatch):
    cold = lp.solve(prog)
    cols, keep = cold.basis
    basis = {
        "none": None,
        "singular": ((cols[0], *cols[:-1]), keep),  # a repeated column
        "infeasible": ((0, 1), np.ones(2, dtype=bool)),
    }[start]
    if basis is not None:
        A, b, c, _ = lp._standardize(prog)
        assert lp._warm_start(A, b, c, basis) is None
    phase1 = count_calls(monkeypatch, "_phase1")
    out = lp.solve(prog, basis=basis)
    assert len(phase1) == 1
    assert out.status == cold.status
    assert abs(out.value - cold.value) <= lp.GAP_TOL


def test_basis_that_does_not_fit_is_rejected():
    cols, keep = lp.solve(_SMALL).basis
    for basis in [(cols, keep[:1]), (cols[:1], keep), ((0, 9), keep)]:
        with pytest.raises(ValidationError):
            lp.solve(_SMALL, basis=basis)
