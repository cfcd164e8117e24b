"""Self-contained dense linear-programming engine.

Two-phase primal simplex on the full tableau.  Pricing is Dantzig's most
negative reduced cost with ratio ties broken toward the largest pivot
element; a degeneracy stall switches to Bland's smallest-index anti-cycling
rule, restricted to well-sized pivots, until the objective falls again,
and the tableau is refactorized from the basis periodically so pivot drift
cannot accumulate.

There is one LP form: minimize ``c.x`` over x >= 0, each constraint row
``<=`` or ``=``.  Rows are equilibrated, LE rows get slack columns and
every row is negated where needed so that ``b >= 0``.  A free variable is
the caller's to split into a (+, -) pair of columns.

The solver is a pure function of its input: identical inputs produce
identical outputs, and instances may be solved concurrently.  Strict
inequalities cannot be modeled; callers rewrite ``< 0`` as ``<= -gamma``
with a margin of their choosing and rescale afterwards.

Optimal outcomes are certified: the returned point is checked feasible
within ``feas_tol``, and the dual is checked feasible (no reduced cost
below ``-gap_tol`` times the cost scale) with its value within ``gap_tol``
of the objective value.  An infeasible outcome carries the phase-1 dual
in ``dual_point``: over x >= 0 with EQ rows, a Farkas ray y'A <= 0, y'b > 0.
"""

import json
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, IterationLimitError, ValidationError

LE, EQ = "LE", "EQ"
_RELATIONS = (LE, EQ)

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

FEAS_TOL = 1e-9
GAP_TOL = 1e-9
MAX_ITER = 100_000
_PIVOT_TOL = 1e-10

_dump_lock = threading.Lock()
_dump_path = None


def set_dump_path(path):
    """Append every subsequently solved instance to ``path`` as JSON lines.

    Debug facility behind the CLI's ``--dump-lp`` flag; pass None to disable.
    """
    global _dump_path
    _dump_path = path


@dataclass(frozen=True)
class LinearProgram:
    """Dense LP: minimize ``objective . x`` over x >= 0 subject to row relations.

    ``relations[i]`` is "LE" or "EQ" and applies to row i of
    ``constraint_matrix @ x`` against ``rhs[i]``; every entry must be finite.
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    relations: tuple
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        rel = tuple(self.relations)
        if A.size == 0:
            A = A.reshape((len(b), len(c)))
        if A.ndim != 2:
            raise ValidationError("constraint matrix must be two-dimensional")
        m, n = A.shape
        if c.shape != (n,):
            raise ValidationError(f"objective has length {c.shape}, expected ({n},)")
        if b.shape != (m,):
            raise ValidationError(f"rhs has length {b.shape}, expected ({m},)")
        if len(rel) != m:
            raise ValidationError(f"{len(rel)} relations for {m} rows")
        if any(r not in _RELATIONS for r in rel):
            raise ValidationError(f"relations must be among {_RELATIONS}")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValidationError("objective, matrix and rhs entries must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", A)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "rhs", b)

    @property
    def n_vars(self):
        return self.objective.shape[0]

    @property
    def n_rows(self):
        return self.rhs.shape[0]

    # Every variable lies in [0, inf).  The benchmark harness reads these
    # two bounds (``perfbench/worker.py``: ``highs_status`` hands them to
    # HiGHS, and the traced run hashes them to tell LPs apart); it stays
    # fixed so that runs of different commits compare.
    @property
    def lower(self):
        return np.zeros(self.n_vars)

    @property
    def upper(self):
        return np.full(self.n_vars, np.inf)

    def to_dict(self):
        return {
            "objective": [float(x) for x in self.objective],
            "matrix": [[float(x) for x in row] for row in self.constraint_matrix],
            "relations": list(self.relations),
            "rhs": [float(x) for x in self.rhs],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            np.asarray(d["objective"], dtype=float),
            np.asarray(d["matrix"], dtype=float).reshape(len(d["rhs"]), len(d["objective"])),
            tuple(d["relations"]),
            np.asarray(d["rhs"], dtype=float),
        )


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict; ``value``/``point`` set when optimal, ``dual_point`` also if infeasible."""

    status: str
    value: float | None = None
    point: np.ndarray | None = None
    dual_point: np.ndarray | None = None


def _pivot(T, z, basis, row, col):
    T[row] /= T[row, col]
    fac = T[:, col].copy()
    fac[row] = 0.0
    T -= np.outer(fac, T[row])
    z -= z[col] * T[row]
    basis[row] = col


def _reduced_row(T, basis, cost):
    z = np.concatenate([cost, [0.0]])
    for r, bi in enumerate(basis):
        cb = cost[bi]
        if cb != 0.0:
            z = z - cb * T[r]
    return z


def _refactor(A, b, basis, cost):
    """Rebuild tableau and reduced costs from the basis (drops pivot drift)."""
    B = A[:, basis]
    rhs = np.hstack([A, b[:, None]])
    T = np.linalg.solve(B, rhs)
    return T, _reduced_row(T, basis, cost)


_REFRESH_EVERY = 64
_STALL_LIMIT = 32
_BLAND_PIVOT_FRAC = 0.1
_BLAND_EXACT_AFTER = 1024


def _run_simplex(A, b, cost, T, z, basis, max_iter, it_start=0):
    """Pivot until optimal or unbounded.

    Entering column by Dantzig pricing with ratio ties broken toward the
    largest pivot element; after a degenerate stall Bland's smallest-index
    rule takes over until the objective falls below its best value, which
    rules out cycling (rounding noise cannot keep resetting the stall).
    Its leaving row is chosen among the ratio ties whose pivot is
    at least ``_BLAND_PIVOT_FRAC`` of the largest, and among all ties once
    the stall outlasts ``_BLAND_EXACT_AFTER`` pivots.  The tableau is
    refactorized from the basis periodically and before any unbounded
    verdict, so drift cannot corrupt the outcome; an
    unbounded verdict additionally requires a descent rate clearly above
    reduced-cost noise, otherwise the state counts as optimal.
    """
    it = it_start
    ncols = T.shape[1] - 1
    cscale = max(1.0, float(np.abs(cost).max(initial=0.0)))
    enter_tol = _PIVOT_TOL * cscale
    bland = False
    stall = 0
    fresh = True
    last_obj = -z[-1]
    while True:
        neg = np.flatnonzero(z[:ncols] < -enter_tol)
        if neg.size == 0:
            return OPTIMAL, it, T, z, basis
        enter = int(neg[0]) if bland else int(neg[np.argmin(z[neg])])
        col = T[:, enter]
        pos = col > _PIVOT_TOL
        if not pos.any():
            if not fresh:
                try:
                    T, z = _refactor(A, b, basis, cost)
                except np.linalg.LinAlgError:  # pragma: no cover
                    return UNBOUNDED, it, T, z, basis
                fresh = True
                continue
            if z[enter] >= -1e-7 * cscale:
                return OPTIMAL, it, T, z, basis
            return UNBOUNDED, it, T, z, basis
        rhs = np.maximum(T[:, -1], 0.0)
        ratios = np.where(pos, rhs / np.where(pos, col, 1.0), np.inf)
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + best))
        if bland:
            # a tiny pivot taken for its index alone grows the tableau until
            # the basis is numerically singular; the unrestricted rule is
            # kept for long stalls because only it is proven not to cycle
            if stall < _BLAND_EXACT_AFTER:
                ties = ties[col[ties] >= _BLAND_PIVOT_FRAC * col[ties].max()]
            leave = int(ties[np.argmin([basis[i] for i in ties])])
        else:
            leave = int(ties[np.argmax(col[ties])])
        _pivot(T, z, basis, leave, enter)
        fresh = False
        it += 1
        if it >= max_iter:
            raise IterationLimitError(f"simplex iteration limit {max_iter} reached")
        obj = -z[-1]
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            last_obj = obj
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT and not bland:
                bland = True
                try:
                    T, z = _refactor(A, b, basis, cost)
                    fresh = True
                except np.linalg.LinAlgError:  # pragma: no cover
                    pass
        if it % _REFRESH_EVERY == 0:
            try:
                T, z = _refactor(A, b, basis, cost)
                fresh = True
            except np.linalg.LinAlgError:  # pragma: no cover
                pass


def _standardize(lp):
    """Rewrite ``lp`` as min c.y, Ay = b (b >= 0), y >= 0.

    Returns (A, b, c, row_factor, slack_of_row).  The first ``lp.n_vars``
    columns are the variables, then one slack column per LE row;
    ``row_factor`` is the combined sign/equilibration factor per row
    (standard-form duals map back via y_i = row_factor_i * y_std_i);
    ``slack_of_row[i]`` is the slack column of row i (or -1 for an
    equality row).
    """
    A, b = lp.constraint_matrix, lp.rhs
    n = lp.n_vars
    le = np.array(lp.relations, dtype=str) == LE

    # Row equilibration: every row is scaled by its coefficient magnitude;
    # rows that will need an artificial variable (equalities, and LE rows
    # violated at y = 0) additionally count their rhs, so the phase-1
    # infeasibility measure is relative per row.  Slack-started rows never
    # carry artificial mass and keep their natural coefficient scale.
    row_scale = np.abs(A).max(axis=1, initial=0.0)
    row_scale = np.maximum(row_scale, np.where(~le | (b < 0), np.abs(b), 0.0))
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, None]
    b = b / row_scale

    # slack columns turn every LE row into an equality
    slack_rows = np.flatnonzero(le)
    n_slack = slack_rows.shape[0]
    slack_of_row = np.full(A.shape[0], -1, dtype=int)
    slack_of_row[slack_rows] = n + np.arange(n_slack)
    S = np.zeros((A.shape[0], n_slack))
    S[slack_rows, np.arange(n_slack)] = 1.0
    A = np.hstack([A, S])
    c = np.concatenate([lp.objective, np.zeros(n_slack)])

    signs = np.where(b < 0, -1.0, 1.0)
    A *= signs[:, None]
    b = b * signs
    return A, b, c, signs / row_scale, slack_of_row


def solve(lp, feas_tol=FEAS_TOL, gap_tol=GAP_TOL, max_iter=MAX_ITER):
    """Solve ``lp``.  Returns an LPOutcome with a certified optimum.

    Raises ValidationError for malformed input (via the LinearProgram
    constructor) and for finite input whose solve overflows the float
    range, IterationLimitError if pivoting exhausts ``max_iter``, and
    ConsistencyError if the optimality certificate fails its own tolerances.
    """
    if not isinstance(lp, LinearProgram):
        raise ValidationError("solve expects a LinearProgram")
    try:
        with np.errstate(over="raise"):
            outcome = _solve_inner(lp, feas_tol, gap_tol, max_iter)
    except FloatingPointError as exc:
        raise ValidationError(f"LP data out of floating-point range: {exc}") from exc
    if _dump_path is not None:
        rec = {"lp": lp.to_dict(), "status": outcome.status}
        if outcome.status == OPTIMAL:
            rec["value"] = float(outcome.value)
        with _dump_lock:
            with open(_dump_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return outcome


def _solve_inner(lp, feas_tol, gap_tol, max_iter):
    A, b, c, signs, slack_of_row = _standardize(lp)
    nrows, ncols = A.shape

    # Phase 1: slacks with coefficient +1 start basic (their rows are already
    # satisfied since b >= 0); the remaining rows get artificial columns.
    slack_rows = np.flatnonzero(slack_of_row >= 0)
    need = np.ones(nrows, dtype=bool)
    need[slack_rows] = A[slack_rows, slack_of_row[slack_rows]] != 1.0
    need_art = np.flatnonzero(need)
    nart = need_art.shape[0]
    # only artificial rows can carry phase-1 mass; their rhs sets the scale
    # of the infeasibility verdict
    bscale = max(1.0, float(np.abs(b[need_art]).max())) if nart else 1.0
    art = np.zeros((nrows, nart))
    art[need_art, np.arange(nart)] = 1.0
    start = np.where(need, ncols + np.cumsum(need) - 1, slack_of_row)
    basis = start.tolist()
    A1 = np.hstack([A, art])
    T = np.hstack([A1, b[:, None]])
    cost1 = np.concatenate([np.zeros(ncols), np.ones(nart)])
    z = _reduced_row(T, basis, cost1)
    status, iters, T, z, basis = _run_simplex(A1, b, cost1, T, z, basis, max_iter)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded below
        raise ConsistencyError("phase 1 reported unbounded")
    if -z[-1] > feas_tol * bscale:
        # the phase-1 dual, read off the starting identity columns' reduced costs
        ray = (cost1 - z[:-1])[start]
        return LPOutcome(status=INFEASIBLE, dual_point=signs * ray)

    # Drive artificial variables out of the basis (largest pivot in the row
    # keeps this stable).  A row with no real pivot left is a dependency
    # among the constraint rows, with weights read off its starting identity
    # columns; the constraint row it weighs most heavily is dropped, after
    # eliminating the dependencies already used, so each drops another row.
    deps = []
    for r in range(nrows):
        if basis[r] >= ncols:
            row = np.abs(T[r, :ncols])
            col = int(np.argmax(row))
            if row[col] > 1e-9:
                _pivot(T, z, basis, r, col)
            else:
                deps.append(r)
    weights = T[deps][:, start]
    keep = np.ones(nrows, dtype=bool)
    for k, v in enumerate(weights):
        i = int(np.argmax(np.abs(v)))
        keep[i] = False
        weights[k + 1:] -= np.outer(weights[k + 1:, i] / v[i], v)
    rows = [r for r in range(nrows) if r not in deps]
    T = T[rows][:, list(range(ncols)) + [ncols + nart]]
    basis = [basis[r] for r in rows]
    A_kept, b_kept = A[keep], b[keep]

    # Phase 2 on the true objective, from a freshly factorized tableau.
    try:
        T, z = _refactor(A_kept, b_kept, basis, c)
    except np.linalg.LinAlgError:  # pragma: no cover - keep the pivoted state
        z = _reduced_row(T, basis, c)
    status, iters, T, z, basis = _run_simplex(
        A_kept, b_kept, c, T, z, basis, max_iter, it_start=iters
    )
    if status == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED)

    # Primal solution and dual certificate from the optimal basis.  A fresh
    # equilibrated solve usually beats the pivot-accumulated tableau values,
    # but on degenerate (near-singular) bases it can be worse, so the
    # candidate with the smaller residual wins.
    y_std = np.zeros(ncols)
    dual = np.zeros(len(basis))
    if basis:
        B = A_kept[:, basis]
        xb = np.clip(T[:, -1], 0.0, None)
        try:
            xb_ref, dual = _refined_basis_solution(B, b_kept, c[basis])
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError("optimal basis is singular") from exc
        np.clip(xb_ref, 0.0, None, out=xb_ref)
        if np.abs(B @ xb_ref - b_kept).max() < np.abs(B @ xb - b_kept).max():
            xb = xb_ref
        y_std[basis] = xb
    x = y_std[: lp.n_vars]
    primal_std = float(c @ y_std)
    gap = abs(primal_std - float(dual @ b_kept))
    least = float((c - A_kept.T @ dual).min(initial=0.0))
    cscale = max(1.0, float(np.abs(c).max(initial=0.0)))
    if least < -gap_tol * cscale or gap > gap_tol * max(1.0, abs(primal_std)):
        raise ConsistencyError(
            f"dual certificate fails: least reduced cost {least:.3e}, duality gap {gap:.3e}"
        )

    dual_point = np.zeros(nrows)
    dual_point[keep] = dual
    _check_primal(lp, x, feas_tol)
    return LPOutcome(status=OPTIMAL, value=primal_std, point=x, dual_point=signs * dual_point)


def _refined_basis_solution(B, b, cb):
    """Solve B x = b and B' y = cb after row/column equilibration."""
    row = np.abs(B).max(axis=1)
    row[row == 0.0] = 1.0
    Bs = B / row[:, None]
    col = np.abs(Bs).max(axis=0)
    col[col == 0.0] = 1.0
    Bs = Bs / col[None, :]
    # with Bs = D1 B D2:  B x = b  <=>  Bs (x / D2) = D1 b, and
    #                     B'y = c  <=>  Bs'(y / D1) = D2 c
    xb = np.linalg.solve(Bs, b / row) / col
    y = np.linalg.solve(Bs.T, cb / col) / row
    return xb, y


def _check_primal(lp, x, feas_tol):
    """Per-row relative (backward-error) feasibility check of the point."""
    d = lp.constraint_matrix @ x - lp.rhs
    rows = np.where(np.array(lp.relations, dtype=str) == LE, d, np.abs(d))
    mag = 1.0 + np.abs(lp.constraint_matrix) @ np.abs(x) + np.abs(lp.rhs)
    worst = np.max(rows / mag, initial=0.0)
    if worst > feas_tol:
        raise ConsistencyError(
            f"optimal point violates constraints by relative {worst:.3e}"
        )
