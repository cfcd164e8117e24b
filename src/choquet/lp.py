"""Self-contained dense linear-programming engine.

Two-phase primal simplex on the full tableau.  Pricing is Dantzig's most
negative reduced cost with ratio ties broken toward the largest pivot
element; a degeneracy stall switches to Bland's smallest-index anti-cycling
rule, restricted to well-sized pivots, until the objective falls again,
and the tableau is refactorized from the basis periodically so pivot drift
cannot accumulate.

There is one LP form: minimize ``c.x`` over x >= 0 subject to ``A x = b``.
Rows are equilibrated and negated where needed so that ``b >= 0``, and
phase 1 starts from one artificial column per row.

The solver is a pure function of its input: identical inputs produce
identical outputs, and instances may be solved concurrently.

An optimal outcome carries its ``basis``: the standard-form columns and
the mask of rows that phase 1 kept (it drops dependent rows).  Any program
with the same constraint matrix can start from that basis, whatever its
objective and rhs: standard form only scales and negates rows, which keeps
a basis nonsingular.  The rhs must satisfy the dependencies of the rows
phase 1 dropped, as any combination of the matrix's columns does, or the
final feasibility check fails.  ``solve(lp, basis=...)`` refactorizes the
basis and runs phase 2 only, falling back to the cold two-phase solve when
the basis is singular or not primal feasible within ``FEAS_TOL``.

Optimal outcomes are certified: the returned point is checked feasible
within ``FEAS_TOL``, and the dual is checked feasible (no reduced cost
below ``-GAP_TOL`` times the cost scale) with its value within ``GAP_TOL``
of the objective value.  An infeasible outcome carries the phase-1 dual
in ``dual_point``: a Farkas ray y'A <= 0, y'b > 0.

A failed certificate is repaired from its own basis before
ConsistencyError is raised.  Pivot drift in the dense tableau can leave
its reduced costs optimal where the refactorized ones are not, and the
ratio test clips negative basic values to 0, so such a basic never
leaves.  Each of up to ``_REPAIR_ROUNDS`` rounds refactorizes the basis,
with the basic values and reduced costs of the equilibrated solve the
certificate uses, drives the negative basic values out with at most
``_CLEANUP_PIVOTS`` dual simplex pivots, and resumes the primal simplex.
An LP whose certificate passes never reaches a repair.
"""

import json
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, IterationLimitError, ValidationError, in_float_range

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
    """Dense LP: minimize ``objective . x`` over x >= 0 subject to
    ``constraint_matrix @ x == rhs``; every entry must be finite."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if A.size == 0:
            A = A.reshape((len(b), len(c)))
        if A.ndim != 2:
            raise ValidationError("constraint matrix must be two-dimensional")
        m, n = A.shape
        if c.shape != (n,):
            raise ValidationError(f"objective has length {c.shape}, expected ({n},)")
        if b.shape != (m,):
            raise ValidationError(f"rhs has length {b.shape}, expected ({m},)")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValidationError("objective, matrix and rhs entries must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", A)
        object.__setattr__(self, "rhs", b)

    @property
    def n_vars(self):
        return self.objective.shape[0]

    @property
    def n_rows(self):
        return self.rhs.shape[0]

    # Every variable lies in [0, inf) and every row is an equality.  The
    # benchmark harness reads these three (``perfbench/worker.py``:
    # ``highs_status`` hands them to HiGHS, and the traced run hashes them to
    # tell LPs apart); they stay fixed so that runs of different commits
    # compare.
    @property
    def lower(self):
        return np.zeros(self.n_vars)

    @property
    def upper(self):
        return np.full(self.n_vars, np.inf)

    @property
    def relations(self):
        return ("EQ",) * self.n_rows

    def to_dict(self):
        return {
            "objective": [float(x) for x in self.objective],
            "matrix": [[float(x) for x in row] for row in self.constraint_matrix],
            "rhs": [float(x) for x in self.rhs],
        }

    @classmethod
    def from_dict(cls, d):
        # records written before every row was an equality name each row's
        # relation; one with an inequality row is another program
        if any(r != "EQ" for r in d.get("relations", ())):
            raise ValidationError("only equality rows can be read: relations must all be 'EQ'")
        return cls(
            np.asarray(d["objective"], dtype=float),
            np.asarray(d["matrix"], dtype=float).reshape(len(d["rhs"]), len(d["objective"])),
            np.asarray(d["rhs"], dtype=float),
        )


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict; ``value``/``point``/``basis`` set when optimal,
    ``dual_point`` also if infeasible.  ``basis`` is the optimal basis as
    (standard-form columns, mask of the rows phase 1 kept)."""

    status: str
    value: float | None = None
    point: np.ndarray | None = None
    dual_point: np.ndarray | None = None
    basis: tuple | None = None


def _pivot(T, z, basis, row, col):
    T[row] /= T[row, col]
    fac = T[:, col].copy()
    fac[row] = 0.0
    T -= fac[:, None] * T[row]
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
        if bland:
            neg = z[:ncols] < -enter_tol
            enter = int(np.argmax(neg))
            optimal = not neg[enter]
        else:
            enter = int(np.argmin(z[:ncols]))
            optimal = not z[enter] < -enter_tol
        if optimal:
            return OPTIMAL, it, T, z, basis
        col = T[:, enter]
        pos = np.flatnonzero(col > _PIVOT_TOL)
        if pos.size == 0:
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
        ratios = np.maximum(T[pos, -1], 0.0) / col[pos]
        best = float(ratios.min())
        ties = pos[ratios <= best + 1e-9 * (1.0 + best)]
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
    """Rewrite ``lp`` with ``b >= 0``.

    Returns (A, b, c, row_factor).  Every row is divided by the largest
    magnitude among its coefficients and rhs, so the phase-1 infeasibility
    measure is relative per row, then negated where its rhs is negative;
    ``row_factor`` is the combined factor per row (standard-form duals map
    back via y_i = row_factor_i * y_std_i).
    """
    A, b = lp.constraint_matrix, lp.rhs
    row_scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    row_scale[row_scale == 0.0] = 1.0
    b = b / row_scale
    signs = np.where(b < 0, -1.0, 1.0)
    A = A / row_scale[:, None] * signs[:, None]
    return A, b * signs, lp.objective, signs / row_scale


def solve(lp, max_iter=MAX_ITER, basis=None):
    """Solve ``lp``.  Returns an LPOutcome with a certified optimum.

    ``basis`` is an optimal outcome's ``basis``, or any (columns, kept
    rows) of that form, from a program with the same constraint matrix;
    its objective and rhs may differ (see the module docstring).  Phase 2
    then starts there, and the cold two-phase solve runs only when it is
    singular or not primal feasible.

    Raises ValidationError for malformed input (via the LinearProgram
    constructor) and for finite input whose solve overflows the float
    range, IterationLimitError if pivoting exhausts ``max_iter``, and
    ConsistencyError if the optimality certificate still fails its own
    tolerances after ``_REPAIR_ROUNDS`` repair rounds.
    """
    if not isinstance(lp, LinearProgram):
        raise ValidationError("solve expects a LinearProgram")
    with in_float_range("LP data"):
        outcome = _solve_inner(lp, max_iter, basis)
    if _dump_path is not None:
        rec = {"lp": lp.to_dict(), "status": outcome.status}
        if basis is not None:
            rec["basis"] = [[int(j) for j in basis[0]], [bool(k) for k in basis[1]]]
        if outcome.status == OPTIMAL:
            rec["value"] = float(outcome.value)
        with _dump_lock:
            with open(_dump_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return outcome


def _solve_inner(lp, max_iter, basis):
    A, b, c, signs = _standardize(lp)
    start = None if basis is None else _warm_start(A, b, c, basis)
    if start is None:
        start = _phase1(A, b, c, max_iter)
    if isinstance(start, np.ndarray):  # phase 1's Farkas ray
        return LPOutcome(status=INFEASIBLE, dual_point=signs * start)
    keep, T, z, basis, iters = start
    A_kept, b_kept = A[keep], b[keep]
    status, iters, T, z, basis = _run_simplex(
        A_kept, b_kept, c, T, z, basis, max_iter, it_start=iters
    )
    rounds = 0
    while status == OPTIMAL:
        y_std, dual, failure = _certificate(A_kept, b_kept, c, T, basis)
        if failure is None:
            break
        if rounds == _REPAIR_ROUNDS or not basis:
            raise ConsistencyError(failure)
        status, iters, T, z, basis = _repair(A_kept, b_kept, c, basis, max_iter, iters)
        rounds += 1
    if status == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED)

    x = y_std[: lp.n_vars]
    dual_point = np.zeros(A.shape[0])
    dual_point[keep] = dual
    _check_primal(lp, x)
    return LPOutcome(status=OPTIMAL, value=float(c @ y_std), point=x,
                     dual_point=signs * dual_point, basis=(tuple(basis), keep))


def _certificate(A, b, c, T, basis):
    """Primal solution and dual from an optimal basis, and why they fail
    the certificate (None when they pass).

    A fresh equilibrated solve usually beats the pivot-accumulated tableau
    values, but on degenerate (near-singular) bases it can be worse, so the
    candidate with the smaller residual wins.
    """
    y_std = np.zeros(A.shape[1])
    dual = np.zeros(len(basis))
    if basis:
        B = A[:, basis]
        xb = np.clip(T[:, -1], 0.0, None)
        try:
            xb_ref, dual = _refined_basis_solution(B, b, c[basis])
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError("optimal basis is singular") from exc
        if not np.isfinite(dual).all():  # LAPACK overflows without raising
            raise FloatingPointError("overflow in the dual solve")
        np.clip(xb_ref, 0.0, None, out=xb_ref)
        if np.abs(B @ xb_ref - b).max() < np.abs(B @ xb - b).max():
            xb = xb_ref
        y_std[basis] = xb
    primal_std = float(c @ y_std)
    gap = abs(primal_std - float(dual @ b))
    least = float((c - A.T @ dual).min(initial=0.0))
    cscale = max(1.0, float(np.abs(c).max(initial=0.0)))
    if least < -GAP_TOL * cscale or gap > GAP_TOL * max(1.0, abs(primal_std)):
        return y_std, dual, (
            f"dual certificate fails: least reduced cost {least:.3e}, duality gap {gap:.3e}"
        )
    return y_std, dual, None


_REPAIR_ROUNDS = 4
_CLEANUP_PIVOTS = 200


def _repair(A, b, cost, basis, max_iter, it):
    """One repair round of an optimal basis whose certificate failed (see
    the module docstring); returns ``_run_simplex``'s outcome.  The basic
    values and reduced costs are the ones the certificate sees, from the
    equilibrated solve, not the tableau's."""
    try:
        T = _refactor(A, b, basis, cost)[0]
        xb, y = _refined_basis_solution(A[:, basis], b, cost[basis])
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("optimal basis is singular") from exc
    T[:, -1] = xb
    z = np.concatenate([cost - A.T @ y, [-float(y @ b)]])
    z[basis] = 0.0
    it += _dual_simplex(T, z, basis, _CLEANUP_PIVOTS)
    return _run_simplex(A, b, cost, T, z, basis, max_iter, it_start=it)


def _dual_simplex(T, z, basis, max_pivots):
    """Dual simplex pivots on the tableau in place; returns their count.

    The row with the most negative basic value leaves, and the entering
    column wins the dual ratio test (least z_j / -T[r, j], z_j clipped at
    0) over that row's entries below ``-_PIVOT_TOL``.  Stops when no basic
    value is below ``-FEAS_TOL``, when the leaving row has no such entry,
    or after ``max_pivots`` pivots.
    """
    ncols = T.shape[1] - 1
    for k in range(max_pivots):
        r = int(np.argmin(T[:, -1]))
        row = T[r, :ncols]
        cand = np.flatnonzero(row < -_PIVOT_TOL)
        if not T[r, -1] < -FEAS_TOL or cand.size == 0:
            return k
        ratios = np.maximum(z[cand], 0.0) / -row[cand]
        _pivot(T, z, basis, r, int(cand[np.argmin(ratios)]))
    return max_pivots


def _phase1(A, b, c, max_iter):
    """Phase 1 from one artificial column per row: the Farkas ray when the
    program is infeasible, else phase 2's start (kept-row mask, tableau,
    reduced costs, basis, pivots so far)."""
    nrows, ncols = A.shape
    start = ncols + np.arange(nrows)
    basis = start.tolist()
    A1 = np.hstack([A, np.eye(nrows)])
    T = np.hstack([A1, b[:, None]])
    cost1 = np.concatenate([np.zeros(ncols), np.ones(nrows)])
    z = _reduced_row(T, basis, cost1)
    status, iters, T, z, basis = _run_simplex(A1, b, cost1, T, z, basis, max_iter)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded below
        raise ConsistencyError("phase 1 reported unbounded")
    if -z[-1] > FEAS_TOL:  # equilibrated, so no rhs entry exceeds 1
        # the phase-1 dual, read off the starting identity columns' reduced costs
        ray = (cost1 - z[:-1])[start]
        return ray

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
    T = T[rows][:, list(range(ncols)) + [ncols + nrows]]
    basis = [basis[r] for r in rows]

    # Phase 2 starts on the true objective from a freshly factorized tableau.
    try:
        T, z = _refactor(A[keep], b[keep], basis, c)
    except np.linalg.LinAlgError:  # pragma: no cover - keep the pivoted state
        z = _reduced_row(T, basis, c)
    return keep, T, z, basis, iters


def _warm_start(A, b, c, basis):
    """Phase 2's start at the given (columns, kept-row mask), or None when
    that basis is singular or not primal feasible within ``FEAS_TOL``."""
    cols, keep = list(basis[0]), np.asarray(basis[1], dtype=bool)
    if keep.shape != (A.shape[0],) or len(cols) != keep.sum() or not all(
        0 <= j < A.shape[1] for j in cols
    ):
        raise ValidationError("basis does not fit the program's rows and columns")
    try:
        T, z = _refactor(A[keep], b[keep], cols, c)
    except np.linalg.LinAlgError:
        return None
    if not T[:, -1].min(initial=0.0) >= -FEAS_TOL:  # NaN fails too
        return None
    return keep, T, z, cols, 0


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


def backward_error(A, x, b):
    """Worst relative (backward-error) miss of ``A @ x`` against ``b`` over
    the rows, |Ax - b| / (1 + |A||x| + |b|); one per column when ``x`` and
    ``b`` are matrices, and 0 with no rows."""
    gap = np.abs(A @ x - b)
    return np.max(gap / (1.0 + np.abs(A) @ np.abs(x) + np.abs(b)), axis=0, initial=0.0)


def _check_primal(lp, x):
    """Per-row relative (backward-error) feasibility check of the point."""
    worst = backward_error(lp.constraint_matrix, x, lp.rhs)
    if worst > FEAS_TOL:
        raise ConsistencyError(
            f"optimal point violates constraints by relative {worst:.3e}"
        )
