"""Self-contained dense linear-programming engine.

Primal simplex on the full tableau, from a primal feasible basis that the
caller supplies.  Pricing is Dantzig's most negative reduced cost with
ratio ties broken toward the largest pivot element; it is the only pivot
rule, and the rhs shift below keeps it from cycling.

There is one LP form: minimize ``c.x`` over x >= 0 subject to ``A x = b``,
with rows equilibrated and negated where needed so that ``b >= 0``.
There is no phase 1.  Every LP this package builds is over the
representing measures of a point x, and the Dirac mass e_x is always one
of them: ``_crash`` gives a basis there, column x first, and its rank
test drops the dependent rows.  A basis is (standard-form columns, mask
of the rows kept); standard form only scales and negates rows, so an
optimal outcome's ``basis`` can start any program with the same
constraint matrix where its basic solution is feasible.

The solver is a pure function of its input: identical inputs produce
identical outputs, and instances may be solved concurrently.

At e_x every basic value but x's is 0, and Dantzig's rule can cycle on
such a degenerate basis.  So the simplex runs in stretches of at most
``_REFRESH_EVERY`` pivots, each from a fresh factorization in which
every basic value at most ``FEAS_TOL``, in row i of m, is first raised
to ``_SHIFT`` (1 + i/m) by a shift of the rhs: the perturbation device
(Wolfe, J. SIAM 11, 1963) that practical solvers run in place of Bland's
rule (Gill, Murray, Saunders & Wright, Math. Programming 45, 1989).
Between stretches the tableau is rebuilt from the basis, which drops
pivot drift, and a column that looks unbounded after some pivots of a
stretch is judged again on the rebuilt tableau.  ``_SHIFT`` must stay
well above the ratio test's tie tolerance and well below the basic
values' scale.

Optimal outcomes are certified on the true rhs: from an equilibrated
solve, no basic value is below ``-_PIVOT_TOL``, no reduced cost below
``-GAP_TOL`` times the cost scale, and the dual value is within
``GAP_TOL`` of the objective value; the returned point is checked against
the unscaled rows too.  A failed certificate is repaired from its own
basis (Koberstein, PhD thesis, Paderborn 2005): the shift leaves negative
basic values, drift in the dense tableau can leave its reduced costs
optimal where the refactorized ones are not, and the ratio test clips
negative basic values to 0, so such a basic never leaves.  Each of up to
``_REPAIR_ROUNDS`` rounds drives the negative basic values out with at
most ``_CLEANUP_PIVOTS`` dual simplex pivots and resumes the primal
simplex, shifted as above.
"""

import json
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, IterationLimitError, ValidationError, in_float_range

OPTIMAL, UNBOUNDED = "optimal", "unbounded"

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
    """Solver verdict, OPTIMAL or UNBOUNDED; ``value``, ``point``,
    ``dual_point`` and ``basis`` are set when optimal.  ``basis`` is the
    optimal basis as (standard-form columns, mask of the rows kept)."""

    status: str
    value: float | None = None
    point: np.ndarray | None = None
    dual_point: np.ndarray | None = None
    basis: tuple | None = None


def _pivot(T, z, basis, row, col):
    r, fac = T[row], T[:, col].copy()  # r is a view of the pivot row
    r /= fac[row]
    fac[row] = 0.0
    T -= fac[:, None] * r
    z -= z[col] * r
    basis[row] = col


def _refactor(A, b, basis, cost):
    """Rebuild tableau and reduced costs from the basis (drops pivot drift),
    with the basic values and the dual from the equilibrated solve the
    certificate uses."""
    T = np.linalg.solve(A[:, basis], np.hstack([A, b[:, None]]))
    T[:, -1], y = _refined_basis_solution(A[:, basis], b, cost[basis])
    z = np.concatenate([cost - A.T @ y, [-float(y @ b)]])
    z[basis] = 0.0
    return T, z


_REFRESH_EVERY = 64


def _run_simplex(T, z, basis, cost, pivots):
    """At most ``pivots`` pivots on the tableau in place; returns the status,
    OPTIMAL, UNBOUNDED or None when the stretch ends first, and the pivot
    count.

    Entering column by Dantzig pricing, leaving row by the ratio test over
    the whole column, infinite off the entries above ``_PIVOT_TOL``, with
    ties broken toward the largest pivot element.  A column with no such
    entry ends the stretch after a pivot, since drift may have made it; only
    on the fresh tableau is it a verdict, UNBOUNDED when its descent rate is
    clearly above reduced-cost noise and OPTIMAL otherwise.
    """
    ncols = T.shape[1] - 1
    cscale = max(1.0, float(np.abs(cost).max(initial=0.0)))
    enter_tol = _PIVOT_TOL * cscale
    ratios = np.empty(T.shape[0])
    for k in range(pivots):
        enter = int(np.argmin(z[:ncols]))
        if not z[enter] < -enter_tol:
            return OPTIMAL, k
        col = T[:, enter]
        pos = col > _PIVOT_TOL
        if not pos.any():
            if k:
                return None, k
            return (OPTIMAL if z[enter] >= -1e-7 * cscale else UNBOUNDED), 0
        ratios.fill(np.inf)
        np.divide(np.maximum(T[:, -1], 0.0), col, out=ratios, where=pos)
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + best))
        _pivot(T, z, basis, int(ties[np.argmax(col[ties])]), enter)
    return None, pivots


def _standardize(lp):
    """Rewrite ``lp`` with ``b >= 0``.

    Returns (A, b, c, row_factor).  Every row is divided by the largest
    magnitude among its coefficients and rhs, so the feasibility
    tolerances are relative per row, then negated where its rhs is
    negative; ``row_factor`` is the combined factor per row (standard-form
    duals map back via y_i = row_factor_i * y_std_i).
    """
    A, b = lp.constraint_matrix, lp.rhs
    row_scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    row_scale[row_scale == 0.0] = 1.0
    b = b / row_scale
    signs = np.where(b < 0, -1.0, 1.0)
    A = A / row_scale[:, None] * signs[:, None]
    return A, b * signs, lp.objective, signs / row_scale


_RANK_TOL = 1e-9


def _crash(A, lead):
    """A nonsingular basis of the matrix ``A``, as (columns, kept-row mask):
    the columns ``lead`` in order, then greedy elimination with complete
    pivoting on the row-equilibrated matrix, each step taking the largest
    entry left in the rows without a pivot.  A lead column with no entry
    above ``_RANK_TOL`` there is skipped, and the elimination stops when no
    column has one; the rows left then depend on the others and are
    dropped (Bixby, ORSA J. Computing 4, 1992).  A step eliminates on all
    rows: its factor x/x = 1 leaves the pivot row exactly 0."""
    scale = np.abs(A).max(axis=1, initial=0.0)
    M = A / np.where(scale > 0.0, scale, 1.0)[:, None]
    left, cols = np.ones(A.shape[0], dtype=bool), []
    for j in [*lead, None]:
        while left.any():
            if j is None:
                r, col = divmod(int(np.argmax(np.abs(M))), A.shape[1])
            else:
                r, col = int(np.argmax(np.abs(M[:, j]))), j
            if not abs(M[r, col]) > _RANK_TOL:
                break
            M -= np.outer(M[:, col] / M[r, col], M[r])
            left[r] = False
            cols.append(int(col))
            if j is not None:
                break
    return tuple(cols), ~left


def solve(lp, basis, max_iter=MAX_ITER):
    """Solve ``lp`` from ``basis``; returns an LPOutcome, a certified
    optimum or UNBOUNDED.

    ``basis`` is (standard-form columns, kept-row mask), such as
    ``_crash``'s or an optimal outcome's of a program with the same
    matrix, and must be nonsingular and primal feasible within
    ``FEAS_TOL`` on every row, the dropped ones too.

    Raises ValidationError for malformed input (via the LinearProgram
    constructor), for a basis that is missing, does not fit, is singular
    or is not primal feasible, and for finite input whose solve overflows
    the float range; IterationLimitError if pivoting exhausts
    ``max_iter``; and ConsistencyError if a basis turns singular or the
    optimality certificate still fails after ``_REPAIR_ROUNDS`` repair
    rounds.
    """
    if not isinstance(lp, LinearProgram):
        raise ValidationError("solve expects a LinearProgram")
    if basis is None:
        raise ValidationError("solve needs a primal feasible starting basis")
    cols, keep = [int(j) for j in basis[0]], np.asarray(basis[1], dtype=bool)
    with in_float_range("LP data"):
        outcome = _solve_inner(lp, cols, keep, max_iter)
    if _dump_path is not None:
        rec = {"lp": lp.to_dict(), "status": outcome.status,
               "basis": [cols, [bool(k) for k in keep]]}
        if outcome.status == OPTIMAL:
            rec["value"] = float(outcome.value)
        with _dump_lock:
            with open(_dump_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return outcome


def _solve_inner(lp, cols, keep, max_iter):
    A, b, c, signs = _standardize(lp)
    if keep.shape != (A.shape[0],) or len(cols) != keep.sum() or not all(
        0 <= j < A.shape[1] for j in cols
    ):
        raise ValidationError("basis does not fit the program's rows and columns")
    A_kept, b_kept = A[keep], b[keep]
    try:
        T, z = _refactor(A_kept, b_kept, cols, c)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("starting basis is singular") from exc
    start = np.zeros(lp.n_vars)
    start[cols] = np.maximum(T[:, -1], 0.0)
    # on every row, the dropped ones too, as ``_check_primal`` checks; NaN fails
    if not (T[:, -1].min(initial=0.0) >= -FEAS_TOL
            and backward_error(lp.constraint_matrix, start, lp.rhs) <= FEAS_TOL):
        raise ValidationError("starting basis is not primal feasible")
    status, iters, basis = _primal(A_kept, b_kept, c, T, z, cols, max_iter, 0)
    rounds = 0
    while status == OPTIMAL:
        y_std, dual, failure = _certificate(A_kept, b_kept, c, basis)
        if failure is None:
            break
        if rounds == _REPAIR_ROUNDS or not basis:
            raise ConsistencyError(failure)
        status, iters, basis = _repair(A_kept, b_kept, c, basis, max_iter, iters)
        rounds += 1
    if status == UNBOUNDED:
        return LPOutcome(status=UNBOUNDED)

    x = y_std[: lp.n_vars]
    dual_point = np.zeros(A.shape[0])
    dual_point[keep] = dual
    _check_primal(lp, x)
    return LPOutcome(status=OPTIMAL, value=float(c @ y_std), point=x,
                     dual_point=signs * dual_point, basis=(tuple(basis), keep))


_SHIFT = 1e-6


def _primal(A, b, cost, T, z, basis, max_iter, it):
    """The primal simplex from ``_refactor``'s tableau of a basis: stretches
    of at most ``_REFRESH_EVERY`` pivots of ``_run_simplex``, each from
    ``_refactor``'s tableau of the basis it starts at, with every basic
    value at most ``FEAS_TOL``, in row i of m, first raised to
    ``_SHIFT`` (1 + i/m) through the rhs (see the module docstring).
    Returns the status, the pivot count so far and the basis; raises
    IterationLimitError once the count reaches ``max_iter``."""
    floor = _SHIFT * (1.0 + np.arange(len(basis)) / max(len(basis), 1))
    while True:
        xb = T[:, -1]
        xb += np.where(xb <= FEAS_TOL, floor - xb, 0.0)
        status, k = _run_simplex(T, z, basis, cost, min(_REFRESH_EVERY, max(max_iter - it, 0)))
        it += k
        if status is not None:
            return status, it, basis
        if it >= max_iter:
            raise IterationLimitError(f"simplex iteration limit {max_iter} reached")
        try:
            T, z = _refactor(A, b, basis, cost)
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError("simplex basis is singular") from exc


def _certificate(A, b, c, basis):
    """Primal solution and dual of a basis, from an equilibrated solve, and
    why they fail the certificate (None when they pass)."""
    y_std = np.zeros(A.shape[1])
    dual = np.zeros(len(basis))
    least_x = 0.0
    if basis:
        try:
            xb, dual = _refined_basis_solution(A[:, basis], b, c[basis])
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError("optimal basis is singular") from exc
        if not np.isfinite(dual).all():  # LAPACK overflows without raising
            raise FloatingPointError("overflow in the dual solve")
        least_x = float(xb.min())
        y_std[basis] = np.maximum(xb, 0.0)
    primal_std = float(c @ y_std)
    gap = abs(primal_std - float(dual @ b))
    least = float((c - A.T @ dual).min(initial=0.0))
    cscale = max(1.0, float(np.abs(c).max(initial=0.0)))
    if not (least_x >= -_PIVOT_TOL and least >= -GAP_TOL * cscale
            and gap <= GAP_TOL * max(1.0, abs(primal_std))):
        return y_std, dual, (
            f"certificate fails: least basic value {least_x:.3e}, "
            f"least reduced cost {least:.3e}, duality gap {gap:.3e}"
        )
    return y_std, dual, None


_REPAIR_ROUNDS = 4
_CLEANUP_PIVOTS = 200


def _repair(A, b, cost, basis, max_iter, it):
    """One repair round of an optimal basis whose certificate failed (see
    the module docstring); returns ``_primal``'s outcome.  The basic
    values and reduced costs are the ones the certificate sees, from the
    equilibrated solve, not the tableau's, and so are the primal
    simplex's after the dual simplex pivots."""
    try:
        T, z = _refactor(A, b, basis, cost)
        it += _dual_simplex(T, z, basis, _CLEANUP_PIVOTS)
        T, z = _refactor(A, b, basis, cost)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("optimal basis is singular") from exc
    return _primal(A, b, cost, T, z, basis, max_iter, it)


def _dual_simplex(T, z, basis, max_pivots):
    """Dual simplex pivots on the tableau in place; returns their count.

    The row with the most negative basic value leaves, and the entering
    column wins the dual ratio test (least z_j / -T[r, j], z_j clipped at
    0) over that row's entries below ``-_PIVOT_TOL`` times the row's
    largest magnitude (at least 1), so that drift in a row of large
    entries cannot pass for a pivot.  Stops when no basic value is below
    ``-_PIVOT_TOL``, the certificate's bound, when the leaving row has no
    such entry, or after ``max_pivots`` pivots.
    """
    ncols = T.shape[1] - 1
    for k in range(max_pivots):
        r = int(np.argmin(T[:, -1]))
        row = T[r, :ncols]
        cand = np.flatnonzero(row < -_PIVOT_TOL * max(1.0, float(np.abs(row).max())))
        if not T[r, -1] < -_PIVOT_TOL or cand.size == 0:
            return k
        ratios = np.maximum(z[cand], 0.0) / -row[cand]
        _pivot(T, z, basis, r, int(cand[np.argmin(ratios)]))
    return max_pivots


def _refined_basis_solution(B, b, cb):
    """Solve B x = b and B' y = cb after row/column equilibration."""
    row = np.abs(B).max(axis=1, initial=0.0)
    row[row == 0.0] = 1.0
    Bs = B / row[:, None]
    col = np.abs(Bs).max(axis=0, initial=0.0)
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
