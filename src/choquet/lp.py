"""Self-contained dense linear-programming engine.

Two-phase primal simplex on the full tableau.  Pricing is Dantzig's most
negative reduced cost with ratio ties broken toward the largest pivot
element; a degeneracy stall switches to Bland's smallest-index anti-cycling
rule, restricted to well-sized pivots, until the objective moves again,
and the tableau is refactorized from the basis periodically so pivot drift
cannot accumulate.  General bounds are reduced internally to standard form
``min c.x, Ax = b, x >= 0``: shifted lower bounds, reflected upper bounds,
free variables split into nonnegative pairs, doubly-bounded variables given
an explicit range row.

The solver is a pure function of its input: identical inputs produce
identical outputs, and instances may be solved concurrently.  Strict
inequalities cannot be modeled; callers rewrite ``< 0`` as ``<= -gamma``
with a margin of their choosing and rescale afterwards.

Optimal outcomes are certified: the returned point is checked feasible
within ``feas_tol`` and the objective value is matched against the dual
value within ``gap_tol``.
"""

import json
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, IterationLimitError, ValidationError

LE, EQ, GE = "LE", "EQ", "GE"
_RELATIONS = (LE, EQ, GE)

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
    """Dense LP: minimize ``objective . x`` subject to row relations and bounds.

    ``relations[i]`` is one of "LE", "EQ", "GE" and applies to row i of
    ``constraint_matrix @ x`` against ``rhs[i]``.  ``lower``/``upper`` may be
    -inf/+inf; every other entry must be finite.
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    relations: tuple
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
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
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValidationError("bounds must have one (lower, upper) pair per variable")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValidationError("objective, matrix and rhs entries must be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValidationError("bounds may be infinite but not NaN")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValidationError("lower bounds must be < +inf and upper bounds > -inf")
        if np.any(lo > hi):
            raise ValidationError("found lower bound above upper bound")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", A)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def build(cls, objective, constraint_matrix=None, relations=None, rhs=None, bounds=None):
        """Convenience constructor.

        ``bounds`` is a per-variable sequence of (lower, upper) pairs, a single
        pair applied to all variables, or None for the default ``x >= 0``.
        """
        c = np.asarray(objective, dtype=float)
        n = c.shape[0]
        if constraint_matrix is None:
            constraint_matrix = np.zeros((0, n))
            relations = ()
            rhs = np.zeros(0)
        if bounds is None:
            lo, hi = np.zeros(n), np.full(n, np.inf)
        elif isinstance(bounds, tuple) and len(bounds) == 2 and np.isscalar(bounds[0]):
            lo, hi = np.full(n, float(bounds[0])), np.full(n, float(bounds[1]))
        else:
            arr = np.asarray(bounds, dtype=float)
            lo, hi = arr[:, 0], arr[:, 1]
        return cls(c, constraint_matrix, tuple(relations), rhs, lo, hi)

    @property
    def n_vars(self):
        return self.objective.shape[0]

    @property
    def n_rows(self):
        return self.rhs.shape[0]

    def to_dict(self):
        def enc(v):
            return [None if not np.isfinite(x) else float(x) for x in v]

        return {
            "objective": [float(x) for x in self.objective],
            "matrix": [[float(x) for x in row] for row in self.constraint_matrix],
            "relations": list(self.relations),
            "rhs": [float(x) for x in self.rhs],
            "lower": enc(self.lower),
            "upper": enc(self.upper),
        }

    @classmethod
    def from_dict(cls, d):
        lo = [-np.inf if v is None else v for v in d["lower"]]
        hi = [np.inf if v is None else v for v in d["upper"]]
        return cls(
            np.asarray(d["objective"], dtype=float),
            np.asarray(d["matrix"], dtype=float).reshape(len(d["rhs"]), len(d["objective"])),
            tuple(d["relations"]),
            np.asarray(d["rhs"], dtype=float),
            np.asarray(lo, dtype=float),
            np.asarray(hi, dtype=float),
        )


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict; ``value``/``point``/``dual_point`` set when optimal."""

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
    rule takes over until the objective moves again, which rules out
    cycling.  Its leaving row is chosen among the ratio ties whose pivot is
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
        last_obj = obj
        if it % _REFRESH_EVERY == 0:
            try:
                T, z = _refactor(A, b, basis, cost)
                fresh = True
            except np.linalg.LinAlgError:  # pragma: no cover
                pass


def _standardize(lp):
    """Rewrite ``lp`` as min c.y, Ay = b (b >= 0), y >= 0.

    Returns (A, b, c, const, col_map, shift, row_factor, n_orig_rows,
    slack_of_row).  ``col_map[k] = (j, sign)`` reconstructs
    x_j = shift_j + sum sign * y_k; ``row_factor`` is the combined
    sign/equilibration factor per row (standard-form duals map back via
    y_i = row_factor_i * y_std_i); ``slack_of_row[i]`` is the slack column
    of row i (or -1 for an equality row).
    """
    A0, b0, c0 = lp.constraint_matrix, lp.rhs, lp.objective
    m, n = A0.shape
    col_map = []
    col_vectors = []
    cvals = []
    shift = np.zeros(n)
    range_rows = []  # (std column, width) for doubly bounded variables
    for j in range(n):
        lo, hi = lp.lower[j], lp.upper[j]
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
    rels = list(lp.relations) + [LE] * len(range_rows)
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
            r == EQ or (r == LE and b[i] < 0) or (r == GE and b[i] >= 0)
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
        if r == LE:
            slack_of_row[i] = k + len(slack_cols)
            slack_cols.append((i, 1.0))
        elif r == GE:
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


def solve(lp, feas_tol=FEAS_TOL, gap_tol=GAP_TOL, max_iter=MAX_ITER):
    """Solve ``lp``.  Returns an LPOutcome with a certified optimum.

    Raises ValidationError for malformed input (via the LinearProgram
    constructor), IterationLimitError if pivoting exhausts ``max_iter``, and
    ConsistencyError if the optimality certificate fails its own tolerances.
    """
    if not isinstance(lp, LinearProgram):
        raise ValidationError("solve expects a LinearProgram")
    outcome = _solve_inner(lp, feas_tol, gap_tol, max_iter)
    if _dump_path is not None:
        rec = {"lp": lp.to_dict(), "status": outcome.status}
        if outcome.status == OPTIMAL:
            rec["value"] = float(outcome.value)
        with _dump_lock:
            with open(_dump_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return outcome


def _solve_inner(lp, feas_tol, gap_tol, max_iter):
    A, b, c, const, col_map, shift, signs, m_orig, slack_of_row = _standardize(lp)
    nrows, ncols = A.shape

    # Phase 1: slacks with coefficient +1 start basic (their rows are already
    # satisfied since b >= 0); the remaining rows get artificial columns.
    need_art = [
        i for i in range(nrows)
        if slack_of_row[i] < 0 or A[i, slack_of_row[i]] != 1.0
    ]
    # only artificial rows can carry phase-1 mass; their rhs sets the scale
    # of the infeasibility verdict
    bscale = max(1.0, float(np.abs(b[need_art]).max())) if need_art else 1.0
    nart = len(need_art)
    art_rows = set(need_art)
    art = np.zeros((nrows, nart))
    basis = [0] * nrows
    for p, i in enumerate(need_art):
        art[i, p] = 1.0
        basis[i] = ncols + p
    for i in range(nrows):
        if i not in art_rows:
            basis[i] = int(slack_of_row[i])
    A1 = np.hstack([A, art])
    T = np.hstack([A1, b[:, None]])
    cost1 = np.concatenate([np.zeros(ncols), np.ones(nart)])
    z = _reduced_row(T, basis, cost1)
    status, iters, T, z, basis = _run_simplex(A1, b, cost1, T, z, basis, max_iter)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded below
        raise ConsistencyError("phase 1 reported unbounded")
    if -z[-1] > feas_tol * bscale:
        return LPOutcome(status=INFEASIBLE)

    # Drive artificial variables out of the basis (largest pivot in the row
    # keeps this stable); rows with no real pivot left are redundant.
    redundant = []
    for r in range(nrows):
        if basis[r] >= ncols:
            row = np.abs(T[r, :ncols])
            col = int(np.argmax(row))
            if row[col] > 1e-9:
                _pivot(T, z, basis, r, col)
            else:
                redundant.append(r)
    keep = [r for r in range(nrows) if r not in redundant]
    T = T[keep][:, list(range(ncols)) + [ncols + nart]]
    basis = [basis[r] for r in keep]
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
    if basis:
        B = A_kept[:, basis]
        cb = c[basis]
        xb = np.clip(T[:, -1], 0.0, None)
        resid_tab = float(np.abs(B @ xb - b_kept).max(initial=0.0))
        dual, cond_of = None, None
        try:
            xb_ref, dual, cond_of = _refined_basis_solution(B, b_kept, cb)
            np.clip(xb_ref, 0.0, None, out=xb_ref)
            if float(np.abs(B @ xb_ref - b_kept).max(initial=0.0)) < resid_tab:
                xb = xb_ref
        except np.linalg.LinAlgError:
            pass
        if dual is None or np.abs(B.T @ dual - cb).max(initial=0.0) > 1e-7 * max(
            1.0, float(np.abs(cb).max(initial=0.0))
        ):
            dual = np.linalg.lstsq(B.T, cb, rcond=None)[0]
            cond_of = None
        y_std[basis] = xb
    else:
        dual = np.zeros(0)
        cond_of = None
    x = shift.copy()
    for k, (j, s) in enumerate(col_map):
        x[j] += s * y_std[k]
    primal_std = float(c @ y_std)
    dual_std = float(dual @ b_kept) if basis else 0.0
    scale = max(1.0, abs(primal_std))
    gap = abs(primal_std - dual_std)
    if gap > gap_tol * scale:
        # The two solves can only disagree within the conditioning of the
        # basis; a gap beyond that certifies a wrong optimum.
        cond = cond_of() if cond_of is not None else float(np.linalg.cond(A_kept[:, basis]))
        if gap > max(gap_tol, 64.0 * cond * np.finfo(float).eps) * scale:
            raise ConsistencyError(
                f"duality gap {gap:.3e} exceeds {gap_tol:.1e} "
                f"(basis condition {cond:.2e})"
            )

    dual_point = np.zeros(m_orig)
    for pos, r in enumerate(keep):
        if r < m_orig:
            dual_point[r] = signs[r] * dual[pos]

    value = primal_std + const
    _check_primal(lp, x, feas_tol)
    return LPOutcome(status=OPTIMAL, value=value, point=x, dual_point=dual_point)


def _refined_basis_solution(B, b, cb):
    """Solve B x = b and B' y = cb after row/column equilibration.

    Returns (x, y, cond) where ``cond`` lazily evaluates the condition
    number of the equilibrated basis.
    """
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
    return xb, y, lambda: float(np.linalg.cond(Bs))


def _violations(lp, x):
    """Violation of each row relation and of each variable's bounds at ``x``.

    Entries are <= 0 where the point satisfies the constraint.
    """
    d = lp.constraint_matrix @ x - lp.rhs
    rel = np.array(lp.relations, dtype=str)
    rows = np.where(rel == LE, d, np.where(rel == GE, -d, np.abs(d)))
    bounds = np.maximum(lp.lower - x, x - lp.upper)
    return rows, bounds


def _check_primal(lp, x, feas_tol):
    """Per-row relative (backward-error) feasibility check of the point."""
    rows, bounds = _violations(lp, x)
    mag = 1.0 + np.abs(lp.constraint_matrix) @ np.abs(x) + np.abs(lp.rhs)
    worst = max(
        np.max(rows / mag, initial=0.0),
        np.max(bounds / (1.0 + np.abs(x)), initial=0.0),
    )
    if worst > feas_tol:
        raise ConsistencyError(
            f"optimal point violates constraints by relative {worst:.3e}"
        )


def residual(lp, x):
    """Worst constraint/bound violation of ``x`` (0 means feasible)."""
    rows, bounds = _violations(lp, np.asarray(x, dtype=float))
    return float(max(np.max(rows, initial=0.0), np.max(bounds, initial=0.0)))


def feasible(lp, feas_tol=FEAS_TOL, max_iter=MAX_ITER):
    """A feasible point of ``lp``, or None.  Agrees with solve on the zero objective."""
    probe = replace(lp, objective=np.zeros(lp.n_vars))
    out = solve(probe, feas_tol=feas_tol, max_iter=max_iter)
    return out.point if out.status == OPTIMAL else None
