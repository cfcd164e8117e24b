"""Representing measures, their value intervals and the Choquet boundary.

A probability measure mu represents point x when integrating any basis
function against mu reproduces its value at x, i.e. B mu = B e_x with
mu >= 0 and total mass 1.  The Dirac mass at x always qualifies, so the
feasible polytope is never empty.  Every LP over such measures keeps the
basis rows that vary over the support and x, plus the ones row
(``_kept_rows``).  A row constant (within ``CERT_TOL`` of its scale)
there holds for every probability measure on the support, so the
constant row that the bases carry never duplicates the ones row.

Every hull question is decided here: is column x in the hull of the
columns of the points S?  Its verdict carries a witness checked by O(nd)
evaluation that does not trust the simplex engine: weights on S that
reproduce column x, or a ray (c, t) whose field B'c + t is larger at x
than on S beyond rounding, zero on every row x's self-mass LP drops.
The screen, Wolfe and the LP propose in turn, each checked so:
``_gram_screen``'s raw and whitened Gram fields; then Wolfe's nearest
point of the hull to x in the screen's whitened frame (``_wolfe``), or
its first iterate that already separates, whose weights or field
``_decide`` checks; and last the self-mass LP (``_membership``), min mu_x
over the representing measures of x on S and x, whose point gives
weights and whose dual gives a field.  ``_in_hull`` asks this of a
single point, and ``_separator`` rescales whichever ray decided into the
separator and exposing field that ``sets`` and ``maxprinciple`` return.
``_hull_members`` asks, of many points, whether each is in the hull of
one fixed S less the point itself.  It runs the screen once over all of
them, then ``_decide`` only where no witness found so far answers: a ray
separates every point outside S where it beats S, and weight supports
often represent the next points too.  A reused witness is checked as
strictly as its own point's, and a ray only where it is zero on every
row that point's own LP drops.

A point belongs to the Choquet boundary when the Dirac mass is its only
representing measure.  The least mass a representing measure leaves on x
is exactly 0 or 1: weights on the other points that reproduce column x
leave 0, and a representing measure mu with mu_x < 1 would give such
weights, (mu - mu_x e_x) / (1 - mu_x).  So the boundary is the set of
points outside the hull of the others: ``_on_boundary`` gives every
boundary verdict.

Every key interval and representing measure, and every value of
``convexify.biconjugate`` but those its facets touch, passes
``_bracket``, which checks a block of points at once: per point, a
representing measure mu, whose pairing <mu, f> bounds the value from
above, and a minorant phi <= f in the span, whose phi(x) bounds it from
below; a NaN fails its point.  On the boundary the Dirac mass is the
only representing measure, so both ends are f(x).  Where the Gram
screen certifies x there with a field psi, ``_dirac_values`` takes the
Dirac mass and the minorant f(x) - lam (psi(x) - psi), lam the least
slope that keeps it below f, and solves no LP.  The rows the screen runs
on, and the LP's matrix, are the same for every x, so each system caches
them in one context (``_pairing``) that the first value needing it
builds: one screen of all points serves every key interval,
representing measure and sweep on the system.  Elsewhere each end is one
LP (``_least_pairing``) with phi from its dual, started at the Dirac mass
e_x from ``lp._crash``'s basis; both LPs have the same rows and rhs, so
the upper end starts from the lower end's optimal basis.  Each facet of
the biconjugate is this LP too, started at e_x from the previous facet's
basis, so a whole field's intervals are two sweeps: the lower ends f**,
the upper ends -(-f)**.  Representing measures take the same two
routes.  A failed check raises ConsistencyError, except in the closed
form, whose point then takes the LPs; an overflow while evaluating a
witness is a ValidationError.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import ConsistencyError, ValidationError, in_float_range
from .space import Measure, as_field

CERT_TOL = 1e-9
# the lower (minorant) and upper (measure) bounds of a value must agree
# within this, relative to 1 + max |f|
AGREE_TOL = 1e-7
# relative rounding bound for evaluating an exposing field B'y + t
_ROUNDING = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class KeyInterval:
    """Range of integrals of a field over all representing measures of a point."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi + 1e-9):
            raise ConsistencyError(f"inverted interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class BoundaryReport:
    """Per-point boundary classification.

    A point's least self mass is 1 on the boundary and 0 off it, and it is
    a vertex of the hull of all columns exactly when it is on the boundary,
    so both are read off ``is_boundary``.
    """

    is_boundary: np.ndarray

    @property
    def min_self_mass(self):
        return self.is_boundary.astype(float)

    @property
    def vertex(self):
        return self.is_boundary

    @property
    def boundary(self):
        return tuple(int(j) for j in np.flatnonzero(self.is_boundary))

    def to_dict(self, system):
        pts = [
            {
                "label": system.space.labels[j],
                "is_boundary": bool(flag),
                "min_self_mass": float(flag),
                "vertex": bool(flag),
            }
            for j, flag in enumerate(self.is_boundary)
        ]
        return {"boundary": [system.space.labels[j] for j in self.boundary], "points": pts}


def _margins(B, y, t, rest):
    """``separation_margin`` at every point."""
    phi = B.T @ y + t
    err = _ROUNDING * (np.abs(B).T @ np.abs(y) + abs(t))
    return phi - err - (phi[rest] + err[rest]).max(initial=-np.inf)


def separation_margin(B, y, t, x, rest):
    """phi(x) - max phi(rest) for phi = B'y + t, less a bound on the rounding
    error of evaluating phi: positive iff phi certifiably separates x."""
    return float(_margins(B, y, t, rest)[x])


def coefficient_scales(system):
    """Magnitude of each basis row (1 for an all-zero row), computed once
    per system with its ``validate`` report."""
    return system.validate().row_scales


def _check_point(system, x):
    if not 0 <= x < system.n:
        raise ValidationError(f"point index {x} out of range [0, {system.n})")


def _kept_rows(P, X, scales):
    """Mask of the basis rows spanning more than ``CERT_TOL`` of their scale
    over the columns P and the column X, or one column of masks per column
    of a matrix X: no probability weights on P miss the others by more."""
    span = np.maximum(P.max(axis=1, initial=-np.inf), X.T)
    span -= np.minimum(P.min(axis=1, initial=np.inf), X.T)
    return (span > CERT_TOL * scales).T


def _measure_program(P, col, scales, objective=None):
    """LP over probability weights on the columns P that reproduce ``col``;
    returns it with the mask of basis rows it keeps (``_kept_rows``)."""
    keep = _kept_rows(P, col, scales)
    A = np.vstack([P[keep], np.ones((1, P.shape[1]))])
    rhs = np.append(col[keep], 1.0)
    obj = np.zeros(P.shape[1]) if objective is None else objective
    return lp.LinearProgram(obj, A, rhs), keep


def _membership(system, x, S):
    """The self-mass LP of column x against the points S (indices or a
    mask): min mu_x over the representing measures of x on S and x,
    started at the Dirac mass e_x.  Returns (member, witness) checked by
    evaluation: mu on S, renormalized, as weights reproducing column x
    within ``CERT_TOL``; else the dual field B'c + t, 1 at x and at most 0
    on S at the optimum 1, larger at x than on S beyond rounding.  No
    threshold applies to the LP's value."""
    B, S = system.basis, np.asarray(S)
    P = B[:, S]
    k = P.shape[1]
    prog, keep = _measure_program(np.column_stack([P, B[:, x]]), B[:, x],
                                  coefficient_scales(system), np.eye(k + 1)[k])
    out = lp.solve(prog, lp._crash(prog.constraint_matrix, [k]))
    w, miss = np.maximum(out.point[:k], 0.0), np.inf
    if w.sum() > 0.0:
        w /= w.sum()
        miss = lp.backward_error(P, w, B[:, x])
        if miss <= CERT_TOL:
            return True, w
    c = np.zeros(system.d)
    c[keep], t = out.dual_point[:-1], out.dual_point[-1]
    margin = separation_margin(B, c, t, x, S)
    if margin > 0.0:
        return False, (c, t)
    raise ConsistencyError(
        f"membership of point {system.space.labels[x]!r}: its weights on the set miss it "
        f"by relative {miss:.3e} and its dual field separates it by {margin:.3e}"
    )


def _gram_fields(Q, at, m):
    """Candidate fields for the columns ``at`` of Q against its first m
    columns, P, in the order to try them, each with its frame: the raw
    fields c = Q_x with none, then the whitened ones c = W W'(Q_x - m_P)
    with (W, U), for P's mean column m_P, P - m_P = U diag(s) V' and
    W = U diag(s)^-1 over s > 1e-10 max s.  The SVD runs only when the raw
    fields leave a column open.  They are only proposals, which
    ``_gram_screen`` checks."""
    X = Q[:, at]
    yield X, None
    P = Q[:, :m]
    mean = P.mean(axis=1, keepdims=True)
    U, s, _ = np.linalg.svd(P - mean, full_matrices=False)
    U, s = U[:, s > 1e-10 * s[0]], s[s > 1e-10 * s[0]]
    W = U / s
    yield W @ (W.T @ (X - mean)), (W, U)


def _wolfe(Y):
    """P. Wolfe's nearest point p to the origin in the hull of the columns
    of Y (Math. Programming 11, 1976): (w, p), w convex weights on an
    active set A of affinely independent columns with p = Y w, or None
    after 200 cycles or at a singular A.  A starts at the farthest column,
    which gives wider supports than the nearest for ``_hull_members`` to
    reuse.  M_A and w_A, M = [1; Y], sit in arrays of rows + 1 columns;
    T = R^-1 for the Cholesky factor R of M_A'M_A gains a column per major
    cycle and is refactored from M_A'M_A when a minor cycle drops one.  It
    stops when no column is below p by tol = 1e-12 max |y|^2, or once all
    are above 0 by tol, where p already separates (Gilbert, Johnson &
    Keerthi, 1988); it drops weights under 1e-14.  These settle only a
    proposal, which the callers check."""
    M = np.vstack([np.ones(Y.shape[1]), Y])
    sq = np.einsum("ij,ij->j", M, M)
    tol, size, j = 1e-12 * (sq.max() - 1.0), M.shape[0] + 1, int(np.argmax(sq))
    A, wA, T = np.zeros(size, dtype=int), np.zeros(size), np.zeros((size, size))
    MA, k, grow = np.zeros((size, size - 1)), 1, True
    A[0], MA[0], wA[0], T[0, 0] = j, M[:, j], 1.0, sq[j] ** -0.5
    for _ in range(200):
        if grow:
            p = wA[:k] @ MA[:k, 1:]
            py = p @ Y
            j = int(np.argmin(py))
            r = T[:k, :k].T @ (MA[:k] @ M[:, j])
            rho = sq[j] - r @ r
            if py[j] > tol or p @ p - py[j] <= tol or rho <= 1e-12 * sq[j]:
                w = np.zeros(Y.shape[1])
                w[A[:k]] = wA[:k]
                return w, p
            T[:k, k], T[k, k] = -(T[:k, :k] @ r) * rho**-0.5, rho**-0.5
            A[k], MA[k], k = j, M[:, j], k + 1
        u = T[:k, :k] @ T[:k, :k].sum(axis=0)
        alpha, lam = u / u.sum(), wA[:k]
        grow = alpha.min() > 1e-14
        if grow:
            wA[:k] = alpha
            continue
        ratio = np.where(alpha <= 1e-14, lam / np.maximum(lam - alpha, 1e-300), np.inf)
        i = int(np.argmin(ratio))
        lam = lam + ratio[i] * (alpha - lam)
        lam[i] = 0.0
        live = lam > 1e-14
        k = int(np.count_nonzero(live))
        A[:k], MA[:k], wA[:k] = A[: live.size][live], MA[: live.size][live], lam[live]
        try:
            T[:k, :k] = np.linalg.inv(np.linalg.cholesky(MA[:k] @ MA[:k].T).T)
        except np.linalg.LinAlgError:  # numerically dependent: the LP decides
            return None
    return None


def _beats(Q, at, m, C):
    """Mask over ``at``: does the field C[:, j], evaluated as Q'C[:, j],
    beat every one of the first m columns of Q other than at[j] at column
    at[j], by the ``_margins`` rounding bound?  256 fields at a time."""
    P = Q[:, :m]
    absP, out = np.abs(P).T, np.zeros(at.size, dtype=bool)
    for lo in range(0, at.size, 256):
        a, c = at[lo : lo + 256], C[:, lo : lo + 256]
        X, absC = Q[:, a], np.abs(c)
        own = np.einsum("ij,ij->j", X, c) - _ROUNDING * np.einsum("ij,ij->j", np.abs(X), absC)
        top = P.T @ c + _ROUNDING * (absP @ absC)
        mine = np.flatnonzero(a < m)
        top[a[mine], mine] = -np.inf
        out[lo : lo + 256] = own > top.max(axis=0, initial=-np.inf)
    return out


def _gram_screen(Q, at, m=None):
    """Mask over ``at``: does a field from ``_gram_fields`` certify that
    column of Q outside the hull of the first m columns (all by default)
    less itself, by ``_beats``?  Also each column's certifying field, the
    first one tried that wins (else its last), and the last one's frame."""
    m = Q.shape[1] if m is None else m
    ok, fields = np.zeros(at.size, dtype=bool), np.empty((Q.shape[0], at.size))
    for C, frame in _gram_fields(Q, at, m):
        todo = np.flatnonzero(~ok)
        fields[:, todo] = C[:, todo]
        ok[todo] = _beats(Q, at[todo], m, C[:, todo])
        if ok.all():
            break
    return ok, fields, frame


def _decide(system, x, rest, rows, frame, own):
    """``_membership``'s (member, witness) for column x against the points
    ``rest`` (indices), first by ``_wolfe`` on G'(column - column x) if the
    screen left a frame (W, U) on the basis rows ``rows``: W' on ``rows``,
    the part off the span of U there, and the other rows x's LP keeps (the
    mask ``own``, ``_kept_rows`` of rest and x) as they are.  Its weights
    decide if they reproduce column x within ``CERT_TOL``, else its field
    c = -G p if it separates, else the LP."""
    B = system.basis
    if frame is not None:
        W, U = frame
        r, idx = W.shape[1], np.flatnonzero(rows)
        G = np.hstack([np.zeros((system.d, r)), np.diag(own.astype(float))])
        G[idx, :r] = W
        G[np.ix_(idx, r + idx)] -= U @ U.T
        near = _wolfe(G.T @ (B[:, rest] - B[:, [x]]))
        if near is not None:
            w, c = near[0] / near[0].sum(), -G @ near[1]
            if lp.backward_error(B[:, rest], w, B[:, x]) <= CERT_TOL:
                return True, w
            if separation_margin(B, c, 0.0, x, rest) > 0.0:
                return False, (c, 0.0)
    return _membership(system, x, rest)


def _in_hull(system, x, S):
    """Is column x in the hull of the columns of the points S (indices), for
    x not in S?  Returns ``_membership``'s (member, witness).  On the rows
    x's self-mass LP keeps, ``_gram_screen`` first tries to certify x
    outside S with a field c, which gives (False, (c, 0.0)) with c zero on
    the other rows; ``_decide`` settles the rest."""
    B, S = system.basis, np.asarray(S)
    P = B[:, S]
    keep, frame = _kept_rows(P, B[:, x], coefficient_scales(system)), None
    if keep.any():
        Q = np.column_stack([P[keep], B[keep, x]])
        ok, fields, frame = _gram_screen(Q, np.array([S.size]), S.size)
        if ok[0]:
            c = np.zeros(system.d)
            c[keep] = fields[:, 0]
            return False, (c, 0.0)
    return _decide(system, x, S, keep, frame, keep)


def _hull_members(system, S, points):
    """Mask over the distinct ``points``: is each one's column in the hull of
    the columns of S less itself?  One ``_gram_screen``, on the rows all
    their LPs keep, first certifies points outside it.  The rest are
    visited in ascending order, and one is put to ``_decide`` only when no
    witness found so far certifies it; each witness is checked against all
    open points at once.

    - A ray (c, t) certifies x outside S when c is zero on every row x's own
      LP drops and ``separation_margin`` against S is positive.  (No point
      of S beats S itself, so only points outside S are certified.)
    - The support K of the last member's weights, and then the union K of
      all supports found so far, certifies x outside K when least squares
      [B[:, K]; 1] w = [column x; 1], clipped at 0 and renormalized,
      reproduces column x within ``CERT_TOL`` on all rows; at x in K,
      w = e_x always would.  Wolfe's weights put x near a face of their
      support, which then holds few other points; the union holds more.
    """
    B, S, points = system.basis, np.asarray(S, dtype=int), np.asarray(points, dtype=int)
    P, X = B[:, S], B[:, points]
    keep = _kept_rows(P, X, coefficient_scales(system))  # S less x, and x, span S
    # each point's column of Q: its position in S, or S.size + k for the k-th outside
    at = np.full(system.n, -1)
    at[S] = np.arange(S.size)
    at = at[points]
    outside = at < 0
    at[outside] = S.size + np.arange(np.count_nonzero(outside))
    member, todo = np.zeros(points.size, dtype=bool), np.ones(points.size, dtype=bool)
    kept, frame, J = keep.all(axis=1), None, np.zeros(0, dtype=int)
    if kept.any():
        ok, _, frame = _gram_screen(np.hstack([P[kept], X[kept][:, outside]]), at, S.size)
        todo = ~ok
    while todo.any():
        i = int(np.argmax(todo))
        rest = S[S != points[i]]
        own = _kept_rows(B[:, rest], B[:, points[i]], coefficient_scales(system))
        found, witness = _decide(system, points[i], rest, kept, frame, own)
        member[i], todo[i] = found, False
        if not found:
            c, t = witness
            todo &= ~(keep[c != 0].all(axis=0) & (_margins(B, c, t, S)[points] > 0.0))
            continue
        support = rest[np.flatnonzero(witness)]
        J = np.union1d(J, support)
        for K in (support, J):
            idx = np.flatnonzero(todo & (np.bincount(K, minlength=system.n) == 0)[points])
            if idx.size == 0:
                continue
            PK = B[:, K]
            A = np.vstack([PK, np.ones((1, K.size))])
            rhs = np.vstack([X[:, idx], np.ones((1, idx.size))])
            w = np.maximum(np.linalg.lstsq(A, rhs, rcond=None)[0], 0.0)
            total = w.sum(axis=0)
            w /= np.where(total > 0.0, total, 1.0)
            hit = idx[(total > 0.0) & (lp.backward_error(PK, w, X[:, idx]) <= CERT_TOL)]
            member[hit], todo[hit] = True, False
    return member


def _separator(system, x, S):
    """Coefficients of a basis element equal to 1 at x and at most 0 on S,
    or None when column x is in the hull of the points S (indices): the
    field of ``_in_hull``'s witness rescaled, then its constant folded in
    through ``validate``'s constants-in-span vector, and checked again by
    evaluation."""
    S = np.asarray(S)
    member, witness = _in_hull(system, x, S)
    if member:
        return None
    B, (c, t) = system.basis, witness
    phi = B.T @ c + t
    rest = phi[S]
    top = rest.max() if rest.size else phi[x] - 1.0
    unit = np.append(c, t - top) / (phi[x] - top)
    coeffs = unit[:-1] + unit[-1] * system.validate().constants_coeffs
    margin = separation_margin(B, coeffs, 0.0, x, S)
    if not margin > 0.0:
        raise ConsistencyError(f"separator with its constant folded in has margin {margin:.3e}")
    return coeffs


def _bracket(system, f, X, Mu, Phi):
    """Check the witnesses of the values of f at the points X, one column
    of Mu and of Phi per point, and return the minorants Phi lowered by
    their largest excess over f with a mask of the columns that pass: the
    measure Mu[:, k] must represent X[k] within ``CERT_TOL``, and
    <Mu[:, k], f> and the lowered Phi[X[k], k] agree within ``AGREE_TOL``
    (1 + max |f|).  A NaN anywhere in a column fails it."""
    B = system.basis
    Phi, ok = _agree(f, X, Mu, Phi)
    return Phi, ok & (lp.backward_error(B, Mu, B[:, X]) <= CERT_TOL)


def _agree(f, X, Mu, Phi):
    """``_bracket`` less its measure check."""
    Phi = Phi - np.max(Phi - f[:, None], axis=0, initial=0.0)
    return Phi, np.abs(f @ Mu - Phi[X, np.arange(X.size)]) <= AGREE_TOL * (1.0 + np.abs(f).max())


def _least_pairing(system, g, x, start=None):
    """Least pairing <mu, g> over representing measures mu of x, a mu
    attaining it, a minorant phi <= g in the span with phi(x) at that value,
    and the LP's start record: one LP over mu >= 0 with A mu = a_x, for the
    system's ``_pairing`` matrix A = [B_keep; 1], whose point mu and dual
    minorant B'c + t ``_bracket`` checks; phi is the minorant it returns.

    ``start`` is the record an earlier call on the same system returned,
    (its point, its optimal basis).  The LP's matrix is the same at every
    point.  At x itself the LP starts from that basis, whose rhs is the
    same.  At another point it starts at the Dirac mass e_x, a vertex of
    the representing measures of x: from that basis by one column swap
    (``_neighbour_basis``), else, like an LP with no record, from
    ``lp._crash``'s basis that takes column x first.
    """
    B, (keep, A, _, _) = system.basis, _pairing(system)
    prog = lp.LinearProgram(g, A, A[:, x])
    basis = None
    if start is not None:
        basis = start[1] if start[0] == x else _neighbour_basis(prog, x, start[1])
    out = lp.solve(prog, basis or lp._crash(prog.constraint_matrix, [x]))
    c = np.zeros(system.d)
    c[keep] = out.dual_point[:-1]
    mu = np.maximum(out.point, 0.0)
    with in_float_range("field"):
        phi, ok = _bracket(system, g, np.array([x]), mu[:, None],
                           (B.T @ c + out.dual_point[-1])[:, None])
    if not ok[0]:
        label, miss = system.space.labels[x], lp.backward_error(B, mu, B[:, x])
        if not miss <= CERT_TOL:
            raise ConsistencyError(f"measure at point {label!r} misses it by relative {miss:.3e}")
        raise ConsistencyError(f"value bounds at point {label!r} disagree: "
                               f"minorant {phi[x, 0]:.12g}, measure {mu @ g:.12g}")
    return float(out.value), mu, phi[:, 0], (x, out.basis)


def _neighbour_basis(prog, x, basis):
    """A basis of ``prog``, the LP of x, whose basic solution is the Dirac
    mass e_x: ``basis``, optimal for the LP at another point, with column
    x in place of the basic column that B^-1 a_x weighs most.  The rhs of
    ``prog`` is a_x itself, so B^-1 b is then the unit vector at x.  None
    when that basis is singular."""
    cols, rows = list(basis[0]), basis[1]
    if x not in cols:
        A = prog.constraint_matrix[np.asarray(rows)]
        try:
            w = np.linalg.solve(A[:, cols], A[:, x])
        except np.linalg.LinAlgError:
            return None
        cols[int(np.argmax(np.abs(w)))] = x
    return cols, rows


def _pairing(system):
    """The system's least-pairing context, cached on it on first use like
    ``validate``'s report: the basis rows ``_kept_rows`` keeps for any
    point against all of them, the read-only matrix A = [B_keep; 1] of
    every ``_least_pairing`` LP, and ``_gram_screen``'s mask and fields of
    all points on those rows (None, None with no row)."""
    ctx = getattr(system, "_pairing_context", None)
    if ctx is None:
        B = system.basis
        keep = _kept_rows(B, B[:, 0], coefficient_scales(system))
        A = np.vstack([B[keep], np.ones((1, system.n))])
        A.setflags(write=False)
        screen = _gram_screen(A[:-1], np.arange(system.n))[:2] if keep.any() else (None, None)
        ctx = keep, A, *screen
        object.__setattr__(system, "_pairing_context", ctx)
    return ctx


def _dirac_values(system, fields, points):
    """Mask over the distinct ``points``: is the Dirac mass at each certified
    the least pairing of every field, with no LP?  The system's
    ``_pairing`` screen must put x on the Choquet boundary with a field
    psi, and each field g must pass ``_bracket`` at x with the Dirac mass
    and the minorant g(x) - lam (psi(x) - psi), where lam is the least
    slope that keeps it below g; the Dirac mass is checked once for all."""
    B, points = system.basis, np.asarray(points, dtype=int)
    _, A, screened, C = _pairing(system)
    if screened is None:
        return np.zeros(points.size, dtype=bool)
    Q, ok, C = A[:-1], screened[points], C[:, points]
    with in_float_range("field"):
        for lo in range(0, points.size, 256):  # n x 256 slopes at a time
            block, mine = points[lo : lo + 256], ok[lo : lo + 256]  # a view of ok
            psi, at = Q.T @ C[:, lo : lo + 256], np.arange(block.size)
            drop = psi[block, at] - psi
            drop[block, at] = np.inf  # each point against the others only
            mine &= (drop > 0.0).all(axis=0)
            cert = np.flatnonzero(mine)
            if cert.size == 0:
                continue
            x, at = block[cert], at[: cert.size]
            drop = drop[:, cert]
            lams = [np.max((g[x] - g[:, None]) / drop, axis=0, initial=0.0) for g in fields]
            drop[x, at] = 0.0
            dirac = np.zeros((system.n, cert.size))
            dirac[x, at] = 1.0
            mine[cert] &= lp.backward_error(B, dirac, B[:, x]) <= CERT_TOL
            for g, lam in zip(fields, lams):
                mine[cert] &= _agree(g, x, dirac, g[x] - lam * drop)[1]
    return ok


def representing_measure(system, x, objective=None):
    """A representing measure for x, minimizing ``objective`` when given:
    the Dirac mass where ``_dirac_values`` certifies it, else the
    ``_least_pairing`` LP's."""
    system.require_valid()
    _check_point(system, x)
    g = np.zeros(system.n) if objective is None else as_field(system, objective)
    if _dirac_values(system, (g,), [x])[0]:
        return Measure.dirac(system.n, x)
    return Measure.probability(_least_pairing(system, g, x)[1])


def key_interval(system, f, x):
    """Min and max of the pairing of ``f`` over representing measures of x:
    f(x) at both ends where ``_dirac_values`` certifies the Dirac mass,
    else two bracketed ``_least_pairing`` LPs, the upper end started from
    the lower end's basis."""
    system.require_valid()
    _check_point(system, x)
    f = as_field(system, f)
    if _dirac_values(system, (f, -f), [x])[0]:
        return KeyInterval(lo=float(f[x]), hi=float(f[x]))
    lo, _, _, start = _least_pairing(system, f, x)
    hi = _least_pairing(system, -f, x, start)[0]
    return KeyInterval(lo=lo, hi=-hi)


def _on_boundary(system, points):
    """Mask over the distinct ``points``: is each outside the hull of all the
    other points, i.e. on the Choquet boundary?"""
    return ~_hull_members(system, np.arange(system.n), points)


def min_self_mass(system, x):
    """Least weight a representing measure of x can leave on x itself."""
    system.require_valid()
    _check_point(system, x)
    return float(_on_boundary(system, [x])[0])


def is_boundary(system, x):
    """Whether M_x is the Dirac singleton; returns (flag, min_self_mass)."""
    mass = min_self_mass(system, x)
    return mass == 1.0, mass


def choquet_boundary(system):
    """A point is on the boundary exactly when it is outside the others' hull."""
    system.require_valid()
    return BoundaryReport(is_boundary=_on_boundary(system, np.arange(system.n)))
