"""Representing measures, their value intervals and the Choquet boundary.

A probability measure mu represents point x when integrating any basis
function against mu reproduces its value at x, i.e. B mu = B e_x with
mu >= 0 and total mass 1.  The Dirac mass at x always qualifies, so the
feasible polytope is never empty.  Every LP over such measures is built by
``_measure_program``: it keeps the basis rows that vary over the support
and x, plus the ones row.  A row constant (within ``CERT_TOL`` of its
scale) there holds for every probability measure on the support, so the
constant row that the bases carry never duplicates the ones row.

Every hull question is decided here, by one membership LP: is column x
in the hull of the columns of the points S?  Its verdict carries a witness
checked by O(nd) evaluation that does not trust the simplex engine:
weights on S that reproduce column x, or a Farkas ray (c, t) whose field
B'c + t is larger at x than on S beyond rounding.  ``_separator`` rescales
the ray into the separator and exposing field that ``sets`` and
``maxprinciple`` return.  ``_hull_members`` asks, of many points, whether
each is in the hull of one fixed S less the point itself, and solves an
LP only where no witness it already holds answers: a ray separates every
point outside S where it beats S, and a weight support often represents
the next point too.  A reused witness is checked as strictly as the LP's
own, and a ray only where it is zero on every row that point's own LP
drops.  First, ``_gram_screen`` tries two rays from the data, a raw and a
whitened Gram field, at every point asked about, checked by the same
bound and zero on the same rows: most extreme points, and most points
outside S, need no LP.  ``_in_hull`` asks it of a single point outside S,
with that point's LP only where the screen leaves it open.

A point belongs to the Choquet boundary when the Dirac mass is its only
representing measure.  The least mass a representing measure leaves on x
is exactly 0 or 1: weights on the other points that reproduce column x
leave 0, and a representing measure mu with mu_x < 1 would give such
weights, (mu - mu_x e_x) / (1 - mu_x).  So the boundary is the set of
points outside the hull of the others: ``_on_boundary`` gives every
boundary verdict.

Each end of a key interval, like each facet of
``convexify.biconjugate``, carries two witnesses that ``_bracket``
checks: a representing measure mu, whose pairing <mu, f> bounds the
value from above, and a minorant phi <= f in the span, whose phi(x)
bounds it from below; a NaN fails the checks.  On the boundary the Dirac
mass is the only representing measure, so both ends are f(x).  Where the
Gram screen certifies x there with a field psi, ``_dirac_pairing`` takes
the Dirac mass and the minorant f(x) - lam (psi(x) - psi), lam the least
slope that keeps it below f, and solves no LP.  Elsewhere each end is
one LP (``_least_pairing``) with phi from its dual; both LPs have the
same rows and rhs, so the upper end starts from the lower end's optimal
basis; each facet of the biconjugate is this LP too.  Representing
measures take the same two routes.  A failed check raises
ConsistencyError, except in the closed form, whose point then takes the
LPs; an overflow while evaluating a witness is a ValidationError.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import ConsistencyError, ValidationError
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


def representation_error(A, mu, target):
    """Worst relative (backward-error) miss of ``A @ mu`` against ``target``,
    one per column when ``mu`` and ``target`` are matrices."""
    gap = np.abs(A @ mu - target)
    scale = 1.0 + np.abs(A) @ np.abs(mu) + np.abs(target)
    return np.max(gap / scale, axis=0)


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


def _kept_rows(P, col, scales):
    """Mask of the basis rows spanning more than ``CERT_TOL`` of their scale
    over the columns P and ``col``: no probability weights on P miss the
    others by more."""
    span = np.maximum(P.max(axis=1, initial=-np.inf), col)
    span -= np.minimum(P.min(axis=1, initial=np.inf), col)
    return span > CERT_TOL * scales


def _measure_program(P, col, scales, objective=None):
    """LP over probability weights on the columns P that reproduce ``col``;
    returns it with the mask of basis rows it keeps (``_kept_rows``)."""
    keep = _kept_rows(P, col, scales)
    A = np.vstack([P[keep], np.ones((1, P.shape[1]))])
    rhs = np.append(col[keep], 1.0)
    obj = np.zeros(P.shape[1]) if objective is None else objective
    return lp.LinearProgram(obj, A, rhs), keep


def _membership(system, x, S):
    """The membership LP of column x against the points S (indices or a
    mask); returns (member, witness) checked by evaluation: weights on S
    reproducing column x within ``CERT_TOL``, or a Farkas ray (c, t) with
    B'c + t larger at x than on S beyond rounding."""
    B, S = system.basis, np.asarray(S)
    P = B[:, S]
    prog, keep = _measure_program(P, B[:, x], coefficient_scales(system))
    out = lp.solve(prog)
    if out.status == lp.OPTIMAL:
        w = np.maximum(out.point, 0.0)
        w /= w.sum()
        miss = representation_error(P, w, B[:, x])
        if miss <= CERT_TOL:
            return True, w
        problem = f"hull weights miss it by relative {miss:.3e}"
    else:
        c = np.zeros(system.d)
        c[keep], t = out.dual_point[:-1], out.dual_point[-1]
        margin = separation_margin(B, c, t, x, S)
        if margin > 0.0:
            return False, (c, t)
        problem = f"Farkas ray separates it by {margin:.3e}"
    raise ConsistencyError(f"membership of point {system.space.labels[x]!r}: {problem}")


def _gram_fields(Q, at, m):
    """Candidate fields for the columns ``at`` of Q against its first m
    columns, P, in the order to try them: the raw fields c = Q_x, then the
    whitened ones c = W W'(Q_x - m_P) for P's mean column m_P, where
    P - m_P = U diag(s) V' and W = U diag(s)^-1 over s > 1e-10 max s.  The
    SVD runs only when the raw fields leave a column open.  They are only
    proposals, which ``_gram_screen`` checks."""
    X = Q[:, at]
    yield X
    P = Q[:, :m]
    mean = P.mean(axis=1, keepdims=True)
    U, s, _ = np.linalg.svd(P - mean, full_matrices=False)
    W = U[:, s > 1e-10 * s[0]] / s[s > 1e-10 * s[0]]
    yield W @ (W.T @ (X - mean))


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
    first one tried that wins (else its last)."""
    m = Q.shape[1] if m is None else m
    ok, fields = np.zeros(at.size, dtype=bool), np.empty((Q.shape[0], at.size))
    for C in _gram_fields(Q, at, m):
        todo = np.flatnonzero(~ok)
        fields[:, todo] = C[:, todo]
        ok[todo] = _beats(Q, at[todo], m, C[:, todo])
        if ok.all():
            break
    return ok, fields


def _in_hull(system, x, S):
    """Is column x in the hull of the columns of S, for x not in S?  On the
    rows x's membership LP keeps, ``_gram_screen`` first tries to certify x
    outside S; the LP runs only when it cannot."""
    B, S = system.basis, np.asarray(S)
    P = B[:, S]
    keep = _kept_rows(P, B[:, x], coefficient_scales(system))
    if keep.any():
        Q = np.column_stack([P[keep], B[keep, x]])
        if _gram_screen(Q, np.array([S.size]), S.size)[0][0]:
            return False
    return _membership(system, x, S)[0]


def _hull_members(system, S, points):
    """Mask over the distinct ``points``: is each one's column in the hull of
    the columns of S less itself?  ``_gram_screen`` first certifies points
    outside: the points of S on the rows all their LPs keep, and the other
    points against S on the rows all of theirs keep.  The rest are visited
    in ascending order, and one gets its own membership LP only when no
    witness found so far certifies it; each witness is checked against all
    open points at once.

    - A ray (c, t) certifies x outside S when c is zero on every row x's own
      LP drops and ``separation_margin`` against S is positive.  (One found
      at a point of S is largest there, so it never beats S at another.)
    - The support J of member weights certifies x outside J when least
      squares on the rows x's LP keeps, [B[:, J]; 1] w = [column x; 1],
      clipped at 0 and renormalized, reproduces column x within
      ``CERT_TOL`` on all rows; at x in J, w = e_x always would.
    """
    B, S, points = system.basis, np.asarray(S, dtype=int), np.asarray(points, dtype=int)
    P, X = B[:, S], B[:, points]
    # each point's kept rows, by ``_measure_program``'s rule (S less x and x span S)
    span = np.maximum(P.max(axis=1)[:, None], X) - np.minimum(P.min(axis=1)[:, None], X)
    keep = span > (CERT_TOL * coefficient_scales(system))[:, None]
    rows, group = np.unique(keep, axis=1, return_inverse=True)
    outside = np.isin(points, S, invert=True)
    member, todo = np.zeros(points.size, dtype=bool), np.ones(points.size, dtype=bool)
    screened = np.flatnonzero(np.isin(S, points))
    kept = keep[:, ~outside].all(axis=1)
    if screened.size and kept.any():
        ok = _gram_screen(P[kept], screened)[0]
        todo &= np.isin(points, S[screened[ok]], invert=True)
    kept = keep[:, outside].all(axis=1)
    if outside.any() and kept.any():
        Q = np.hstack([P[kept], X[kept][:, outside]])
        ok = _gram_screen(Q, np.arange(S.size, Q.shape[1]), S.size)[0]
        todo[np.flatnonzero(outside)[ok]] = False
    while todo.any():
        i = int(np.argmax(todo))
        rest = S[S != points[i]]
        found, witness = _membership(system, points[i], rest)
        member[i], todo[i] = found, False
        if not found:
            c, t = witness
            if (todo & outside).any():
                todo &= ~(outside & keep[c != 0].all(axis=0) & (_margins(B, c, t, S)[points] > 0.0))
            continue
        J = rest[np.flatnonzero(witness)]
        free = todo & (np.bincount(J, minlength=system.n) == 0)[points]
        PJ = B[:, J]
        for g, kept in enumerate(rows.T):
            idx = np.flatnonzero(free & (group == g))
            if idx.size == 0:
                continue
            A = np.vstack([PJ[kept], np.ones((1, PJ.shape[1]))])
            rhs = np.vstack([X[kept][:, idx], np.ones((1, idx.size))])
            w = np.maximum(np.linalg.lstsq(A, rhs, rcond=None)[0], 0.0)
            total = w.sum(axis=0)
            w /= np.where(total > 0.0, total, 1.0)
            hit = idx[(total > 0.0) & (representation_error(PJ, w, X[:, idx]) <= CERT_TOL)]
            member[hit], todo[hit] = True, False
    return member


def _separator(system, x, S):
    """Coefficients of a basis element equal to 1 at x and at most 0 on S,
    or None when column x is in the hull of S: the membership ray rescaled,
    then its constant folded in through ``validate``'s constants-in-span
    vector, and checked again by evaluation."""
    S = np.asarray(S)
    member, witness = _membership(system, x, S)
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


@contextmanager
def _in_float_range():
    """Evaluate a field's witnesses; an overflow is an input error (exit 2)."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValidationError(f"field out of floating-point range: {exc}") from exc


def _bracket(system, f, x, mu, phi):
    """Check the witnesses of the least pairing of f at x and return the
    minorant phi lowered by its largest excess over f: mu must represent x
    within ``CERT_TOL``, and <mu, f> and phi(x) agree within ``AGREE_TOL``
    (1 + max |f|).  A NaN anywhere fails a check."""
    B, label = system.basis, system.space.labels[x]
    miss = representation_error(B, mu, B[:, x])
    if not miss <= CERT_TOL:
        raise ConsistencyError(f"measure at point {label!r} misses it by relative {miss:.3e}")
    phi = phi - float(np.max(phi - f, initial=0.0))
    upper = float(mu @ f)
    if not abs(upper - phi[x]) <= AGREE_TOL * (1.0 + float(np.abs(f).max())):
        raise ConsistencyError(
            f"value bounds at point {label!r} disagree: "
            f"minorant {phi[x]:.12g}, measure {upper:.12g}"
        )
    return phi


def _least_pairing(system, g, x, basis=None):
    """Least pairing <mu, g> over representing measures mu of x, a mu
    attaining it, a minorant phi <= g in the span with phi(x) at that value,
    and the LP's optimal basis: one ``_measure_program`` LP, started from
    ``basis`` when given, whose point mu and dual minorant B'c + t
    ``_bracket`` checks; phi is the minorant it returns."""
    B = system.basis
    prog, keep = _measure_program(B, B[:, x], coefficient_scales(system), g)
    out = lp.solve(prog, basis=basis)
    if out.status != lp.OPTIMAL:
        raise ConsistencyError(
            f"representing-measure LP reported {out.status}; the Dirac mass is "
            "always feasible, so this signals an engine bug"
        )
    c = np.zeros(system.d)
    c[keep] = out.dual_point[:-1]
    mu = np.maximum(out.point, 0.0)
    with _in_float_range():
        phi = _bracket(system, g, x, mu, B.T @ c + out.dual_point[-1])
    return float(out.value), mu, phi, out.basis


def _dirac_pairing(system, fields, x):
    """Whether the Dirac mass at x is certified the least pairing of each
    field with no LP: ``_gram_screen``, on the rows ``_measure_program``
    keeps for x against all points, must put x on the Choquet boundary
    with a field psi, and each field g must pass ``_bracket`` with the
    Dirac mass and the minorant g(x) - lam (psi(x) - psi), where lam is
    the least slope that keeps it below g."""
    B = system.basis
    Q = B[_kept_rows(B, B[:, x], coefficient_scales(system))]
    if Q.shape[0] == 0:
        return False
    ok, c = _gram_screen(Q, np.array([x]))
    psi = Q.T @ c[:, 0]
    drop, others = psi[x] - psi, np.arange(system.n) != x
    if not (ok[0] and (drop[others] > 0.0).all()):
        return False
    dirac = Measure.dirac(system.n, x).weights
    try:
        with _in_float_range():
            for g in fields:
                lam = float(np.max((g[x] - g[others]) / drop[others], initial=0.0))
                _bracket(system, g, x, dirac, g[x] - lam * drop)
    except ConsistencyError:
        return False
    return True


def representing_measure(system, x, objective=None):
    """A representing measure for x, minimizing ``objective`` when given:
    the Dirac mass where ``_dirac_pairing`` certifies it, else the
    ``_least_pairing`` LP's."""
    system.require_valid()
    _check_point(system, x)
    g = np.zeros(system.n) if objective is None else as_field(system, objective)
    if _dirac_pairing(system, (g,), x):
        return Measure.dirac(system.n, x)
    return Measure.probability(_least_pairing(system, g, x)[1])


def key_interval(system, f, x):
    """Min and max of the pairing of ``f`` over representing measures of x:
    f(x) at both ends where ``_dirac_pairing`` certifies the Dirac mass,
    else two bracketed ``_least_pairing`` LPs, the upper end started from
    the lower end's basis."""
    system.require_valid()
    _check_point(system, x)
    f = as_field(system, f)
    if _dirac_pairing(system, (f, -f), x):
        return KeyInterval(lo=float(f[x]), hi=float(f[x]))
    lo, _, _, basis = _least_pairing(system, f, x)
    hi = _least_pairing(system, -f, x, basis)[0]
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
