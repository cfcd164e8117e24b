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
drops.

A point belongs to the Choquet boundary when the Dirac mass is its only
representing measure.  The least mass a representing measure leaves on x
is exactly 0 or 1: weights on the other points that reproduce column x
leave 0, and a representing measure mu with mu_x < 1 would give such
weights, (mu - mu_x e_x) / (1 - mu_x).  So the boundary is the set of
points outside the hull of the others.

Each end of a key interval, like each facet of ``convexify.biconjugate``,
is one LP with two witnesses that ``_bracket`` checks: a representing
measure mu, whose pairing <mu, f> bounds the value from above, and from
the LP dual a minorant phi <= f in the span, whose phi(x) bounds it from
below.  A failed check raises ConsistencyError.
"""

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
    """Magnitude of each basis row (1 for an all-zero row)."""
    s = np.abs(system.basis).max(axis=1)
    s[s == 0.0] = 1.0
    return s


def _check_point(system, x):
    if not 0 <= x < system.n:
        raise ValidationError(f"point index {x} out of range [0, {system.n})")


def _measure_program(P, col, scales, objective=None):
    """LP over probability weights on the columns P that reproduce ``col``;
    returns it with the mask of basis rows it keeps.  Rows spanning at most
    ``CERT_TOL`` of their scale over P and ``col`` stay out: no probability
    weights miss them by more."""
    span = np.maximum(P.max(axis=1, initial=-np.inf), col)
    span -= np.minimum(P.min(axis=1, initial=np.inf), col)
    keep = span > CERT_TOL * scales
    A = np.vstack([P[keep], np.ones((1, P.shape[1]))])
    rhs = np.append(col[keep], 1.0)
    obj = np.zeros(P.shape[1]) if objective is None else objective
    return lp.LinearProgram(obj, A, [lp.EQ] * len(rhs), rhs), keep


def _mx_program(system, x, objective=None):
    """LP over the representing-measure polytope of point x."""
    obj = None if objective is None else as_field(system, objective)
    B = system.basis
    return _measure_program(B, B[:, x], coefficient_scales(system), obj)[0]


def _membership(system, x, S, scales=None):
    """The membership LP of column x against the points S (indices or a
    mask); returns (member, witness) checked by evaluation: weights on S
    reproducing column x within ``CERT_TOL``, or a Farkas ray (c, t) with
    B'c + t larger at x than on S beyond rounding."""
    B, S = system.basis, np.asarray(S)
    P = B[:, S]
    prog, keep = _measure_program(
        P, B[:, x], coefficient_scales(system) if scales is None else scales
    )
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


def _hull_members(system, S, points):
    """Mask over the distinct ``points``: is each one's column in the hull of
    the columns of S less itself?  Points are visited in ascending order,
    and one gets its own membership LP only when no witness found so far
    certifies it; each witness is checked against all open points at once.

    - A ray (c, t) certifies x outside S when c is zero on every row x's own
      LP drops and ``separation_margin`` against S is positive.  (One found
      at a point of S is largest there, so it never beats S at another.)
    - The support J of member weights certifies x outside J when least
      squares on the rows x's LP keeps, [B[:, J]; 1] w = [column x; 1],
      clipped at 0 and renormalized, reproduces column x within
      ``CERT_TOL`` on all rows; at x in J, w = e_x always would.
    """
    B, S, points = system.basis, np.asarray(S, dtype=int), np.asarray(points, dtype=int)
    scales = coefficient_scales(system)
    P, X = B[:, S], B[:, points]
    # each point's kept rows, by ``_measure_program``'s rule (S less x and x span S)
    span = np.maximum(P.max(axis=1)[:, None], X) - np.minimum(P.min(axis=1)[:, None], X)
    keep = span > (CERT_TOL * scales)[:, None]
    rows, group = np.unique(keep, axis=1, return_inverse=True)
    outside = np.isin(points, S, invert=True)
    member, todo = np.zeros(points.size, dtype=bool), np.ones(points.size, dtype=bool)
    while todo.any():
        i = int(np.argmax(todo))
        rest = S[S != points[i]]
        found, witness = _membership(system, points[i], rest, scales)
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


def _bracket(system, f, x, mu, phi):
    """Check the witnesses of the least pairing of f at x and return the
    minorant phi lowered by its largest excess over f: mu must represent x
    within ``CERT_TOL``, and <mu, f> and phi(x) agree within ``AGREE_TOL``
    (1 + max |f|)."""
    B, label = system.basis, system.space.labels[x]
    miss = representation_error(B, mu, B[:, x])
    if miss > CERT_TOL:
        raise ConsistencyError(f"measure at point {label!r} misses it by relative {miss:.3e}")
    phi = phi - max(0.0, float(np.max(phi - f)))
    upper = float(mu @ f)
    if abs(upper - phi[x]) > AGREE_TOL * (1.0 + float(np.abs(f).max())):
        raise ConsistencyError(
            f"value bounds at point {label!r} disagree: "
            f"minorant {phi[x]:.12g}, measure {upper:.12g}"
        )
    return phi


def representing_measure(system, x, objective=None):
    """A representing measure for x, minimizing ``objective`` when given."""
    system.require_valid()
    _check_point(system, x)
    out = lp.solve(_mx_program(system, x, objective))
    if out.status != lp.OPTIMAL:
        raise ConsistencyError(
            f"representing-measure LP reported {out.status}; the Dirac mass is "
            "always feasible, so this signals an engine bug"
        )
    return Measure.probability(out.point)


def key_interval(system, f, x):
    """Min and max of the pairing of ``f`` over representing measures of x;
    each end's LP point and dual (c, t), a minorant B'c + t, are bracketed."""
    system.require_valid()
    _check_point(system, x)
    f = as_field(system, f)
    B = system.basis
    scales = coefficient_scales(system)
    ends = []
    for g in (f, -f):
        prog, keep = _measure_program(B, B[:, x], scales, g)
        out = lp.solve(prog)
        if out.status != lp.OPTIMAL:
            raise ConsistencyError("key-interval LP infeasible; engine bug")
        c = np.zeros(system.d)
        c[keep] = out.dual_point[:-1]
        _bracket(system, g, x, np.maximum(out.point, 0.0), B.T @ c + out.dual_point[-1])
        ends.append(float(out.value))
    return KeyInterval(lo=ends[0], hi=-ends[1])


def min_self_mass(system, x):
    """Least weight a representing measure of x can leave on x itself."""
    system.require_valid()
    _check_point(system, x)
    return 0.0 if _membership(system, x, np.arange(system.n) != x)[0] else 1.0


def is_boundary(system, x):
    """Whether M_x is the Dirac singleton; returns (flag, min_self_mass)."""
    mass = min_self_mass(system, x)
    return mass == 1.0, mass


def choquet_boundary(system):
    """A point is on the boundary exactly when it is outside the others' hull."""
    system.require_valid()
    every = np.arange(system.n)
    return BoundaryReport(is_boundary=~_hull_members(system, every, every))
