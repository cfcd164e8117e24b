"""Representing measures, their value intervals and the Choquet boundary.

A probability measure mu represents point x when integrating any basis
function against mu reproduces its value at x, i.e. B mu = B e_x with
mu >= 0 and total mass 1.  The Dirac mass at x always qualifies, so the
feasible polytope is never empty.  Every LP over such measures is built by
``_measure_program``: it keeps the basis rows that vary over the support
and x, plus the ones row.  A row constant (within ``CERT_TOL`` of its
scale) there holds for every probability measure on the support, so the
constant row that the bases carry never duplicates the ones row.

A point belongs to the Choquet boundary when the Dirac mass is its only
representing measure, i.e. when every representing measure leaves mass 1
on it.  The least such mass is exactly 0 or 1: a convex combination of the
other columns that reproduces column x leaves mass 0, and otherwise a
representing measure mu with mu_x < 1 would give one, (mu - mu_x e_x) /
(1 - mu_x).  So one feasibility LP per point decides it: is column x in
the hull of the other columns?  Its verdict carries a witness checked by
O(nd) evaluation that does not trust the simplex engine: weights on the
other points that reproduce column x (mass 0), or a Farkas ray (c, t)
whose field B'c + t is larger at x than at every other point beyond
rounding (mass 1).  Rescaled to value 1 at x and maximum 0 elsewhere, the
ray is the exposing field that ``maxprinciple.expose`` returns.  A failed
check raises ConsistencyError.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import ConsistencyError, ValidationError
from .space import Measure, as_field

CERT_TOL = 1e-9
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
    """Worst relative (backward-error) miss of ``A @ mu`` against ``target``."""
    gap = np.abs(A @ mu - target)
    scale = 1.0 + np.abs(A) @ np.abs(mu) + np.abs(target)
    return float(np.max(gap / scale))


def separation_margin(B, y, t, x, rest):
    """phi(x) - max phi(rest) for phi = B'y + t, less a bound on the rounding
    error of evaluating phi: positive iff phi certifiably separates x."""
    phi = B.T @ y + t
    err = _ROUNDING * (np.abs(B).T @ np.abs(y) + abs(t))
    return float(phi[x] - err[x] - (phi[rest] + err[rest]).max(initial=-np.inf))


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
    return lp.LinearProgram.build(obj, A, [lp.EQ] * len(rhs), rhs), keep


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
    """Min and max of the pairing of ``f`` over representing measures of x."""
    system.require_valid()
    _check_point(system, x)
    f = as_field(system, f)
    lo = lp.solve(_mx_program(system, x, f))
    hi = lp.solve(_mx_program(system, x, -f))
    if lo.status != lp.OPTIMAL or hi.status != lp.OPTIMAL:
        raise ConsistencyError("key-interval LP infeasible; engine bug")
    return KeyInterval(lo=float(lo.value), hi=float(-hi.value))


@dataclass(frozen=True)
class _SelfMass:
    """The least self mass of one point with its checked witness.

    ``exposing`` holds (y, t) of a field B'y + t equal to 1 at the point and
    at most 0 elsewhere when the point is a vertex (mass 1), ``others`` a
    representing measure with no mass on the point otherwise (mass 0); the
    other one is None.
    """

    exposing: np.ndarray | None
    others: np.ndarray | None

    @property
    def vertex(self):
        return self.exposing is not None

    @property
    def mass(self):
        return float(self.vertex)


def _self_mass(system, x):
    """Decide whether column x is in the hull of the other columns and turn
    the checked membership witness into the self-mass witness."""
    _check_point(system, x)
    rest = np.arange(system.n) != x
    member, witness = _membership(system, x, rest)
    if member:
        others = np.zeros(system.n)
        others[rest] = witness
        return _SelfMass(None, others)
    c, t = witness
    phi = system.basis.T @ c + t
    top = phi[rest].max() if system.n > 1 else phi[x] - 1.0
    return _SelfMass(np.append(c, t - top) / (phi[x] - top), None)


def min_self_mass(system, x):
    """Least weight a representing measure of x can leave on x itself."""
    system.require_valid()
    return _self_mass(system, x).mass


def is_boundary(system, x):
    """Whether M_x is the Dirac singleton; returns (flag, min_self_mass)."""
    system.require_valid()
    cert = _self_mass(system, x)
    return cert.vertex, cert.mass


def choquet_boundary(system):
    """Classify every point by its membership LP and checked witness."""
    system.require_valid()
    scales = coefficient_scales(system)
    points = np.arange(system.n)
    flags = [not _membership(system, x, points != x, scales)[0] for x in points]
    return BoundaryReport(is_boundary=np.array(flags, dtype=bool))
