"""Representing measures, their value intervals and the Choquet boundary.

A probability measure mu represents point x when integrating any basis
function against mu reproduces its value at x, i.e. B mu = B e_x with
mu >= 0 and total mass 1.  The Dirac mass at x always qualifies, so the
feasible polytope is never empty.

A point belongs to the Choquet boundary when the Dirac mass is its only
representing measure.  One LP per point decides it: minimize the mass a
representing measure leaves on x.  The optimum is 0 or 1, and LP duality
hands back a witness for either answer.  At optimum 1 the dual (y, t)
gives the field phi = B'y + t with phi_x = 1 and phi_j <= 0 for j != x,
so phi exposes x and column x is a vertex of the hull of all columns.  At
optimum 0 the primal mu with mu_x zeroed and the rest renormalized writes
x as a convex combination of the other points.  Each witness is checked by
direct O(nd) evaluation that does not trust the simplex engine; a failed
check raises ConsistencyError.  ``is_vertex`` keeps the independent
membership LP as an oracle for tests.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import ConsistencyError, ValidationError
from .space import Measure, as_field

BOUNDARY_TOL = 1e-7
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

    ``vertex`` records which witness each point's self-mass LP returned
    (an exposing field, not a representing measure off the point); it
    equals ``is_boundary`` once both are checked.
    """

    min_self_mass: np.ndarray
    vertex: np.ndarray
    is_boundary: np.ndarray
    tol: float

    @property
    def boundary(self):
        return tuple(int(j) for j in np.flatnonzero(self.is_boundary))

    def to_dict(self, system):
        pts = [
            {
                "label": system.space.labels[j],
                "is_boundary": bool(self.is_boundary[j]),
                "min_self_mass": float(self.min_self_mass[j]),
                "vertex": bool(self.vertex[j]),
            }
            for j in range(len(self.min_self_mass))
        ]
        return {
            "boundary": [system.space.labels[j] for j in self.boundary],
            "points": pts,
            "tolerance": self.tol,
        }


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


def _check_point(system, x):
    if not 0 <= x < system.n:
        raise ValidationError(f"point index {x} out of range [0, {system.n})")


def _mx_program(system, x, objective=None):
    """LP over the representing-measure polytope of point x."""
    B = system.basis
    n = system.n
    A = np.vstack([B, np.ones((1, n))])
    rhs = np.concatenate([B[:, x], [1.0]])
    obj = np.zeros(n) if objective is None else as_field(system, objective)
    return lp.LinearProgram.build(obj, A, [lp.EQ] * A.shape[0], rhs)


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
    """Optimum of the self-mass LP of one point with its checked witness.

    ``exposing`` holds the dual (y, t) of an exposing field B'y + t when
    the point is a vertex, ``others`` a representing measure that puts no
    mass on the point otherwise; the other one is None.
    """

    mass: float
    exposing: np.ndarray | None
    others: np.ndarray | None

    @property
    def vertex(self):
        return self.exposing is not None


def _self_mass(system, x, tol=BOUNDARY_TOL):
    """Solve the self-mass LP of x and check the witness its verdict names."""
    _check_point(system, x)
    obj = np.zeros(system.n)
    obj[x] = 1.0
    out = lp.solve(_mx_program(system, x, obj))
    if out.status != lp.OPTIMAL:
        raise ConsistencyError("self-mass LP infeasible; engine bug")
    mass = float(out.value)
    B = system.basis
    label = system.space.labels[x]
    if mass >= 1.0 - tol:
        dual = out.dual_point
        margin = separation_margin(B, dual[:-1], dual[-1], x, np.arange(system.n) != x)
        if not margin > 0.0:
            raise ConsistencyError(
                f"self-mass dual does not expose point {label!r} (margin {margin:.3e})"
            )
        return _SelfMass(mass, dual, None)
    mu = np.maximum(out.point, 0.0)
    mu[x] = 0.0
    rest = mu.sum()
    if not rest > 0.0:
        raise ConsistencyError(f"self-mass LP left no mass off point {label!r}")
    mu /= rest
    worst = representation_error(B, mu, B[:, x])
    if worst > CERT_TOL:
        raise ConsistencyError(
            f"representing measure of point {label!r} off the other points "
            f"misses it by relative {worst:.3e}"
        )
    return _SelfMass(mass, None, mu)


def min_self_mass(system, x):
    """Least weight a representing measure of x can leave on x itself."""
    system.require_valid()
    return _self_mass(system, x).mass


def is_boundary(system, x, tol=BOUNDARY_TOL):
    """Whether M_x is the Dirac singleton; returns (flag, min_self_mass).

    Mass 1 pinned at x forces the Dirac measure, so the singleton test
    reduces to one LP: minimize the weight at x itself.
    """
    system.require_valid()
    cert = _self_mass(system, x, tol)
    return cert.vertex, cert.mass


def is_vertex(system, x):
    """Whether column x is outside the convex hull of the other columns.

    An independent LP on the hull of the other columns; the boundary
    routines do not call it, tests use it as their oracle.
    """
    system.require_valid()
    _check_point(system, x)
    others = [j for j in range(system.n) if j != x]
    if not others:
        return True
    B = system.basis
    A = np.vstack([B[:, others], np.ones((1, len(others)))])
    rhs = np.concatenate([B[:, x], [1.0]])
    prog = lp.LinearProgram.build(np.zeros(len(others)), A, [lp.EQ] * A.shape[0], rhs)
    return lp.feasible(prog) is None


def choquet_boundary(system, tol=BOUNDARY_TOL):
    """Classify every point by its self-mass LP and checked witness."""
    system.require_valid()
    certs = [_self_mass(system, x, tol) for x in range(system.n)]
    mass = np.array([c.mass for c in certs])
    vertex = np.array([c.vertex for c in certs], dtype=bool)
    return BoundaryReport(min_self_mass=mass, vertex=vertex, is_boundary=vertex, tol=tol)
