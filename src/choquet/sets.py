"""Trace-convex sets: hulls, separation, extreme points, Ky Fan segments.

A subset C of the space is trace convex when its embedded image is the
intersection of the embedded space with a convex set, equivalently when the
trace hull adds no further points.  Membership of a point in the hull of a
set is decided and checked in ``measures`` (the Choquet boundary asks the
same question): a Gram field built from the data certifies most points
outside the hull, Wolfe's nearest point settles the rest, and one small
self-mass LP decides what it leaves open (``measures._in_hull``), and
separation rescales the field that decided; the trace hull and extreme
points ask the question of many points against one set, but only where no
cached, checked witness answers (``measures._hull_members``).
Ky Fan betweenness needs no LP: it has a closed form in the directions from
a point to the two endpoints (see ``kyfan_strictly_between``).

An optional ``ambient`` point set restricts where hull membership is
reported: points outside it stand for ideal points of a compactification
and are never listed, although they still shape the hull geometry.  The
default ambient is the whole space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import _hull_members, _in_hull, _separator, coefficient_scales
from .space import PhiFunction, evaluate

_ANTIPARALLEL_TOL = 1e-12


def as_point_set(indices, n):
    """Normalize ``indices`` to a sorted tuple of distinct valid point indices."""
    pts = sorted({int(i) for i in indices})
    for i in pts:
        if not 0 <= i < n:
            raise ValidationError(f"point index {i} out of range [0, {n})")
    return tuple(pts)


@dataclass(frozen=True)
class SeparationResult:
    separable: bool
    witness: PhiFunction | None
    margin: float

    def to_dict(self):
        return {
            "separable": self.separable,
            "witness": None if self.witness is None else [float(v) for v in self.witness.coeffs],
            "margin": self.margin,
        }


@dataclass(frozen=True)
class KreinMilmanReport:
    hull: tuple
    extreme: tuple
    extreme_hull: tuple

    @property
    def ok(self):
        return self.hull == self.extreme_hull

    def to_dict(self, system):
        lab = system.space.labels
        return {
            "hull": [lab[j] for j in self.hull],
            "extreme": [lab[j] for j in self.extreme],
            "extreme_hull": [lab[j] for j in self.extreme_hull],
            "ok": self.ok,
        }


def in_hull(system, x, S):
    """Is column x a convex combination of the columns indexed by S?"""
    system.require_valid()
    as_point_set([x], system.n)
    S = as_point_set(S, system.n)
    if not S:
        raise ValidationError("membership test against an empty set")
    return x in S or _in_hull(system, x, S)[0]


def trace_hull(system, S, ambient=None):
    """All (ambient) points whose column lies in the hull of the columns of S."""
    system.require_valid()
    S = as_point_set(S, system.n)
    if not S:
        raise ValidationError("trace hull of the empty set")
    scope = range(system.n) if ambient is None else as_point_set(ambient, system.n)
    scope = np.array(scope, dtype=int)
    member = np.isin(scope, S)
    member[~member] = _hull_members(system, S, scope[~member])
    return tuple(int(x) for x in scope[member])


def is_trace_convex(system, C, ambient=None):
    """True iff the trace hull of C (within the ambient set) adds nothing."""
    C = as_point_set(C, system.n)
    if not C:
        raise ValidationError("empty set cannot be tested for trace convexity")
    return trace_hull(system, C, ambient=ambient) == C


def separate(system, C, xbar):
    """A basis element larger at ``xbar`` than anywhere on C, if one exists.

    By Farkas' lemma one exists iff ``xbar`` is outside the hull of C; the
    witness is ``measures._separator``'s, equal to 1 at ``xbar`` and at most
    0 on C, so the margin is 1 up to rounding.
    """
    system.require_valid()
    C = as_point_set(C, system.n)
    if not C:
        raise ValidationError("cannot separate from an empty set")
    as_point_set([xbar], system.n)
    if xbar in C:
        raise ValidationError("the separated point must lie outside the set")
    coeffs = _separator(system, xbar, C)
    if coeffs is None:
        return SeparationResult(separable=False, witness=None, margin=0.0)
    witness = PhiFunction(coeffs)
    vals = evaluate(system, witness)
    return SeparationResult(True, witness, float(vals[xbar] - vals[list(C)].max()))


def phi_extreme_points(system, S):
    """Points of S whose column is a vertex of the hull of S's columns."""
    system.require_valid()
    S = as_point_set(S, system.n)
    if not S:
        raise ValidationError("extreme points of the empty set")
    return tuple(x for x, inside in zip(S, _hull_members(system, S, S)) if not inside)


def krein_milman_verify(system, S):
    """Compare the hull of S with the hull of its extreme points."""
    hull = trace_hull(system, S)
    ext = phi_extreme_points(system, S)
    ext_hull = trace_hull(system, ext) if ext else ()
    return KreinMilmanReport(hull=hull, extreme=ext, extreme_hull=ext_hull)


def _equilibrated(system):
    """The basis with every row at unit scale.  Betweenness is invariant
    under row scaling; these coordinates keep small-magnitude basis rows
    visible in the direction dot products."""
    return system.basis / coefficient_scales(system)[:, None]


def _directions(B, origin, cols=slice(None)):
    """Unit vectors from column ``origin`` of B to its columns ``cols``; a
    column equal to the origin column gives the zero vector."""
    D = B[:, cols] - B[:, [origin]]
    norms = np.linalg.norm(D, axis=0)
    return D / np.where(norms > 0.0, norms, 1.0)


def _antiparallel(cosines):
    """The Ky Fan direction test on cosines between unit directions; a zero
    direction has cosine 0 with everything and passes nothing."""
    return cosines <= -1.0 + _ANTIPARALLEL_TOL


def kyfan_strictly_between(system, x, y, z):
    """Strict segment membership: every phi with phi(x) <= min(phi(y), phi(z))
    takes equal values at x, y and z.

    With u = B_y - B_x and v = B_z - B_x, x fails the test iff some c has
    c.u >= 0 and c.v >= 0, not both zero.  By Gordan's alternative in
    Stiemke's form no such c exists iff a u + b v = 0 for some a, b > 0,
    that is iff u and v are both zero (x == y == z) or both nonzero and
    antiparallel.  The direction test runs in row-equilibrated
    coordinates; the feasibility LP it replaces is kept in the tests as an
    oracle.
    """
    system.require_valid()
    as_point_set([x, y, z], system.n)
    if x == y == z:
        return True
    W = _directions(_equilibrated(system), x, [y, z])
    return bool(_antiparallel(W[:, 0] @ W[:, 1]))


def kyfan_segment(system, y, z):
    """The Ky Fan segment between y and z: the endpoints together with any
    point lying strictly between them in the sense of
    ``kyfan_strictly_between``.

    One vectorized direction test over all points, no LP: the unit
    directions from y and from z to x are the negated directions from x
    to y and to z, so their columnwise dot product is the cosine that
    Gordan's alternative tests.
    """
    system.require_valid()
    as_point_set([y, z], system.n)
    B = _equilibrated(system)
    cosines = np.einsum("ij,ij->j", _directions(B, y), _directions(B, z))
    member = _antiparallel(cosines)
    member[[y, z]] = True
    return tuple(int(x) for x in np.flatnonzero(member))


def kyfan_extreme_points(system, S):
    """Points of S lying strictly between no pair of points of S.

    A point x sits strictly inside a segment [y, z] exactly when the
    directions from x to y and to z are antiparallel, so one Gram matrix of
    unit directions per point decides it, at a cost quadratic, not cubic,
    in the size of S.
    """
    system.require_valid()
    S = as_point_set(S, system.n)
    if not S:
        raise ValidationError("extreme points of the empty set")
    B = _equilibrated(system)
    out = []
    for x in S:
        W = _directions(B, x, [j for j in S if j != x])
        if not _antiparallel(W.T @ W).any():
            out.append(x)
    return tuple(out)
