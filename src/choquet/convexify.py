"""Conjugation and convexification of scalar fields.

The conjugate of a field f at a basis element phi is max_j (phi_j - f_j);
the biconjugate f** is the pointwise largest basis combination below f:

    f**(x) = max { phi(x) : phi in span(B), phi <= f }

f** is the lower envelope of f over the span and the canonical
convexification: f is Choquet convex exactly when f == f**.  By LP duality
f**(x) is also the least pairing <mu, f> over the representing measures
mu of x, the lower end of the key interval (``measures.key_interval``).

``biconjugate`` sweeps the envelope facet by facet, so it solves one LP
per facet it reaches rather than one per point.  At a point x that no
earlier facet certifies, the LP above returns two witnesses, each
checked by direct evaluation that does not trust the simplex engine:

* a minorant phi = B'c + min f, lowered by its largest excess over f so
  that phi <= f holds; phi(x) is a lower bound on f**(x);
* a representing measure mu of x from the dual, checked by B mu = B e_x
  within relative 1e-9; <mu, f> is an upper bound on f**(x).

The two bounds must agree within 1e-7 (1 + max |f|); otherwise, or when
mu misses x, ConsistencyError is raised; ``measures._bracket`` makes
these checks for each end of a key interval too.  Before it is stored,
phi is moved within the LP's optimal face toward the uncertified points
until it touches as many of them as a vertex of that face allows.  One
facet then certifies further points with no LP:

* every point j where phi touches f takes min(phi_j, f_j), bracketed by
  phi_j and the Dirac mass's f_j;
* a point j in the convex hull of the touched points of the facet with
  the largest phi(j) takes phi(j): the nonnegative least-squares weights
  that reproduce column j are its representing measure, checked like mu.

``hat_positive`` takes the inf-over-equivalence-class convexification
over probability measures.  The probability measures equivalent to the
Dirac mass at x are the representing measures of x, so it is the
biconjugate.  ``hat_signed`` takes the class over signed measures nu,
constrained to the closed strip min f - alpha <= <nu, f> <= max f + alpha.
If f lies in the row span of B, the pairing is f(x) on every signed
representation of x, so the value is f itself.  Otherwise the pairing is
unbounded below on that affine set, and the value is the constant
min f - alpha.  ``hat_signed`` returns this closed form directly.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import ConsistencyError, ValidationError
from .measures import AGREE_TOL, CERT_TOL, _bracket, representation_error
from .space import as_field, evaluate

CONVEX_TOL = 1e-7


@dataclass(frozen=True)
class ConvexTraceSpec:
    """Max of finitely many affine functionals in coefficient coordinates.

    Each piece (a, beta) contributes a . Q + beta; composing the max with
    the point embedding realizes a convex-trace field on the space.
    """

    pieces: tuple

    def __post_init__(self):
        if len(self.pieces) < 1:
            raise ValidationError("a convex-trace spec needs at least one piece")
        norm = []
        width = None
        for a, beta in self.pieces:
            a = np.asarray(a, dtype=float)
            if a.ndim != 1 or not np.all(np.isfinite(a)) or not np.isfinite(beta):
                raise ValidationError("pieces must be finite (vector, scalar) pairs")
            if width is None:
                width = a.shape[0]
            elif a.shape[0] != width:
                raise ValidationError("all pieces must have the same dimension")
            a.setflags(write=False)
            norm.append((a, float(beta)))
        object.__setattr__(self, "pieces", tuple(norm))

    @property
    def dim(self):
        return self.pieces[0][0].shape[0]

    def to_dict(self):
        return {"pieces": [{"a": [float(v) for v in a], "beta": b} for a, b in self.pieces]}

    @classmethod
    def from_dict(cls, data):
        try:
            pieces = [(np.asarray(p["a"], dtype=float), float(p["beta"])) for p in data["pieces"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed convex-trace spec: {exc}") from exc
        return cls(tuple(pieces))


def realize_convex_trace(system, spec):
    """Field of the max-of-affine composition with the point embedding."""
    system.require_valid()
    if spec.dim != system.d:
        raise ValidationError(f"spec dimension {spec.dim} != basis count {system.d}")
    vals = np.stack([system.basis.T @ a + beta for a, beta in spec.pieces])
    return vals.max(axis=0)


def phi_conjugate(system, f, phi):
    """Conjugate value sup_x (phi(x) - f(x)); exact finite max."""
    f = as_field(system, f)
    vals = evaluate(system, phi)
    return float(np.max(vals - f))


def _facet(system, f, x, low, scale, free):
    """Solve the envelope LP at x and return its certified minorant.

    The LP maximizes phi(x) over coefficients c with B'c <= f - low; row x
    caps the value at f(x), so it is bounded, and the shift by the minimum
    keeps the rhs nonnegative so the solver starts from the slack basis.
    Its dual gives a representing measure mu of x, its point the minorant
    phi = B'c + low after ``_lift`` has moved c toward the points in
    ``free``; ``measures._bracket`` checks the pair and lowers phi by its
    largest excess over f (the engine's point is only feasible within its
    tolerance).
    """
    B = system.basis
    prog = lp.LinearProgram.build(
        -B[:, x], B.T, [lp.LE] * system.n, f - low, bounds=(-np.inf, np.inf)
    )
    out = lp.solve(prog)
    if out.status != lp.OPTIMAL:
        raise ConsistencyError(f"biconjugate LP reported {out.status}; engine bug")
    c = out.point
    phi = _lift(B, f - low - B.T @ c, c, x, free, CERT_TOL * scale) + low
    return _bracket(system, f, x, np.maximum(-out.dual_point, 0.0), phi)


def _lift(B, slack, c, x, free, tol):
    """B'c after moving c within the optimal face toward the free points.

    The optimal face is the set of c with phi(x) at its optimum and
    phi <= f, so c may move along any direction orthogonal to column x and
    to the columns where phi already touches f (slack at most ``tol``).  Each step follows the projection
    of the gradient of the sum of phi over ``free`` until a further point
    is touched, then adds that column to the orthonormal span it must
    stay orthogonal to.  At most d steps; the minorant then touches a
    larger set, often a whole facet, which certifies more points.
    """
    d = B.shape[0]
    u, sv, _ = np.linalg.svd(B[:, (slack <= tol) | (np.arange(B.shape[1]) == x)],
                             full_matrices=False)
    Q = u[:, sv > 1e-10 * sv[0]]
    grad = B[:, free].sum(axis=1)
    norms = np.linalg.norm(B, axis=0)
    while Q.shape[1] < d:
        delta = grad - Q @ (Q.T @ grad)
        delta -= Q @ (Q.T @ delta)  # a second pass keeps delta orthogonal
        size = np.linalg.norm(delta)
        if size <= 1e-12 * (1.0 + np.linalg.norm(grad)):
            break
        rate = B.T @ delta
        up = rate > 1e-9 * size * norms
        if not up.any():
            break
        steps = np.maximum(slack[up], 0.0) / rate[up]
        k = int(np.argmin(steps))
        j = np.flatnonzero(up)[k]
        c = c + steps[k] * delta
        slack = slack - steps[k] * rate
        w = B[:, j] - Q @ (Q.T @ B[:, j])
        w -= Q @ (Q.T @ w)
        Q = np.column_stack([Q, w / np.linalg.norm(w)])
    return B.T @ c


def _cone_value(A, f, facets, j, scale):
    """phi(j) of the best stored facet when its touched points represent j.

    ``A`` is the basis with the ones row appended.  The facet with the
    largest value at j is the only candidate; a nonnegative least-squares
    combination of its touched columns that reproduces column j is a
    representing measure, so <mu, f> bounds f**(j) from above while the
    minorant bounds it from below.  Returns None when either check fails.
    """
    phi, touched = max(facets, key=lambda facet: facet[0][j])
    At = A[:, touched]
    mu = np.maximum(np.linalg.lstsq(At, A[:, j], rcond=None)[0], 0.0)
    if representation_error(At, mu, A[:, j]) > CERT_TOL:
        return None
    if abs(float(mu @ f[touched]) - phi[j]) > AGREE_TOL * scale:
        return None
    return phi[j]


def biconjugate(system, f):
    """Pointwise largest minorant of f within the span of the basis.

    A facet sweep: one checked LP per envelope facet reached, whose
    minorant then certifies every point it touches and every point in the
    convex hull of those (see the module docstring).
    """
    system.require_valid()
    f = as_field(system, f)
    low = float(f.min())
    scale = 1.0 + float(np.abs(f).max())
    A = np.vstack([system.basis, np.ones((1, system.n))])
    value = np.empty(system.n)
    done = np.zeros(system.n, dtype=bool)
    facets = []
    for x in range(system.n):
        if done[x]:
            continue
        if facets:
            v = _cone_value(A, f, facets, x, scale)
            if v is not None:
                value[x] = v
                done[x] = True
                continue
        phi = _facet(system, f, x, low, scale, ~done)
        touched = np.flatnonzero(f - phi <= CERT_TOL * scale)
        fresh = touched[~done[touched]]
        value[fresh] = np.minimum(phi[fresh], f[fresh])
        done[fresh] = True
        if not done[x]:
            value[x] = phi[x]
            done[x] = True
        facets.append((phi, touched))
    return value


def convexity_gap(system, f):
    """sup-norm distance between f and its biconjugate (0 iff Choquet convex)."""
    f = as_field(system, f)
    return float(np.max(f - biconjugate(system, f)))


def is_choquet_convex(system, f, tol=CONVEX_TOL):
    """f is Choquet convex iff it equals its biconjugate within ``tol``."""
    return convexity_gap(system, f) <= tol


def hat_positive(system, f):
    """Probability-measure convexification; equals the biconjugate.

    The probability measures equivalent to the Dirac mass at x are the
    representing measures of x, so this is the lower end of the key
    interval, which LP duality makes the biconjugate.  Every value already
    carries both certificates from ``biconjugate``.
    """
    return biconjugate(system, f)


def hat_signed(system, f, alpha=1.0):
    """Signed-measure convexification over the closed pairing strip.

    f itself when f lies in the row span of B (least-squares residual at
    most ``CERT_TOL`` relative), the constant min f - alpha otherwise.
    """
    system.require_valid()
    f = as_field(system, f)
    if alpha <= 0:
        raise ValidationError("strip width alpha must be positive")
    B = system.basis
    coef = np.linalg.lstsq(B.T, f, rcond=None)[0]
    if np.abs(B.T @ coef - f).max() <= CERT_TOL * (1.0 + np.abs(f).max()):
        return f.copy()
    return np.full(system.n, float(f.min()) - alpha)


def sup_family(system, fields, tol=CONVEX_TOL):
    """Pointwise max of Choquet-convex fields; stays Choquet convex."""
    fields = [as_field(system, f) for f in fields]
    if not fields:
        raise ValidationError("sup_family needs at least one field")
    for i, f in enumerate(fields):
        if not is_choquet_convex(system, f, tol):
            raise ValidationError(f"input field {i} is not Choquet convex")
    return np.max(np.stack(fields), axis=0)
