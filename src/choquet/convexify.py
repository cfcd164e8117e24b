"""Conjugation and convexification of scalar fields.

The conjugate of a field f at a basis element phi is max_j (phi_j - f_j);
the biconjugate f** is the pointwise largest basis combination below f:

    f**(x) = max { phi(x) : phi in span(B), phi <= f }

f** is the lower envelope of f over the span and the canonical
convexification: f is Choquet convex exactly when f == f**.  By LP duality
f**(x) is also the least pairing <mu, f> over the representing measures
mu of x, the lower end of the key interval (``measures.key_interval``),
and -(-f)**(x) is its upper end: two sweeps give every key interval.

On the Choquet boundary the Dirac mass is the only representing measure,
so f**(x) = f(x) there.  ``biconjugate`` first takes that value at every
boundary point one Gram screen certifies (``measures._dirac_values``),
then sweeps the envelope facet by facet over the points left open, so it
solves one LP per facet it reaches rather than one per point.  At a point
x that no earlier facet certifies it solves that least-pairing LP over
the representing measures of x (``measures._least_pairing``), started at
the Dirac mass of x, a vertex: the first from a crash basis, each later
one from the previous LP's optimal basis by one column swap.

Every value the screen or an LP gives passes ``measures._bracket``,
which checks two witnesses by direct evaluation that does not trust the
simplex engine: a representing measure mu of x, whose <mu, f> bounds
f**(x) from above, and a minorant phi <= f in the span, whose phi(x)
bounds it from below.  An LP's are its point and its dual B'c + t; a
failed check raises ConsistencyError, and an overflow while evaluating
them is a ValidationError.  The dual is basic, so phi touches f at every
column of the LP's optimal basis, often a whole facet.  One facet then
certifies further points with no LP:

* every point j where phi touches f, within ``CERT_TOL`` (1 + max |f|),
  takes min(phi_j, f_j), bracketed by phi_j and the Dirac mass's f_j;
* a point j in the convex hull of the touched points of the facet with
  the largest phi(j) takes phi(j) when ``measures._bracket`` passes it
  with mu the least-squares weights on those points (``_cone_value``).

``is_choquet_convex`` runs the same sweep and stops at the first value
more than ``tol`` below f, so its verdict is ``convexity_gap <= tol``.

``hat_positive`` takes the inf-over-equivalence-class convexification
over probability measures.  The probability measures equivalent to the
Dirac mass at x are the representing measures of x, so it is the least
pairing above: the biconjugate.  ``hat_signed`` takes the class over
signed measures nu, constrained to the closed strip
min f - alpha <= <nu, f> <= max f + alpha.
If f lies in the row span of B, the pairing is f(x) on every signed
representation of x, so the value is f itself.  Otherwise the pairing is
unbounded below on that affine set, and the value is the constant
min f - alpha.  ``hat_signed`` returns this closed form directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import CERT_TOL, _bracket, _dirac_values, _least_pairing
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


def _cone_value(system, f, facets, j):
    """phi(j) of the facet with the largest value at j, when ``_bracket``
    passes it with the measure on its touched columns that reproduces
    column j: least squares with the ones row, clipped at 0 and
    renormalized.  None otherwise."""
    phi, touched = max(facets, key=lambda facet: facet[0][j])
    B = system.basis
    A = np.vstack([B[:, touched], np.ones(touched.size)])
    w = np.maximum(np.linalg.lstsq(A, np.append(B[:, j], 1.0), rcond=None)[0], 0.0)
    mu = np.zeros((system.n, 1))
    mu[touched, 0] = w / (w.sum() or 1.0)
    return phi[j] if _bracket(system, f, np.array([j]), mu, phi[:, None])[1][0] else None


def _sweep(system, f, tol=None):
    """``biconjugate``'s values; with ``tol``, None as soon as one of them is
    more than ``tol`` below f."""
    system.require_valid()
    f = as_field(system, f)
    scale = 1.0 + float(np.abs(f).max())
    done = _dirac_values(system, (f,), np.arange(system.n))
    value = np.where(done, f, np.nan)
    if tol is not None and not np.all(f[done] - value[done] <= tol):
        return None
    facets, start = [], None
    for x in range(system.n):
        if done[x]:
            continue
        v = _cone_value(system, f, facets, x) if facets else None
        if v is not None:
            value[x], settled = v, [x]
        else:
            _, _, phi, start = _least_pairing(system, f, x, start)
            touched = np.flatnonzero(f - phi <= CERT_TOL * scale)
            fresh = touched[~done[touched]]
            value[x] = phi[x]
            value[fresh] = np.minimum(phi[fresh], f[fresh])
            settled = np.append(fresh, x)
            facets.append((phi, touched))
        done[settled] = True
        if tol is not None and not np.all(f[settled] - value[settled] <= tol):
            return None
    return value


def biconjugate(system, f):
    """Pointwise largest minorant of f within the span of the basis: f(x)
    at each boundary point ``measures._dirac_values`` certifies, then a
    facet sweep of bracketed least-pairing LPs over the points left open
    (see the module docstring)."""
    return _sweep(system, f)


def convexity_gap(system, f):
    """sup-norm distance between f and its biconjugate (0 iff Choquet convex)."""
    f = as_field(system, f)
    return float(np.max(f - biconjugate(system, f)))


def is_choquet_convex(system, f, tol=CONVEX_TOL):
    """f is Choquet convex iff it equals its biconjugate within ``tol``: the
    ``biconjugate`` sweep, stopped at its first value more than ``tol``
    below f."""
    return _sweep(system, f, tol) is not None


def hat_positive(system, f):
    """Probability-measure convexification; equals the biconjugate.

    The probability measures equivalent to the Dirac mass at x are the
    representing measures of x, so this is the least pairing over them,
    the lower end of the key interval: the LP each step of the
    ``biconjugate`` sweep solves.  It is that sweep, and every value
    carries a checked measure and minorant.
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
