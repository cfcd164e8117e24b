"""Maximum principles: argmax sets, Bauer verification, exposing functionals,
boundary characterization and the generic-uniqueness experiment.

Every convex-trace field attains its maximum on the Choquet boundary; the
verifiers below realize fields from their max-of-affine specs, compute the
argmax set and ask only the maximizers whether they lie on the boundary.
Exposing fields are ``measures._separator``'s: a checked Gram-screen
field, else Wolfe's, else the self-mass LP's dual field.  The genericity
experiment perturbs a field by random basis elements and counts how often
its maximizer is unique.
"""

from dataclasses import dataclass

import numpy as np

from .convexify import ConvexTraceSpec, realize_convex_trace
from .errors import ValidationError
from .measures import _check_point, _on_boundary, _separator, min_self_mass
from .space import PhiFunction, as_field

ARGMAX_TOL = 1e-9
TIE_TOL = 1e-9


@dataclass(frozen=True)
class MaxReport:
    argmax: tuple
    max_value: float
    boundary_argmax: tuple
    bauer_ok: bool

    def to_dict(self, system):
        lab = system.space.labels
        return {
            "argmax": [lab[j] for j in self.argmax],
            "max_value": self.max_value,
            "boundary_argmax": [lab[j] for j in self.boundary_argmax],
            "bauer_ok": self.bauer_ok,
        }


@dataclass(frozen=True)
class MultiMaxReport:
    common_argmax: tuple
    common_boundary_argmax: tuple
    hypothesis_void: bool
    ok: bool

    def to_dict(self, system):
        lab = system.space.labels
        return {
            "common_argmax": [lab[j] for j in self.common_argmax],
            "common_boundary_argmax": [lab[j] for j in self.common_boundary_argmax],
            "hypothesis_void": self.hypothesis_void,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class GenericityReport:
    trials: int
    unique_fraction: float
    perturbation_norm: float
    seed: int
    tie_tol: float
    singleton_flags: tuple

    def to_dict(self):
        return {
            "trials": self.trials,
            "unique_fraction": self.unique_fraction,
            "perturbation_norm": self.perturbation_norm,
            "seed": self.seed,
            "tie_tol": self.tie_tol,
        }


def argmax_set(system, f, tol=ARGMAX_TOL):
    """Indices within ``tol`` of the maximum of the field."""
    f = as_field(system, f)
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    return tuple(int(j) for j in np.flatnonzero(f >= f.max() - tol))


def _boundary_part(system, points):
    """The ``points`` (sorted indices) that lie on the Choquet boundary."""
    return tuple(j for j, on in zip(points, _on_boundary(system, points)) if on)


def bauer_verify(system, spec, tol=ARGMAX_TOL):
    """Realize the spec and check its maximum is attained on the boundary.

    Only the maximizers get a boundary verdict.  When one of them is on the
    boundary, the boundary maximum is within ``tol`` of the maximum.
    """
    f = realize_convex_trace(system, spec)
    amax = argmax_set(system, f, tol)
    b_amax = _boundary_part(system, amax)
    return MaxReport(amax, float(f.max()), b_amax, bauer_ok=bool(b_amax))


def multi_max_verify(system, specs, tol=ARGMAX_TOL):
    """Common-maximizer check for a family of convex-trace specs.

    When the argmax sets intersect, some common maximizer must lie on the
    boundary, and only the common maximizers get a boundary verdict; an
    empty intersection voids the hypothesis, which is reported as ok
    (nothing to verify).
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("multi-max needs a nonempty family")
    common = None
    for spec in specs:
        amax = set(argmax_set(system, realize_convex_trace(system, spec), tol))
        common = amax if common is None else (common & amax)
    common = tuple(sorted(common))
    if not common:
        return MultiMaxReport((), (), hypothesis_void=True, ok=True)
    b_common = _boundary_part(system, common)
    return MultiMaxReport(common, b_common, hypothesis_void=False, ok=bool(b_common))


def expose(system, xbar):
    """A basis element whose unique maximizer over the space is ``xbar``.

    Requires ``xbar`` to be a boundary point.  The exposing field is
    ``measures._separator`` of ``xbar`` against all other points: 1 at
    ``xbar`` and at most 0 elsewhere, checked by evaluation.
    """
    system.require_valid()
    _check_point(system, xbar)
    coeffs = _separator(system, xbar, np.flatnonzero(np.arange(system.n) != xbar))
    if coeffs is None:
        raise ValidationError(
            f"point {system.space.labels[xbar]!r} is not a boundary point "
            "(min self mass 0); only boundary points are exposed"
        )
    return PhiFunction(coeffs)


def random_spec(system, rng, max_pieces=4):
    """A random max-of-affine spec (helper for sampling-based checks)."""
    k = int(rng.integers(1, max_pieces + 1))
    pieces = tuple((rng.normal(size=system.d), float(rng.normal())) for _ in range(k))
    return ConvexTraceSpec(pieces)


def boundary_characterization(system, xbar):
    """Characterize ``xbar`` through maximizer sets of convex-trace fields.

    A boundary point is the unique maximizer of its exposing field; any
    other point is represented by weights on the others, so no convex-trace
    field has it as its unique maximizer.  This is the boundary verdict.
    """
    return min_self_mass(system, xbar) == 1.0


def genericity_experiment(system, f, trials, eps, seed, tie_tol=TIE_TOL):
    """Fraction of random basis perturbations with a unique maximizer.

    Each trial draws coefficients uniformly from [-eps, eps]^d with an RNG
    derived from (seed, trial), so results are reproducible and independent
    of any parallel schedule.
    """
    system.require_valid()
    f = as_field(system, f)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 < 2.0 * float(eps) < np.inf:  # draws span [-eps, eps]
        raise ValidationError("perturbation radius must be positive, and twice it finite")
    flags = []
    for t in range(trials):
        rng = np.random.default_rng([int(seed), t])
        coeffs = rng.uniform(-eps, eps, size=system.d)
        g = f + system.basis.T @ coeffs
        flags.append(len(argmax_set(system, g, tie_tol)) == 1)
    return GenericityReport(
        trials=trials,
        unique_fraction=float(np.mean(flags)),
        perturbation_norm=float(eps),
        seed=int(seed),
        tie_tol=float(tie_tol),
        singleton_flags=tuple(flags),
    )
