"""Data model: finite point space, function system, fields and measures.

A function system is a d x n matrix B with B[i, j] the value of the i-th
basis function at the j-th point.  Column j is the evaluation functional of
point j; the convex hull of the columns is the state space every boundary
and hull computation works in.  Scalar fields are plain 1-D float arrays of
length n; ``as_field`` validates ad-hoc input.

Two standing hypotheses are checked by ``FunctionSystem.validate``:

* constants: the all-ones vector lies in the row span of B (least-squares
  residual <= 1e-9).  A literal ones row is not required.
* separation: the columns of B are pairwise distinct (min pairwise
  sup-distance > 1e-9).  Duplicate columns are rejected, never merged.

All types are immutable after construction and all operations are pure.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

CONSTANTS_TOL = 1e-9
SEPARATION_TOL = 1e-9
_SEPARATION_BLOCK_CELLS = 1 << 20

PROBABILITY = "probability"
SIGNED = "signed"


@dataclass(frozen=True)
class FiniteSpace:
    """Finite point set with unique labels and optional 2-D plot coordinates."""

    labels: tuple
    coords: np.ndarray | None = None

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        if len(labels) < 1:
            raise ValidationError("a space needs at least one point")
        if len(set(labels)) != len(labels):
            raise ValidationError("point labels must be pairwise distinct")
        coords = self.coords
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.shape != (len(labels), 2):
                raise ValidationError(f"coords must have shape ({len(labels)}, 2)")
            if not np.all(np.isfinite(coords)):
                raise ValidationError("coords must be finite")
            coords.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ValidationError(f"unknown point label {label!r}") from None


@dataclass(frozen=True)
class ValidationReport:
    constants_ok: bool
    constants_residual: float
    separation_ok: bool
    min_separation: float
    # least-squares coefficients c with B'c ~ 1 (the constants in the span)
    constants_coeffs: np.ndarray = field(repr=False, compare=False)

    @property
    def ok(self):
        return self.constants_ok and self.separation_ok

    def to_dict(self):
        return {
            "constants_ok": self.constants_ok,
            "constants_residual": self.constants_residual,
            "separation_ok": self.separation_ok,
            "min_separation": self.min_separation,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class FunctionSystem:
    """A finite space together with the basis matrix B (d rows, n columns)."""

    space: FiniteSpace
    basis: np.ndarray

    def __post_init__(self):
        B = np.array(self.basis, dtype=float)
        if B.ndim != 2:
            raise ValidationError("basis must be a 2-D matrix")
        if B.shape[1] != self.space.n:
            raise ValidationError(
                f"basis has {B.shape[1]} columns for {self.space.n} points"
            )
        if B.shape[0] < 1:
            raise ValidationError("basis needs at least one row")
        if not np.all(np.isfinite(B)):
            raise ValidationError("basis entries must be finite")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def n(self):
        return self.space.n

    @property
    def d(self):
        return self.basis.shape[0]

    def column(self, j):
        if not 0 <= j < self.n:
            raise ValidationError(f"point index {j} out of range [0, {self.n})")
        return self.basis[:, j].copy()

    def validate(self):
        """Check the constants and separation conditions; report residuals."""
        cached = getattr(self, "_report", None)
        if cached is not None:
            return cached
        ones = np.ones(self.n)
        coef, *_ = np.linalg.lstsq(self.basis.T, ones, rcond=None)
        resid = float(np.max(np.abs(self.basis.T @ coef - ones)))
        min_sep = _min_separation(self.basis)
        coef.setflags(write=False)
        report = ValidationReport(
            constants_ok=resid <= CONSTANTS_TOL,
            constants_residual=resid,
            separation_ok=min_sep > SEPARATION_TOL,
            min_separation=min_sep,
            constants_coeffs=coef,
        )
        object.__setattr__(self, "_report", report)
        return report

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            problems = []
            if not rep.constants_ok:
                problems.append(
                    f"constants not in row span (residual {rep.constants_residual:.3e})"
                )
            if not rep.separation_ok:
                problems.append(
                    f"columns not separated (min distance {rep.min_separation:.3e})"
                )
            raise ValidationError("invalid function system: " + "; ".join(problems))
        return self


def _min_separation(B):
    """Least sup-distance between two distinct columns of B (inf if n = 1).

    Each block of columns is compared with itself and every later column,
    so each pair is seen once and no temporary exceeds about
    ``_SEPARATION_BLOCK_CELLS`` entries.
    """
    d, n = B.shape
    best = np.inf
    step = max(1, _SEPARATION_BLOCK_CELLS // (d * n))
    for start in range(0, n - 1, step):
        stop = min(start + step, n)
        diff = B[:, start:, None] - B[:, None, start:stop]
        dist = np.abs(diff, out=diff).max(axis=0)
        # row i is column start + i, column k is column start + k
        dist[np.arange(stop - start), np.arange(stop - start)] = np.inf
        best = min(best, float(dist.min()))
    return best


@dataclass(frozen=True)
class PhiFunction:
    """An element of the span of the basis, stored by its coefficient vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValidationError("coefficients must be a finite 1-D vector")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def values(self, system):
        return evaluate(system, self)


@dataclass(frozen=True)
class Measure:
    """Point-weight vector; probability measures are nonnegative with mass 1."""

    weights: np.ndarray
    kind: str = SIGNED

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be a finite 1-D vector")
        if self.kind not in (PROBABILITY, SIGNED):
            raise ValidationError(f"unknown measure kind {self.kind!r}")
        if self.kind == PROBABILITY:
            if np.any(w < -1e-12):
                raise ValidationError(f"negative weight {w.min():.3e} in probability measure")
            w[(w < 0)] = 0.0
            if abs(w.sum() - 1.0) > 1e-9:
                raise ValidationError(f"probability mass {w.sum()!r} != 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def probability(cls, weights):
        return cls(weights, PROBABILITY)

    @classmethod
    def dirac(cls, n, j):
        w = np.zeros(n)
        w[j] = 1.0
        return cls(w, PROBABILITY)


def embed(system, j):
    """Evaluation functional of point j: column j of the basis matrix."""
    return system.column(j)


def evaluate(system, phi):
    """Field of values of the basis combination ``phi`` at all points."""
    coeffs = phi.coeffs if isinstance(phi, PhiFunction) else np.asarray(phi, dtype=float)
    if coeffs.shape != (system.d,):
        raise ValidationError(f"expected {system.d} coefficients, got {coeffs.shape}")
    return system.basis.T @ coeffs


def pair(mu, field):
    """Duality pairing: the ``mu``-weighted sum of the field values."""
    w = mu.weights if isinstance(mu, Measure) else np.asarray(mu, dtype=float)
    f = np.asarray(field, dtype=float)
    if w.shape != f.shape:
        raise ValidationError(f"measure has shape {w.shape}, field {f.shape}")
    return float(w @ f)


def as_field(system, values):
    """Validate ``values`` as a scalar field on the system's space."""
    f = np.asarray(values, dtype=float)
    if f.shape != (system.n,):
        raise ValidationError(f"field must have length {system.n}, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValidationError("field values must be finite")
    return f


# ---------------------------------------------------------------------------
# instance serialization


def system_to_dict(system, expected=None):
    d = {
        "labels": list(system.space.labels),
        "coords": None
        if system.space.coords is None
        else [[float(a), float(b)] for a, b in system.space.coords],
        "basis": [[float(v) for v in row] for row in system.basis],
    }
    if expected is not None:
        d["expected"] = expected
    return d


def system_from_dict(data):
    """Parse the instance dict; returns (system, expected-block-or-None)."""
    try:
        labels = data["labels"]
        basis = np.asarray(data["basis"], dtype=float)
        coords = data.get("coords")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance: {exc}") from exc
    space = FiniteSpace(tuple(labels), None if coords is None else np.asarray(coords))
    system = FunctionSystem(space, basis)
    return system, data.get("expected")


def load_instance(fh):
    """Read an instance from an open text file (or anything with .read())."""
    try:
        data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance is not valid JSON: {exc}") from exc
    return system_from_dict(data)


def basis_from_csv(fh):
    """Read a basis matrix from CSV rows of numbers (one basis row per line)."""
    rows = []
    for line in csv.reader(fh):
        if not line or all(not cell.strip() for cell in line):
            continue
        try:
            rows.append([float(cell) for cell in line])
        except ValueError as exc:
            raise ValidationError(f"non-numeric CSV cell: {exc}") from exc
    if not rows:
        raise ValidationError("empty basis CSV")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError("ragged basis CSV")
    return np.asarray(rows, dtype=float)
