"""Instance generators: interval, Cantor, disk, truncated naturals, random.

Each generator returns the function system together with the expected
Choquet boundary and a notes block recording parameters and the finite
surrogates taken (truncation degree, the last point standing in for the
point at infinity, one midpoint sample per removed interval, ...).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .space import FiniteSpace, FunctionSystem

_MAX_RESAMPLES = 100  # draws ``gen_random`` makes before it gives up


@dataclass(frozen=True)
class GeneratedInstance:
    system: FunctionSystem
    expected_boundary: tuple
    notes: dict

    def expected_dict(self):
        return {
            "boundary": [self.system.space.labels[j] for j in self.expected_boundary],
            "notes": self.notes,
        }


def gen_interval_affine(n_grid):
    """Uniform grid on [0, 1] with the affine functions; boundary {0, 1}."""
    if n_grid < 2:
        raise ValidationError("interval grid needs at least two points")
    t = np.linspace(0.0, 1.0, n_grid)
    labels = tuple(f"{v:.10g}" for v in t)
    coords = np.column_stack([t, np.zeros(n_grid)])
    system = FunctionSystem(FiniteSpace(labels, coords), np.vstack([np.ones(n_grid), t]))
    return GeneratedInstance(
        system=system,
        expected_boundary=(0, n_grid - 1),
        notes={"generator": "interval", "n_grid": n_grid},
    )


def _cantor_cells(level):
    cells = [(Fraction(0), Fraction(1))]
    removed = []
    for _ in range(level):
        nxt = []
        for a, b in cells:
            w = (b - a) / 3
            nxt.append((a, a + w))
            nxt.append((b - w, b))
            removed.append((a + w, b - w))
        cells = nxt
    return cells, removed


def gen_cantor(level, points_per_cell=3):
    """Level-``level`` Cantor construction with piecewise-affine gap filling.

    The grid holds ``points_per_cell`` equispaced samples per surviving cell
    plus the midpoint of every removed interval.  Basis functions are free
    on the cell samples and extend affinely across each removed interval, so
    every midpoint value is pinned to the average of the two gap endpoints;
    exactly the midpoints fall outside the boundary.
    """
    if level < 1:
        raise ValidationError("cantor level must be >= 1")
    if points_per_cell < 2:
        raise ValidationError("need at least the two endpoints of each cell")
    cells, removed = _cantor_cells(level)
    samples = []
    for a, b in cells:
        step = (b - a) / (points_per_cell - 1)
        samples.extend(a + k * step for k in range(points_per_cell))
    mids = [(a + b) / 2 for a, b in removed]
    grid = sorted(set(samples) | set(mids))
    index = {t: j for j, t in enumerate(grid)}
    free = sorted(set(samples))
    n, d = len(grid), len(free)

    B = np.zeros((d, n))
    for i, t in enumerate(free):
        B[i, index[t]] = 1.0
    for (a, b) in removed:
        mid = (a + b) / 2
        B[free.index(a), index[mid]] = 0.5
        B[free.index(b), index[mid]] = 0.5

    labels = tuple(f"{float(t):.10g}" for t in grid)
    coords = np.column_stack([[float(t) for t in grid], np.zeros(n)])
    system = FunctionSystem(FiniteSpace(labels, coords), B)
    midset = {index[m] for m in mids}
    expected = tuple(j for j in range(n) if j not in midset)
    return GeneratedInstance(
        system=system,
        expected_boundary=expected,
        notes={
            "generator": "cantor",
            "level": level,
            "points_per_cell": points_per_cell,
            "removed_intervals": len(removed),
            "surrogate": "one midpoint sample per removed interval",
        },
    )


MAX_INTERIOR_RADIUS = 0.8


def gen_disk(n_circle=64, n_interior_rings=2, degree=8):
    """Unit circle samples plus an interior polar lattice, harmonic basis.

    Basis: 1, Re z^k, Im z^k for k = 1..degree.  Interior radii stay at or
    below 0.8 and the circle carries at least 2*degree + 2 samples so the
    interior representing-measure LPs are comfortably feasible; the finite
    degree truncates the full harmonic class, recorded in the notes.
    """
    if degree < 1:
        raise ValidationError("harmonic degree must be >= 1 (constants never separate)")
    if n_circle < 2 * degree + 2:
        raise ValidationError(
            f"{n_circle} circle samples alias degree-{degree} moments; "
            f"need at least {2 * degree + 2}"
        )
    if n_interior_rings < 0:
        raise ValidationError("ring count must be nonnegative")
    pts = []
    labels = []
    theta = 2.0 * np.pi * np.arange(n_circle) / n_circle
    for j in range(n_circle):
        pts.append((np.cos(theta[j]), np.sin(theta[j])))
        labels.append(f"circ{j:03d}")
    pts.append((0.0, 0.0))
    labels.append("center")
    for i in range(1, n_interior_rings + 1):
        r = MAX_INTERIOR_RADIUS * i / n_interior_rings
        for j in range(n_circle):
            pts.append((r * np.cos(theta[j]), r * np.sin(theta[j])))
            labels.append(f"ring{i}_{j:03d}")
    coords = np.asarray(pts)
    z = coords[:, 0] + 1j * coords[:, 1]
    rows = [np.ones(len(pts))]
    for k in range(1, degree + 1):
        rows.append(np.real(z**k))
        rows.append(np.imag(z**k))
    system = FunctionSystem(FiniteSpace(tuple(labels), coords), np.vstack(rows))
    return GeneratedInstance(
        system=system,
        expected_boundary=tuple(range(n_circle)),
        notes={
            "generator": "disk",
            "n_circle": n_circle,
            "n_interior_rings": n_interior_rings,
            "degree": degree,
            "max_interior_radius": MAX_INTERIOR_RADIUS,
            "surrogate": "harmonic class truncated at the stated degree",
        },
    )


def gen_naturals(n):
    """Points 1..n with the span of {1, 1/k}; boundary {1, n}.

    The last point stands in for the point at infinity of the one-point
    compactification (the embedding 1/k accumulates at 0).  Trace-convex
    subsets are exactly the order intervals.
    """
    if n < 2:
        raise ValidationError("need at least two naturals")
    k = np.arange(1, n + 1, dtype=float)
    b = 1.0 / k
    labels = tuple(str(i) for i in range(1, n + 1))
    coords = np.column_stack([b, np.zeros(n)])
    system = FunctionSystem(FiniteSpace(labels, coords), np.vstack([np.ones(n), b]))
    return GeneratedInstance(
        system=system,
        expected_boundary=(0, n - 1),
        notes={
            "generator": "naturals",
            "n": n,
            "surrogate": "point n stands in for the point at infinity",
            "trace_convex_sets": "exactly the order intervals",
        },
    )


def gen_random(n, d, seed):
    """Seeded random system: a ones row plus d-1 uniform rows.

    Resamples until the columns separate (and, when d == n, until the basis
    is nonsingular so that every column is a vertex).  The expected boundary
    is computed by the boundary module itself; random instances serve as a
    cross-test and metamorphic substrate, not as independent ground truth.
    """
    if not 2 <= d <= n:
        raise ValidationError("need 2 <= d <= n")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLES):
        B = np.vstack([np.ones(n), rng.uniform(0.0, 1.0, size=(d - 1, n))])
        labels = tuple(f"p{j}" for j in range(n))
        system = FunctionSystem(FiniteSpace(labels), B)
        if not system.validate().ok:
            continue
        if d == n and abs(np.linalg.det(B)) < 1e-9:
            continue
        from .measures import choquet_boundary  # deferred to avoid a cycle

        expected = choquet_boundary(system).boundary
        return GeneratedInstance(
            system=system,
            expected_boundary=expected,
            notes={"generator": "random", "n": n, "d": d, "seed": int(seed),
                   "self_referential": True},
        )
    raise ValidationError(f"no separated system found in {_MAX_RESAMPLES} resamples")


GENERATORS = {
    "interval": gen_interval_affine,
    "cantor": gen_cantor,
    "disk": gen_disk,
    "naturals": gen_naturals,
    "random": gen_random,
}
