from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from choquet import lp, measures, sets
from choquet.generators import gen_cantor, gen_disk, gen_interval_affine, gen_naturals, gen_random
from choquet.space import FiniteSpace, FunctionSystem


@pytest.fixture(scope="session")
def naturals4():
    return gen_naturals(4)


@pytest.fixture(scope="session")
def interval5():
    return gen_interval_affine(5)


@pytest.fixture(scope="session")
def disk_small():
    # small disk instance for the slower per-point suites
    return gen_disk(n_circle=20, n_interior_rings=1, degree=3)


def count_calls(monkeypatch, name):
    """Record the arguments of every call of ``lp.<name>`` from here on."""
    calls, fn = [], getattr(lp, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(lp, name, counting)
    return calls


def count_lps(monkeypatch):
    """Record every call of ``lp.solve`` from here on."""
    return count_calls(monkeypatch, "solve")


def no_wolfe(monkeypatch):
    """From here on Wolfe's algorithm proposes nothing, so every hull
    question the Gram screen leaves open reaches its self-mass LP."""
    monkeypatch.setattr(measures, "_wolfe", lambda Y: None)


def forge_wolfe(monkeypatch):
    """From here on every proposal of Wolfe's algorithm is forged: its
    nearest point p is negated, which gives a field least at the point, and
    all its weight moves to the column farthest from the point."""
    wolfe = measures._wolfe

    def forged(Y):
        near = wolfe(Y)
        if near is None:
            return None
        return np.eye(Y.shape[1])[np.argmax(np.einsum("ij,ij->j", Y, Y))], -near[1]

    monkeypatch.setattr(measures, "_wolfe", forged)


def exact_margin(Q, c, x):
    """The field c's value at column x of Q less its largest value at another
    column, in exact rational arithmetic on the stored floats."""
    c = [Fraction(float(v)) for v in c]
    vals = [sum((a * Fraction(float(q)) for a, q in zip(c, col)), Fraction(0)) for col in Q.T]
    return vals[x] - max(v for j, v in enumerate(vals) if j != x)


def is_vertex(system, x):
    """Whether column x is outside the convex hull of the other columns.

    The boundary's own self-mass LP decides the same question, so this
    oracle asks HiGHS instead of ``choquet.lp``.
    """
    others = [j for j in range(system.n) if j != x]
    if not others:
        return True
    B = system.basis
    A = np.vstack([B[:, others], np.ones((1, len(others)))])
    res = linprog(np.zeros(len(others)), A_eq=A, b_eq=np.append(B[:, x], 1.0), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 2


def lower_convex_envelope_1d(q, f):
    """Brute-force lower convex envelope on a 1-D grid.

    Independent oracle for the biconjugate when the basis spans the affine
    functions of a single coordinate: env(t) is the smallest value at t of
    any chord between grid points bracketing t (including degenerate
    chords, i.e. the value itself).
    """
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    n = len(q)
    env = f.copy()
    for i in range(n):
        for a in range(n):
            for b in range(n):
                if not (q[a] <= q[i] <= q[b]) or q[a] == q[b]:
                    continue
                t = (q[i] - q[a]) / (q[b] - q[a])
                env[i] = min(env[i], (1 - t) * f[a] + t * f[b])
    return env


def _highs_value(c, **constraints):
    """Optimal value of min c.x by HiGHS; the program must have one."""
    res = linprog(c, method="highs", **constraints)
    assert res.status == 0, res.message
    return res.fun


def biconjugate_lp(system, f, points=None):
    """Per-point envelope LP, the route ``biconjugate`` took before its sweep,
    asked of HiGHS: at every point x (or each of ``points``), maximize
    phi(x) over coefficients c with B'c <= f."""
    B = system.basis
    points = range(system.n) if points is None else points
    return np.array([-_highs_value(-B[:, x], A_ub=B.T, b_ub=f, bounds=(None, None))
                     for x in points])


def hat_positive_lp(system, f):
    """Measure-side route: the least pairing <mu, f> over representing
    measures, one unchecked LP per point, each from its crash basis at the
    Dirac mass."""
    B, scales, out = system.basis, measures.coefficient_scales(system), []
    for x in range(system.n):
        prog = measures._measure_program(B, B[:, x], scales, f)[0]
        res = lp.solve(prog, lp._crash(prog.constraint_matrix, [x]))
        assert res.status == lp.OPTIMAL
        out.append(res.value)
    return np.array(out)


def hat_signed_lp(system, f, alpha):
    """Signed convexification by one strip LP per point, asked of HiGHS.

    Minimize <nu, f> over signed nu with B nu = B e_x and
    min f - alpha <= <nu, f> <= max f + alpha.
    """
    B = system.basis
    strip = dict(A_ub=np.vstack([-f, f]), b_ub=[alpha - f.min(), f.max() + alpha])
    return np.array([_highs_value(f, A_eq=B, b_eq=B[:, x], bounds=(None, None), **strip)
                     for x in range(system.n)])


def kyfan_between_lp(system, x, y, z):
    """Strict Ky Fan betweenness by a feasibility LP asked of HiGHS, the
    route ``kyfan_strictly_between`` took before its closed form.

    x fails the test iff some basis element phi has phi(x) <= phi(y),
    phi(x) <= phi(z) and phi(y) + phi(z) - 2 phi(x) >= 1 (the unit
    normalizes "not all equal" by homogeneity).
    """
    B = system.basis
    u = B[:, y] - B[:, x]
    v = B[:, z] - B[:, x]
    res = linprog(np.zeros(system.d), A_ub=np.vstack([-u, -v, -(u + v)]), b_ub=[0.0, 0.0, -1.0],
                  bounds=(None, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 2


def extreme_lp(system, S):
    """The distinct points S whose column is outside the hull of the other
    points' columns, by one self-mass LP per point: the route
    ``choquet_boundary`` and ``phi_extreme_points`` took before the hull
    oracle."""
    S = np.asarray(S, dtype=int)
    return tuple(int(x) for x in S if not measures._membership(system, x, S[S != x])[0])


def trace_hull_lp(system, S, ambient=None):
    """One self-mass LP per point, the route ``trace_hull`` took before its
    witness-reusing oracle."""
    S = sets.as_point_set(S, system.n)
    scope = range(system.n) if ambient is None else sets.as_point_set(ambient, system.n)
    cols = np.array(S)
    return tuple(x for x in scope if x in S or measures._membership(system, x, cols)[0])


def invariance_systems():
    """Named systems (False) and random ones (True, small enough for every triple)."""
    named = [gen_naturals(20).system, gen_interval_affine(21).system, gen_cantor(2).system]
    randoms = [gen_random(7, 2 + seed % 2, seed=700 + seed).system for seed in range(10)]
    return [(s, False) for s in named] + [(s, True) for s in randoms]


def basis_change(rng, system):
    """The system under B -> G B, G a seeded basis change of condition at most 4."""
    d = system.d
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    G = Q * rng.uniform(0.5, 2.0, size=d)
    return FunctionSystem(system.space, G @ system.basis)


def row_changes(rng, system):
    """The system with a seeded basis row duplicated, and with every row
    scaled by a seeded factor between 1e-2 and 1e2."""
    B = system.basis
    duplicated = np.vstack([B, B[rng.integers(system.d)]])
    scaled = B * 10.0 ** rng.uniform(-2.0, 2.0, size=(system.d, 1))
    return [FunctionSystem(system.space, duplicated), FunctionSystem(system.space, scaled)]


def relabeling(rng, system):
    """(relabeled system, perm, new): new point k is old point perm[k],
    old point j is new point new[j]."""
    perm = rng.permutation(system.n)
    relabeled = FunctionSystem(
        FiniteSpace(tuple(system.space.labels[j] for j in perm)), system.basis[:, perm]
    )
    return relabeled, perm, np.argsort(perm)
