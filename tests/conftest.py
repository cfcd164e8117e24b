import numpy as np
import pytest
from scipy.optimize import linprog

from choquet import lp, measures, sets
from choquet.generators import gen_disk, gen_interval_affine, gen_naturals


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


def count_lps(monkeypatch):
    """Record every LinearProgram passed to ``lp.solve`` from here on."""
    calls = []
    solve = lp.solve

    def counting(prog, *args, **kwargs):
        calls.append(prog)
        return solve(prog, *args, **kwargs)

    monkeypatch.setattr(lp, "solve", counting)
    return calls


def is_vertex(system, x):
    """Whether column x is outside the convex hull of the other columns.

    The boundary's own membership LP decides the same question, so this
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


def biconjugate_lp(system, f):
    """Per-point envelope LP, the route ``biconjugate`` took before its sweep.

    At every point x: maximize phi(x) over coefficients with B'c <= f.
    """
    B = system.basis
    low = float(np.min(f))
    out = []
    for x in range(system.n):
        prog = lp.LinearProgram.build(
            -B[:, x], B.T, [lp.LE] * system.n, f - low, bounds=(-np.inf, np.inf)
        )
        res = lp.solve(prog)
        assert res.status == lp.OPTIMAL
        out.append(low - res.value)
    return np.array(out)


def hat_positive_lp(system, f):
    """Measure-side route: the least pairing <mu, f> over representing measures."""
    out = []
    for x in range(system.n):
        res = lp.solve(measures._mx_program(system, x, f))
        assert res.status == lp.OPTIMAL
        out.append(res.value)
    return np.array(out)


def hat_signed_lp(system, f, alpha):
    """Signed convexification by one strip LP per point.

    Minimize <nu, f> over signed nu with B nu = B e_x and
    min f - alpha <= <nu, f> <= max f + alpha.
    """
    B = system.basis
    A = np.vstack([B, f[None, :], f[None, :]])
    rels = [lp.EQ] * system.d + [lp.GE, lp.LE]
    strip = [float(f.min()) - alpha, float(f.max()) + alpha]
    out = []
    for x in range(system.n):
        prog = lp.LinearProgram.build(
            f, A, rels, np.concatenate([B[:, x], strip]), bounds=(-np.inf, np.inf)
        )
        res = lp.solve(prog)
        assert res.status == lp.OPTIMAL
        out.append(res.value)
    return np.array(out)


def kyfan_between_lp(system, x, y, z):
    """Strict Ky Fan betweenness by feasibility LP, the route
    ``kyfan_strictly_between`` took before its closed form.

    x fails the test iff some basis element phi has phi(x) <= phi(y),
    phi(x) <= phi(z) and phi(y) + phi(z) - 2 phi(x) >= 1 (the unit
    normalizes "not all equal" by homogeneity).
    """
    B = system.basis
    u = B[:, y] - B[:, x]
    v = B[:, z] - B[:, x]
    prog = lp.LinearProgram.build(
        np.zeros(system.d),
        np.vstack([-u, -v, u + v]),
        [lp.LE, lp.LE, lp.GE],
        np.array([0.0, 0.0, 1.0]),
        bounds=(-np.inf, np.inf),
    )
    return lp.feasible(prog) is None


def extreme_lp(system, S):
    """The distinct points S whose column is outside the hull of the other
    points' columns, by one membership LP per point: the route
    ``choquet_boundary`` and ``phi_extreme_points`` took before the hull
    oracle."""
    S, scales = np.asarray(S, dtype=int), measures.coefficient_scales(system)
    return tuple(int(x) for x in S if not measures._membership(system, x, S[S != x], scales)[0])


def trace_hull_lp(system, S, ambient=None):
    """One membership LP per point, the route ``trace_hull`` took before its
    witness-reusing oracle."""
    S = sets.as_point_set(S, system.n)
    scope = range(system.n) if ambient is None else sets.as_point_set(ambient, system.n)
    cols, scales = np.array(S), measures.coefficient_scales(system)
    return tuple(x for x in scope if x in S or measures._membership(system, x, cols, scales)[0])
