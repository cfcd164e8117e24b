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


def _highs_value(c, **constraints):
    """Optimal value of min c.x by HiGHS; the program must have one."""
    res = linprog(c, method="highs", **constraints)
    assert res.status == 0, res.message
    return res.fun


def biconjugate_lp(system, f):
    """Per-point envelope LP, the route ``biconjugate`` took before its sweep,
    asked of HiGHS: at every point x, maximize phi(x) over coefficients c
    with B'c <= f."""
    B = system.basis
    return np.array([-_highs_value(-B[:, x], A_ub=B.T, b_ub=f, bounds=(None, None))
                     for x in range(system.n)])


def hat_positive_lp(system, f):
    """Measure-side route: the least pairing <mu, f> over representing measures."""
    out = []
    for x in range(system.n):
        res = lp.solve(measures._mx_program(system, x, f))
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
