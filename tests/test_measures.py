import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from choquet import lp, measures, sets
from choquet._util import dumps
from choquet.convexify import biconjugate, realize_convex_trace
from choquet.errors import ConsistencyError, ValidationError
from choquet.generators import gen_cantor, gen_disk, gen_interval_affine, gen_naturals, gen_random
from choquet.maxprinciple import expose, random_spec
from choquet.space import FiniteSpace, FunctionSystem, evaluate, pair
from conftest import (biconjugate_lp, count_calls, count_lps, exact_margin, extreme_lp,
                      hat_positive_lp, is_vertex, no_wolfe)

GOLDEN = Path(__file__).parent / "golden"


def test_representing_measure_minimizing_self_mass(naturals4):
    system = naturals4.system
    obj = np.zeros(4)
    obj[1] = 1.0
    mu = measures.representing_measure(system, 1, obj)
    # an optimizer leaves no mass at the point itself; membership checked
    # by substitution
    assert mu.weights[1] == pytest.approx(0.0, abs=1e-9)
    assert system.basis @ mu.weights == pytest.approx(system.basis[:, 1], abs=1e-9)


def test_representing_measure_x3_support_forced(naturals4):
    system = naturals4.system
    obj = np.zeros(4)
    obj[2] = 1.0
    mu = measures.representing_measure(system, 2, obj)
    assert mu.weights[2] == pytest.approx(0.0, abs=1e-9)
    assert system.basis @ mu.weights == pytest.approx(system.basis[:, 2], abs=1e-9)
    # mass on {1, 4} solves t + (1-t)/4 = 1/3
    assert mu.weights[0] == pytest.approx(1 / 9, abs=1e-9)
    assert mu.weights[3] == pytest.approx(8 / 9, abs=1e-9)


def test_representing_measure_at_boundary_is_dirac(naturals4):
    mu = measures.representing_measure(naturals4.system, 0, np.zeros(4))
    assert mu.weights == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)


def test_representing_measure_checks_its_witness(monkeypatch, naturals4):
    # an engine point that misses column x never comes back as a measure
    solve = lp.solve

    def tampered(prog, *args, **kwargs):
        out = solve(prog, *args, **kwargs)
        return replace(out, point=np.eye(out.point.size)[0])

    monkeypatch.setattr(lp, "solve", tampered)
    with pytest.raises(ConsistencyError, match="misses it"):
        measures.representing_measure(naturals4.system, 1)


def test_key_interval_examples(naturals4):
    system = naturals4.system
    f = np.array([0.0, 1.0, 1.0, 0.0])
    iv = measures.key_interval(system, f, 1)
    assert iv.lo == pytest.approx(0.0, abs=1e-9)
    assert iv.hi == pytest.approx(1.0, abs=1e-9)
    # boundary point: the interval collapses to the value
    iv0 = measures.key_interval(system, f, 0)
    assert iv0.lo == pytest.approx(f[0], abs=1e-9)
    assert iv0.hi == pytest.approx(f[0], abs=1e-9)
    # basis elements are reproduced by every representing measure
    phi = system.basis.T @ np.array([0.3, -0.7])
    for x in range(4):
        iv = measures.key_interval(system, phi, x)
        assert iv.lo == pytest.approx(phi[x], abs=1e-9)
        assert iv.hi == pytest.approx(phi[x], abs=1e-9)


def test_key_interval_contains_value(naturals4):
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = rng.normal(size=4)
        for x in range(4):
            iv = measures.key_interval(naturals4.system, f, x)
            assert iv.lo - 1e-9 <= f[x] <= iv.hi + 1e-9


def test_is_boundary_naturals(naturals4):
    system = naturals4.system
    assert measures.is_boundary(system, 0) == (True, pytest.approx(1.0, abs=1e-9))
    flag, mass = measures.is_boundary(system, 1)
    assert not flag and mass == pytest.approx(0.0, abs=1e-9)


def test_is_boundary_interval_endpoint(interval5):
    flag, mass = measures.is_boundary(interval5.system, 0)
    assert flag and mass == pytest.approx(1.0, abs=1e-9)
    flag, _ = measures.is_boundary(interval5.system, 2)
    assert not flag


def test_is_vertex(naturals4):
    assert is_vertex(naturals4.system, 3)
    assert not is_vertex(naturals4.system, 2)


def test_single_point_space_is_vertex():
    system = FunctionSystem(FiniteSpace(("only",)), [[1.0]])
    assert is_vertex(system, 0)
    report = measures.choquet_boundary(system)
    assert report.boundary == (0,)


def test_choquet_boundary_naturals(naturals4):
    report = measures.choquet_boundary(naturals4.system)
    assert report.boundary == (0, 3)
    assert list(report.vertex) == [True, False, False, True]


def test_choquet_boundary_cantor_level1():
    inst = gen_cantor(1)
    report = measures.choquet_boundary(inst.system)
    mid = inst.system.space.labels.index("0.5")
    assert report.boundary == tuple(j for j in range(inst.system.n) if j != mid)


def test_choquet_boundary_full_span_is_everything():
    n = 6
    system = FunctionSystem(FiniteSpace(tuple(f"p{j}" for j in range(n))), np.eye(n))
    assert measures.choquet_boundary(system).boundary == tuple(range(n))


def test_dirac_always_feasible_on_random_systems():
    for seed in range(10):
        inst = gen_random(7, 3, seed=seed)
        for x in range(7):
            mu = measures.representing_measure(inst.system, x)
            assert mu.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_boundary_vertex_agreement_random():
    for seed in range(25):
        n = 4 + seed % 8
        inst = gen_random(n, 2 + seed % 3, seed=seed)
        report = measures.choquet_boundary(inst.system)  # raises on a failed witness
        assert report.boundary == inst.expected_boundary
        oracle = [is_vertex(inst.system, x) for x in range(n)]
        assert report.is_boundary.tolist() == oracle
        assert report.vertex.tolist() == oracle


def test_boundary_and_extreme_points_match_per_point_lp_oracle(naturals4, interval5, disk_small):
    # the hull oracle's verdicts depend on no reused witness: they equal one
    # LP per point against the rest, and HiGHS on the boundary
    rng = np.random.default_rng(9)
    systems = [gen_random(6 + 3 * k, 2 + k % 3, seed=900 + k).system for k in range(12)]
    systems += [naturals4.system, interval5.system, disk_small.system]
    systems += [gen_disk(24, 2, 8).system, gen_cantor(3).system, gen_interval_affine(60).system]
    for system in systems:
        n = system.n
        want = extreme_lp(system, range(n))
        assert measures.choquet_boundary(system).boundary == want
        if n <= 200:
            assert want == tuple(x for x in range(n) if is_vertex(system, x))
        for size in rng.integers(1, n + 1, size=4):
            S = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            assert sets.phi_extreme_points(system, S) == extreme_lp(system, S)


@pytest.mark.parametrize(
    "make",
    [lambda: gen_disk(64, 2, 8), lambda: gen_interval_affine(200)],
    ids=["disk(64,2,8)", "interval(200)"],
)
def test_boundary_solves_an_lp_only_on_a_miss(make, monkeypatch):
    # one LP per point, 193 and 200, before the boundary reused witnesses;
    # Wolfe's algorithm now settles every miss
    system = make().system
    system.require_valid()
    calls = count_lps(monkeypatch)
    measures.choquet_boundary(system)
    assert not calls


@pytest.mark.parametrize(
    "make, size",
    [(lambda: gen_cantor(3), 24), (lambda: gen_disk(32, 1, 8), 32)],
    ids=["cantor(3)", "disk(32,1,8)"],
)
def test_min_self_mass_solves_no_lp_on_the_screened_boundary(make, size, monkeypatch):
    # a single boundary point is screened too: one LP each before
    system = make().system
    boundary = measures.choquet_boundary(system).boundary
    assert len(boundary) == size
    calls = count_lps(monkeypatch)
    for x in boundary:
        assert measures.min_self_mass(system, x) == 1.0
    assert len(calls) == 0


def _cloud(seed, n, dim, sphere=False):
    """Seeded Gaussian cloud in ``dim`` dimensions, or its projection on the
    unit sphere, with the basis [1, coordinates]."""
    pts = np.random.default_rng(seed).normal(size=(n, dim))
    if sphere:
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    labels = tuple(f"p{j}" for j in range(n))
    return FunctionSystem(FiniteSpace(labels), np.vstack([np.ones(n), pts.T]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: (_cloud(1, 40, 2, sphere=True), tuple(range(40))),
        lambda: (gen_cantor(4).system, gen_cantor(4).expected_boundary),
        lambda: (gen_disk(128, 3, 12).system, tuple(range(128))),
    ],
    ids=["circle(40)", "cantor(4)", "disk(128,3,12)"],
)
def test_gram_screen_certifies_boundary_points_without_an_lp(make, monkeypatch):
    # the boundary took 40, 63 and 150 LPs before the screen, and 0, 15
    # and 22 before Wolfe's algorithm took the points it leaves open
    system, boundary = make()
    system.require_valid()
    calls = count_lps(monkeypatch)
    assert measures.choquet_boundary(system).boundary == boundary
    assert not calls


def test_gram_screen_edge_cases_fall_through_to_the_loop(naturals4):
    # one point: no other point to beat
    one = FunctionSystem(FiniteSpace(("only",)), [[1.0]])
    assert measures.choquet_boundary(one).boundary == (0,)
    # |S| = 1 and 2 among the points of a valid system
    system = naturals4.system
    for S in ([2], [1, 2], [0, 3]):
        assert sets.phi_extreme_points(system, S) == extreme_lp(system, S) == tuple(S)
    # an all-constant basis: no LP keeps a row, so there is no field, and
    # every column is in the hull of its copies
    flat = FunctionSystem(FiniteSpace(("a", "b", "c")), [[1.0] * 3, [2.0] * 3])
    every = np.arange(3)
    assert measures._hull_members(flat, every, every).all()
    assert extreme_lp(flat, every) == ()


def test_gram_screen_keeps_duplicated_points_members():
    # a circle point copied exactly and one copied 16 ulps further out: each
    # column is within rounding of its twin, so both twins stay members,
    # as the per-point LPs say
    circle = _cloud(1, 12, 2, sphere=True)
    B = circle.basis
    grow = 1.0 + 16 * np.finfo(float).eps
    nudged = B[:, 1] * np.array([1.0, grow, grow])
    labels = circle.space.labels + ("copy0", "near1")
    system = FunctionSystem(FiniteSpace(labels), np.column_stack([B, B[:, 0], nudged]))
    every = np.arange(system.n)
    outside = tuple(int(x) for x in np.flatnonzero(~measures._hull_members(system, every, every)))
    assert outside == extreme_lp(system, every) == tuple(range(2, 12))


def test_gram_screen_uses_only_rows_the_lps_keep():
    # the last row spans 5e-10 of its scale, so every LP drops it; on it
    # alone the centre sits above the circle, and whitened it would
    # certify the centre as extreme
    circle = _cloud(1, 12, 2, sphere=True)
    B = np.column_stack([circle.basis, [1.0, 0.0, 0.0]])
    B = np.vstack([B, np.append(np.ones(12), 1.0 + 5e-10)])
    system = FunctionSystem(FiniteSpace(circle.space.labels + ("centre",)), B)
    boundary = measures.choquet_boundary(system).boundary
    assert boundary == extreme_lp(system, range(13)) == tuple(range(12))


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_naturals(4),
        lambda: gen_cantor(3),
        lambda: gen_random(12, 3, seed=5),
        lambda: gen_random(20, 4, seed=6),
        lambda: gen_random(30, 5, seed=7),
    ],
    ids=["naturals(4)", "cantor(3)", "random(12,3)", "random(20,4)", "random(30,5)"],
)
def test_gram_screen_certificates_hold_exactly(make, monkeypatch):
    # independent of the 64 eps rounding bound: every field the screen
    # accepts beats the other columns at its point in rational arithmetic
    system = make().system
    B = system.basis
    Q = B[np.ptp(B, axis=1) > measures.CERT_TOL * measures.coefficient_scales(system)]
    ok, fields, _ = measures._gram_screen(Q, np.arange(system.n))
    assert ok.any()
    for x in np.flatnonzero(ok):
        assert exact_margin(Q, fields[:, x], x) > 0
    # the odd points against the even ones, S
    S, out = Q[:, 0::2], Q[:, 1::2]
    ok, fields, _ = measures._gram_screen(np.hstack([S, out]), np.arange(out.shape[1]) + S.shape[1],
                                          S.shape[1])
    assert ok.any()
    for i in np.flatnonzero(ok):
        assert exact_margin(np.column_stack([S, out[:, i]]), fields[:, i], S.shape[1]) > 0
    # so does every field of Wolfe's algorithm that its check accepts, at
    # every point the screen is made to leave open: the boundary, and the
    # odd points against the even ones.  A point that reached no LP got
    # Wolfe's witness
    lps, wolfe_fields, decide = count_lps(monkeypatch), [], measures._decide

    def recording(system, x, rest, rows, frame, own):
        before = len(lps)
        member, witness = decide(system, x, rest, rows, frame, own)
        if not member and len(lps) == before:
            wolfe_fields.append((x, rest, witness[0]))
        return member, witness

    monkeypatch.setattr(measures, "_decide", recording)
    monkeypatch.setattr(measures, "_beats", lambda Q, at, m, C: np.zeros(at.size, dtype=bool))
    every, even = np.arange(system.n), np.arange(0, system.n, 2)
    measures._hull_members(system, every, every)
    measures._hull_members(system, even, np.arange(1, system.n, 2))
    assert wolfe_fields
    for x, rest, c in wolfe_fields:
        assert exact_margin(np.column_stack([B[:, rest], B[:, x]]), c, rest.size) > 0


@pytest.mark.parametrize(
    "name, make",
    [
        ("naturals4", lambda: gen_naturals(4)),
        ("interval101", lambda: gen_interval_affine(101)),
        ("cantor2", lambda: gen_cantor(2)),
        ("disk64_2_8", lambda: gen_disk(n_circle=64, n_interior_rings=2, degree=8)),
    ],
)
def test_boundary_report_matches_golden(name, make):
    system = make().system
    text = dumps(measures.choquet_boundary(system).to_dict(system))
    assert text == (GOLDEN / f"boundary_{name}.json").read_text(encoding="utf-8")


def test_witnesses_check_by_evaluation(naturals4):
    system = naturals4.system
    B = system.basis
    for x in range(system.n):
        rest = np.arange(system.n) != x
        member, w = measures._membership(system, x, rest)
        if member:
            assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
            assert B[:, rest] @ w == pytest.approx(B[:, x], abs=1e-9)
        else:
            phi = evaluate(system, expose(system, x))
            assert phi[x] == pytest.approx(1.0, abs=1e-9)
            assert np.delete(phi, x).max() <= 1e-9


def test_exposing_dual_on_degenerate_vertices():
    # the self-mass LPs of these vertices start on a highly degenerate
    # basis and must not end on a numerically singular one, whose dual
    # exposes nothing
    system = gen_disk(n_circle=128, n_interior_rings=3, degree=12).system
    for label in ("circ107", "circ108"):
        x = system.space.index(label)
        assert not measures._membership(system, x, np.arange(system.n) != x)[0]
        phi = evaluate(system, expose(system, x))
        assert phi[x] == pytest.approx(1.0, abs=1e-9)
        assert np.delete(phi, x).max() <= 1e-9


def _tampered_solve(monkeypatch, corrupt):
    # hull questions must reach the LP, so Wolfe's algorithm proposes nothing
    no_wolfe(monkeypatch)
    solve = lp.solve

    def bad_solve(prog, *args, **kwargs):
        return corrupt(solve(prog, *args, **kwargs))

    monkeypatch.setattr(lp, "solve", bad_solve)


def test_corrupted_dual_is_caught(monkeypatch):
    # the Gram screen leaves vertices of this Gaussian cloud to their own
    # LPs: the first one's negated dual field separates it the wrong way
    system = _cloud(0, 40, 3)
    _tampered_solve(monkeypatch, lambda out: replace(out, dual_point=-out.dual_point))
    with pytest.raises(ConsistencyError, match="dual field separates it by -"):
        measures.choquet_boundary(system)


@pytest.mark.parametrize("point", [np.full(4, 1 / 4), np.eye(4)[0]], ids=["uniform", "dirac"])
def test_corrupted_measure_is_caught(naturals4, monkeypatch, point):
    # point 1 (label "2") is interior, so its witness is weights on the
    # other three points: the self-mass LP's point on them, renormalized,
    # which for these two points misses its column
    _tampered_solve(monkeypatch, lambda out: replace(out, point=point))
    with pytest.raises(ConsistencyError, match="weights on the set miss it"):
        measures.min_self_mass(naturals4.system, 1)


def test_key_interval_of_a_1e308_affine_field_is_exact():
    # the cold least-pairing LP's dual overflowed on this finite field, and
    # its NaN minorant once passed the bracket and gave an interval.  This
    # field is affine in the cantor(2) basis, and from the crash basis the
    # LPs of the interior point 3 stay in range: both ends are the exact
    # value 1e308 f(3), checked by the bracket.  A field whose witnesses do
    # overflow is still an input error
    # (``test_convexify.py::test_overflowing_field_is_an_input_error``)
    system = gen_cantor(2).system
    f = 1e308 * np.linspace(-1, 1, system.n)
    assert not measures.choquet_boundary(system).is_boundary[3]
    iv = measures.key_interval(system, f, 3)
    assert (iv.lo, iv.hi) == (f[3], f[3])


@pytest.mark.parametrize("at", ["x", "elsewhere"])
def test_nan_minorant_fails_the_bracket(naturals4, at):
    # the zero minorant passes with this measure; a NaN anywhere in it fails
    system, f = naturals4.system, np.array([0.0, 1.0, 1.0, 0.0])
    phi = np.zeros((4, 2))
    phi[1 if at == "x" else 3, 1] = np.nan
    mu = np.tile([[1 / 3], [0.0], [0.0], [2 / 3]], 2)
    assert measures._bracket(system, f, np.array([1, 1]), mu, phi)[1].tolist() == [True, False]


def test_bracket_on_a_block_matches_one_column_calls():
    # every column is checked on its own: LP witnesses, Dirac masses with
    # the zero minorant, and columns that miss, disagree or hold a NaN
    for system in (gen_naturals(4).system, gen_cantor(3).system, gen_disk(32, 1, 8).system,
                   gen_interval_affine(60).system):
        n, f = system.n, _noisy_convex_field(system, 1)
        X = np.arange(n)
        pairs = [measures._least_pairing(system, f, x)[1:3] for x in X]
        mus = [np.column_stack([mu for mu, _ in pairs]), np.eye(n),
               np.full((n, n), 1.0 / n)]
        phis = [np.column_stack([phi for _, phi in pairs]), np.zeros((n, n)),
                np.column_stack([phi for _, phi in pairs]) - 1.0]
        Mu, Phi = np.hstack(mus * 3), np.hstack(phis + phis[::-1] + phis[1:] + phis[:1])
        Mu[0, ::5] = np.nan
        Phi[n - 1, ::7] = np.nan
        X = np.tile(X, 9)
        block, ok = measures._bracket(system, f, X, Mu, Phi)
        assert 0 < ok.sum() < ok.size
        for k in range(X.size):
            one, one_ok = measures._bracket(system, f, X[[k]], Mu[:, [k]], Phi[:, [k]])
            assert one_ok.tolist() == [ok[k]]
            assert one.tobytes() == block[:, [k]].tobytes()


@pytest.fixture(scope="module")
def seed_2_disk_field():
    """The seed-2 convex-trace field on disk(128,3,12)."""
    system = gen_disk(128, 3, 12).system
    return system, realize_convex_trace(system, random_spec(system, np.random.default_rng(2)))


@pytest.mark.parametrize("label", ["ring2_087", "ring3_081"])
def test_key_interval_on_the_seed_2_disk_field(label, seed_2_disk_field):
    # the lower-end LP used to stop with least reduced cost -8.001e-08 at
    # ring2_087 and with duality gap 3.033e-04 at ring3_081.  Neither is a
    # cycle: at ring2_087 the tableau's reduced costs had drifted from the
    # refactorized ones, and at ring3_081 a basic value of -7.2e-05 never
    # left the basis, because the ratio test clips negative basics to 0.
    # lp repairs both from the failed basis.
    system, f = seed_2_disk_field
    x = system.space.index(label)
    iv = measures.key_interval(system, f, x)
    assert iv.lo < iv.hi
    tol = measures.AGREE_TOL * (1.0 + np.abs(f).max())
    assert abs(iv.lo - biconjugate_lp(system, f, [x])[0]) <= tol


def test_every_key_interval_on_the_seed_2_disk_field(seed_2_disk_field):
    # the most degenerate LP set the package solves: each of the 513 lower
    # ends starts at its Dirac vertex, so a cycle of Dantzig's rule would
    # show here first.  Every key interval completes, its lower end is the
    # biconjugate's value there and its upper end -(-f)**'s
    system, f = seed_2_disk_field
    ivs = [measures.key_interval(system, f, x) for x in range(system.n)]
    tol = measures.AGREE_TOL * (1.0 + np.abs(f).max())
    assert np.abs(np.array([iv.lo for iv in ivs]) - biconjugate(system, f)).max() <= tol
    assert np.abs(np.array([iv.hi for iv in ivs]) + biconjugate(system, -f)).max() <= tol


def test_hull_members_fits_nothing_once_no_point_is_open(naturals4, monkeypatch):
    # Wolfe's weights put interior point 1 in the hull of the others; no
    # open point is left for their support to represent
    system, lstsq, calls = naturals4.system, np.linalg.lstsq, []
    system.validate()
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    assert measures.min_self_mass(system, 1) == 0.0
    assert calls == []


def test_key_interval_monotone_in_basis():
    rng = np.random.default_rng(11)
    for seed in range(8):
        inst = gen_random(8, 2, seed=seed)
        system = inst.system
        bigger = FunctionSystem(
            system.space, np.vstack([system.basis, rng.normal(size=(1, 8))])
        )
        f = rng.normal(size=8)
        for x in range(8):
            small = measures.key_interval(system, f, x)
            large = measures.key_interval(bigger, f, x)
            assert large.lo >= small.lo - 1e-7
            assert large.hi <= small.hi + 1e-7


def test_key_interval_shift_by_basis_element(naturals4):
    system = naturals4.system
    rng = np.random.default_rng(3)
    f = rng.normal(size=4)
    phi = system.basis.T @ np.array([0.4, -1.1])
    for x in range(4):
        base = measures.key_interval(system, f, x)
        shifted = measures.key_interval(system, f + phi, x)
        assert shifted.lo == pytest.approx(base.lo + phi[x], abs=1e-7)
        assert shifted.hi == pytest.approx(base.hi + phi[x], abs=1e-7)


def test_point_index_validation(naturals4):
    with pytest.raises(ValidationError):
        measures.is_boundary(naturals4.system, 4)
    with pytest.raises(ValidationError):
        measures.key_interval(naturals4.system, np.zeros(4), -1)


def test_interval_generator_output_validates():
    inst = gen_interval_affine(31)
    assert inst.system.validate().ok
    mu = measures.representing_measure(inst.system, 15, np.eye(31)[15])
    # interior grid point: mass moves to the endpoints
    assert mu.weights[15] == pytest.approx(0.0, abs=1e-9)
    assert pair(mu, np.linspace(0, 1, 31)) == pytest.approx(0.5, abs=1e-9)


def test_disk_200_3_10_boundary_is_the_circle():
    # the self-mass LP of circ017 used to return a point that failed the
    # primal check by relative 1.44e-9
    report = measures.choquet_boundary(gen_disk(200, 3, 10).system)
    assert report.boundary == tuple(range(200))


@pytest.mark.parametrize("label", ["circ109", "circ115"])
def test_key_interval_on_disk_matches_highs(label):
    # the measure-side LP with the redundant ones row cycled to the
    # iteration limit at these two points
    system = gen_disk(n_circle=128, n_interior_rings=3, degree=12).system
    rng = np.random.default_rng(101)
    pieces = [(rng.normal(size=system.d), rng.normal()) for _ in range(4)]
    f = np.max([system.basis.T @ a + b for a, b in pieces], axis=0)
    x = system.space.index(label)
    A = np.vstack([system.basis, np.ones((1, system.n))])
    rhs = np.append(system.basis[:, x], 1.0)
    lo = linprog(f, A_eq=A, b_eq=rhs, method="highs").fun
    hi = -linprog(-f, A_eq=A, b_eq=rhs, method="highs").fun
    iv = measures.key_interval(system, f, x)
    bound = 1e-9 * (1.0 + np.abs(f).max())
    assert abs(iv.lo - lo) <= bound and abs(iv.hi - hi) <= bound


def _noisy_convex_field(system, seed):
    """A max of four affine fields plus uniform noise in [0.05, 0.25]."""
    rng = np.random.default_rng(seed)
    f = np.max([system.basis.T @ rng.normal(size=system.d) + rng.normal() for _ in range(4)],
               axis=0)
    return f + rng.uniform(0.05, 0.25, size=system.n)


_SCREENED = pytest.mark.parametrize(
    "make", [lambda: gen_cantor(3), lambda: gen_disk(32, 1, 8)], ids=["cantor(3)", "disk(32,1,8)"]
)


@_SCREENED
@pytest.mark.parametrize("seed", [1, 2])
def test_key_interval_needs_no_lp_on_the_screened_boundary(make, seed, monkeypatch):
    # the screen certifies every boundary point of both systems: there both
    # ends are f(x) exactly; elsewhere the upper end starts from the lower
    # end's basis; every LP gets a basis, so none runs a phase 1
    system = make().system
    f = _noisy_convex_field(system, seed)
    lo, hi = hat_positive_lp(system, f), -hat_positive_lp(system, -f)
    bound = 1e-11 * (1.0 + np.abs(f).max())
    boundary = measures.choquet_boundary(system).is_boundary
    lps, crashes = count_lps(monkeypatch), count_calls(monkeypatch, "_crash")
    for x in range(system.n):
        lps.clear(), crashes.clear()
        iv = measures.key_interval(system, f, x)
        if boundary[x]:
            assert (len(lps), iv.lo, iv.hi) == (0, f[x], f[x])
        else:
            assert len(lps) == 2 and iv.lo < iv.hi
            # the lower end starts at the crash basis, the upper end at the
            # lower end's optimal basis
            assert len(crashes) == 1 and lps[1][1] is not None
        assert abs(iv.lo - lo[x]) <= bound and abs(iv.hi - hi[x]) <= bound


def test_dumped_key_interval_lps_replay_from_their_bases(tmp_path):
    # every record carries the basis its LP started from: the lower end's
    # crash basis, and the lower end's optimal basis for the upper end.
    # Solved again from it, each gives the same outcome, bit for bit
    path = tmp_path / "lps.jsonl"
    lp.set_dump_path(str(path))
    try:
        for system in (gen_disk(32, 1, 8).system, gen_cantor(3).system):
            rng = np.random.default_rng(1)
            f = realize_convex_trace(system, random_spec(system, rng))
            f = f + 0.05 * rng.standard_normal(system.n)
            for x in range(system.n):
                measures.key_interval(system, f, x)
    finally:
        lp.set_dump_path(None)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 80 and all("basis" in rec for rec in records)
    for rec in records:
        out = lp.solve(lp.LinearProgram.from_dict(rec["lp"]), rec["basis"])
        assert out.status == rec["status"] == lp.OPTIMAL and out.value == rec["value"]


def test_lying_screen_falls_back_to_the_lps(monkeypatch):
    # the screen claims every point, a ring point too, with the raw Gram
    # field of circ000, which is largest at circ000: the closed form must
    # not be taken.  ``want`` caches the true screen on ``system``, so the
    # lying call runs on a fresh copy of it
    system = gen_disk(32, 1, 8).system
    f = _noisy_convex_field(system, 1)
    x = system.space.index("ring1_005")
    want = measures.key_interval(system, f, x)
    monkeypatch.setattr(measures, "_gram_screen", lambda Q, at: (
        np.ones(at.size, dtype=bool), Q[:, np.zeros(at.size, dtype=int)], None))
    lps = count_lps(monkeypatch)
    got = measures.key_interval(FunctionSystem(system.space, system.basis), f, x)
    assert len(lps) == 2
    assert (got.lo, got.hi) == (want.lo, want.hi) and got.lo < got.hi


def test_failed_closed_form_check_falls_back_to_the_lps(naturals4, monkeypatch):
    # the first agreement check is the closed form's of f at boundary point
    # 0; once its column fails, the point gets both LPs and their own
    # checks: two closed-form agreement checks, one per field, then one in
    # each LP's bracket
    agree, calls = measures._agree, []

    def first_fails(*args):
        calls.append(args)
        phi, ok = agree(*args)
        return phi, ok & (len(calls) > 1)

    monkeypatch.setattr(measures, "_agree", first_fails)
    lps = count_lps(monkeypatch)
    iv = measures.key_interval(naturals4.system, np.array([0.5, 1.0, 1.0, 0.0]), 0)
    assert (len(lps), len(calls)) == (2, 4)
    assert iv.lo == pytest.approx(0.5, abs=1e-12) and iv.hi == pytest.approx(0.5, abs=1e-12)


def test_failed_dirac_measure_check_falls_back_to_the_lps(naturals4, monkeypatch):
    # the closed form checks its Dirac mass once for both fields, and that
    # is the key interval's first backward error: once it fails, the point
    # gets both LPs
    error, calls = lp.backward_error, []

    def first_fails(*args):
        calls.append(args)
        miss = error(*args)
        return miss if len(calls) > 1 else np.full_like(miss, np.inf)

    monkeypatch.setattr(lp, "backward_error", first_fails)
    lps = count_lps(monkeypatch)
    iv = measures.key_interval(naturals4.system, np.array([0.5, 1.0, 1.0, 0.0]), 0)
    assert len(lps) == 2 and np.array_equal(calls[0][1], np.eye(4)[:, [0]])
    assert iv.lo == pytest.approx(0.5, abs=1e-12) and iv.hi == pytest.approx(0.5, abs=1e-12)


def test_representing_measure_is_the_dirac_mass_on_the_screened_boundary(monkeypatch):
    system = gen_cantor(3).system
    boundary = measures.choquet_boundary(system).is_boundary
    g = _noisy_convex_field(system, 3)
    lps = count_lps(monkeypatch)
    for x in np.flatnonzero(boundary):
        for objective in (None, g):
            mu = measures.representing_measure(system, x, objective)
            assert np.array_equal(mu.weights, np.eye(system.n)[x])
    assert len(lps) == 0
    monkeypatch.undo()
    # off the boundary the measure is the LP's, as before
    B, scales = system.basis, measures.coefficient_scales(system)
    for x in np.flatnonzero(~boundary):
        for objective in (np.zeros(system.n), g):
            prog = measures._measure_program(B, B[:, x], scales, objective)[0]
            out = lp.solve(prog, lp._crash(prog.constraint_matrix, [x]))
            mu = measures.representing_measure(system, x, objective)
            assert np.array_equal(mu.weights, np.maximum(out.point, 0.0))
