import dataclasses
import json

import numpy as np
import pytest

from choquet import convexify, lp, measures
from choquet.convexify import ConvexTraceSpec
from choquet.errors import ConsistencyError, ValidationError
from choquet.generators import (
    gen_cantor,
    gen_disk,
    gen_interval_affine,
    gen_naturals,
    gen_random,
)
from choquet.maxprinciple import random_spec
from choquet.space import FunctionSystem
from conftest import (
    basis_change,
    biconjugate_lp,
    count_calls,
    count_lps,
    hat_positive_lp,
    hat_signed_lp,
    invariance_systems,
    lower_convex_envelope_1d,
    relabeling,
    row_changes,
)


def _convex_field(rng, system, pieces=4):
    """Max of random affine functionals of the embedded points."""
    vals = [system.basis.T @ rng.normal(size=system.d) + rng.normal() for _ in range(pieces)]
    return np.max(vals, axis=0)


def _random_systems(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(4, 13))
        out.append(gen_random(n, min(int(rng.integers(2, 5)), n), seed=seed + i).system)
    return out


def test_phi_conjugate_examples(naturals4):
    system = naturals4.system
    f = np.array([0.0, 1.0, 1.0, 0.0])
    assert convexify.phi_conjugate(system, f, [0.0, 0.0]) == pytest.approx(0.0)  # -min f
    assert convexify.phi_conjugate(system, f, [0.0, 1.0]) == pytest.approx(1.0)
    phi = np.array([0.2, -0.5])
    vals = system.basis.T @ phi
    assert convexify.phi_conjugate(system, vals, phi) == pytest.approx(0.0, abs=1e-12)


def test_biconjugate_naturals_zero_envelope(naturals4):
    f = np.array([0.0, 1.0, 1.0, 0.0])
    assert convexify.biconjugate(naturals4.system, f) == pytest.approx([0.0] * 4, abs=1e-9)


def test_biconjugate_interval_chord():
    inst = gen_interval_affine(21)
    t = np.linspace(0, 1, 21)
    f = -(t**2)
    # the convex envelope of a concave function is the chord
    assert convexify.biconjugate(inst.system, f) == pytest.approx(-t, abs=1e-9)


def test_biconjugate_fixes_basis_elements(naturals4):
    phi = naturals4.system.basis.T @ np.array([1.0, -2.0])
    assert convexify.biconjugate(naturals4.system, phi) == pytest.approx(phi, abs=1e-9)


def test_biconjugate_matches_envelope_oracle(naturals4):
    # independent oracle: classical lower convex envelope in the embedded
    # coordinate (the basis spans 1 and that coordinate)
    rng = np.random.default_rng(8)
    q = naturals4.system.basis[1]
    for _ in range(12):
        f = rng.normal(size=4)
        expect = lower_convex_envelope_1d(q, f)
        got = convexify.biconjugate(naturals4.system, f)
        assert got == pytest.approx(expect, abs=1e-8)


def test_is_choquet_convex_examples():
    inst = gen_interval_affine(21)
    t = np.linspace(0, 1, 21)
    assert convexify.is_choquet_convex(inst.system, t**2)
    assert not convexify.is_choquet_convex(inst.system, -(t**2))
    phi = inst.system.basis.T @ np.array([2.0, -3.0])
    assert convexify.is_choquet_convex(inst.system, phi)
    # the envelope gap of -t^2 is 1/4 at t = 1/2
    gap = convexify.convexity_gap(inst.system, -(t**2))
    assert gap == pytest.approx(0.25, abs=1e-6)


def test_hat_positive_equals_biconjugate(naturals4):
    rng = np.random.default_rng(2)
    for _ in range(6):
        f = rng.normal(size=4)
        a = convexify.hat_positive(naturals4.system, f)
        b = convexify.biconjugate(naturals4.system, f)
        assert a == pytest.approx(b, abs=1e-7)
        assert a == pytest.approx(hat_positive_lp(naturals4.system, f), abs=1e-9)


def test_sweep_matches_per_point_lp_oracles():
    systems = [
        gen_naturals(4).system,
        gen_cantor(3).system,
        gen_disk(32, 1, 8).system,
        gen_interval_affine(60).system,
    ] + _random_systems(20, 50_000)
    rng = np.random.default_rng(2024)
    for system in systems:
        f = _convex_field(rng, system)
        fields = {
            "convex": f,
            "noisy": f + rng.uniform(0.05, 0.25, size=system.n),
            "basis": system.basis.T @ rng.normal(size=system.d),
        }
        for name, g in fields.items():
            got = convexify.biconjugate(system, g)
            tol = 1e-9 * (1.0 + np.abs(g).max())
            assert np.abs(got - biconjugate_lp(system, g)).max() <= tol, name
            assert np.abs(got - hat_positive_lp(system, g)).max() <= tol, name
            if name != "noisy":
                assert np.abs(got - g).max() <= tol, name


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["disk32", "cantor3"])
def test_warm_sweep_matches_the_oracle_with_one_crash(name, seed, monkeypatch):
    # every LP of the sweep starts at a Dirac vertex: its first at the crash
    # basis, each later one from the previous LP's optimal basis, so every
    # lp.solve call gets a basis (phase 1, which ran once per LP on the cold
    # route, is gone).  On cantor(3) the boundary takes the closed form and
    # one LP the rest
    system = gen_disk(32, 1, 8).system if name == "disk32" else gen_cantor(3).system
    rng = np.random.default_rng(seed)
    f = convexify.realize_convex_trace(system, random_spec(system, rng))
    for g in (f, f + 0.05 * rng.normal(size=system.n)):
        lps, crashes = count_lps(monkeypatch), count_calls(monkeypatch, "_crash")
        got = convexify.biconjugate(system, g)
        monkeypatch.undo()
        assert all(args[1] is not None for args in lps) and len(crashes) == min(len(lps), 1)
        assert name == "disk32" or len(lps) <= 1
        tol = measures.AGREE_TOL * (1.0 + np.abs(g).max())
        assert np.abs(got - hat_positive_lp(system, g)).max() <= tol


def _sweep_starts(monkeypatch):
    """Record the point of every least-pairing LP the sweep solves from here on."""
    starts, pairing = [], convexify._least_pairing

    def recording(system, g, x, start=None):
        starts.append(x)
        return pairing(system, g, x, start)

    monkeypatch.setattr(convexify, "_least_pairing", recording)
    return starts


def test_batched_dirac_values_match_one_point_calls_and_skip_the_boundary(monkeypatch):
    # the system's one cached screen is the same, bit for bit, whatever
    # order fills it: all points at once, one at a time ascending or
    # descending, or two halves; each order gives the same boundary.  It
    # certifies exactly the points an uncached one-point screen certifies,
    # batched and one-point calls agree, and the sweep solves no LP at a
    # certified point.  The screen certifies every boundary point of the
    # named systems; on some random ones it leaves a boundary point open,
    # which then takes an LP
    named = [gen_naturals(4).system, gen_cantor(3).system, gen_disk(32, 1, 8).system,
             gen_interval_affine(60).system]
    rng = np.random.default_rng(2026)
    for k, system in enumerate(named + _random_systems(20, 70_000)):
        every = np.arange(system.n)
        filled = []
        for order in ([every], every[:, None], every[::-1, None], np.array_split(every, 2)):
            copy = FunctionSystem(system.space, system.basis)
            for points in order:
                measures._pairing(copy, points)
            ctx = measures._pairing(copy)
            assert ctx.screened.all()
            boundary = measures.choquet_boundary(copy).is_boundary
            filled.append((ctx.ok.tobytes(), ctx.fields.tobytes(), boundary.tobytes()))
        assert len(set(filled)) == 1
        B = system.basis
        Q = B[measures._kept_rows(B, B[:, 0], measures.coefficient_scales(system))]
        alone = [measures._gram_screen(Q, np.array([x]))[0][0] for x in range(system.n)]
        assert np.array_equal(ctx.ok, alone)
        f = _convex_field(rng, system)
        for g in (f, f + rng.uniform(0.05, 0.25, size=system.n)):
            for fields in [(g,), (g, -g)]:
                batch = measures._dirac_values(system, fields, np.arange(system.n))
                one = [measures._dirac_values(system, fields, [x])[0] for x in range(system.n)]
                assert np.array_equal(batch, one)
            dirac = measures._dirac_values(system, (g,), np.arange(system.n))
            starts = _sweep_starts(monkeypatch)
            got = convexify.biconjugate(system, g)
            monkeypatch.undo()
            assert not dirac[starts].any()
            if k < len(named):
                assert dirac[boundary].all() and not boundary[starts].any()
            tol = measures.AGREE_TOL * (1.0 + np.abs(g).max())
            assert np.abs(got - biconjugate_lp(system, g)).max() <= tol


def test_lying_screen_sends_the_sweep_to_the_lps(monkeypatch):
    # the screen claims every point with the raw Gram field of circ000,
    # which is largest at circ000: only circ000 may take the closed form.
    # ``want`` caches the true screen on ``system``, so the lying sweep
    # runs on a fresh copy of it
    system = gen_disk(32, 1, 8).system
    rng = np.random.default_rng(1)
    g = _convex_field(rng, system) + rng.uniform(0.05, 0.25, size=system.n)
    want = convexify.biconjugate(system, g)
    boundary = measures.choquet_boundary(system).is_boundary
    monkeypatch.setattr(measures, "_gram_screen", lambda Q, at: (
        np.ones(at.size, dtype=bool), Q[:, np.zeros(at.size, dtype=int)], None))
    starts = _sweep_starts(monkeypatch)
    got = convexify.biconjugate(FunctionSystem(system.space, system.basis), g)
    assert 0 not in starts and boundary[starts].any()
    assert np.abs(got - want).max() <= measures.AGREE_TOL * (1.0 + np.abs(g).max())


def _count_screens(monkeypatch):
    """Record the arguments of every ``measures._gram_screen`` call from here on."""
    screens, screen = [], measures._gram_screen
    monkeypatch.setattr(measures, "_gram_screen", lambda *args: screens.append(args) or screen(*args))
    return screens


def test_validation_builds_no_pairing_context(monkeypatch):
    # every benchmark set-up and CLI run validates its system: that screens
    # nothing, and the context waits for the first value that needs it
    system = gen_disk(32, 1, 8).system
    screens = _count_screens(monkeypatch)
    system.require_valid()
    assert not screens and not hasattr(system, "_pairing_context")


def test_one_screen_serves_every_value_on_a_system(monkeypatch):
    # a sweep, a convexity test and ten key intervals, on the boundary and
    # off it, share the system's one screen of all points
    system = gen_disk(32, 1, 8).system
    rng = np.random.default_rng(3)
    g = _convex_field(rng, system) + rng.uniform(0.05, 0.25, size=system.n)
    screens = _count_screens(monkeypatch)
    convexify.biconjugate(system, g)
    convexify.is_choquet_convex(system, g)
    for x in range(0, system.n, 7):
        measures.key_interval(system, g, x)
    assert len(screens) == 1


@pytest.mark.parametrize("first", ["key_interval", "representing_measure"])
def test_a_lone_value_screens_only_its_point(first, monkeypatch):
    # a fresh system's first value at a boundary point screens that one
    # column and takes the closed form; the boundary then screens the
    # other n - 1 points, and no later value, boundary verdict or sweep
    # screens a point again
    system = gen_disk(256, 4, 8).system
    x = system.space.index("circ005")
    f = system.basis.T @ np.random.default_rng(5).normal(size=system.d)
    screens, lps = _count_screens(monkeypatch), count_lps(monkeypatch)
    if first == "key_interval":
        assert measures.key_interval(system, f, x) == measures.KeyInterval(f[x], f[x])
    else:
        assert measures.representing_measure(system, x).weights[x] == 1.0
    assert not lps and [args[1].tolist() for args in screens] == [[x]]
    measures.choquet_boundary(system)
    assert [args[1].size for args in screens] == [1, system.n - 1]
    convexify.biconjugate(system, f)
    for y in (x, 7, 300, 1000):
        measures.min_self_mass(system, y)
        measures.key_interval(system, f, y)
        measures.representing_measure(system, y)
    assert len(screens) == 2
    screened = np.concatenate([args[1] for args in screens])
    assert np.array_equal(np.sort(screened), np.arange(system.n))


def test_convexity_test_stops_early_with_the_gap_verdict(monkeypatch):
    # is_choquet_convex stops at the first value more than tol below f, and
    # agrees with the full sweep's gap at every tolerance
    rng = np.random.default_rng(31)
    systems = [gen_cantor(3).system, gen_disk(32, 1, 8).system,
               gen_interval_affine(200).system] + _random_systems(10, 80_000)
    for system in systems:
        f = convexify.realize_convex_trace(system, random_spec(system, rng))
        fields = [f, f + rng.uniform(0.05, 0.25, size=system.n),
                  system.basis.T @ rng.normal(size=system.d)]
        for g in fields:
            gap = convexify.convexity_gap(system, g)
            for tol in (0.0, 1e-7, 1.0):
                assert convexify.is_choquet_convex(system, g, tol) == (gap <= tol)
    system = gen_disk(32, 1, 8).system
    rng = np.random.default_rng(1)
    noisy = _convex_field(rng, system) + rng.uniform(0.05, 0.25, size=system.n)
    lps = count_lps(monkeypatch)
    convexify.biconjugate(system, noisy)
    full = len(lps)
    lps.clear()
    assert not convexify.is_choquet_convex(system, noisy)
    assert len(lps) < full
    with pytest.raises(ValidationError):
        convexify.sup_family(system, [noisy])


def test_dumped_sweep_lps_replay_from_their_bases(tmp_path):
    # every LP of a sweep records the Dirac start it was solved from, and
    # solved again from it gives the same outcome, bit for bit
    system = gen_disk(32, 1, 8).system
    f = _convex_field(np.random.default_rng(1), system)
    path = tmp_path / "lps.jsonl"
    lp.set_dump_path(str(path))
    try:
        convexify.biconjugate(system, f)
    finally:
        lp.set_dump_path(None)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) > 1 and all("basis" in rec for rec in records)
    for rec in records:
        out = lp.solve(lp.LinearProgram.from_dict(rec["lp"]), rec["basis"])
        assert out.status == rec["status"] == lp.OPTIMAL and out.value == rec["value"]


def test_noisy_interval_takes_one_lp_per_envelope_edge(monkeypatch):
    # the envelope of a noisy field on a grid is the lower hull of its
    # graph; the sweep solves one LP per hull edge it reaches, and the cone
    # rule certifies every grid point between the edge's endpoints
    system = gen_interval_affine(200).system
    q = system.basis[1]
    calls = count_lps(monkeypatch)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f = _convex_field(rng, system) + rng.uniform(0.05, 0.25, size=system.n)
        hull = _lower_hull(q, f)
        calls.clear()
        got = convexify.biconjugate(system, f)
        assert len(calls) <= len(hull) - 1
        assert got == pytest.approx(np.interp(q, q[hull], f[hull]), abs=1e-9)


def _lower_hull(q, f):
    """Vertices of the lower convex hull of the points (q_j, f_j), by q."""
    hull = []
    for j in np.argsort(q, kind="stable"):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (q[b] - q[a]) * (f[j] - f[a]) - (f[b] - f[a]) * (q[j] - q[a]) > 0:
                break
            hull.pop()
        hull.append(j)
    return np.array(hull)


def test_convex_field_on_cantor_takes_fewer_lps_than_points(monkeypatch):
    system = gen_cantor(3).system
    calls = count_lps(monkeypatch)
    for seed in range(10):
        f = _convex_field(np.random.default_rng(seed), system)
        calls.clear()
        assert convexify.is_choquet_convex(system, f)
        assert len(calls) < system.n


@pytest.mark.parametrize("field", ["point", "dual_point"])
def test_corrupted_envelope_witness_raises(monkeypatch, field):
    system = gen_interval_affine(21).system
    t = np.linspace(0, 1, 21)
    solve = lp.solve

    def corrupted(prog, *args, **kwargs):
        out = solve(prog, *args, **kwargs)
        value = getattr(out, field)
        return dataclasses.replace(out, **{field: value + np.linspace(0.1, 0.3, value.shape[0])})

    monkeypatch.setattr(lp, "solve", corrupted)
    with pytest.raises(ConsistencyError):
        convexify.biconjugate(system, -(t**2))


@pytest.mark.parametrize("field", ["point", "dual_point"])
def test_corrupted_key_interval_witness_raises(monkeypatch, field):
    system = gen_interval_affine(21).system
    t = np.linspace(0, 1, 21)
    solve = lp.solve

    def corrupted(prog, *args, **kwargs):
        out = solve(prog, *args, **kwargs)
        value = getattr(out, field)
        return dataclasses.replace(out, **{field: value + np.linspace(0.1, 0.3, value.shape[0])})

    monkeypatch.setattr(lp, "solve", corrupted)
    with pytest.raises(ConsistencyError):
        measures.key_interval(system, -(t**2), 10)


def test_hat_signed_examples(naturals4):
    system = naturals4.system
    f = np.array([0.0, 1.0, 1.0, 0.0])
    assert convexify.hat_signed(system, f, 1.0) == pytest.approx([-1.0] * 4, abs=1e-9)
    assert convexify.hat_signed(system, f, 0.5) == pytest.approx([-0.5] * 4, abs=1e-9)
    phi = system.basis.T @ np.array([0.5, 0.25])
    assert convexify.hat_signed(system, phi, 1.0) == pytest.approx(phi, abs=1e-9)
    with pytest.raises(ValidationError):
        convexify.hat_signed(system, f, 0.0)


def test_slightly_infeasible_engine_point_still_gives_a_minorant(monkeypatch):
    # the engine's point and dual are feasible only within its tolerance;
    # the minorant B'c + t comes from the dual, and raising its constant t
    # lifts it above the field where it touches.  The sweep lowers the
    # minorant by its excess, so no value exceeds the envelope (the chord
    # -t of the concave field -t^2).
    system = gen_interval_affine(21).system
    t = np.linspace(0, 1, 21)
    solve = lp.solve

    def nudged(prog, *args, **kwargs):
        out = solve(prog, *args, **kwargs)
        point, dual = out.point.copy(), out.dual_point.copy()
        point[0::2] += 1e-10
        dual[-1] += 1e-10
        return dataclasses.replace(out, point=point, dual_point=dual)

    monkeypatch.setattr(lp, "solve", nudged)
    got = convexify.biconjugate(system, -(t**2))
    assert np.all(got <= -t + 1e-13)
    assert got == pytest.approx(-t, abs=1e-9)


def test_disk_field_that_broke_the_envelope_lp_completes():
    # the seed-2 convex-trace field on disk(128,3,12) made the old
    # free-coefficient envelope LP fail its dual certificate at ring2_077
    # (with one BLAS thread); the ring points below are where that LP and
    # the cold least-pairing LP of key_interval have failed
    system = gen_disk(128, 3, 12).system
    f = convexify.realize_convex_trace(system, random_spec(system, np.random.default_rng(2)))
    got = convexify.biconjugate(system, f)
    assert convexify.is_choquet_convex(system, f)
    points = [system.space.index(label)
              for label in ("ring2_077", "ring2_084", "ring2_087", "ring3_081")]
    tol = measures.AGREE_TOL * (1.0 + np.abs(f).max())
    assert np.abs(got[points] - biconjugate_lp(system, f, points)).max() <= tol


def test_overflowing_field_is_an_input_error():
    # the least-pairing LP's dual overflows on this finite field; a NaN
    # minorant must fail its checks, not become the sweep's values
    system = gen_cantor(2).system
    with pytest.raises(ValidationError):
        convexify.biconjugate(system, 1e308 * np.linspace(-1, 1, system.n))


def test_cone_value_rejects_a_nan_facet():
    # the ends 0 and 4 represent the midpoint 2: the zero facet certifies
    # its value, a NaN facet nothing
    system = gen_interval_affine(5).system
    f, ends = np.zeros(system.n), np.array([0, 4])
    assert convexify._cone_value(system, f, [(np.zeros(system.n), ends)], 2) == 0.0
    assert convexify._cone_value(system, f, [(np.full(system.n, np.nan), ends)], 2) is None


def test_hat_signed_closed_form_matches_strip_lp(monkeypatch):
    systems = [
        gen_naturals(4).system,
        gen_interval_affine(51).system,
        gen_cantor(2).system,
        gen_disk(n_circle=20, n_interior_rings=1, degree=3).system,
    ] + _random_systems(20, 60_000)
    rng = np.random.default_rng(31)
    cases = []
    for system in systems:
        inside = system.basis.T @ rng.normal(size=system.d)
        for f in (rng.normal(size=system.n), inside):
            for alpha in (0.5, 1.0, 3.0):
                cases.append((system, f, alpha, hat_signed_lp(system, f, alpha)))
    calls = count_lps(monkeypatch)
    for system, f, alpha, want in cases:
        got = convexify.hat_signed(system, f, alpha)
        assert np.abs(got - want).max() <= 1e-9 * (1.0 + np.abs(f).max())
    assert not calls


def test_hat_ordering_chain(naturals4):
    system = naturals4.system
    rng = np.random.default_rng(5)
    for _ in range(8):
        f = rng.normal(size=4)
        hs = convexify.hat_signed(system, f, 1.0)
        hp = convexify.hat_positive(system, f)
        fxx = convexify.biconjugate(system, f)
        assert np.all(hs <= hp + 1e-7)
        assert np.all(np.abs(hp - fxx) <= 1e-7)
        assert np.all(fxx <= f + 1e-9)


def test_sup_family(naturals4):
    system = naturals4.system
    b = system.basis[1]
    one = np.ones(4)
    out = convexify.sup_family(system, [b, one - b])
    assert out == pytest.approx(np.maximum(b, 1 - b))
    assert convexify.is_choquet_convex(system, out)
    single = convexify.sup_family(system, [b])
    assert single == pytest.approx(b)
    with pytest.raises(ValidationError):
        convexify.sup_family(system, [])


def test_sup_family_rejects_nonconvex_input():
    inst = gen_interval_affine(11)
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValidationError):
        convexify.sup_family(inst.system, [-(t**2)])


def test_sup_family_affine_pieces_interval():
    inst = gen_interval_affine(11)
    t = np.linspace(0, 1, 11)
    out = convexify.sup_family(inst.system, [t, 1 - t])
    assert out == pytest.approx(np.maximum(t, 1 - t))
    assert convexify.is_choquet_convex(inst.system, out)


def test_realize_convex_trace(naturals4):
    system = naturals4.system
    one_piece = ConvexTraceSpec(((np.array([0.5, -1.0]), 0.25),))
    f = convexify.realize_convex_trace(system, one_piece)
    assert f == pytest.approx(system.basis.T @ np.array([0.5, -1.0]) + 0.25)
    # tangent pieces of (q - 0.4)^2 at every embedded coordinate reproduce
    # the exact parabola values via the max
    qs = [1.0, 0.5, 1 / 3, 0.25]
    spec = ConvexTraceSpec(tuple(
        (np.array([0.0, 2 * (s - 0.4)]), 0.16 - s * s) for s in qs
    ))
    f = convexify.realize_convex_trace(system, spec)
    assert f == pytest.approx([(q - 0.4) ** 2 for q in qs], abs=1e-12)
    assert f[0] == pytest.approx(0.36)
    # max of +-linear is a nonnegative field
    a = np.array([0.0, 1.0])
    absval = ConvexTraceSpec(((a, 0.0), (-a, 0.0)))
    assert np.all(convexify.realize_convex_trace(system, absval) >= 0.0)


def test_realized_fields_are_choquet_convex():
    rng = np.random.default_rng(14)
    for seed in range(6):
        inst = gen_random(7, 3, seed=seed)
        for _ in range(4):
            k = int(rng.integers(1, 4))
            spec = ConvexTraceSpec(tuple(
                (rng.normal(size=3), float(rng.normal())) for _ in range(k)
            ))
            f = convexify.realize_convex_trace(inst.system, spec)
            assert convexify.is_choquet_convex(inst.system, f, tol=1e-7)


def test_biconjugate_idempotent(naturals4):
    rng = np.random.default_rng(4)
    for _ in range(6):
        f = rng.normal(size=4)
        fxx = convexify.biconjugate(naturals4.system, f)
        again = convexify.biconjugate(naturals4.system, fxx)
        assert again == pytest.approx(fxx, abs=1e-9)


def test_biconjugate_basis_equivariance(naturals4):
    system = naturals4.system
    rng = np.random.default_rng(6)
    f = rng.normal(size=4)
    phi = system.basis.T @ np.array([-0.3, 0.9])
    lhs = convexify.biconjugate(system, f + phi)
    rhs = convexify.biconjugate(system, f) + phi
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_biconjugate_positive_homogeneity(naturals4):
    rng = np.random.default_rng(7)
    f = rng.normal(size=4)
    fxx = convexify.biconjugate(naturals4.system, f)
    for alpha in (0.0, 0.5, 3.0):
        assert convexify.biconjugate(naturals4.system, alpha * f) == pytest.approx(
            alpha * fxx, abs=1e-8
        )


def test_biconjugate_duality_with_key_interval(naturals4):
    rng = np.random.default_rng(9)
    f = rng.normal(size=4)
    fxx = convexify.biconjugate(naturals4.system, f)
    for x in range(4):
        lo = measures.key_interval(naturals4.system, f, x).lo
        assert fxx[x] == pytest.approx(lo, abs=1e-7)


def _convexity_verdicts(system, f):
    """(biconjugate, key-interval lower ends, upper ends, convexity verdict)."""
    ends = [measures.key_interval(system, f, x) for x in range(system.n)]
    return (convexify.biconjugate(system, f), np.array([k.lo for k in ends]),
            np.array([k.hi for k in ends]), convexify.is_choquet_convex(system, f))


def test_convexity_verdicts_invariant_under_basis_change_and_relabeling():
    # the representing measures of each point do not change under B -> G B,
    # a relabeling, a duplicated basis row or scaled rows, so neither do the
    # values and verdicts built on them
    rng, rows = np.random.default_rng(47), np.random.default_rng(59)
    systems = [s for s, _ in invariance_systems()]
    systems += [gen_cantor(3).system, gen_disk(n_circle=32, n_interior_rings=1, degree=8).system]
    for system in systems:
        f = convexify.realize_convex_trace(system, random_spec(system, rng))
        for field in (f, f + 0.05 * rng.normal(size=system.n)):
            *want, convex = _convexity_verdicts(system, field)
            tol = measures.AGREE_TOL * (1.0 + np.abs(field).max())
            relabeled, perm, new = relabeling(rng, system)
            changed = [(other, field, slice(None)) for other in row_changes(rows, system)]
            for other, g, back in [(basis_change(rng, system), field, slice(None)),
                                   (relabeled, field[perm], new), *changed]:
                *got, verdict = _convexity_verdicts(other, g)
                assert verdict == convex
                for a, b in zip(got, want):
                    assert np.abs(a[back] - b).max() <= tol


def test_spec_serialization_round_trip():
    spec = ConvexTraceSpec(((np.array([1.0, 2.0]), -0.5), (np.array([0.0, 1.0]), 3.0)))
    again = ConvexTraceSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    with pytest.raises(ValidationError):
        ConvexTraceSpec(())
    with pytest.raises(ValidationError):
        ConvexTraceSpec(((np.array([1.0]), np.nan),))
    with pytest.raises(ValidationError):
        ConvexTraceSpec.from_dict({"pieces": [{"a": "bad"}]})
