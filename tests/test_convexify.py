import dataclasses

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
from conftest import (
    basis_change,
    biconjugate_lp,
    count_lps,
    hat_positive_lp,
    hat_signed_lp,
    invariance_systems,
    lower_convex_envelope_1d,
    relabeling,
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
    system = gen_interval_affine(5).system
    A = np.vstack([system.basis, np.ones((1, system.n))])
    f = np.zeros(system.n)
    phi = np.full(system.n, np.nan)
    assert convexify._cone_value(A, f, [(phi, np.array([0, 4]))], 2, 1.0) is None


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
    # the representing measures of each point do not change under B -> G B
    # or a relabeling, so neither do the values and verdicts built on them
    rng = np.random.default_rng(47)
    systems = [s for s, _ in invariance_systems()]
    systems += [gen_cantor(3).system, gen_disk(n_circle=32, n_interior_rings=1, degree=8).system]
    for system in systems:
        f = convexify.realize_convex_trace(system, random_spec(system, rng))
        for field in (f, f + 0.05 * rng.normal(size=system.n)):
            *want, convex = _convexity_verdicts(system, field)
            tol = measures.AGREE_TOL * (1.0 + np.abs(field).max())
            relabeled, perm, new = relabeling(rng, system)
            for other, g, back in [(basis_change(rng, system), field, slice(None)),
                                   (relabeled, field[perm], new)]:
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
