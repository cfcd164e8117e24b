import numpy as np
import pytest

from choquet import maxprinciple as mp
from choquet.convexify import ConvexTraceSpec, realize_convex_trace
from choquet.errors import ValidationError
from choquet.generators import gen_disk, gen_interval_affine, gen_random
from choquet.space import evaluate
from conftest import count_lps


def tangent_spec(points, center=0.4):
    """Tangent pieces of (q - center)^2 taken at the given q values."""
    return ConvexTraceSpec(tuple(
        (np.array([0.0, 2 * (s - center)]), center**2 - s * s) for s in points
    ))


def test_argmax_set(naturals4):
    system = naturals4.system
    f = np.array([0.36, 0.01, 0.0044, 0.0225])
    assert mp.argmax_set(system, f) == (0,)
    assert mp.argmax_set(system, np.ones(4)) == (0, 1, 2, 3)
    assert mp.argmax_set(system, np.array([1.0, 0.0, 1.0, 0.5])) == (0, 2)
    with pytest.raises(ValidationError):
        mp.argmax_set(system, f, tol=-1.0)


def test_bauer_naturals_tangent_field(naturals4):
    spec = tangent_spec([1.0, 0.5, 0.25])
    report = mp.bauer_verify(naturals4.system, spec)
    assert report.bauer_ok
    assert report.argmax == (0,)
    assert report.boundary_argmax == (0,)
    assert report.max_value == pytest.approx(0.36)


def test_bauer_single_affine_piece(naturals4):
    spec = ConvexTraceSpec(((np.array([0.3, -1.2]), 0.7),))
    report = mp.bauer_verify(naturals4.system, spec)
    assert report.bauer_ok  # a linear functional peaks at a vertex


def test_bauer_disk_cosine():
    inst = gen_disk(n_circle=16, n_interior_rings=1, degree=2)
    # F = first moment coordinate, i.e. Re z; peaks at angle 0 on the circle
    a = np.zeros(inst.system.d)
    a[1] = 1.0
    report = mp.bauer_verify(inst.system, ConvexTraceSpec(((a, 0.0),)))
    assert report.bauer_ok
    assert report.argmax == (0,)


def test_bauer_random_specs():
    rng = np.random.default_rng(123)
    for seed in range(10):
        n = int(rng.integers(4, 10))
        inst = gen_random(n, int(rng.integers(2, min(5, n + 1))), seed=seed)
        for _ in range(10):
            spec = mp.random_spec(inst.system, rng)
            report = mp.bauer_verify(inst.system, spec)
            assert report.bauer_ok


def test_verifiers_ask_only_the_maximizers(monkeypatch):
    # the exposing field of circ005 peaks there alone, so the only boundary
    # verdict needed is circ005's, and the Gram screen certifies it with no
    # LP; the whole boundary takes 17
    system = gen_disk(n_circle=64, n_interior_rings=2, degree=8).system
    x = system.space.index("circ005")
    spec = ConvexTraceSpec(((np.asarray(mp.expose(system, x).coeffs), 0.0),))
    calls = count_lps(monkeypatch)
    report = mp.bauer_verify(system, spec)
    assert report.argmax == report.boundary_argmax == (x,) and report.bauer_ok
    assert len(calls) == 0
    multi = mp.multi_max_verify(system, [spec])
    assert multi.common_boundary_argmax == (x,) and multi.ok
    assert len(calls) == 0


def test_multi_max_planted_maximizer(naturals4):
    s1 = tangent_spec([1.0, 0.5])
    s2 = ConvexTraceSpec(((np.array([0.0, 1.0]), 0.0),))  # peaks at q = 1
    report = mp.multi_max_verify(naturals4.system, [s1, s2])
    assert not report.hypothesis_void
    assert report.ok
    assert report.common_boundary_argmax == (0,)


def test_multi_max_single_family_reduces_to_bauer(naturals4):
    spec = tangent_spec([1.0, 0.5, 0.25])
    single = mp.multi_max_verify(naturals4.system, [spec])
    bauer = mp.bauer_verify(naturals4.system, spec)
    assert single.common_argmax == bauer.argmax
    assert single.ok == bauer.bauer_ok


def test_multi_max_disjoint_argmax_void(naturals4):
    up = ConvexTraceSpec(((np.array([0.0, 1.0]), 0.0),))   # peaks at q=1
    down = ConvexTraceSpec(((np.array([0.0, -1.0]), 0.0),))  # peaks at q=1/4
    report = mp.multi_max_verify(naturals4.system, [up, down])
    assert report.hypothesis_void and report.ok
    with pytest.raises(ValidationError):
        mp.multi_max_verify(naturals4.system, [])


def test_expose_naturals(naturals4):
    system = naturals4.system
    phi1 = mp.expose(system, 0)
    vals = evaluate(system, phi1)
    assert mp.argmax_set(system, vals) == (0,)
    phi4 = mp.expose(system, 3)
    vals4 = evaluate(system, phi4)
    assert mp.argmax_set(system, vals4) == (3,)


def test_expose_interval_endpoint():
    inst = gen_interval_affine(11)
    phi = mp.expose(inst.system, 0)
    vals = evaluate(inst.system, phi)
    assert mp.argmax_set(inst.system, vals) == (0,)


def test_expose_rejects_interior_point(naturals4):
    with pytest.raises(ValidationError):
        mp.expose(naturals4.system, 1)


def test_expose_margin_on_random_systems():
    for seed in range(6):
        inst = gen_random(7, 3, seed=700 + seed)
        for x in inst.expected_boundary:
            phi = mp.expose(inst.system, x)
            vals = evaluate(inst.system, phi)
            others = np.delete(vals, x)
            assert vals[x] - others.max() >= 1e-6


def test_boundary_characterization(naturals4):
    system = naturals4.system
    assert mp.boundary_characterization(system, 0) is True
    assert mp.boundary_characterization(system, 1) is False
    assert mp.boundary_characterization(system, 2) is False
    assert mp.boundary_characterization(system, 3) is True


def test_boundary_characterization_single_point():
    from choquet.space import FiniteSpace, FunctionSystem

    system = FunctionSystem(FiniteSpace(("o",)), [[1.0]])
    assert mp.boundary_characterization(system, 0) is True


def test_boundary_characterization_agrees_random():
    # off the boundary, no convex-trace field has the point as its unique
    # maximizer: 64 sampled fields per point check it
    for seed in range(6):
        inst = gen_random(6, 3, seed=800 + seed)
        boundary = set(inst.expected_boundary)
        for x in range(6):
            assert mp.boundary_characterization(inst.system, x) == (x in boundary)
            if x in boundary:
                continue
            rng = np.random.default_rng(seed)
            for _ in range(64):
                f = realize_convex_trace(inst.system, mp.random_spec(inst.system, rng))
                assert mp.argmax_set(inst.system, f) != (x,)


def test_boundary_characterization_ring_point():
    # an exposing LP of its own exhausted the pivot budget on this point
    system = gen_disk(n_circle=64, n_interior_rings=2, degree=8).system
    assert mp.boundary_characterization(system, system.space.index("ring1_007")) is False


def test_expose_solves_no_lp(monkeypatch):
    # the Gram screen certifies every circle point against the others, and
    # its field, rescaled, is the exposing field
    system = gen_disk(n_circle=16, n_interior_rings=1, degree=3).system
    system.require_valid()
    calls = count_lps(monkeypatch)
    for x in range(16):
        phi = mp.expose(system, x)
        vals = evaluate(system, phi)
        assert vals[x] - np.delete(vals, x).max() == pytest.approx(1.0, abs=1e-9)
    assert len(calls) == 0


def test_genericity_zero_field(naturals4):
    report = mp.genericity_experiment(naturals4.system, np.zeros(4), 500, 0.1, seed=42)
    assert report.unique_fraction >= 0.99
    assert report.trials == 500


def test_genericity_strict_max_below_gap(naturals4):
    f = np.array([1.0, 0.0, 0.0, 0.0])
    # perturbations of sup-norm <= 2 * eps cannot close a gap of 1
    report = mp.genericity_experiment(naturals4.system, f, 100, 0.01, seed=7)
    assert report.unique_fraction == 1.0


def test_genericity_deterministic(naturals4):
    a = mp.genericity_experiment(naturals4.system, np.zeros(4), 50, 0.1, seed=3)
    b = mp.genericity_experiment(naturals4.system, np.zeros(4), 50, 0.1, seed=3)
    assert a == b
    one = mp.genericity_experiment(naturals4.system, np.zeros(4), 1, 0.1, seed=3)
    assert one.trials == 1 and one.unique_fraction in (0.0, 1.0)


def test_genericity_monotone_in_tie_tol(naturals4):
    fractions = []
    for tol in (1e-3, 1e-6, 1e-9, 1e-12):
        rep = mp.genericity_experiment(
            naturals4.system, np.zeros(4), 200, 0.1, seed=11, tie_tol=tol
        )
        fractions.append(rep.unique_fraction)
    assert fractions == sorted(fractions)


def test_genericity_validation(naturals4):
    with pytest.raises(ValidationError):
        mp.genericity_experiment(naturals4.system, np.zeros(4), 0, 0.1, seed=1)
    with pytest.raises(ValidationError):
        mp.genericity_experiment(naturals4.system, np.zeros(4), 10, -0.5, seed=1)


def test_realized_max_equals_piecewise_max(naturals4):
    # the max of the affine pieces over embedded columns equals the max of
    # the realized field
    rng = np.random.default_rng(15)
    for _ in range(10):
        spec = mp.random_spec(naturals4.system, rng)
        f = realize_convex_trace(naturals4.system, spec)
        cols = naturals4.system.basis
        direct = max(
            max(float(a @ cols[:, j]) + b for a, b in spec.pieces)
            for j in range(cols.shape[1])
        )
        assert f.max() == pytest.approx(direct, abs=1e-12)
