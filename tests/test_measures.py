from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from choquet import lp, measures
from choquet._util import dumps
from choquet.errors import ConsistencyError, ValidationError
from choquet.generators import gen_cantor, gen_disk, gen_interval_affine, gen_naturals, gen_random
from choquet.space import FiniteSpace, FunctionSystem, pair

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
    assert measures.is_vertex(naturals4.system, 3)
    assert not measures.is_vertex(naturals4.system, 2)


def test_single_point_space_is_vertex():
    system = FunctionSystem(FiniteSpace(("only",)), [[1.0]])
    assert measures.is_vertex(system, 0)
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
        oracle = [measures.is_vertex(inst.system, x) for x in range(n)]
        assert report.is_boundary.tolist() == oracle
        assert report.vertex.tolist() == oracle


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
        cert = measures._self_mass(system, x)
        if cert.vertex:
            y, t = cert.exposing[:-1], cert.exposing[-1]
            phi = B.T @ y + t
            assert phi[x] == pytest.approx(1.0, abs=1e-9)
            assert np.delete(phi, x).max() <= 1e-9
            assert cert.others is None
        else:
            assert cert.others[x] == 0.0 and cert.others.min() >= 0.0
            assert cert.others.sum() == pytest.approx(1.0, abs=1e-12)
            assert B @ cert.others == pytest.approx(B[:, x], abs=1e-9)


def test_exposing_dual_on_degenerate_vertices():
    # phase 2 of these self-mass LPs is one long degenerate stall; Bland's
    # rule must not end it on a numerically singular basis, whose dual
    # exposes nothing
    system = gen_disk(n_circle=128, n_interior_rings=3, degree=12).system
    for label in ("circ107", "circ108"):
        x = system.space.index(label)
        cert = measures._self_mass(system, x)
        assert cert.vertex and cert.mass == pytest.approx(1.0, abs=1e-9)


def _tampered_solve(monkeypatch, corrupt):
    solve = lp.solve

    def bad_solve(prog, *args, **kwargs):
        return corrupt(solve(prog, *args, **kwargs))

    monkeypatch.setattr(lp, "solve", bad_solve)


def test_corrupted_dual_is_caught(naturals4, monkeypatch):
    _tampered_solve(monkeypatch, lambda out: replace(out, dual_point=-out.dual_point))
    with pytest.raises(ConsistencyError, match="does not expose"):
        measures.choquet_boundary(naturals4.system)


@pytest.mark.parametrize(
    "point, message", [(np.full(4, 0.25), "misses it"), (np.eye(4)[1], "no mass off")]
)
def test_corrupted_measure_is_caught(naturals4, monkeypatch, point, message):
    # point 1 (label "2") is interior, so its witness is the primal measure
    _tampered_solve(monkeypatch, lambda out: replace(out, point=point))
    with pytest.raises(ConsistencyError, match=message):
        measures.min_self_mass(naturals4.system, 1)


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


def test_parallel_map_matches_sequential(naturals4):
    seq = measures.choquet_boundary(naturals4.system, threads=1)
    par = measures.choquet_boundary(naturals4.system, threads=4)
    assert np.array_equal(seq.min_self_mass, par.min_self_mass)
    assert np.array_equal(seq.vertex, par.vertex)


def test_interval_generator_output_validates():
    inst = gen_interval_affine(31)
    assert inst.system.validate().ok
    mu = measures.representing_measure(inst.system, 15, np.eye(31)[15])
    # interior grid point: mass moves to the endpoints
    assert mu.weights[15] == pytest.approx(0.0, abs=1e-9)
    assert pair(mu, np.linspace(0, 1, 31)) == pytest.approx(0.5, abs=1e-9)
