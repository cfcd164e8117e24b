"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time

import numpy as np

from choquet import convexify, maxprinciple as mp, measures, sets
from choquet.cli import main as cli_main
from choquet.convexify import ConvexTraceSpec
from choquet.generators import (
    gen_cantor,
    gen_disk,
    gen_interval_affine,
    gen_naturals,
    gen_random,
)
from choquet.space import FiniteSpace, FunctionSystem, evaluate


def _report(k, elapsed, text):
    print(f"ACCEPTANCE {k:02d} PASS ({elapsed:.2f}s): {text}")


def _random_system(index):
    rng = np.random.default_rng(10_000 + index)
    n = int(rng.integers(4, 13))
    d = int(rng.integers(2, 5))
    return gen_random(n, min(d, n), seed=20_000 + index)


def test_criterion_01_naturals_fixture():
    t0 = time.perf_counter()
    inst = gen_naturals(4)
    system = inst.system

    assert measures.choquet_boundary(system).boundary == (0, 3)

    intervals = {tuple(range(a, b + 1)) for a in range(4) for b in range(a, 4)}
    for r in range(1, 5):
        for combo in itertools.combinations(range(4), r):
            assert sets.is_trace_convex(system, combo) == (combo in intervals)

    km = sets.krein_milman_verify(system, range(4))
    assert km.ok and km.extreme == (0, 3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "naturals n=4: boundary {1,4}, order intervals, Krein-Milman")


def test_criterion_02_interval_fixture():
    t0 = time.perf_counter()
    inst = gen_interval_affine(101)
    assert measures.choquet_boundary(inst.system).boundary == (0, 100)

    n = 101
    full = FunctionSystem(FiniteSpace(tuple(f"g{j}" for j in range(n))), np.eye(n))
    assert measures.choquet_boundary(full).boundary == tuple(range(n))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, elapsed, "interval n=101: affine boundary {0,1}; full span boundary = all")


def test_criterion_03_cantor_fixture():
    t0 = time.perf_counter()
    for level in (1, 2, 3):
        inst = gen_cantor(level)
        assert measures.choquet_boundary(inst.system).boundary == inst.expected_boundary
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, elapsed, "cantor levels 1-3: boundary = grid minus removed midpoints")


def test_criterion_04_disk_fixture():
    t0 = time.perf_counter()
    inst = gen_disk(n_circle=64, n_interior_rings=2, degree=8)
    system = inst.system
    report = measures.choquet_boundary(system)
    assert report.boundary == tuple(range(64))

    # separating the center from an annulus holding a fully sampled circle
    # must be infeasible (discrete mean value property)
    inst8 = gen_disk(n_circle=64, n_interior_rings=8, degree=8)
    labels = inst8.system.space.labels
    annulus = [j for j, lbl in enumerate(labels)
               if lbl.startswith(("ring4_", "ring5_", "ring6_"))]
    center = labels.index("center")
    assert not sets.separate(inst8.system, annulus, center).separable

    f = -np.sum(np.asarray(system.space.coords) ** 2, axis=1)
    center_idx = system.space.labels.index("center")
    by_degree = {}
    for degree in (4, 6, 8):
        s = gen_disk(n_circle=64, n_interior_rings=2, degree=degree).system
        by_degree[degree] = convexify.biconjugate(s, f)
    assert by_degree[8][center_idx] <= -0.9
    assert np.all(by_degree[6] >= by_degree[4] - 1e-7)
    assert np.all(by_degree[8] >= by_degree[6] - 1e-7)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, elapsed, "disk 64/deg8: circle boundary, annulus separation infeasible, "
                        "f**(center) <= -0.9, monotone in degree")


def test_criterion_05_duality_suite():
    t0 = time.perf_counter()
    for i in range(200):
        inst = _random_system(i)
        system = inst.system
        rng = np.random.default_rng(30_000 + i)
        f = rng.normal(size=system.n)
        fxx = convexify.biconjugate(system, f)
        for x in range(system.n):
            lo = measures.key_interval(system, f, x).lo
            assert abs(fxx[x] - lo) <= 1e-7
    elapsed = time.perf_counter() - t0
    _report(5, elapsed, "duality: biconjugate == key-interval lower end on 200 systems")


def test_criterion_06_boundary_test_agreement():
    t0 = time.perf_counter()
    fixtures = [
        gen_naturals(4).system,
        gen_interval_affine(101).system,
        gen_cantor(2).system,
        gen_disk(n_circle=64, n_interior_rings=2, degree=8).system,
    ]
    fixtures += [_random_system(i).system for i in range(100)]
    for system in fixtures:
        report = measures.choquet_boundary(system)  # raises on a failed witness
        oracle = [measures.is_vertex(system, x) for x in range(system.n)]
        assert report.is_boundary.tolist() == oracle
        assert report.vertex.tolist() == oracle
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, "certified self-mass verdicts match the vertex LP on "
                        "fixtures + 100 random systems")


def test_criterion_07_bauer_and_multimax_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    systems = [_random_system(i) for i in range(25)]
    boundaries = {}
    for idx, inst in enumerate(systems):
        boundaries[idx] = measures.choquet_boundary(inst.system)

    checked = 0
    for idx, inst in enumerate(systems):
        system = inst.system
        bset = boundaries[idx].boundary
        for _ in range(20):
            spec = mp.random_spec(system, rng)
            f = convexify.realize_convex_trace(system, spec)
            assert abs(f.max() - max(f[j] for j in bset)) <= 1e-9
            checked += 1
    assert checked == 500

    families = 0
    for idx, inst in enumerate(systems[:20]):
        system = inst.system
        bnd = boundaries[idx]
        xbar = bnd.boundary[int(rng.integers(0, len(bnd.boundary)))]
        e_field = evaluate(system, mp.expose(system, xbar))
        for _ in range(10):
            specs = []
            for _ in range(int(rng.integers(2, 4))):
                a = rng.normal(size=system.d)
                vals = system.basis.T @ a
                beta = float(e_field[xbar] - 0.05 * (1 + np.ptp(e_field)) - vals.max())
                specs.append(ConvexTraceSpec((
                    (np.asarray(mp.expose(system, xbar).coeffs), 0.0),
                    (a, beta),
                )))
            report = mp.multi_max_verify(system, specs, boundary=bnd)
            assert not report.hypothesis_void
            assert report.ok and xbar in report.common_boundary_argmax
            families += 1
    assert families == 200

    elapsed = time.perf_counter() - t0
    _report(7, elapsed, "bauer on 500 random specs, multi-max on 200 planted families")


def test_criterion_08_convexification_order():
    t0 = time.perf_counter()
    fixtures = [
        gen_naturals(4).system,
        gen_interval_affine(51).system,
        gen_cantor(2).system,
        gen_disk(n_circle=20, n_interior_rings=1, degree=3).system,
    ]
    rng = np.random.default_rng(777)
    for system in fixtures:
        f = rng.normal(size=system.n)
        hs = convexify.hat_signed(system, f, 1.0)
        hp = convexify.hat_positive(system, f)
        fxx = convexify.biconjugate(system, f)
        assert np.all(hs <= hp + 1e-7)
        assert np.max(np.abs(hp - fxx)) <= 1e-7
        assert np.all(fxx <= f + 1e-9)
        # realized convex-trace fields are fixed points of the biconjugate
        spec = mp.random_spec(system, rng, max_pieces=3)
        g = convexify.realize_convex_trace(system, spec)
        gxx = convexify.biconjugate(system, g)
        assert np.max(np.abs(g - gxx)) <= 1e-7
        assert np.max(np.abs(convexify.biconjugate(system, gxx) - gxx)) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(8, elapsed, "hat_signed <= hat_positive = biconjugate <= field; "
                        "realized fields fixed; idempotence")


def test_criterion_09_kyfan_suite():
    t0 = time.perf_counter()
    fixtures = [
        gen_naturals(4).system,
        gen_interval_affine(21).system,
        gen_cantor(1).system,
        gen_disk(n_circle=64, n_interior_rings=2, degree=8).system,
    ]
    for system in fixtures:
        S = tuple(range(system.n))
        phi_ext = set(sets.phi_extreme_points(system, S))
        kf_ext = set(sets.kyfan_extreme_points(system, S))
        assert phi_ext <= kf_ext

    disk = fixtures[3]
    rng = np.random.default_rng(99)
    pairs = 0
    while pairs < 50:
        y, z = int(rng.integers(0, disk.n)), int(rng.integers(0, disk.n))
        if y == z:
            continue
        assert set(sets.kyfan_segment(disk, y, z)) == {y, z}
        pairs += 1

    nat = fixtures[0]
    assert sets.kyfan_segment(nat, 0, 3) == (0, 1, 2, 3)
    elapsed = time.perf_counter() - t0
    _report(9, elapsed, "Ky Fan: extreme containment on fixtures, 50 trivial disk "
                        "segments, naturals [1,4] = {1,2,3,4}")


def test_criterion_10_genericity():
    t0 = time.perf_counter()
    inst = gen_naturals(4)
    report = mp.genericity_experiment(
        inst.system, np.zeros(4), trials=1000, eps=0.1, seed=2024, tie_tol=1e-9
    )
    assert report.unique_fraction >= 0.99
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(10, elapsed, f"genericity: unique fraction {report.unique_fraction:.3f} "
                         ">= 0.99 over 1000 trials")


def test_criterion_11_byte_deterministic_reports(tmp_path, capsys):
    t0 = time.perf_counter()

    def run(argv):
        code = cli_main(argv)
        out, _ = capsys.readouterr()
        assert code == 0
        return out

    inst = tmp_path / "inst.json"
    outputs = []
    for _ in range(2):
        gen_out = run(["gen", "random", "9", "3", "--seed", "31", "-o", str(inst)])
        boundary_out = run(["boundary", str(inst)])
        generic_out = run(["generic", str(inst), "--trials", "200", "--eps", "0.2",
                           "--seed", "8"])
        hull_out = run(["hull", str(inst), "--points", "p0,p3,p5"])
        outputs.append((gen_out, boundary_out, generic_out, hull_out))
    assert outputs[0] == outputs[1]
    # the instance file itself is byte-stable too
    data = inst.read_bytes()
    run(["gen", "random", "9", "3", "--seed", "31", "-o", str(inst)])
    assert inst.read_bytes() == data

    elapsed = time.perf_counter() - t0
    _report(11, elapsed, "seeded CLI runs repeated twice are byte-identical")
