import itertools

import numpy as np
import pytest

from choquet import lp, measures, sets
from choquet.errors import ValidationError
from choquet.generators import gen_cantor, gen_disk, gen_interval_affine, gen_naturals, gen_random
from choquet.space import FiniteSpace, FunctionSystem, evaluate
from conftest import kyfan_between_lp


def test_trace_hull_naturals(naturals4):
    system = naturals4.system
    assert sets.trace_hull(system, [0, 3]) == (0, 1, 2, 3)
    assert sets.trace_hull(system, [1, 2]) == (1, 2)
    assert sets.trace_hull(system, [2]) == (2,)
    with pytest.raises(ValidationError):
        sets.trace_hull(system, [])


def test_trace_hull_idempotent_and_monotone(naturals4):
    system = naturals4.system
    for S in ([0], [1, 2], [0, 2], [1, 3]):
        hull = sets.trace_hull(system, S)
        assert sets.trace_hull(system, hull) == hull
        assert set(S) <= set(hull)
    small = sets.trace_hull(system, [1])
    large = sets.trace_hull(system, [1, 3])
    assert set(small) <= set(large)


def test_order_intervals_are_exactly_the_trace_convex_sets(naturals4):
    system = naturals4.system
    intervals = {
        tuple(range(a, b + 1)) for a in range(4) for b in range(a, 4)
    }
    assert len(intervals) == 10
    convex = set()
    for r in range(1, 5):
        for combo in itertools.combinations(range(4), r):
            if sets.is_trace_convex(system, combo):
                convex.add(combo)
    assert convex == intervals


def test_full_space_is_trace_convex(naturals4):
    assert sets.is_trace_convex(naturals4.system, range(4))


def test_separate_examples(naturals4):
    system = naturals4.system
    res = sets.separate(system, [1, 2], 0)
    assert res.separable and res.margin >= 1e-6
    vals = evaluate(system, res.witness)
    assert max(vals[1], vals[2]) + res.margin <= vals[0] + 1e-12

    res2 = sets.separate(system, [0, 2], 1)
    assert not res2.separable and res2.witness is None

    res3 = sets.separate(system, [0, 1, 2], 3)
    assert res3.separable  # boundary point off the rest


def test_separate_validation(naturals4):
    with pytest.raises(ValidationError):
        sets.separate(naturals4.system, [0, 1], 1)
    with pytest.raises(ValidationError):
        sets.separate(naturals4.system, [], 1)


def test_separation_iff_outside_hull_random():
    for seed in range(12):
        inst = gen_random(7, 3, seed=100 + seed)
        system = inst.system
        rng = np.random.default_rng(seed)
        S = sorted(set(rng.integers(0, 7, size=3).tolist()))
        hull = set(sets.trace_hull(system, S))
        for x in range(7):
            if x in S:
                continue
            res = sets.separate(system, S, x)
            assert res.separable == (x not in hull)


def test_phi_extreme_points(naturals4):
    system = naturals4.system
    assert sets.phi_extreme_points(system, range(4)) == (0, 3)
    assert sets.phi_extreme_points(system, [1, 2, 3]) == (1, 3)
    assert sets.phi_extreme_points(system, [2]) == (2,)


def test_phi_extreme_equals_boundary_on_full_space():
    for seed in range(8):
        inst = gen_random(8, 3, seed=300 + seed)
        ext = sets.phi_extreme_points(inst.system, range(8))
        assert ext == measures.choquet_boundary(inst.system).boundary


def test_krein_milman_naturals(naturals4):
    rep = sets.krein_milman_verify(naturals4.system, range(4))
    assert rep.ok
    assert rep.extreme == (0, 3)
    assert rep.hull == (0, 1, 2, 3)


def test_krein_milman_on_trace_convex_sets(naturals4):
    system = naturals4.system
    for a in range(4):
        for b in range(a, 4):
            C = tuple(range(a, b + 1))
            rep = sets.krein_milman_verify(system, C)
            assert rep.ok and rep.extreme_hull == C


def test_krein_milman_random_small():
    rng = np.random.default_rng(17)
    for seed in range(15):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 5))
        inst = gen_random(n, min(d, n), seed=400 + seed)
        S = sorted(set(rng.integers(0, n, size=max(2, n // 2)).tolist()))
        assert sets.krein_milman_verify(inst.system, S).ok


def test_kyfan_segment_naturals(naturals4):
    system = naturals4.system
    assert sets.kyfan_segment(system, 0, 3) == (0, 1, 2, 3)
    assert sets.kyfan_segment(system, 1, 1) == (1,)
    assert sets.kyfan_segment(system, 1, 2) == (1, 2)


def test_kyfan_extreme_naturals(naturals4):
    assert sets.kyfan_extreme_points(naturals4.system, range(4)) == (0, 3)
    assert sets.kyfan_extreme_points(naturals4.system, [2]) == (2,)


def test_kyfan_extreme_contains_phi_extreme(naturals4):
    for seed in range(8):
        inst = gen_random(7, 3, seed=500 + seed)
        S = tuple(range(7))
        phi_ext = set(sets.phi_extreme_points(inst.system, S))
        kf_ext = set(sets.kyfan_extreme_points(inst.system, S))
        assert phi_ext <= kf_ext
    assert set(sets.phi_extreme_points(naturals4.system, range(4))) <= set(
        sets.kyfan_extreme_points(naturals4.system, range(4))
    )


def test_kyfan_direction_filter_matches_segment_lp():
    # the pairwise direction test must reproduce the per-segment LP oracle
    for seed in range(5):
        inst = gen_random(5, 3, seed=600 + seed)
        system = inst.system
        for x in range(5):
            in_some_segment = any(
                kyfan_between_lp(system, x, y, z)
                for y in range(5)
                for z in range(5)
                if y != x and z != x
            )
            extreme = x in sets.kyfan_extreme_points(system, range(5))
            assert extreme == (not in_some_segment)


def test_kyfan_degenerate_triples_match_lp_oracle(naturals4, monkeypatch):
    system = naturals4.system
    triples = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)
               if len({x, y, z}) < 3]
    oracle = [kyfan_between_lp(system, *t) for t in triples]

    def no_lp(*args, **kwargs):
        raise AssertionError("Ky Fan betweenness solved an LP")

    monkeypatch.setattr(lp, "solve", no_lp)
    got = [sets.kyfan_strictly_between(system, *t) for t in triples]
    assert got == oracle
    # x == y == z is between; x equal to exactly one endpoint, or y == z != x, is not
    assert sets.kyfan_strictly_between(system, 2, 2, 2)
    assert not sets.kyfan_strictly_between(system, 1, 1, 3)
    assert not sets.kyfan_strictly_between(system, 1, 3, 1)
    assert not sets.kyfan_strictly_between(system, 1, 2, 2)
    assert sets.kyfan_segment(system, 0, 3) == (0, 1, 2, 3)


def _kyfan_verdicts(system, pairs, S):
    """Segments of ``pairs`` and Ky Fan extreme points of S and of all points."""
    return (
        [sets.kyfan_segment(system, y, z) for y, z in pairs],
        sets.kyfan_extreme_points(system, S),
        sets.kyfan_extreme_points(system, range(system.n)),
    )


def test_kyfan_verdicts_invariant_under_basis_change_and_relabeling():
    rng = np.random.default_rng(41)
    named = [gen_naturals(20).system, gen_interval_affine(21).system, gen_cantor(2).system]
    randoms = [gen_random(7, 2 + seed % 2, seed=700 + seed).system for seed in range(10)]
    for system, every_triple in [(s, False) for s in named] + [(s, True) for s in randoms]:
        n, d = system.n, system.d
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        S = tuple(sorted(rng.choice(n, size=max(2, n // 2), replace=False).tolist()))
        want = _kyfan_verdicts(system, pairs, S)

        # change of basis of the same span, condition number at most 4
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        G = Q * rng.uniform(0.5, 2.0, size=d)
        based = FunctionSystem(system.space, G @ system.basis)
        assert _kyfan_verdicts(based, pairs, S) == want

        # relabeling: new point k is old point perm[k]
        perm = rng.permutation(n)
        new = np.argsort(perm)
        relabeled = FunctionSystem(
            FiniteSpace(tuple(system.space.labels[j] for j in perm)), system.basis[:, perm]
        )
        segments, ext_S, ext_all = _kyfan_verdicts(
            relabeled, [(new[y], new[z]) for y, z in pairs], [new[j] for j in S]
        )
        def back(pts):
            return tuple(sorted(int(perm[k]) for k in pts))

        assert [back(seg) for seg in segments] == want[0]
        assert (back(ext_S), back(ext_all)) == want[1:]

        # the LP oracle on sampled segments of every system, on every triple
        # of the random ones
        for y, z in (pairs[k] for k in rng.choice(len(pairs), size=6, replace=False)):
            oracle = tuple(x for x in range(n)
                           if x in (y, z) or kyfan_between_lp(system, x, y, z))
            assert sets.kyfan_segment(system, y, z) == oracle
        if every_triple:
            for x, y, z in itertools.product(range(n), repeat=3):
                assert sets.kyfan_strictly_between(system, x, y, z) == kyfan_between_lp(
                    system, x, y, z
                )


def test_kyfan_disk_segments_trivial():
    inst = gen_disk(n_circle=12, n_interior_rings=1, degree=2)
    system = inst.system
    rng = np.random.default_rng(1)
    for _ in range(10):
        y, z = int(rng.integers(0, system.n)), int(rng.integers(0, system.n))
        if y == z:
            continue
        assert set(sets.kyfan_segment(system, y, z)) == {y, z}
    assert sets.kyfan_extreme_points(system, range(system.n)) == tuple(range(system.n))


def test_ambient_restricts_reported_hull(naturals4):
    system = naturals4.system
    # treat the stand-in for the point at infinity as an ideal point
    ambient = (0, 1, 2)
    hull = sets.trace_hull(system, [0, 2], ambient=ambient)
    assert hull == (0, 1, 2)
    assert sets.is_trace_convex(system, (0, 1, 2), ambient=ambient)


def test_point_set_validation(naturals4):
    with pytest.raises(ValidationError):
        sets.as_point_set([0, 9], 4)
    assert sets.as_point_set([3, 1, 1], 4) == (1, 3)
    for bad in (-1, 4):
        with pytest.raises(ValidationError):
            sets.in_hull(naturals4.system, bad, [0, 2])
        with pytest.raises(ValidationError):
            sets.kyfan_strictly_between(naturals4.system, bad, 0, 3)
        with pytest.raises(ValidationError):
            sets.kyfan_strictly_between(naturals4.system, 1, 0, bad)
