import dataclasses
import functools
import itertools

import numpy as np
import pytest
from scipy.optimize import nnls

from choquet import lp, maxprinciple, measures, sets
from choquet.errors import ConsistencyError, ValidationError
from choquet.generators import gen_cantor, gen_disk, gen_interval_affine, gen_naturals, gen_random
from choquet.space import FiniteSpace, FunctionSystem, evaluate
from conftest import (
    basis_change,
    count_lps,
    exact_margin,
    extreme_lp,
    forge_wolfe,
    invariance_systems,
    kyfan_between_lp,
    no_wolfe,
    relabeling,
    row_changes,
    trace_hull_lp,
)


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


def test_phi_extreme_points_screen_leaves_few_lps(monkeypatch):
    # a random 24-point subset of disk(256,4,8): every point is extreme, and
    # it took one LP per point before the Gram screen and up to 10 before
    # Wolfe's algorithm
    system = gen_disk(256, 4, 8).system
    system.require_valid()
    S = sorted(np.random.default_rng(0).choice(system.n, size=24, replace=False).tolist())
    calls = count_lps(monkeypatch)
    ext = sets.phi_extreme_points(system, S)
    assert not calls
    assert ext == extreme_lp(system, S)


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
    for system, every_triple in invariance_systems():
        n = system.n
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        S = tuple(sorted(rng.choice(n, size=max(2, n // 2), replace=False).tolist()))
        want = _kyfan_verdicts(system, pairs, S)

        # change of basis of the same span, condition number at most 4
        assert _kyfan_verdicts(basis_change(rng, system), pairs, S) == want

        relabeled, perm, new = relabeling(rng, system)
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


def _hull_verdicts(system, S, queries):
    """trace_hull of S, then in_hull of each query (x, T), checked against
    separate; every separating witness must separate by evaluation."""
    verdicts = [sets.trace_hull(system, S)]
    for x, T in queries:
        member = sets.in_hull(system, x, T)
        res = sets.separate(system, T, x)
        assert res.separable == (not member)
        if res.separable:
            vals = evaluate(system, res.witness)
            assert vals[x] - vals[list(T)].max() >= res.margin > 0.0
        verdicts.append(member)
    return verdicts


def test_hull_verdicts_invariant_under_basis_change_and_relabeling():
    rng, rows = np.random.default_rng(43), np.random.default_rng(53)
    for system, _ in invariance_systems():
        n = system.n
        S = tuple(sorted(rng.choice(n, size=max(2, n // 3), replace=False).tolist()))
        queries = []
        for _ in range(6):
            T = tuple(sorted(rng.choice(n, size=int(rng.integers(2, n // 2 + 1)), replace=False)))
            queries.append((int(rng.choice([j for j in range(n) if j not in T])), T))
        want = _hull_verdicts(system, S, queries)
        assert _hull_verdicts(basis_change(rng, system), S, queries) == want

        relabeled, perm, new = relabeling(rng, system)
        got = _hull_verdicts(
            relabeled,
            [new[j] for j in S],
            [(new[x], tuple(new[j] for j in T)) for x, T in queries],
        )
        assert tuple(sorted(int(perm[k]) for k in got[0])) == want[0]
        assert got[1:] == want[1:]
        # the whitened Gram field is affine covariant and the raw one is
        # not, so the screen's certificates change under these; the
        # verdicts must not
        for changed in row_changes(rows, system):
            assert _hull_verdicts(changed, S, queries) == want


def _extreme_verdicts(system, subsets):
    """The Choquet boundary, then the extreme points of each subset."""
    boundary = measures.choquet_boundary(system).boundary
    return [boundary] + [sets.phi_extreme_points(system, S) for S in subsets]


def test_boundary_verdicts_invariant_under_basis_change_and_relabeling():
    # relabeling changes the order in which the hull oracle visits points,
    # and so which LPs it solves; the verdicts must not move
    rng = np.random.default_rng(47)
    for system, _ in invariance_systems():
        n = system.n
        subsets = [
            tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            for size in rng.integers(2, n + 1, size=3)
        ]
        want = _extreme_verdicts(system, subsets)
        assert _extreme_verdicts(basis_change(rng, system), subsets) == want

        relabeled, perm, new = relabeling(rng, system)
        got = _extreme_verdicts(relabeled, [[int(new[j]) for j in S] for S in subsets])
        assert [tuple(sorted(int(perm[k]) for k in pts)) for pts in got] == want


def test_in_hull_and_separate_solve_at_most_one_lp(naturals4, monkeypatch):
    # in_hull and separate share one route: none where the Gram screen
    # certifies the point outside, whose field is then the separator, and
    # none for a member, whose weights Wolfe's algorithm proposes; without
    # that proposal the member takes one LP
    system = naturals4.system
    calls = count_lps(monkeypatch)
    cases = [
        (sets.in_hull, (0, [1, 2]), 0),
        (sets.in_hull, (3, [0, 1]), 0),
        (sets.in_hull, (1, [0, 3]), 1),
        (sets.separate, ([1, 2], 0), 0),
        (sets.separate, ([0, 3], 1), 1),
    ]
    for call, args, _ in cases:
        calls.clear()
        call(system, *args)
        assert not calls
    no_wolfe(monkeypatch)
    for call, args, lps in cases:
        calls.clear()
        call(system, *args)
        assert len(calls) == lps


def test_membership_witnesses_check_by_evaluation(naturals4):
    system = naturals4.system
    B = system.basis
    member, w = measures._membership(system, 1, (0, 3))
    assert member and w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
    assert B[:, [0, 3]] @ w == pytest.approx(B[:, 1], abs=1e-9)
    member, (c, t) = measures._membership(system, 0, (1, 2))
    phi = B.T @ c + t
    assert not member and phi[0] > max(phi[1], phi[2]) + 1e-6


# a disk(256,4,8) non-member (seeded draw) that the Gram screen leaves open,
# so in_hull reaches the LP's ray when Wolfe's algorithm proposes nothing;
# on naturals(4) the screen certifies every non-member
_OPEN_NON_MEMBER = (314, (24, 76, 108, 119, 126, 193, 252, 346, 365, 421, 454, 499, 537, 574, 591,
                          617, 672, 760, 762, 797, 858, 988, 1024, 1030, 1033, 1048, 1079, 1102,
                          1140, 1218, 1227))


@pytest.mark.parametrize(
    "name, field, x, S, message",
    [("disk(256,4,8)", "dual_point", *_OPEN_NON_MEMBER, "dual field separates it by -"),
     ("naturals(4)", "point", 1, (0, 3), "weights on the set miss it")],
    ids=["ray", "weights"],
)
def test_corrupted_membership_witness_raises(monkeypatch, name, field, x, S, message):
    # the self-mass LP's point is (mu on S, mu_x) and its dual the field,
    # 1 at x and at most 0 on S.  A negated field separates the wrong way,
    # and weights shifted by (0.3, 0.1) on S, not in proportion to the
    # weights (1/3, 2/3), miss the column after renormalizing.  Wolfe's
    # algorithm would settle both, so it proposes nothing here
    system = _named_system(name)
    assert _nnls_member(system.basis, x, S) == (field == "point")
    no_wolfe(monkeypatch)
    solve = lp.solve

    def corrupted(prog, *args, **kwargs):
        out = solve(prog, *args, **kwargs)
        value = getattr(out, field)
        bad = -value if field == "dual_point" else value + np.linspace(0.3, 0.1, value.shape[0])
        return dataclasses.replace(out, **{field: bad})

    monkeypatch.setattr(lp, "solve", corrupted)
    with pytest.raises(ConsistencyError, match=message):
        sets.in_hull(system, x, S)
    with pytest.raises(ConsistencyError, match=message):
        sets.separate(system, S, x)


def _nnls_member(B, x, S):
    """Membership by NNLS, never calling the simplex engine: weights on S
    and the ones row that reproduce column x within 1e-9."""
    A = np.vstack([B[:, list(S)], np.ones((1, len(S)))])
    b = np.append(B[:, x], 1.0)
    w, _ = nnls(A, b, maxiter=50 * A.shape[1])
    return bool(np.abs(A @ w - b).max() <= 1e-9 * (1.0 + np.abs(A).max()))


# On every 4th circle point of disk(64,2,8) and every 16th of disk(256,4,8)
# the sin 8t basis row is ~1e-16 noise; the membership LP leaves such rows
# out, so the engine's row equilibration cannot blow the noise up into a
# false "not a member".
@pytest.fixture(scope="module")
def disk64():
    return gen_disk(n_circle=64, n_interior_rings=2, degree=8).system


_EVERY_4TH = tuple(range(0, 64, 4))


def test_center_is_in_hull_of_every_4th_circle_point(disk64):
    center = disk64.space.index("center")
    assert _nnls_member(disk64.basis, center, _EVERY_4TH)
    assert sets.in_hull(disk64, center, _EVERY_4TH)


def test_trace_hull_of_every_4th_circle_point_matches_nnls(disk64):
    hull = sets.trace_hull(disk64, _EVERY_4TH)
    assert len(hull) == 49
    assert hull == tuple(x for x in range(disk64.n) if _nnls_member(disk64.basis, x, _EVERY_4TH))


def test_trace_hull_of_every_16th_circle_point_matches_nnls():
    big = gen_disk(n_circle=256, n_interior_rings=4, degree=8).system
    S = tuple(range(0, 256, 16))
    hull = sets.trace_hull(big, S)
    assert len(hull) == 81
    assert hull == tuple(x for x in range(big.n) if _nnls_member(big.basis, x, S))


def test_membership_lp_with_noisy_degenerate_stall_terminates():
    # phase 1 of the old membership LP stalled here with +-5e-12 rounding
    # noise in its objective and cycled into the pivot limit.
    # NNLS puts 897 outside; in_hull's Gram screen certifies 897 with no LP,
    # so the self-mass LP is called directly too, and its dual field must
    # be checked
    big = gen_disk(n_circle=256, n_interior_rings=4, degree=8).system
    S = (59, 254, 263, 351, 493, 566, 632, 832, 841, 1000, 1001, 1016, 1093, 1203, 1234)
    assert not _nnls_member(big.basis, 897, S)
    assert sets.in_hull(big, 897, S) is False
    member, (c, t) = measures._membership(big, 897, S)
    assert not member and measures.separation_margin(big.basis, c, t, 897, list(S)) > 0.0


@pytest.mark.parametrize("label", ["ring1_000", "ring1_004", "ring1_008"])
def test_ring_points_inside_every_4th_circle_point_are_not_separable(disk64, label):
    ring = disk64.space.index(label)
    assert _nnls_member(disk64.basis, ring, _EVERY_4TH)
    res = sets.separate(disk64, _EVERY_4TH, ring)
    assert not res.separable and res.witness is None


@functools.cache
def _named_system(name):
    return {
        "disk(256,4,8)": lambda: gen_disk(256, 4, 8),
        "disk(128,3,12)": lambda: gen_disk(128, 3, 12),
        "disk(64,2,8)": lambda: gen_disk(64, 2, 8),
        "cantor(4)": lambda: gen_cantor(4),
        "interval(101)": lambda: gen_interval_affine(101),
        "interval(200)": lambda: gen_interval_affine(200),
        "naturals(40)": lambda: gen_naturals(40),
        "naturals(4)": lambda: gen_naturals(4),
    }[name]().system


def _oracle_cases():
    """(system name, S, ambient): symmetric circle subsets, seeded random
    subsets, and ambient restrictions."""
    rng = np.random.default_rng(8)

    def subsets(name, n, lo, hi, count):
        return [
            (name, tuple(sorted(rng.choice(n, size=size, replace=False))), None)
            for size in rng.integers(lo, hi + 1, size=count)
        ]

    cases = [
        ("disk(256,4,8)", tuple(range(0, 256, 16)), None),
        *subsets("disk(256,4,8)", 1281, 12, 40, 6),
        ("disk(64,2,8)", _EVERY_4TH, None),
        ("disk(64,2,8)", tuple(range(0, 64, 2)), None),
        ("disk(128,3,12)", tuple(range(0, 128, 8)), None),
        *subsets("cantor(4)", 63, 2, 20, 3),
        *subsets("interval(101)", 101, 2, 30, 3),
        *subsets("naturals(40)", 40, 2, 12, 3),
        ("naturals(4)", (0, 3), None),
        ("naturals(4)", (1, 2), None),
        ("naturals(4)", (0, 2), (0, 1, 2)),
        ("disk(64,2,8)", _EVERY_4TH, tuple(range(64, 193))),
        ("disk(64,2,8)", _EVERY_4TH, tuple(range(1, 193, 2))),
        ("disk(64,2,8)", tuple(range(0, 64, 2)), tuple(range(0, 193, 3))),
    ]
    return [pytest.param(*case, id=f"{case[0]}-{k}") for k, case in enumerate(cases)]


@pytest.mark.parametrize("name, S, ambient", _oracle_cases())
def test_trace_hull_matches_per_point_lp_oracle(name, S, ambient):
    system = _named_system(name)
    assert sets.trace_hull(system, S, ambient=ambient) == trace_hull_lp(system, S, ambient)


@pytest.mark.parametrize("name, step", [("disk(256,4,8)", 16), ("disk(64,2,8)", 4)])
def test_trace_hull_solves_an_lp_only_on_a_miss(name, step, monkeypatch):
    # one LP per point outside S, 1265 and 177, before witnesses were
    # reused, 17 and 16 before the Gram screen ran on points outside S, and
    # 2 and 2 before Wolfe's algorithm took the misses
    system = _named_system(name)
    calls = count_lps(monkeypatch)
    sets.trace_hull(system, tuple(range(0, 16 * step, step)))
    assert not calls


def _seeded_queries(rng, system, count):
    """``count`` (x, S) pairs shaped like the queries benchmark's: S of 12 to
    40 random points, x a random point outside S."""
    queries = []
    for _ in range(count):
        size = int(rng.integers(12, 41))
        S = tuple(sorted(rng.choice(system.n, size=size, replace=False).tolist()))
        queries.append((int(rng.choice(np.setdiff1d(np.arange(system.n), S))), S))
    return queries


def test_in_hull_matches_nnls_and_mostly_skips_the_lp(monkeypatch):
    # the Gram screen leaves about a quarter of these open, the members and
    # non-members of the larger sets, and Wolfe's algorithm settles them all
    big = _named_system("disk(256,4,8)")
    calls = count_lps(monkeypatch)
    for x, S in _seeded_queries(np.random.default_rng(2024), big, 200):
        assert sets.in_hull(big, x, S) == _nnls_member(big.basis, x, S)
    assert not calls


def test_wolfe_fields_that_stop_early_separate_exactly(monkeypatch):
    # Wolfe's algorithm returns its first iterate p that is above 0 by its
    # tolerance at every column, before p reaches the nearest point.  Every
    # non-member that such a field, or a nearest point's, settles with no LP
    # is separated by it in rational arithmetic, and some of these draws
    # stop early
    big = _named_system("disk(256,4,8)")
    B = big.basis
    lps, runs, settled = count_lps(monkeypatch), [], []
    wolfe, decide = measures._wolfe, measures._decide

    def running(Y):
        runs.append((Y, wolfe(Y)))
        return runs[-1][1]

    def recording(system, x, rest, rows, frame, own):
        lps_before, runs_before = len(lps), len(runs)
        member, witness = decide(system, x, rest, rows, frame, own)
        if not member and len(lps) == lps_before and len(runs) == runs_before + 1:
            Y, (_, p) = runs[-1]
            early = p @ p - (p @ Y).min() > 1e-12 * np.einsum("ij,ij->j", Y, Y).max()
            settled.append((x, rest, witness[0], early))
        return member, witness

    monkeypatch.setattr(measures, "_wolfe", running)
    monkeypatch.setattr(measures, "_decide", recording)
    for x, S in _seeded_queries(np.random.default_rng(2024), big, 200):
        sets.in_hull(big, x, S)
    assert not lps
    assert any(early for *_, early in settled)
    for x, rest, c, _ in settled:
        assert exact_margin(np.column_stack([B[:, rest], B[:, x]]), c, rest.size) > 0


def test_failed_wolfe_refactor_falls_back_to_the_lp(monkeypatch):
    # a minor cycle refactors Wolfe's active set by a Cholesky factorization;
    # where that fails, Wolfe proposes nothing and the self-mass LP decides
    big = _named_system("disk(256,4,8)")
    queries = _seeded_queries(np.random.default_rng(2025), big, 40)
    honest = [sets.in_hull(big, x, S) for x, S in queries]

    def singular(a):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", singular)
    calls = count_lps(monkeypatch)
    assert [sets.in_hull(big, x, S) for x, S in queries] == honest
    assert calls


@pytest.mark.parametrize(
    "name, run, counts",
    [
        ("interval(200)", measures.choquet_boundary, {1}),
        ("disk(128,3,12)", measures.choquet_boundary, {12, 15, 16}),
        ("disk(256,4,8)", lambda s: sets.trace_hull(s, tuple(range(0, 256, 16))), {3}),
        ("disk(256,4,8)", measures.choquet_boundary, range(53)),
    ],
    ids=["boundary-interval(200)", "boundary-disk(128,3,12)", "trace-hull-disk(256,4,8)",
         "boundary-disk(256,4,8)"],
)
def test_wolfe_run_counts(name, run, counts, monkeypatch):
    # the counts README publishes: the boundary and trace hull ask Wolfe's
    # algorithm only where no witness found so far answers.  The disk
    # boundaries' counts follow the OpenBLAS kernel, through the rounding of
    # the screen's SVD: 15 and 47 under SkylakeX and its successors, 16 and
    # 52 under Zen and Haswell, 12 and 41 under Sandybridge.  disk(256,4,8)'s
    # boundary needs more runs than the LP route solved LPs (9), so that pin
    # is a ceiling
    system = _named_system(name)
    runs, wolfe = [], measures._wolfe

    def counting(Y):
        runs.append(Y)
        return wolfe(Y)

    monkeypatch.setattr(measures, "_wolfe", counting)
    run(system)
    assert len(runs) in counts


@pytest.mark.parametrize("forgery", ["negated", "another-points"])
def test_forged_gram_fields_cost_lps_not_wrong_verdicts(monkeypatch, forgery):
    # the screen's fields are proposals that the rounding-bound check must
    # reject when they do not separate: a negated field is least at the
    # point, and the raw field of the first column of S is largest there.
    # Wolfe's proposals are forged too (``forge_wolfe``), so a rejected
    # field costs in_hull, separate and expose one LP each
    big = _named_system("disk(256,4,8)")
    queries = _seeded_queries(np.random.default_rng(2025), big, 20)
    every_16th = tuple(range(0, 256, 16))
    honest = [sets.in_hull(big, x, S) for x, S in queries]
    calls = count_lps(monkeypatch)
    hull, honest_lps = sets.trace_hull(big, every_16th), len(calls)
    fields = measures._gram_fields

    def forged(Q, at, m):
        for C, frame in fields(Q, at, m):
            yield (-C if forgery == "negated" else np.repeat(Q[:, [0]], at.size, axis=1)), frame

    monkeypatch.setattr(measures, "_gram_fields", forged)
    forge_wolfe(monkeypatch)
    calls.clear()
    for (x, S), want in zip(queries, honest):
        before = len(calls)
        assert sets.in_hull(big, x, S) == want
        assert len(calls) == before + 1
        # separate shares the route, and its witness separates by evaluation
        result = sets.separate(big, S, x)
        assert result.separable is not want and len(calls) == before + 2
        if result.separable:
            vals = evaluate(big, result.witness)
            assert vals[x] > vals[list(S)].max()
    for x in (0, 4, 8):  # circle points, on the boundary
        before = len(calls)
        vals = evaluate(big, maxprinciple.expose(big, x))
        assert len(calls) == before + 1 and vals[x] > np.delete(vals, x).max()
    calls.clear()
    assert sets.trace_hull(big, every_16th) == hull
    assert len(calls) > honest_lps


def test_forged_wolfe_proposals_cost_lps_not_wrong_verdicts(monkeypatch):
    # Wolfe's proposals are checked like the LP's witnesses: a negated
    # nearest point gives a field least at the point, and weights moved to
    # the farthest column miss it.  On the draws the screen leaves open,
    # each forged proposal costs in_hull and separate one LP each
    big = _named_system("disk(256,4,8)")
    wolfe, asked = measures._wolfe, []

    def asking(Y):
        asked.append(Y)
        return wolfe(Y)

    monkeypatch.setattr(measures, "_wolfe", asking)
    calls, open_draws = count_lps(monkeypatch), []
    for x, S in _seeded_queries(np.random.default_rng(2025), big, 100):
        before = len(asked)
        member = sets.in_hull(big, x, S)
        if len(asked) > before:
            open_draws.append((x, S, member))
    assert not calls
    assert len(open_draws) >= 10 and {m for _, _, m in open_draws} == {False, True}
    forge_wolfe(monkeypatch)
    for x, S, want in open_draws:
        before = len(calls)
        assert sets.in_hull(big, x, S) == want and len(calls) == before + 1
        result = sets.separate(big, S, x)
        assert result.separable is not want and len(calls) == before + 2
        if result.separable:
            vals = evaluate(big, result.witness)
            assert vals[x] > vals[list(S)].max()


def test_reused_rays_keep_the_rows_of_each_points_own_lp(disk64):
    # Rays found first at these non-members put weight on the sin 8t row.
    # That row is ~1e-16 noise on S and at tangent members, whose own LPs
    # drop it; checked by margin alone, such a ray "separates" them.  In
    # index order the members are certified before these rays exist.
    first = ["ring1_005", "ring1_006", "ring1_007", "ring1_001", "ring1_002",
             "ring1_003", "ring1_009", "ring1_013"]
    lead = [disk64.space.index(label) for label in first]
    perm = np.array(lead + [j for j in range(disk64.n) if j not in lead])
    relabeled = FunctionSystem(
        FiniteSpace(tuple(disk64.space.labels[j] for j in perm)), disk64.basis[:, perm]
    )
    new = np.argsort(perm)
    hull = sets.trace_hull(relabeled, [int(new[j]) for j in _EVERY_4TH])
    want = tuple(x for x in range(disk64.n) if _nnls_member(disk64.basis, x, _EVERY_4TH))
    assert len(want) == 49
    assert tuple(sorted(int(perm[k]) for k in hull)) == want


@pytest.mark.parametrize("forgery", ["scaled-ray", "wrong-columns"])
def test_forged_witnesses_cause_misses_not_wrong_verdicts(disk64, monkeypatch, forgery):
    # the membership LP keeps its own checked verdict but hands the oracle a
    # witness that certifies no other point: a ray shrunk below its rounding
    # bound, or all weight moved onto the column of S it weighs least.  The
    # boundary and extreme points never reuse a ray, so only forged weights
    # cost them LPs; forged weights on a point of their own support must not
    # make it a member
    every_3rd = tuple(range(0, disk64.n, 3))
    weights = forgery == "wrong-columns"
    cases = [
        (lambda: sets.trace_hull(disk64, _EVERY_4TH), trace_hull_lp(disk64, _EVERY_4TH), True),
        (
            lambda: measures.choquet_boundary(disk64).boundary,
            extreme_lp(disk64, range(disk64.n)),
            weights,
        ),
        (lambda: sets.phi_extreme_points(disk64, every_3rd), extreme_lp(disk64, every_3rd), weights),
    ]
    membership = measures._membership
    no_wolfe(monkeypatch)  # the LP's witnesses are the ones forged and reused

    def forged(system, x, S):
        member, witness = membership(system, x, S)
        if member and forgery == "wrong-columns":
            return True, np.eye(witness.size)[np.argmin(witness)]
        if not member and forgery == "scaled-ray":
            c, t = witness
            return False, (1e-20 * c, t + 1.0)
        return member, witness

    calls = count_lps(monkeypatch)
    honest = []
    for call, _, _ in cases:
        calls.clear()
        call()
        honest.append(len(calls))
    monkeypatch.setattr(measures, "_membership", forged)
    for (call, want, costs_more), before in zip(cases, honest):
        calls.clear()
        assert call() == want
        assert len(calls) > before if costs_more else len(calls) == before
