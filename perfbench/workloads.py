"""Workload definitions: the seeded operation lists the benchmark times.

Every workload is a fixed list of operations (one pass).  The timed phase
repeats whole passes, so each run sees the same mix of calls whatever its
length; only the seed changes the inputs.  Instances come from the
package's generators, while clouds, subsets, fields and specs come from
the benchmark's own RNG: the program only ever receives arrays.

The module is imported both by the worker process that times the calls
and by the parent process that checks the answers; both build the same
list from the same seed.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from choquet import generators
from choquet.space import FiniteSpace, FunctionSystem, system_to_dict


@dataclass
class Op:
    """One top-level call: ``choquet.<fn>(*args, **kwargs)``, or one CLI run
    (``fn == "cli"``, ``args`` is the argv after ``choquet``)."""

    fn: str
    args: tuple
    verdicts: int
    tag: str
    kwargs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    # Whole passes every run makes at least; fixes the sample count that
    # the tail percentile is chosen from, so every run reports the same one.
    min_passes: int
    systems: list
    files: dict = field(default_factory=dict)

    def prepare(self):
        """Set-up the timed phase relies on: validated systems, written files."""
        for system in self.systems:
            system.require_valid()
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    @property
    def tail_percentile(self):
        """Highest whole percentile with at least ten samples beyond it in
        the smallest run (``min_passes`` passes)."""
        n = self.min_passes * len(self.ops)
        return int(np.floor(100.0 * (1.0 - 10.0 / n)))


def _cloud(rng, kind, n):
    """Seeded point cloud: Gaussian, uniform in the disk/ball, or on the
    circle/sphere; the basis is [1, coordinates]."""
    dim = 2 if kind.endswith("2") else 3
    if kind.startswith("gauss"):
        pts = rng.normal(size=(n, dim))
    else:
        pts = rng.normal(size=(n, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        if kind.startswith("ball"):
            pts *= rng.uniform(size=(n, 1)) ** (1.0 / dim)
    basis = np.vstack([np.ones(n), pts.T])
    system = FunctionSystem(FiniteSpace(tuple(f"{kind}_{j}" for j in range(n))), basis)
    return system, pts


def convex_field(rng, system, pieces=4):
    """Max of ``pieces`` random affine functionals of the embedded points."""
    vals = [system.basis.T @ rng.normal(size=system.d) + rng.normal() for _ in range(pieces)]
    return np.max(vals, axis=0)


def _boundary(seed):
    rng = np.random.default_rng(seed)
    ops, systems = [], []
    for tag, inst in [
        ("disk(24,2,8)", generators.gen_disk(24, 2, 8)),
        ("cantor(3)", generators.gen_cantor(3)),
        ("interval(60)", generators.gen_interval_affine(60)),
        ("naturals(60)", generators.gen_naturals(60)),
    ]:
        systems.append(inst.system)
        ops.append(Op("choquet_boundary", (inst.system,), inst.system.n, tag,
                      expect={"boundary": inst.expected_boundary}))
    for kind in ("gauss2", "disk2", "circle2", "gauss3", "ball3", "sphere3"):
        system, pts = _cloud(rng, kind, 40)
        systems.append(system)
        ops.append(Op("choquet_boundary", (system,), system.n, kind, expect={"points": pts}))
    return Workload("boundary", ops, 4, systems)


def _convexify(seed):
    rng = np.random.default_rng(seed)
    ops, systems = [], []
    for tag, inst, step in [
        ("disk(32,1,8)", generators.gen_disk(32, 1, 8), 2),
        ("cantor(3)", generators.gen_cantor(3), 2),
    ]:
        s = inst.system
        systems.append(s)
        f = convex_field(rng, s)
        noisy = f + rng.uniform(0.05, 0.25, size=s.n)
        for label, fld in (("convex", f), ("noisy", noisy)):
            t = f"{tag}/{label}"
            expect = {"field": fld, "convex": label == "convex"}
            ops += [
                Op("biconjugate", (s, fld), s.n, t, expect=expect),
                Op("hat_positive", (s, fld), s.n, t, expect=expect),
                Op("hat_signed", (s, fld), s.n, t, {"alpha": 1.0}, expect),
                Op("is_choquet_convex", (s, fld), 1, t, expect=expect),
            ]
            ops += [Op("key_interval", (s, fld, x), 1, t, expect=expect)
                    for x in range(0, s.n, step)]
    return Workload("convexify", ops, 4, systems)


def _circle_subset(step, n_circle):
    return tuple(range(0, n_circle, step))


def _queries(seed):
    rng = np.random.default_rng(seed)
    big = generators.gen_disk(256, 4, 8).system
    small = generators.gen_disk(64, 2, 8).system
    ops = []

    def subset(system, lo=12, hi=40):
        return tuple(sorted(int(j) for j in rng.choice(system.n, size=int(rng.integers(lo, hi + 1)),
                                                       replace=False)))

    def outside(system, S):
        while True:
            x = int(rng.integers(system.n))
            if x not in S:
                return x

    # enough membership queries that their median hardly moves with the seed
    for _ in range(576):
        S = subset(big)
        ops.append(Op("in_hull", (big, outside(big, S), S), 1, "disk(256,4,8)/random"))
    for _ in range(16):
        S = subset(big)
        ops.append(Op("separate", (big, S, outside(big, S)), 1, "disk(256,4,8)/random"))
    # fixed size: the call costs one LP per point of S and sits next to the
    # latency tail, which should not move with the seed
    for _ in range(4):
        S = subset(big, 24, 24)
        ops.append(Op("phi_extreme_points", (big, S), len(S), "disk(256,4,8)/random"))
    y, z = (int(v) for v in rng.choice(big.n, size=2, replace=False))
    ops.append(Op("kyfan_segment", (big, y, z), big.n, "disk(256,4,8)/random"))
    # Fixed targets: one expose call costs 12-200 ms depending on the point,
    # so seeded targets would make the latency tail depend on the seed.
    for x in _circle_subset(4, 64):
        ops.append(Op("expose", (small, x), 1, "disk(64,2,8)/boundary"))
    # Symmetric circle subsets: their hull LPs have more rows than rank,
    # which the membership and separation verdicts get wrong at the seed.
    ops.append(Op("trace_hull", (big, _circle_subset(16, 256)), big.n, "disk(256,4,8)/every16"))
    quarter = _circle_subset(4, 64)
    ops.append(Op("trace_hull", (small, quarter), small.n, "disk(64,2,8)/every4"))
    center = small.space.index("center")
    ops.append(Op("in_hull", (small, center, quarter), 1, "disk(64,2,8)/every4"))
    ops.append(Op("in_hull", (small, center, _circle_subset(2, 64)), 1, "disk(64,2,8)/every2"))
    for j in range(10):
        ring = small.space.index(f"ring1_{j:03d}")
        ops.append(Op("separate", (small, quarter, ring), 1, "disk(64,2,8)/every4"))
    order = rng.permutation(len(ops))
    return Workload("queries", [ops[i] for i in order], 4, [big, small])


CLI_INSTANCES = {
    "naturals": ("gen_naturals", (20,)),
    "disk": ("gen_disk", (32, 1, 4)),
    "cantor": ("gen_cantor", (2,)),
}


def _cli(seed, workdir):
    rng = np.random.default_rng(seed)
    insts = {k: getattr(generators, fn)(*a) for k, (fn, a) in CLI_INSTANCES.items()}
    path = {k: os.path.join(workdir, f"{k}.json")
            for k in ("naturals", "disk", "cantor", "f", "g", "s0", "s1")}
    files = {path[k]: json.dumps(system_to_dict(i.system, i.expected_dict())) for k, i in insts.items()}
    disk, nat, cantor = insts["disk"].system, insts["naturals"].system, insts["cantor"].system
    lab = disk.space.labels

    def labels(system, idx):
        return ",".join(system.space.labels[j] for j in idx)

    f = convex_field(rng, disk)
    g = convex_field(rng, cantor) + rng.uniform(0.05, 0.25, size=cantor.n)
    specs = [[(rng.normal(size=disk.d), float(rng.normal())) for _ in range(3)] for _ in range(2)]
    for name, data in (("f", f.tolist()), ("g", g.tolist())):
        files[path[name]] = json.dumps(data)
    for i, pieces in enumerate(specs):
        doc = {"pieces": [{"a": a.tolist(), "beta": b} for a, b in pieces]}
        files[path[f"s{i}"]] = json.dumps(doc)
    hull_set = tuple(sorted(int(j) for j in rng.choice(disk.n, size=6, replace=False)))
    sep_set = tuple(sorted(int(j) for j in rng.choice(disk.n, size=8, replace=False)))
    target = int(rng.choice([j for j in range(disk.n) if j not in sep_set]))
    a, b = sorted(int(v) for v in rng.choice(nat.n, size=2, replace=False))
    exposed = int(rng.integers(32))
    gen_seed = int(rng.integers(1 << 30))

    argvs = [
        (["gen", "disk", "--n-circle", "32", "--rings", "1", "--degree", "4"], disk, {}),
        (["boundary", path["naturals"]], nat, {}),
        (["boundary", path["disk"], "--csv"], disk, {}),
        (["boundary", path["cantor"]], cantor, {}),
        (["hull", path["disk"], "--points", labels(disk, hull_set)], disk, {"set": hull_set}),
        (["separate", path["disk"], "--points", labels(disk, sep_set), "--target", lab[target]],
         disk, {"set": sep_set, "target": target}),
        (["extreme", path["cantor"], "--krein-milman"], cantor, {}),
        (["kyfan", path["naturals"], "--segment", labels(nat, (a, b))], nat, {"segment": (a, b)}),
        (["keyinterval", path["disk"], "--field", path["f"]], disk, {"field": f}),
        (["convexify", path["cantor"], "--field", path["g"]], cantor, {"field": g}),
        (["check-convex", path["disk"], "--field", path["f"]], disk, {"field": f}),
        (["bauer", path["disk"], "--spec", path["s0"]], disk, {"specs": specs[:1]}),
        (["multimax", path["disk"], "--spec", path["s0"], "--spec", path["s1"]],
         disk, {"specs": specs}),
        (["expose", path["disk"], "--target", lab[exposed]], disk, {"target": exposed}),
        (["generic", path["naturals"], "--trials", "200", "--eps", "0.1",
          "--seed", str(gen_seed)], nat, {"seed": gen_seed, "trials": 200, "eps": 0.1}),
        (["plot", path["disk"], "--boundary"], disk, {}),
    ]
    boundary = {id(i.system): i.expected_boundary for i in insts.values()}
    ops = []
    for argv, system, extra in argvs:
        verdicts = system.n if argv[0] in ("boundary", "hull", "keyinterval", "convexify") else 1
        expect = dict(extra, system=system, boundary=boundary[id(system)])
        ops.append(Op("cli", tuple(argv), verdicts, argv[0], expect=expect))
    return Workload("cli", ops, 4, [], files)


NAMES = ("boundary", "convexify", "queries", "cli")


def build(name, seed, workdir):
    """The workload ``name`` for ``seed``; ``workdir`` holds the CLI's files."""
    if name == "boundary":
        return _boundary(seed)
    if name == "convexify":
        return _convexify(seed)
    if name == "queries":
        return _queries(seed)
    if name == "cli":
        return _cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
