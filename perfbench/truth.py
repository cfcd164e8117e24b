"""Independent ground truth for every operation the benchmark times.

Nothing here calls ``choquet.lp`` or any function that reaches it.  Named
instances carry their generator's expected boundary; point clouds are
checked against ``scipy.spatial.ConvexHull``; hull membership comes
from nonnegative least squares (``scipy.optimize.nnls``), certified by
the residual of the convex weights or by the separating functional the
residual gives; biconjugates and key intervals come from
``scipy.optimize.linprog`` (HiGHS), certified by a primal and a dual
feasible point whose values agree.  Witnesses the program returns (separators, exposing
functionals) are checked by evaluating them on the basis.

``Checker.check`` returns None for a correct output and a short reason
otherwise; a truth that cannot be certified raises ``Uncertified``.
"""

import json

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull

VALUE_TOL = 1e-6  # relative to 1 + max|f| for field values
CONVEX_TOL = 1e-7  # the library's Choquet-convexity tolerance
ARGMAX_TOL = 1e-9


class Uncertified(Exception):
    """The independent check could not certify a ground truth."""


def _highs(c, **kw):
    # HiGHS defaults to 1e-7 feasibility; the certificates below ask for 1e-9
    return linprog(c, method="highs", options={"primal_feasibility_tolerance": 1e-9,
                                               "dual_feasibility_tolerance": 1e-9}, **kw)


class Checker:
    def __init__(self):
        self._member = {}
        self._fstar = {}
        self._upper = {}

    # -- certified primitives ------------------------------------------------

    def member(self, B, x, S):
        """Is column x a convex combination of the columns S?"""
        S = tuple(S)
        if x in S:
            return True
        key = (id(B), x, S)
        if key not in self._member:
            self._member[key] = self._member_uncached(B, x, S)
        return self._member[key]

    @staticmethod
    def _member_uncached(B, x, S):
        # Nonnegative least squares on [B_S; 1] w = [b_x; 1] is exact up to
        # rounding, unlike an LP solver's feasibility tolerance, and settles
        # both ways: a residual within 1e-9 is a set of convex weights, and
        # otherwise the residual r is a separator, r.[b_j; 1] <= 0 on S
        # with r.[b_x; 1] = |r|^2 > 0, which is checked by evaluation.  Near
        # the hull's boundary the weights are re-solved on their support and
        # the separator is also sought by HiGHS (largest margin in a unit box).
        A = np.vstack([B[:, S], np.ones((1, len(S)))])
        b = np.concatenate([B[:, x], [1.0]])
        scale = 1.0 + np.abs(A).max()
        try:
            # the default budget (3 sweeps per column) runs out on some
            # rank-deficient subsets that converge a little later
            w, _ = nnls(A, b, maxiter=50 * A.shape[1])
        except RuntimeError as exc:
            raise Uncertified(f"membership of column {x}: {exc}") from exc
        support = w > 0.0
        polished = np.zeros_like(w)
        polished[support] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
        for weights in (w, polished):
            if weights.min() >= 0.0 and np.abs(A @ weights - b).max() <= 1e-9 * scale:
                return True
        def separates(phi):
            return phi @ b - (phi @ A).max() > 1e-12 * np.linalg.norm(phi) * scale

        if separates(b - A @ w):
            return False
        d = A.shape[0]
        res = _highs(np.r_[np.zeros(d), -1.0], A_ub=np.c_[np.r_[A.T, -b[None, :]], np.r_[np.zeros(len(S)), 1.0]],
                     b_ub=np.zeros(len(S) + 1), bounds=[(-1, 1)] * d + [(0, 1)])
        if res.status == 0 and separates(res.x[:d]):
            return False
        raise Uncertified(f"membership of column {x} in a {len(S)}-point hull")

    def fstar(self, B, f, x):
        """Biconjugate f**(x) = max{phi(x): B'phi <= f} = min{<mu, f>: mu
        represents x}; both sides are evaluated and must agree."""
        key = (id(B), f.tobytes(), x)
        if key not in self._fstar:
            self._fstar[key] = self._bracket(B, f, x, lower=True)
        return self._fstar[key]

    def upper(self, B, f, x):
        """Upper end of the key interval: max <mu, f> over representing measures."""
        key = (id(B), f.tobytes(), x)
        if key not in self._upper:
            self._upper[key] = self._bracket(B, f, x, lower=False)
        return self._upper[key]

    @staticmethod
    def _bracket(B, f, x, lower):
        n = B.shape[1]
        s = 1.0 if lower else -1.0
        scale = 1.0 + np.abs(f).max()
        # phi side: lower -> max phi(x) with B'phi <= f; upper -> min phi(x)
        # with B'phi >= f.  Shifting phi by its violation along the constant
        # function (constants lie in the span) makes it exactly feasible, so
        # its value is a true bound.
        ph = _highs(-s * B[:, x], A_ub=s * B.T, b_ub=s * f, bounds=(None, None))
        # measure side: min (lower) or max (upper) <mu, f> over representing
        # measures, re-solved on its support to an exact representation
        A = np.vstack([B, np.ones((1, n))])
        b = np.concatenate([B[:, x], [1.0]])
        mu = _highs(s * f, A_eq=A, b_eq=b, bounds=(0, None))
        if ph.status != 0 or mu.status != 0:
            raise Uncertified(f"key-interval LPs at point {x}")
        phi_val = float(B[:, x] @ ph.x) - s * max(0.0, float(np.max(s * (B.T @ ph.x - f))))
        w = np.clip(mu.x, 0.0, None)
        support = w > 1e-12 * w.max()
        polished = np.zeros_like(w)
        polished[support] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
        exact = [c for c in (w, polished) if c.min() >= 0.0
                 and np.abs(A @ c - b).max() <= 1e-9 * (1.0 + np.abs(A).max())]
        if not exact:
            raise Uncertified(f"no exact representing measure at point {x}")
        mu_val = float(exact[0] @ f)
        if abs(phi_val - mu_val) > 1e-7 * scale:
            raise Uncertified(f"primal and dual values differ at point {x}")
        return 0.5 * (phi_val + mu_val)

    def fstar_field(self, B, f):
        return np.array([self.fstar(B, f, x) for x in range(B.shape[1])])

    @staticmethod
    def signed_hat(B, f, alpha):
        """Closed form of the signed convexification (module docstring of
        ``choquet.convexify``): f inside the row span of B, else min f - alpha."""
        coef, *_ = np.linalg.lstsq(B.T, f, rcond=None)
        if np.abs(B.T @ coef - f).max() <= 1e-9 * (1.0 + np.abs(f).max()):
            return f.copy()
        return np.full(f.shape, f.min() - alpha)

    def is_convex(self, B, f):
        gap = float(np.max(f - self.fstar_field(B, f)))
        if abs(gap - CONVEX_TOL) < 0.1 * CONVEX_TOL:
            raise Uncertified("convexity gap at the tolerance")
        return gap <= CONVEX_TOL, gap

    @staticmethod
    def kyfan(B, y, z):
        """Endpoints plus the points whose differences to y and z are
        antiparallel (the closed form of the strict-betweenness LP)."""
        out = []
        for x in range(B.shape[1]):
            if x in (y, z):
                out.append(x)
                continue
            u, v = B[:, y] - B[:, x], B[:, z] - B[:, x]
            if u @ v <= -(1.0 - 1e-9) * np.linalg.norm(u) * np.linalg.norm(v):
                out.append(x)
        return tuple(out)

    @staticmethod
    def hull_vertices(pts):
        return tuple(sorted(int(j) for j in ConvexHull(pts).vertices))

    @staticmethod
    def _rounding(B, coeffs):
        """Bound on the rounding error of evaluating ``B' coeffs``."""
        return 64.0 * np.finfo(float).eps * np.abs(coeffs).sum() * np.abs(B).max()

    def separates(self, B, C, x, coeffs):
        vals = B.T @ coeffs
        return vals[x] - vals[list(C)].max() > self._rounding(B, coeffs)

    def exposes(self, B, x, coeffs):
        vals = B.T @ coeffs
        return vals[x] - np.delete(vals, x).max() > self._rounding(B, coeffs)

    @staticmethod
    def field_close(got, want, f):
        got = np.asarray(got, dtype=float)
        return got.shape == want.shape and np.abs(got - want).max() <= VALUE_TOL * (1.0 + np.abs(f).max())

    # -- per operation ------------------------------------------------------

    def check(self, op, output):
        kind, value = output
        if kind == "error":
            return f"raised {value}"
        if op.fn == "cli":
            return self._check_cli(op, *value)
        return getattr(self, f"_api_{op.fn}")(op, value)

    def _api_choquet_boundary(self, op, got):
        if "boundary" in op.expect:
            want = tuple(op.expect["boundary"])
        else:
            want = self.hull_vertices(op.expect["points"])
        return None if tuple(got) == want else f"boundary has {len(got)} points, expected {len(want)}"

    def _api_biconjugate(self, op, got):
        s, f = op.args
        want = self.fstar_field(s.basis, f)
        return None if self.field_close(got, want, f) else "biconjugate differs from HiGHS"

    _api_hat_positive = _api_biconjugate

    def _api_hat_signed(self, op, got):
        s, f = op.args
        want = self.signed_hat(s.basis, f, op.kwargs.get("alpha", 1.0))
        return None if self.field_close(got, want, f) else "hat_signed differs from its closed form"

    def _api_is_choquet_convex(self, op, got):
        s, f = op.args
        want, _ = self.is_convex(s.basis, f)
        return None if got == want else f"is_choquet_convex returned {got}"

    def _api_key_interval(self, op, got):
        s, f, x = op.args
        want = np.array([self.fstar(s.basis, f, x), self.upper(s.basis, f, x)])
        return None if self.field_close(got, want, f) else "key interval differs from HiGHS"

    def _api_in_hull(self, op, got):
        s, x, S = op.args
        want = self.member(s.basis, x, S)
        return None if got == want else f"in_hull returned {got}"

    def _api_separate(self, op, got):
        s, C, x = op.args
        separable, coeffs = got
        want = not self.member(s.basis, x, C)
        if separable != want:
            return f"separate returned separable={separable}"
        if separable and not self.separates(s.basis, C, x, coeffs):
            return "separating witness does not separate"
        return None

    def _api_trace_hull(self, op, got):
        s, S = op.args
        want = tuple(x for x in range(s.n) if self.member(s.basis, x, S))
        return None if tuple(got) == want else f"trace_hull has {len(got)} of {len(want)} members"

    def _api_kyfan_segment(self, op, got):
        s, y, z = op.args
        return None if tuple(got) == self.kyfan(s.basis, y, z) else "Ky Fan segment differs"

    def _api_phi_extreme_points(self, op, got):
        s, S = op.args
        want = tuple(x for x in S if not self.member(s.basis, x, tuple(j for j in S if j != x)))
        return None if tuple(got) == want else "extreme points differ"

    def _api_expose(self, op, got):
        s, x = op.args
        return None if self.exposes(s.basis, x, got) else "functional does not expose the point"

    # -- CLI -------------------------------------------------------------------

    def _check_cli(self, op, code, stdout):
        if code != 0:
            return f"exit code {code}"
        e = op.expect
        system = e["system"]
        B, lab = system.basis, system.space.labels
        names = lambda idx: [lab[j] for j in idx]  # noqa: E731
        cmd = op.args[0]
        text = stdout.decode()
        if cmd == "boundary" and "--csv" in op.args:
            rows = [line.split(",") for line in text.splitlines()[1:]]
            got = [r[0] for r in rows if r[1] == "True"]
            return None if got == names(e["boundary"]) else "CSV boundary differs"
        doc = json.loads(text) if cmd != "plot" else None
        if cmd == "gen":
            ok = (doc["labels"] == list(lab) and np.array_equal(np.array(doc["basis"]), B)
                  and doc["expected"]["boundary"] == names(e["boundary"]))
            return None if ok else "generated instance differs"
        if cmd == "boundary":
            return None if doc["boundary"] == names(e["boundary"]) else "boundary differs"
        if cmd == "hull":
            want = [x for x in range(system.n) if self.member(B, x, e["set"])]
            return None if doc["hull"] == names(want) else "hull differs"
        if cmd == "separate":
            want = not self.member(B, e["target"], e["set"])
            if doc["separable"] != want:
                return f"separable={doc['separable']}"
            if want and not self.separates(B, e["set"], e["target"], np.array(doc["witness"])):
                return "separating witness does not separate"
            return None
        if cmd == "extreme":
            km = doc["krein_milman"]
            ok = (doc["extreme"] == names(e["boundary"]) and km["ok"]
                  and km["hull"] == list(lab) and km["extreme_hull"] == list(lab))
            return None if ok else "extreme points or Krein-Milman report differ"
        if cmd == "kyfan":
            want = names(self.kyfan(B, *e["segment"]))
            return None if doc["segment"]["members"] == want else "Ky Fan segment differs"
        if cmd == "keyinterval":
            f = e["field"]
            lo = np.array([r["lo"] for r in doc["intervals"]])
            hi = np.array([r["hi"] for r in doc["intervals"]])
            ok = (self.field_close(lo, self.fstar_field(B, f), f) and self.field_close(
                hi, np.array([self.upper(B, f, x) for x in range(system.n)]), f))
            return None if ok else "key intervals differ from HiGHS"
        if cmd == "convexify":
            f = e["field"]
            fss = self.fstar_field(B, f)
            ok = (self.field_close(doc["biconjugate"], fss, f)
                  and self.field_close(doc["hat_positive"], fss, f)
                  and self.field_close(doc["hat_signed"], self.signed_hat(B, f, 1.0), f)
                  and doc["is_choquet_convex"] == self.is_convex(B, f)[0])
            return None if ok else "convexification differs"
        if cmd == "check-convex":
            want, gap = self.is_convex(B, e["field"])
            ok = doc["is_choquet_convex"] == want and abs(doc["max_gap"] - gap) <= VALUE_TOL
            return None if ok else "convexity verdict differs"
        if cmd in ("bauer", "multimax"):
            bset = set(e["boundary"])
            amaxes = []
            for pieces in e["specs"]:
                f = np.max([B.T @ a + b for a, b in pieces], axis=0)
                amaxes.append(np.flatnonzero(f >= f.max() - ARGMAX_TOL).tolist())
            if cmd == "bauer":
                ok = (doc["argmax"] == names(amaxes[0]) and doc["bauer_ok"]
                      and doc["boundary_argmax"] == names([j for j in amaxes[0] if j in bset]))
                return None if ok else "Bauer report differs"
            common = sorted(set.intersection(*map(set, amaxes)))
            ok = (doc["common_argmax"] == names(common) and doc["ok"]
                  and doc["hypothesis_void"] == (not common))
            return None if ok else "multi-max report differs"
        if cmd == "expose":
            ok = self.exposes(B, e["target"], np.array(doc["coeffs"]))
            return None if ok else "functional does not expose the target"
        if cmd == "generic":
            flags = []
            for t in range(e["trials"]):
                rng = np.random.default_rng([e["seed"], t])
                g = B.T @ rng.uniform(-e["eps"], e["eps"], size=system.d)
                flags.append(np.count_nonzero(g >= g.max() - 1e-9) == 1)
            ok = abs(doc["unique_fraction"] - float(np.mean(flags))) <= 1e-12
            return None if ok else "unique fraction differs"
        if cmd == "plot":
            ok = (text.count("<circle") == system.n
                  and text.count('fill="#204080"') == len(e["boundary"]))
            return None if ok else "SVG does not mark the boundary"
        raise ValueError(f"no check for CLI subcommand {cmd!r}")
