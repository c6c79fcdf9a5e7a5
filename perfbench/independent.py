"""Reference computations that do not use the package under test.

Every check here works from the JSON documents the benchmark writes and
the CLI prints: instance, game and solution files in the README format,
and ``--json`` outputs.  The hull LP is re-solved with HiGHS, optima
are re-enumerated with numpy, game weights are re-added, and Gaussian
quadrant probabilities come from mpmath at 30 digits.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np


def rational(text) -> Fraction:
    return Fraction(text) if isinstance(text, str) else Fraction(int(text))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Problem:
    """An instance document, flattened for exact checks."""

    def __init__(self, doc: dict):
        self.q = doc["q"]
        self.ids = [v["id"] for v in doc["vertices"]]
        self.weights = [rational(v["weight"]) for v in doc["vertices"]]
        index = {vid: i for i, vid in enumerate(self.ids)}
        minimal = {p["name"]: [tuple(m) for m in p["minimal"]]
                   for p in doc["predicates"]}
        self.edges = []  # (vertex indices, accepted tuples)
        for e in doc["edges"]:
            verts = tuple(index[v] for v in e["vertices"])
            mins = minimal[e["predicate"]]
            acc = [t for t in itertools.product(range(self.q),
                                                repeat=len(verts))
                   if any(all(a >= b for a, b in zip(t, m)) for m in mins)]
            self.edges.append((verts, acc))
        self._accepted = [(verts, set(acc)) for verts, acc in self.edges]

    @property
    def n(self) -> int:
        return len(self.ids)

    def feasible(self, labels) -> bool:
        return all(tuple(labels[v] for v in verts) in acc
                   for verts, acc in self._accepted)

    def cost(self, labels) -> Fraction:
        return sum((w * a for w, a in zip(self.weights, labels)),
                   Fraction(0))

    def point_value(self, pt) -> Fraction:
        if self.q == 2:
            return pt
        return sum((i * a for i, a in enumerate(pt)), Fraction(0))

    # -- hull LP by HiGHS ---------------------------------------------------

    def lp_highs(self) -> float:
        from scipy.optimize import linprog

        q, n = self.q, self.n
        block = 1 if q == 2 else q
        cols = n * block + sum(len(acc) for _v, acc in self.edges)
        c = np.zeros(cols)
        for u, w in enumerate(self.weights):
            for i in range(block):
                c[u * block + i] = float(w) * (1 if q == 2 else i)
        rows, rhs = [], []
        if q > 2:
            for u in range(n):
                r = np.zeros(cols)
                r[u * q:(u + 1) * q] = 1.0
                rows.append(r)
                rhs.append(1.0)
        off = n * block
        for verts, acc in self.edges:
            for j, u in enumerate(verts):
                for i in ([1] if q == 2 else range(q)):
                    r = np.zeros(cols)
                    r[u * block + (0 if q == 2 else i)] = 1.0
                    for a, t in enumerate(acc):
                        if t[j] == i:
                            r[off + a] = -1.0
                    rows.append(r)
                    rhs.append(0.0)
            r = np.zeros(cols)
            r[off:off + len(acc)] = 1.0
            rows.append(r)
            rhs.append(1.0)
            off += len(acc)
        bounds = [(0, 1)] * (n * block) + [(0, None)] * (cols - n * block)
        res = linprog(c, A_eq=np.array(rows), b_eq=np.array(rhs),
                      bounds=bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        return float(res.fun)

    def lp_certificate(self, doc: dict) -> str | None:
        """Exact primal check of an ``lp --lambdas --json`` document.

        Returns None when x and the edge mixtures satisfy every hull
        constraint and the objective equals the weighted value of x.
        """
        q = self.q
        x = []
        for vid in self.ids:
            raw = doc["x"][vid]
            x.append(rational(raw) if q == 2
                     else tuple(rational(a) for a in raw))
        for pt in x:
            if q == 2 and not 0 <= pt <= 1:
                return "x outside [0, 1]"
            if q > 2 and (any(a < 0 for a in pt) or sum(pt) != 1):
                return "x outside the simplex"
        if len(doc["lambdas"]) != len(self.edges):
            return "one mixture per edge expected"
        for entry, (verts, acc) in zip(doc["lambdas"], self.edges):
            atoms = {tuple(int(ch) for ch in key): rational(p)
                     for key, p in entry["atoms"].items()}
            if any(t not in acc or p <= 0 for t, p in atoms.items()):
                return f"edge {entry['edge']}: bad atom"
            if sum(atoms.values()) != 1:
                return f"edge {entry['edge']}: mixture does not sum to 1"
            for j, u in enumerate(verts):
                for i in ([1] if q == 2 else range(q)):
                    mass = sum((p for t, p in atoms.items() if t[j] == i),
                               Fraction(0))
                    have = x[u] if q == 2 else x[u][i]
                    if mass != have:
                        return f"edge {entry['edge']}: marginal mismatch"
        value = sum((w * self.point_value(pt)
                     for w, pt in zip(self.weights, x)), Fraction(0))
        if value != rational(doc["objective"]):
            return "objective differs from the value of x"
        return None

    # -- exhaustive search --------------------------------------------------

    def brute_force(self):
        """(optimum, lexicographically least optimal labels) by numpy."""
        q, n = self.q, self.n
        total = q ** n
        idx = np.arange(total, dtype=np.int64)
        # vertex 0 is the most significant digit, so index order is
        # lexicographic order of label tuples
        digits = [((idx // q ** (n - 1 - v)) % q).astype(np.int8)
                  for v in range(n)]
        ok = np.ones(total, dtype=bool)
        for verts, acc in self.edges:
            k = len(verts)
            table = np.zeros(q ** k, dtype=bool)
            for t in acc:
                table[sum(a * q ** (k - 1 - j) for j, a in enumerate(t))] = True
            local = np.zeros(total, dtype=np.int64)
            for v in verts:
                local = local * q + digits[v]
            ok &= table[local]
        scale = 1
        for w in self.weights:
            scale = scale * w.denominator // math.gcd(scale, w.denominator)
        iw = [int(w * scale) for w in self.weights]
        cost = np.zeros(total, dtype=np.int64)
        for v in range(n):
            cost += digits[v].astype(np.int64) * iw[v]
        cost = np.where(ok, cost, np.iinfo(np.int64).max)
        best = int(np.argmin(cost))  # first minimum: lexicographically least
        labels = tuple(int(d[best]) for d in digits)
        return Fraction(int(cost[best]), scale), labels

    def bucket_round(self, snapped):
        """Cheapest feasible labeling constant on equal snapped values.

        ``snapped`` is the eps-grid image of the solution, one scalar per
        vertex (q = 2).  Buckets are ordered by ascending value and the
        tie-break is lexicographic in bucket order.
        """
        values = sorted(set(snapped))
        bucket = [values.index(s) for s in snapped]
        best = None
        for z in itertools.product(range(self.q), repeat=len(values)):
            labels = tuple(z[b] for b in bucket)
            if self.feasible(labels):
                cost = self.cost(labels)
                if best is None or cost < best[0]:
                    best = (cost, labels)
        return best


def snap_boolean(x: Fraction, eps: Fraction) -> Fraction:
    """Smallest multiple of eps that is >= x (q = 2 grid snap)."""
    k = -((-x) // eps)
    return k * eps


def satisfied_weight(game: dict, labels: dict) -> Fraction:
    """Weight of game edges whose bijection maps the left label to the
    right label; ``pi`` in the game file is 1-indexed."""
    total = Fraction(0)
    for e in game["edges"]:
        if labels[e["v"]] == e["pi"][labels[e["u"]]] - 1:
            total += rational(e["weight"])
    return total


def gamma_mp(rho: float, mu: float, nu: float) -> float:
    """P[X < Phi^-1(mu), Y >= Phi^-1(1 - nu)] for rho-correlated normals,
    integrated by mpmath at 30 significant digits."""
    import mpmath

    if mu == 0 or nu == 0:
        return 0.0
    if mu == 1:
        return float(nu)
    if nu == 1:
        return float(mu)
    with mpmath.workdps(30):
        rho_m, mu_m, nu_m = mpmath.mpf(rho), mpmath.mpf(mu), mpmath.mpf(nu)
        a = mpmath.sqrt(2) * mpmath.erfinv(2 * mu_m - 1)
        b = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * nu_m)
        if rho_m == 1:
            return float(max(mpmath.ncdf(a) - mpmath.ncdf(b), 0))
        if rho_m == -1:
            return float(min(mu_m, nu_m))
        s = mpmath.sqrt(1 - rho_m * rho_m)
        value = mpmath.quad(
            lambda t: mpmath.npdf(t) * mpmath.ncdf((rho_m * t - b) / s),
            [-mpmath.inf, a])
        return float(value)
