"""Independent reference computations used to pin expected test values.

Nothing in this file imports the package under test.  Each helper
recomputes a quantity from first principles (floating point LP solves,
direct enumeration, Monte Carlo), so agreement with the package is a
real check rather than the same code evaluated twice.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


# ---------------------------------------------------------------------------
# monotone constraints, recomputed from scratch
# ---------------------------------------------------------------------------

def accepted_tuples(q: int, minimal: list) -> list:
    """All tuples of [q]^k dominating some minimal element."""
    k = len(minimal[0])
    out = []
    for t in itertools.product(range(q), repeat=k):
        if any(all(t[i] >= m[i] for i in range(k)) for m in minimal):
            out.append(t)
    return out


def tuple_ok(q: int, minimal: list, t) -> bool:
    return any(all(a >= b for a, b in zip(t, m)) for m in minimal)


# ---------------------------------------------------------------------------
# LP optimum via scipy (floating point)
# ---------------------------------------------------------------------------

def lp_via_scipy(q: int, weights: list, edges: list) -> float:
    """Hull-LP optimum computed with scipy's interior-point-free HiGHS.

    ``weights`` are floats (or Fractions); ``edges`` is a list of
    ``(vertex_tuple, minimal_elements)`` pairs.  Variables are one value
    per vertex for q = 2 (a length-q block otherwise) plus one convex
    coefficient per accepted tuple per edge.
    """
    n = len(weights)
    block = 1 if q == 2 else q
    cols = n * block
    atoms = []
    for verts, minimal in edges:
        acc = accepted_tuples(q, minimal)
        atoms.append(acc)
        cols += len(acc)

    c = np.zeros(cols)
    for u, w in enumerate(weights):
        if q == 2:
            c[u] = float(w)
        else:
            for i in range(q):
                c[u * q + i] = float(w) * i

    rows_eq = []
    rhs_eq = []

    def row():
        rows_eq.append(np.zeros(cols))
        rhs_eq.append(0.0)
        return rows_eq[-1]

    if q > 2:
        for u in range(n):
            r = row()
            r[u * q: (u + 1) * q] = 1.0
            rhs_eq[-1] = 1.0

    off = n * block
    for (verts, minimal), acc in zip(edges, atoms):
        for j, u in enumerate(verts):
            if q == 2:
                r = row()
                r[u] = 1.0
                for a, t in enumerate(acc):
                    r[off + a] = -float(t[j])
            else:
                for i in range(q):
                    r = row()
                    r[u * q + i] = 1.0
                    for a, t in enumerate(acc):
                        if t[j] == i:
                            r[off + a] = -1.0
        r = row()
        r[off: off + len(acc)] = 1.0
        rhs_eq[-1] = 1.0
        off += len(acc)

    bounds = [(0, 1)] * (n * block) + [(0, None)] * (cols - n * block)
    res = linprog(c, A_eq=np.array(rows_eq), b_eq=np.array(rhs_eq),
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# exact simplex reference: dense Fraction tableau
# ---------------------------------------------------------------------------

def bland_dense(A: list, b: list, c: list) -> tuple:
    """Dense ``Fraction`` two-phase Bland simplex for ``min c.z : Az = b,
    z >= 0``: the reference for the package's integer-row solver.

    Full-width tableau rows with one artificial column per row, every
    entry a ``Fraction``, every pivot a full-row update.  Bland's rule
    picks the smallest column with a negative reduced cost and breaks
    ratio ties by the smallest basic index.  Returns ``(status,
    objective, values, sorted basis)``; only the status is set unless
    it is ``"optimal"``.
    """
    m, n = len(A), len(c)
    zero, one = Fraction(0), Fraction(1)

    def eliminate(row, col, prow):
        f = row[col]
        return [a - f * p for a, p in zip(row, prow)]

    def pivot(rows, basis, obj, r, col):
        inv = one / rows[r][col]
        prow = rows[r] = [a * inv for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                rows[i] = eliminate(row, col, prow)
        if obj[col] != 0:
            obj[:] = eliminate(obj, col, prow)
        basis[r] = col

    def bland(rows, basis, obj):
        while True:
            enter = next((j for j in range(n) if obj[j] < 0), None)
            if enter is None:
                return True
            leave, best = None, None
            for i, row in enumerate(rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if (best is None or ratio < best or
                            (ratio == best and basis[i] < basis[leave])):
                        leave, best = i, ratio
            if leave is None:
                return False
            pivot(rows, basis, obj, leave, enter)

    rows = []
    for i in range(m):
        sign = 1 if Fraction(b[i]) >= 0 else -1
        art = [zero] * m
        art[i] = one
        rows.append([sign * Fraction(a) for a in A[i]] + art
                    + [sign * Fraction(b[i])])
    basis = [n + i for i in range(m)]
    obj = [zero] * (n + m + 1)
    for row in rows:
        for j in list(range(n)) + [-1]:
            obj[j] -= row[j]
    assert bland(rows, basis, obj), "phase 1 is bounded below"
    if obj[-1] != 0:
        return ("infeasible", None, None, None)
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j] != 0), None)
            if enter is None:
                continue
            pivot(rows, basis, obj, i, enter)
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    obj = [Fraction(v) for v in c] + [zero]
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            obj = eliminate(obj, bi, rows[i])
    if not bland(rows, basis, obj):
        return ("unbounded", None, None, None)
    values = [zero] * n
    for i, bi in enumerate(basis):
        values[bi] = rows[i][-1]
    objective = sum((Fraction(cj) * v for cj, v in zip(c, values)), zero)
    return ("optimal", objective, values, tuple(sorted(basis)))


def hull_feasible_via_scipy(q: int, x: list, edges: list) -> bool:
    """Hull membership of a fractional solution, decided edge by edge.

    ``x`` holds one value per vertex (a number for q = 2, a length-q
    distribution otherwise); ``edges`` is a list of
    ``(vertex_tuple, minimal_elements)`` pairs.  Each vertex must lie in
    its domain, and each edge's values must be a convex mixture of the
    edge's accepted tuples, found by a zero-objective HiGHS solve.
    Floating point: meant for points well inside or well outside.
    """
    tol = 1e-9
    for pt in x:
        if q == 2:
            if not -tol <= float(pt) <= 1 + tol:
                return False
        elif (min(float(a) for a in pt) < -tol
              or abs(sum(float(a) for a in pt) - 1) > tol):
            return False
    for verts, minimal in edges:
        acc = accepted_tuples(q, minimal)
        rows, rhs = [], []
        for j, u in enumerate(verts):
            if q == 2:
                rows.append([float(t[j]) for t in acc])
                rhs.append(float(x[u]))
            else:
                for i in range(q):
                    rows.append([float(t[j] == i) for t in acc])
                    rhs.append(float(x[u][i]))
        rows.append([1.0] * len(acc))
        rhs.append(1.0)
        res = linprog(np.zeros(len(acc)), A_eq=np.array(rows),
                      b_eq=np.array(rhs), bounds=[(0, None)] * len(acc),
                      method="highs")
        assert res.status in (0, 2), res.message
        if res.status == 2:
            return False
    return True


def standard_cover_lp_via_scipy(weights: list, edges: list) -> float:
    """Standard covering LP: min w.x, sum of x over each edge >= 1."""
    n = len(weights)
    A = np.zeros((len(edges), n))
    for i, verts in enumerate(edges):
        for u in verts:
            A[i, u] -= 1.0
    res = linprog(np.array([float(w) for w in weights]),
                  A_ub=A, b_ub=-np.ones(len(edges)),
                  bounds=[(0, 1)] * n, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# exhaustive optima and bucket rounding, recomputed by direct search
# ---------------------------------------------------------------------------

def opt_by_enumeration(q: int, weights: list, edges: list):
    """Exact optimum by trying all q^n labelings (weights are Fractions).

    Returns ``(value, labels)`` with the lexicographically least optimal
    labeling.
    """
    n = len(weights)
    best = None
    best_lab = None
    for lab in itertools.product(range(q), repeat=n):
        if all(tuple_ok(q, minimal, tuple(lab[u] for u in verts))
               for verts, minimal in edges):
            cost = sum((w * a for w, a in zip(weights, lab)), Fraction(0))
            if best is None or cost < best:
                best, best_lab = cost, lab
    return best, best_lab


def cheapest_labeling_exhaustive(q: int, weights: list, edges: list):
    """Every labeling, in numpy blocks: the package's search before it
    pruned, kept as the reference for the branch-and-bound kernel.

    ``weights`` are Fractions and ``edges`` ``(vertex_tuple,
    minimal_elements)`` pairs.  Labelings are read in mixed radix with
    vertex 0 most significant; the last ``k`` vertices form a block of
    ``q**k <= 2**16`` labelings checked at once through one lookup
    table per edge, and all ``q**h`` prefixes of the leading vertices
    are visited in lexicographic order.  The first argmin in a block and
    a strict ``<`` across blocks keep the lexicographically least
    optimum.  Returns ``(value, labels)``; ``(None, None)`` when nothing
    is feasible.
    """
    n = len(weights)
    scale = math.lcm(*(w.denominator for w in weights))
    int_w = [w.numerator * (scale // w.denominator) for w in weights]
    dtype = np.int64 if (q - 1) * scale < 1 << 62 else object
    k = n
    while q ** k > 1 << 16:
        k -= 1
    h = n - k
    block = np.arange(q ** k)
    digits = [block // q ** (n - 1 - v) % q for v in range(h, n)]

    low_cost = np.zeros(len(block), dtype=dtype)
    for v in range(h, n):
        low_cost += digits[v - h].astype(dtype) * int_w[v]
    ok_low = np.ones(len(block), dtype=bool)
    prefix_edges = []
    for verts, minimal in edges:
        arity = len(verts)
        radix = [q ** (arity - 1 - j) for j in range(arity)]
        table = np.zeros(q ** arity, dtype=bool)
        for t in accepted_tuples(q, minimal):
            table[sum(a * r for a, r in zip(t, radix))] = True
        low = sum(digits[v - h] * r for v, r in zip(verts, radix) if v >= h)
        high = [(v, r) for v, r in zip(verts, radix) if v < h]
        if high:
            prefix_edges.append((table, low, high))
        else:
            ok_low &= table[low]

    best = best_labels = None
    for prefix in itertools.product(range(q), repeat=h):
        ok = ok_low.copy()
        for table, low, high in prefix_edges:
            ok &= table[sum(prefix[v] * r for v, r in high):][low]
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            continue
        i = int(hits[np.argmin(low_cost[hits])])
        cost = sum(a * w for a, w in zip(prefix, int_w)) + int(low_cost[i])
        if best is None or cost < best:
            best = cost
            best_labels = prefix + tuple(i // q ** (k - 1 - j) % q
                                         for j in range(k))
    if best is None:
        return None, None
    return Fraction(best, scale), best_labels


def round_by_enumeration(q: int, weights: list, snapped: list, edges: list):
    """Best assignment constant on groups of equal snapped values.

    Returns ``(value, labels)``; ties go to the lexicographically least
    group labeling, with groups in ascending order of snapped value.
    """
    values = sorted(set(snapped))
    group = {v: i for i, v in enumerate(values)}
    best = None
    best_lab = None
    for z in itertools.product(range(q), repeat=len(values)):
        lab = tuple(z[group[s]] for s in snapped)
        if all(tuple_ok(q, minimal, tuple(lab[u] for u in verts))
               for verts, minimal in edges):
            cost = sum((w * a for w, a in zip(weights, lab)), Fraction(0))
            if best is None or cost < best:
                best, best_lab = cost, lab
    return best, best_lab


# ---------------------------------------------------------------------------
# binary correlation: closed form for 2x2 joints
# ---------------------------------------------------------------------------

def pearson_2x2(joint: dict) -> float:
    """|Pearson correlation| of a two-bit joint; equals the maximal
    correlation for binary marginals."""
    p1 = sum(p for (a, b), p in joint.items() if a == 1)
    p2 = sum(p for (a, b), p in joint.items() if b == 1)
    e12 = sum(p for (a, b), p in joint.items() if a == 1 and b == 1)
    var1 = p1 * (1 - p1)
    var2 = p2 * (1 - p2)
    if var1 == 0 or var2 == 0:
        return 0.0
    return abs(float(e12 - p1 * p2)) / math.sqrt(float(var1 * var2))


# Smoothed single-edge VERTEX COVER distribution at x = (1/2, 1/2),
# delta = 1/10: atoms (0,1) -> 9/20, (1,0) -> 9/20, (1,1) -> 1/10.
# Means are 11/20 each, E[ab] = 1/10, so the correlation is
# |1/10 - (11/20)^2| / (11/20 * 9/20) = (81/400) / (99/400) = 9/11.
VC_SMOOTHED_CORRELATION = Fraction(9, 11)


# ---------------------------------------------------------------------------
# Gaussian quantities
# ---------------------------------------------------------------------------

def gamma_orthant(rho: float) -> float:
    """P[X < 0, Y >= 0] for standard rho-correlated normals (closed form)."""
    return 0.25 - math.asin(rho) / (2 * math.pi)


def gamma_quad(rho: float, mu: float, nu: float) -> float:
    """P[X < F^-1(mu), Y >= F^-1(1-nu)] for |rho| < 1 and 0 < mu, nu < 1,
    by adaptive quadrature of the conditional upper tail of Y over X."""
    from scipy.integrate import quad
    from scipy.stats import norm

    t1 = norm.ppf(mu)
    t2 = norm.ppf(1 - nu)
    s = math.sqrt(1 - rho * rho)

    def integrand(x: float) -> float:
        return norm.pdf(x) * norm.sf((t2 - rho * x) / s)

    value, _ = quad(integrand, -math.inf, t1, epsabs=1e-12, limit=200)
    return value


def gamma_mp(rho: float, mu: float, nu: float, dps: int = 30):
    """The same probability as ``gamma_quad``, integrated by mpmath at
    ``dps`` significant digits; returns an ``mpf``."""
    import mpmath

    with mpmath.workdps(dps):
        rho, mu, nu = (mpmath.mpf(v) for v in (rho, mu, nu))
        t1 = mpmath.sqrt(2) * mpmath.erfinv(2 * mu - 1)
        t2 = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * nu)
        s = mpmath.sqrt(1 - rho * rho)
        return mpmath.quad(
            lambda x: mpmath.npdf(x) * mpmath.ncdf((rho * x - t2) / s),
            [-mpmath.inf, t1])


def gamma_mc(rho: float, mu: float, nu: float, n: int = 10**7,
             seed: int = 20250814):
    """Monte Carlo estimate of P[X < F^-1(mu), Y >= F^-1(1-nu)].

    Returns (estimate, standard_error).
    """
    from scipy.stats import norm

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    t1 = norm.ppf(mu)
    t2 = norm.ppf(1 - nu)
    hits = np.count_nonzero((x < t1) & (y >= t2))
    p = hits / n
    se = math.sqrt(max(p * (1 - p), 1e-30) / n)
    return p, se


# ---------------------------------------------------------------------------
# biased Fourier: direct float formulas on full truth tables
# ---------------------------------------------------------------------------

def mean_biased(table: list, p: float, r: int) -> float:
    total = 0.0
    for mask, v in enumerate(table):
        ones = bin(mask).count("1")
        total += float(v) * (p ** ones) * ((1 - p) ** (r - ones))
    return total


def e_f_squared(table: list, p: float, r: int) -> float:
    return mean_biased([float(v) * float(v) for v in table], p, r)


def influence_by_restriction(table: list, i: int, p: float, r: int) -> float:
    """p(1-p) E[(f with bit i set  -  f with bit i clear)^2]."""
    total = 0.0
    for mask in range(1 << r):
        if mask & (1 << i):
            continue
        ones = bin(mask).count("1")
        rest = (p ** ones) * ((1 - p) ** (r - 1 - ones))
        diff = float(table[mask | (1 << i)]) - float(table[mask])
        total += rest * diff * diff
    return p * (1 - p) * total


# ---------------------------------------------------------------------------
# unique games: independent recount
# ---------------------------------------------------------------------------

def ug_best_by_enumeration(r: int, num_left: int, num_right: int,
                           edges: list):
    """Max satisfied weight over all labelings; edges are
    (left_index, right_index, weight, perm) with 0-based perms."""
    best = Fraction(0)
    n = num_left + num_right
    for lab in itertools.product(range(r), repeat=n):
        sat = Fraction(0)
        for (u, v, wt, perm) in edges:
            if lab[num_left + v] == perm[lab[u]]:
                sat += wt
        if sat > best:
            best = sat
    return best


def dictator_weight(val: Fraction, delta: Fraction, q: int) -> Fraction:
    """Exact cost of any single-coordinate solution of a generated
    dictatorship instance."""
    return (1 - delta) * val + delta * (q - 1)


def compose_reference(ug, D) -> tuple:
    """The composed instance's ``(vertex_ids, weights, edges)``, one
    twisted tuple rebuilt per composed vertex.

    ``ug`` is a game and ``D`` a hypercube instance, read by attribute
    only; edges are the sorted distinct ``(vertex_indices, predicate)``
    pairs.
    """
    base = D.instance
    cube = len(base.vertex_ids)
    ids = tuple(f"{uid}/{dvid}" for uid in ug.left
                for dvid in base.vertex_ids)
    masses = [sum((wt for uu, _, wt, _ in ug.edges if uu == u), Fraction(0))
              for u in range(len(ug.left))]
    weights = tuple(masses[u] * w for u in range(len(ug.left))
                    for w in base.weights)
    index_of = {pt: i for i, pt in enumerate(D.points)}

    def composed_vertex(u, b, y, perm):
        twisted = tuple(y[perm[t]] for t in range(ug.r))
        return u * cube + index_of[(b, twisted)]

    edge_set = set()
    for edge in base.edges:
        k = len(edge.vertices)
        points = [D.points[dv] for dv in edge.vertices]
        for v in range(len(ug.right)):
            at_v = [e for e in ug.edges if e[1] == v]
            for game_edges in itertools.product(at_v, repeat=k):
                verts = tuple(
                    composed_vertex(game_edges[j][0], points[j][0],
                                    points[j][1], game_edges[j][3])
                    for j in range(k))
                edge_set.add((verts, edge.predicate))
    return ids, weights, sorted(edge_set)


def decode_reference(ug, D, selection: dict, *, tau: float = 0.0,
                     d: int | None = None) -> tuple:
    """Game labeling and influence table read off a boolean selection
    keyed by composed vertex id, ``<left-id>/b<b>:y<bits>``.

    Every cell rebuilds its twisted point y o pi and that point's id.
    The float p-biased expansion is the butterfly written out again with
    the same operations in the same order, so the floats compare exactly.
    ``ug`` and ``D`` are read by attribute only.
    """
    r = D.r
    if d is None:
        d = r
    size = 2 ** r
    labels = {}
    influence_table = {}
    for v, vid in enumerate(ug.right):
        incident = [e for e in ug.edges if e[1] == v]
        mass = sum((wt for _, _, wt, _ in incident), Fraction(0))
        per_i = [0.0] * r
        rows = []
        for b in range(D.m):
            table = [0.0] * size
            for u, _, wt, perm in incident:
                if wt == 0:
                    continue
                for mask in range(size):
                    y = [(mask >> i) & 1 for i in range(r)]
                    bits = "".join(str(y[perm[t]]) for t in range(r))
                    sel = selection[f"{ug.left[u]}/b{b}:y{bits}"]
                    table[mask] += float(wt / mass) * (1 - sel)
            p = float(D.tilde_values[b])
            if not 0.0 < p < 1.0:
                rows.append([0.0] * r)
                continue
            work = list(table)
            for i in range(r):
                bit = 1 << i
                for mask in range(size):
                    if not mask & bit:
                        lo, hi = work[mask], work[mask | bit]
                        work[mask] = (1 - p) * lo + p * hi
                        work[mask | bit] = p * (1 - p) * (hi - lo)
            row = [sum(work[m] * work[m] / (p * (1 - p)) ** m.bit_count()
                       for m in range(size)
                       if m >> i & 1 and m.bit_count() <= d)
                   for i in range(r)]
            rows.append(row)
            per_i = [max(a, inf) for a, inf in zip(per_i, row)]
        influence_table[vid] = rows
        candidates = [i for i in range(r) if per_i[i] >= tau]
        labels[vid] = (min(candidates, key=lambda i: (-per_i[i], i))
                       if candidates else 0)
    for u, uid in enumerate(ug.left):
        incident = [e for e in ug.edges if e[0] == u]
        if not incident:
            labels[uid] = 0
            continue
        _, v, _, perm = max(incident, key=lambda e: e[2])
        labels[uid] = perm.index(labels[ug.right[v]])
    return labels, influence_table


# ---------------------------------------------------------------------------
# instance documents, through the json module's own indenting encoder
# ---------------------------------------------------------------------------

def serialize_instance_dumps(inst) -> str:
    """The instance document as ``json.dumps(doc, indent=2)`` prints it."""
    doc = {
        "q": inst.q,
        "vertices": [
            {"id": vid, "weight": f"{Fraction(w).numerator}/"
                                  f"{Fraction(w).denominator}"}
            for vid, w in zip(inst.vertex_ids, inst.weights)
        ],
        "predicates": [
            {"name": p.name, "arity": p.arity,
             "minimal": [list(m) for m in sorted(p.minimal)]}
            for p in inst.predicates
        ],
        "edges": [
            {"vertices": [inst.vertex_ids[v] for v in e.vertices],
             "predicate": inst.predicates[e.predicate].name}
            for e in inst.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def instance_edge_problems(inst) -> list:
    """The edge messages of ``validate_instance``, one edge at a time.

    Reads ``inst.edges`` as ``(vertices, predicate)`` pairs, so hand-built
    edges with any indices are worded as the package words them.
    """
    problems = []
    n = len(inst.vertex_ids)
    arities = [p.arity for p in inst.predicates]
    for i, (vs, p) in enumerate(inst.edges):
        if not (0 <= p < len(arities)):
            problems.append(f"edge {i}: predicate index {p} out of range")
            continue
        if len(vs) != arities[p]:
            problems.append(
                f"edge {i}: {len(vs)} vertices but predicate "
                f"{inst.predicates[p].name} has arity {arities[p]}")
        problems.extend(f"edge {i}: vertex index {v} out of range"
                        for v in vs if not (0 <= v < n))
    return problems


_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer",
               str: "a string", float: "a number", bool: "a boolean",
               type(None): "null"}


def read_edges_per_edge(edges: list, ids: list, names: list) -> tuple:
    """An instance document's edge list resolved one edge at a time.

    Returns ``(vertex indices end to end, vertex counts, predicate
    indices)``.  Raises ``ValueError`` with the file reader's message for
    the first faulty edge; within an edge the key set comes first, then
    the predicate name, then the vertex list and its ids in order.  A
    repeated id or name resolves to its last occurrence.
    """
    index_of = {vid: i for i, vid in enumerate(ids)}
    by_name = {name: i for i, name in enumerate(names)}
    keys = {"vertices", "predicate"}

    def typed(value, kind, what):
        if type(value) is not kind:
            raise ValueError(f"{what}: expected {_JSON_KINDS[kind]}, "
                             f"got {_JSON_KINDS[type(value)]}")
        return value

    vertices, sizes, preds = [], [], []
    for i, e in enumerate(edges):
        what = f"edge #{i}"
        typed(e, dict, what)
        if keys - e.keys():
            raise ValueError(f"{what}: missing keys {sorted(keys - e.keys())}")
        if e.keys() - keys:
            raise ValueError(f"{what}: unknown keys {sorted(e.keys() - keys)}")
        name = typed(e["predicate"], str, f"{what}: predicate")
        if name not in by_name:
            raise ValueError(f"{what}: unknown predicate name {name!r}")
        vids = typed(e["vertices"], list, f"{what}: vertices")
        for vid in vids:
            if typed(vid, str, f"{what}: vertex id") not in index_of:
                raise ValueError(f"{what}: unknown vertex id {vid!r}")
        vertices.extend(index_of[vid] for vid in vids)
        sizes.append(len(vids))
        preds.append(by_name[name])
    return vertices, sizes, preds
