"""The four workloads: seeded inputs, CLI ops and their output checks.

Each workload has a fixed reference pool of cases whose outputs were
digested on the seed commit (``refs/<workload>.json``), and a few
held-out cases drawn from the run's ``--seed``.  The pool is what the
timed loop runs, in an order shuffled by the seed; held-out cases run
once per run and are checked only against independent references.  A
fixed pool keeps the work per pass identical across seeds, so the
run-to-run spread measures the program rather than the draw.

An op is one ``smcsp`` command line.  Its output document is checked in
two ways: digests against the seed commit (when the case has one) and
independent checks from :mod:`independent`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from independent import (Problem, digest, file_digest, gamma_mp, rational,
                         satisfied_weight, snap_boolean)

REFS = Path(__file__).resolve().parent / "refs"
GAMMA_TOLERANCE = 1e-8  # documented accuracy of smcsp.gaussian.gamma


@dataclass
class Op:
    kind: str
    case: str
    argv: list
    verify: Callable            # doc -> reason or None (independent checks)
    digest: Callable | None = None  # doc -> dict compared with ``ref``
    ref: dict | None = None
    env: dict = field(default_factory=dict)


@dataclass
class Corpus:
    timed: list        # one pass of the reference pool, seeded order
    held_out: list     # run once, independent checks only
    warmup: list       # run once per set-up, before timing
    sizes: dict        # input sizes recorded beside the throughput
    stats: dict = field(default_factory=dict)


def check_op(op: Op, rc, doc_text: str, basis=None) -> str | None:
    """Reason the op failed, or None.  ``basis`` is the traced LP basis."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(doc_text)
    except ValueError:
        return "output is not JSON"
    try:
        if op.ref is not None and op.digest is not None:
            got = op.digest(doc)
            if basis is not None:
                got["basis"] = digest(list(basis))
            for key, value in got.items():
                if op.ref.get(key) != value:
                    return f"{key} differs from the seed-commit reference"
        return op.verify(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


# -- input documents, written without the package's serializer ------------

def fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def instance_doc(inst) -> dict:
    return {
        "q": inst.q,
        "vertices": [{"id": vid, "weight": fmt(w)}
                     for vid, w in zip(inst.vertex_ids, inst.weights)],
        "predicates": [{"name": p.name, "arity": p.arity,
                        "minimal": [list(m) for m in sorted(p.minimal)]}
                       for p in inst.predicates],
        "edges": [{"vertices": [inst.vertex_ids[v] for v in e.vertices],
                   "predicate": inst.predicates[e.predicate].name}
                  for e in inst.edges],
    }


def solution_doc(ids, q, x) -> dict:
    return {"x": {vid: (fmt(pt) if q == 2 else [fmt(a) for a in pt])
                  for vid, pt in zip(ids, x)}}


def game_doc(game) -> dict:
    return {"r": game.r, "left": list(game.left), "right": list(game.right),
            "edges": [{"u": game.left[u], "v": game.right[v],
                       "weight": fmt(wt), "pi": [a + 1 for a in perm]}
                      for u, v, wt, perm in game.edges]}


def write(path: Path, doc) -> str:
    text = json.dumps(doc, indent=1) + "\n"
    path.write_text(text, encoding="utf-8")
    return digest(doc)


def load_refs(name: str) -> dict | None:
    path = REFS / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def case_ref(refs, case: str, kind: str) -> dict:
    """The seed-commit digests of one op; an unknown case fails loudly."""
    if refs is None:
        return None
    return refs["cases"].get(case, {}).get(kind, {"missing": True})


def shuffled_cases(cases: list, seed: int) -> list:
    order = list(cases)
    random.Random(seed).shuffle(order)
    return order


def held_out_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/held-out/{seed}")


# -- relax: exact LP solves -------------------------------------------------

RELAX_RUNGS = ((2, 8, 12), (2, 10, 15), (2, 12, 18), (3, 6, 6), (3, 8, 8))
RELAX_SEEDS = (0, 1)
LP_TOLERANCE = 1e-7  # exact objective against the HiGHS float optimum


def lp_size(problem: Problem) -> dict:
    """Rows and columns of the hull LP, counted from the instance."""
    q = problem.q
    atoms = sum(len(acc) for _v, acc in problem.edges)
    if q == 2:
        rows = sum(len(v) + 1 for v, _a in problem.edges)
        cols = problem.n + atoms
    else:
        rows = problem.n + sum(len(v) * q + 1 for v, _a in problem.edges)
        cols = problem.n * q + atoms
    return {"rows": rows, "cols": cols}


def _lp_op(work: Path, case: str, inst, refs) -> tuple:
    doc = instance_doc(inst)
    path = work / f"{case}.json"
    input_sha = write(path, doc)
    problem = Problem(doc)
    highs = problem.lp_highs()

    def verify(out):
        reason = problem.lp_certificate(out)
        if reason:
            return reason
        if abs(float(rational(out["objective"])) - highs) > LP_TOLERANCE:
            return "objective differs from HiGHS"
        return None

    op = Op("lp", case, ["lp", str(path), "--lambdas"], verify,
            lambda out: {"input": input_sha, "vertex": digest(out)},
            case_ref(refs, case, "lp"))
    return op, lp_size(problem)


def build_relax(seed: int, work: Path, refs) -> Corpus:
    from smcsp import randgen

    ops, sizes = {}, {}
    for q, n, m in RELAX_RUNGS:
        for s in RELAX_SEEDS:
            case = f"q{q}-n{n}-m{m}-s{s}"
            inst = randgen.random_instance(random.Random(s), q, n, m, 3)
            ops[case], sizes[case] = _lp_op(work, case, inst, refs)
    q, n, m = RELAX_RUNGS[0]
    inst = randgen.random_instance(held_out_rng("relax", seed), q, n, m, 3)
    held, _ = _lp_op(work, "held-out", inst, None)
    timed = [ops[c] for c in shuffled_cases(sorted(ops), seed)]
    first = ops[f"q{q}-n{n}-m{m}-s{RELAX_SEEDS[0]}"]
    return Corpus(timed, [held], [first], sizes)


# -- enumerate: oracle, bucket rounding, cube-constant search ---------------

ENUM_CASES = ((2, 13, 13, 0), (2, 13, 13, 1), (2, 20, 20, 0), (2, 20, 20, 1),
              (3, 10, 10, 0), (3, 10, 10, 1), (3, 11, 11, 0))
ENUM_HELD_OUT = (2, 12, 12)
ENUM_DELTA = "1/10"
ENUM_R = "3"


def enum_eps(q: int) -> str:
    return "1/4" if q == 2 else "1/3"


def _enum_ops(work: Path, case: str, inst, rng, refs,
              independent: bool) -> tuple:
    from smcsp import randgen, rounding

    q = inst.q
    eps = enum_eps(q)
    x = randgen.random_feasible_solution(rng, inst)
    x_eps = rounding.perturb(inst, x, Fraction(eps)).x_eps
    doc = instance_doc(inst)
    paths = {k: work / f"{case}.{k}.json" for k in ("inst", "x", "xe")}
    input_sha = digest([
        write(paths["inst"], doc),
        write(paths["x"], solution_doc(inst.vertex_ids, q, x)),
        write(paths["xe"], solution_doc(inst.vertex_ids, q, x_eps))])
    problem = Problem(doc)
    lp = problem.lp_highs()
    ids = problem.ids

    expect = {}
    if independent:
        expect["opt"], expect["opt_labels"] = problem.brute_force()
        if q == 2:
            snapped = [snap_boolean(v, Fraction(eps)) for v in x]
            expect["round"], expect["round_labels"] = \
                problem.bucket_round(snapped)
    if refs is not None:
        expect["opt"] = rational(case_ref(refs, case, "oracle").get("opt", -1))
        expect["round"] = rational(
            case_ref(refs, case, "round").get("value", -1))

    def labels_of(out):
        return tuple(out["labels"][vid] for vid in ids)

    def verify_oracle(out):
        opt, labels = rational(out["opt"]), labels_of(out)
        if not problem.feasible(labels) or problem.cost(labels) != opt:
            return "labels infeasible or cost differs from opt"
        if float(opt) < lp - LP_TOLERANCE:
            return "opt below the LP value"
        if "opt" in expect and opt != expect["opt"]:
            return "opt differs from the reference optimum"
        if "opt_labels" in expect and labels != expect["opt_labels"]:
            return "labels differ from the lexicographically least optimum"
        return None

    def verify_round(out):
        value, labels = rational(out["value"]), labels_of(out)
        if not problem.feasible(labels) or problem.cost(labels) != value:
            return "labels infeasible or cost differs from value"
        if "opt" in expect and value < expect["opt"]:
            return "rounded value below the optimum"
        if "round" in expect and value != expect["round"]:
            return "value differs from the reference rounding"
        if "round_labels" in expect and labels != expect["round_labels"]:
            return "labels differ from the reference rounding"
        return None

    def verify_dict_check(out):
        bco = rational(out["bucket_constant_opt"])
        if bco != rational(out["round_value"]):
            return "cube-constant optimum differs from the rounding value"
        comp = out["completeness"]
        if comp["feasible"] is not True or (rational(comp["dictator_cost"])
                                            > rational(comp["bound"])):
            return "dictator completeness report fails"
        if "round" in expect and bco != expect["round"]:
            return "cube-constant optimum differs from the reference rounding"
        return None

    def ref(kind):
        return case_ref(refs, case, kind)

    inst_path = str(paths["inst"])
    ops = [
        Op("oracle", case, ["oracle", inst_path], verify_oracle,
           lambda out: {"input": input_sha, "sha": digest(out),
                        "opt": out["opt"]}, ref("oracle")),
        Op("round", case, ["round", inst_path, "--eps", eps, "--solution",
                           str(paths["x"])], verify_round,
           lambda out: {"input": input_sha, "sha": digest(out),
                        "value": out["value"]}, ref("round")),
        Op("dict-check", case, ["dict-check", inst_path, "--eps", eps,
                                "--delta", ENUM_DELTA, "--r", ENUM_R,
                                "--solution", str(paths["xe"])],
           verify_dict_check,
           lambda out: {"input": input_sha, "sha": digest(out)},
           ref("dict-check")),
    ]
    size = {"q": q, "n": problem.n, "edges": len(problem.edges),
            "candidates": q ** problem.n, "buckets": len(set(x_eps))}
    return ops, size


def build_enumerate(seed: int, work: Path, refs,
                    independent: bool = False) -> Corpus:
    from smcsp import randgen

    cases, sizes = {}, {}
    for q, n, m, s in ENUM_CASES:
        case = f"q{q}-n{n}-m{m}-s{s}"
        rng = random.Random(s)
        inst = randgen.random_instance(rng, q, n, m, 3)
        cases[case], sizes[case] = _enum_ops(work, case, inst, rng,
                                             refs, independent)
    q, n, m = ENUM_HELD_OUT
    rng = held_out_rng("enumerate", seed)
    inst = randgen.random_instance(rng, q, n, m, 3)
    held, _ = _enum_ops(work, "held-out", inst, rng, None, True)
    timed = [op for c in shuffled_cases(sorted(cases), seed)
             for op in cases[c]]
    q, n, m, s = ENUM_CASES[0]
    return Corpus(timed, held, cases[f"q{q}-n{n}-m{m}-s{s}"], sizes)


# -- reduce: blowup, composition, decoding, influences ----------------------

# (n, constraints, max arity, r, right vertices, extra game edges, seed)
REDUCE_CASES = ((8, 7, 3, 5, 2, 0, 0), (8, 7, 3, 5, 2, 0, 2),
                (8, 7, 3, 5, 2, 0, 1), (8, 7, 3, 5, 2, 0, 20),
                (6, 6, 3, 4, 2, 0, 1), (6, 4, 2, 4, 2, 0, 1),
                (8, 6, 2, 4, 3, 2, 0))
REDUCE_HELD_OUT = (6, 4, 2, 4, 2, 0)
REDUCE_LEFT = 6
REDUCE_EPS = "1/4"
REDUCE_DELTA = "1/10"


def _reduce_ops(work: Path, case: str, spec, rng, refs) -> tuple:
    from smcsp import randgen, rounding

    n, n_edges, arity, r, n_right, extra = spec
    inst = randgen.random_instance(rng, 2, n, n_edges, arity)
    x = randgen.random_feasible_solution(rng, inst)
    x_eps = rounding.perturb(inst, x, Fraction(REDUCE_EPS)).x_eps
    game, hidden = randgen.random_game(rng, r, REDUCE_LEFT, n_right, extra)
    cubes = len(set(x_eps))
    points = [(b, y) for b in range(cubes)
              for y in product((0, 1), repeat=r)]
    cube_ids = [f"b{b}:y" + "".join(map(str, y)) for b, y in points]
    # the dictator selection of the planted labeling on every left copy
    selection = {f"{uid}/{vid}": y[hidden[uid]]
                 for uid in game.left for vid, (_b, y) in zip(cube_ids, points)}
    bits = random.Random(f"assignment/{case}")
    assignment = {vid: bits.randrange(2) for vid in cube_ids}

    p = {k: work / f"{case}.{k}.json" for k in
         ("base", "xe", "game", "sel", "asg", "dict", "composed")}
    gdoc = game_doc(game)
    input_sha = digest([
        write(p["base"], instance_doc(inst)),
        write(p["xe"], solution_doc(inst.vertex_ids, 2, x_eps)),
        write(p["game"], gdoc),
        write(p["sel"], {"labels": selection}),
        write(p["asg"], {"labels": assignment})])
    dict_vertices = len(cube_ids)

    def verify_dict(out):
        if (out["vertices"], out["cubes"], out["r"]) != (dict_vertices,
                                                         cubes, r):
            return "blowup size differs from cubes * 2**r"
        return None

    def verify_reduce(out):
        if out["vertices"] != REDUCE_LEFT * dict_vertices:
            return "composed vertex count differs from left * blowup"
        if (out["left"], out["right"]) != (REDUCE_LEFT, n_right):
            return "game sides differ"
        return None

    def verify_decode(out):
        labels = out["labels"]
        if set(labels) != set(game.left) | set(game.right):
            return "decoded labeling does not cover the game"
        weight = satisfied_weight(gdoc, labels)
        if weight != rational(out["satisfied_weight"]):
            return "printed satisfied weight differs from the recount"
        if weight != 1:
            return "dictator selection of a planted labeling decoded " \
                   "below weight 1"
        return None

    def verify_influences(out):
        rows = out["influences"]
        if len(rows) != cubes or any(len(row) != r for row in rows):
            return "influence table is not cubes x r"
        top = max(rational(v) for row in rows for v in row)
        if top != rational(out["max_influence"]):
            return "max influence differs from the table"
        if out["pseudo_random"] != (top <= rational(out["tau"])):
            return "pseudo-random verdict differs from max <= tau"
        return None

    def ref(kind):
        return case_ref(refs, case, kind)

    def with_file(key):
        return lambda out: {"input": input_sha, "sha": digest(out),
                            "file": file_digest(p[key])}

    plain = (lambda out: {"input": input_sha, "sha": digest(out)})
    ops = [
        Op("dict", case, ["dict", str(p["base"]), "--eps", REDUCE_EPS,
                          "--delta", REDUCE_DELTA, "--r", str(r),
                          "--solution", str(p["xe"]), "-o", str(p["dict"])],
           verify_dict, with_file("dict"), ref("dict")),
        Op("reduce", case, ["reduce", "--ug", str(p["game"]), "--dict",
                            str(p["dict"]), "-o", str(p["composed"])],
           verify_reduce, with_file("composed"), ref("reduce")),
        Op("decode", case, ["decode", "--f", str(p["composed"]),
                            "--solution", str(p["sel"]), "--ug",
                            str(p["game"]), "--dict", str(p["dict"])],
           verify_decode, plain, ref("decode")),
        Op("influences", case, ["analyze", "influences", str(p["dict"]),
                                "--assignment", str(p["asg"])],
           verify_influences, plain, ref("influences")),
    ]
    size = {"n": n, "r": r, "cubes": cubes, "blowup_vertices": dict_vertices,
            "composed_vertices": REDUCE_LEFT * dict_vertices,
            "game_edges": len(game.edges)}
    return ops, size


def build_reduce(seed: int, work: Path, refs) -> Corpus:
    cases, sizes = {}, {}
    for *spec, s in REDUCE_CASES:
        n, n_edges, arity, r, n_right, extra = spec
        case = f"n{n}-e{n_edges}-a{arity}-r{r}-R{n_right}-x{extra}-s{s}"
        cases[case], sizes[case] = _reduce_ops(
            work, case, spec, random.Random(s), refs)
    held, _ = _reduce_ops(work, "held-out", REDUCE_HELD_OUT,
                          held_out_rng("reduce", seed), None)
    timed = [op for c in shuffled_cases(sorted(cases), seed)
             for op in cases[c]]
    smallest = min(cases, key=lambda c: sizes[c]["composed_vertices"])
    return Corpus(timed, held, cases[smallest], sizes)


# -- gaussian: quadrature ---------------------------------------------------

GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


def criterion_grid() -> list:
    """The criterion-10 points: rho = 1 - lambda, mu = nu = theta."""
    return [(1 - lam, theta, theta) for theta in GRID for lam in GRID]


def boundary_point(rng: random.Random) -> tuple:
    """A point on one of the closed-form branches of ``gamma``."""
    u = lambda: round(rng.uniform(0.05, 0.95), 6)  # noqa: E731
    branch = rng.randrange(7)
    if branch == 0:
        return (0.0, u(), u())
    if branch in (1, 2):
        return (1.0 if branch == 1 else -1.0, u(), u())
    rho = round(rng.uniform(-0.95, 0.95), 6)
    pts = [(rho, 0.0, u()), (rho, u(), 0.0), (rho, 1.0, u()),
           (rho, u(), 1.0)]
    return pts[branch - 3]


def interior_point(rng: random.Random) -> tuple:
    return (round(rng.uniform(-0.99, 0.99), 6),
            round(rng.uniform(0.01, 0.99), 6),
            round(rng.uniform(0.01, 0.99), 6))


def sample_points(rng: random.Random, interior: int, boundary: int) -> list:
    return ([interior_point(rng) for _ in range(interior)]
            + [boundary_point(rng) for _ in range(boundary)])


def _gamma_op(point, ref: float, stats: dict, case: str) -> Op:
    rho, mu, nu = point

    def verify(out):
        err = abs(float(out["gamma"]) - ref)
        stats["max_abs_err"] = max(stats.get("max_abs_err", 0.0), err)
        if not err <= GAMMA_TOLERANCE:
            return f"gamma off by {err:.3g} from the mpmath reference"
        return None

    return Op("gamma", case, ["analyze", "gamma", f"--rho={rho!r}",
                              f"--mu={mu!r}", f"--nu={nu!r}"], verify)


def build_gaussian(seed: int, work: Path, refs) -> Corpus:
    if refs is None:
        raise FileNotFoundError("refs/gaussian.json is missing; run "
                                "perfbench/make_refs.py")
    stats: dict = {}
    timed = [_gamma_op(tuple(pt[:3]), pt[3], stats, "pool")
             for pt in refs["points"]]
    random.Random(seed).shuffle(timed)
    held = [_gamma_op(pt, gamma_mp(*pt), stats, "held-out")
            for pt in sample_points(held_out_rng("gaussian", seed), 4, 2)]
    sizes = {"grid_points": len(criterion_grid()),
             "sample_points": len(refs["points"]) - len(criterion_grid())}
    return Corpus(timed, held, [timed[0]], sizes, stats)


@dataclass(frozen=True)
class Workload:
    build: Callable
    tail_pct: int   # fixed so that >= 10 ops lie beyond it at seed speed


# why each workload exists is stated in BENCHMARK.json and README.md
WORKLOADS = {
    "relax": Workload(build_relax, 75),
    "enumerate": Workload(build_enumerate, 90),
    "reduce": Workload(build_reduce, 90),
    "gaussian": Workload(build_gaussian, 95),
}
