"""Command-line interface.

One subcommand per pipeline stage: ``lp`` (exact relaxation), ``round``
(grid rounding), ``oracle`` (brute-force optimum), ``dict`` /
``dict-check`` (hypercube blowup), ``reduce`` / ``decode`` (game
composition and inversion), ``analyze`` (distribution correlation,
Gaussian stability, influences), and ``check`` (the acceptance suite).

Exit codes: 0 success, 1 a checked property failed, 2 usage error,
3 unreadable or invalid input, 4 an enumeration cap was exceeded.
``--json`` switches every command to a structured document in which
exact values appear as ``num/den`` strings and floating-point values as
decimals; the two are never mixed in one field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import acceptance, io
from .caps import CapExceeded, clip
from .dictators import (bucket_constant_opt, completeness_check, dict_view,
                        dictator_weight, generate_dict, pseudo_random_check)
from .distributions import cheeger_check, extract_edge_distribution, smooth
from .gaussian import gamma
from .lp import solve_lp
from .model import PropertyViolation, brute_force_opt
from .rounding import (integrality_report, perturb, round_perturbed,
                       round_solution)
from .unique_games import (compose, composed_cubes, decode_labeling,
                           ug_satisfied_weight)

ZERO = Fraction(0)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_instance(path: str):
    return io.parse_instance(_read(path))


def _solution_for(args, inst):
    """Explicit solution file if given, else the solver's basic optimum."""
    if args.solution:
        return io.parse_solution(_read(args.solution), inst)
    return solve_lp(inst).x


def _tau(args) -> Fraction:
    return io.parse_rational(args.tau, "--tau") if args.tau else ZERO


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lp(args) -> tuple:
    inst = _load_instance(args.instance)
    sol = solve_lp(inst)
    doc = {"objective": sol.objective,
           "x": {vid: sol.x[v] for v, vid in enumerate(inst.vertex_ids)}}
    lines = [str(sol.objective)]
    for vid, pt in zip(inst.vertex_ids, sol.x):
        if not isinstance(pt, Fraction):  # a point of q rationals
            pt = "(" + ", ".join(map(str, pt)) + ")"
        lines.append(f"x[{vid}] = {pt}")
    if args.lambdas:
        doc["lambdas"] = [
            {"edge": e_idx, "atoms": {"".join(map(str, t)): p
                                      for t, p in sorted(lam.items())}}
            for e_idx, lam in enumerate(sol.lambdas)]
        for e_idx, lam in enumerate(sol.lambdas):
            for t, p in sorted(lam.items()):
                lines.append(f"edge {e_idx}: {t} -> {p}")
    return doc, "\n".join(lines)


def cmd_round(args) -> tuple:
    inst = _load_instance(args.instance)
    eps = io.parse_rational(args.eps, "--eps")
    if args.report:
        rep = integrality_report(
            inst, eps, _solution_for(args, inst) if args.solution else None)
        value, labels = rep["round"], rep["round_labels"]
    else:
        result = round_solution(inst, _solution_for(args, inst), eps)
        value, labels = result.value, result.labels
    doc = {"value": value,
           "labels": {vid: int(a) for vid, a in zip(inst.vertex_ids, labels)}}
    lines = [str(value)]
    lines += [f"{vid} = {a}" for vid, a in zip(inst.vertex_ids, labels)]
    if args.report:
        doc["report"] = rep
        lines.append(f"lp = {rep['lp']}")
        lines.append(f"round = {rep['round']}")
        lines.append(f"opt = {rep['opt']}")
        for key in ("round_over_opt", "opt_over_lp"):
            ratio = rep[key]
            lines.append(f"{key} = {'n/a' if ratio is None else ratio}")
    return doc, "\n".join(lines)


def cmd_oracle(args) -> tuple:
    inst = _load_instance(args.instance)
    opt, labels = brute_force_opt(inst)
    doc = {"opt": opt,
           "labels": {vid: int(a) for vid, a in zip(inst.vertex_ids,
                                                    labels)}}
    lines = [str(opt)]
    lines += [f"{vid} = {a}" for vid, a in zip(inst.vertex_ids, labels)]
    return doc, "\n".join(lines)


def _generated_dict(args, inst):
    eps = io.parse_rational(args.eps, "--eps")
    delta = io.parse_rational(args.delta, "--delta")
    x = _solution_for(args, inst)
    if not args.solution:
        x = perturb(inst, x, eps).x_eps
    return generate_dict(inst, x, args.r, delta, eps)


def cmd_dict(args) -> tuple:
    inst = _load_instance(args.instance)
    D = _generated_dict(args, inst)
    _write(args.output, io.serialize_instance(D.instance))
    doc = {"vertices": len(D.instance.vertex_ids),
           "edges": len(D.instance.edges), "cubes": D.m, "r": D.r,
           "source_value": D.source_value,
           "dictator_weight": dictator_weight(D)}
    human = (f"wrote {args.output}: {doc['vertices']} vertices, "
             f"{doc['edges']} constraints, {D.m} cubes, r={D.r}, "
             f"dictator weight {doc['dictator_weight']}")
    return doc, human


def cmd_dict_check(args) -> tuple:
    inst = _load_instance(args.instance)
    D = _generated_dict(args, inst)
    report = completeness_check(D)
    bco, bucket_labels = bucket_constant_opt(D)
    # generate_dict's grid check snapped x; round that snap, not a new one
    rounded = round_perturbed(inst, D.snap).value
    if bco != rounded:
        raise PropertyViolation(f"cube-constant optimum {bco} differs from "
                                f"rounding value {rounded}")
    doc = {"completeness": report,
           "bucket_constant_opt": bco, "round_value": rounded,
           "bucket_labels": list(bucket_labels)}
    human = (f"dictators: all {D.r} feasible at exact cost "
             f"{report['dictator_cost']} "
             f"(bound {report['bound']})\n"
             f"cube-constant optimum = rounding value = {bco}")
    return doc, human


def cmd_reduce(args) -> tuple:
    game = io.parse_ug(_read(args.ug))
    D = dict_view(_load_instance(args.dict))
    composed = compose(game, D)
    _write(args.output, io.serialize_instance(composed))
    doc = {"vertices": len(composed.vertex_ids),
           "edges": len(composed.edges),
           "left": game.n_left, "right": game.n_right}
    return doc, (f"wrote {args.output}: {doc['vertices']} vertices, "
                 f"{doc['edges']} constraints")


def _composed_as_written(game, dict_path: str, text: str):
    """``(compose(game, D), D)`` for the hypercubes D in ``dict_path``
    when ``text`` is byte for byte what ``reduce`` writes for them, else
    ``None``.

    Serialization is canonical, so such a text parses to exactly that
    instance and F need not be parsed.  Any error on the way (a bad dict
    file, other label ranges, a cap) returns ``None`` too, so that the
    parse path raises it in its usual order.
    """
    try:
        D = dict_view(_load_instance(dict_path))
        composed = compose(game, D)
    except (OSError, ValueError, CapExceeded):
        return None
    if io.serialize_instance(composed) != text:
        return None
    return composed, D


def cmd_decode(args) -> tuple:
    game = io.parse_ug(_read(args.ug))
    text = _read(args.f)
    rebuilt = (_composed_as_written(game, args.dict, text) if args.dict
               else None)
    composed, D = rebuilt or (io.parse_instance(text), None)
    selection = io.parse_assignment(_read(args.solution), composed)
    if rebuilt is None:
        D = dict_view(_load_instance(args.dict)) if args.dict else None
        D = composed_cubes(game, composed, D)
    labels, table = decode_labeling(game, D, selection, tau=_tau(args),
                                    d=args.d)
    satisfied = ug_satisfied_weight(game, labels)
    doc = {"labels": labels, "satisfied_weight": satisfied,
           "influences": table}
    lines = [f"{vid} = {labels[vid]}"
             for vid in list(game.left) + list(game.right)]
    lines.append(f"satisfied weight: {satisfied}")
    return doc, "\n".join(lines)


def cmd_analyze_gamma(args) -> tuple:
    value = gamma(args.rho, args.mu, args.nu)
    return ({"rho": args.rho, "mu": args.mu, "nu": args.nu, "gamma": value},
            f"{value:.12f}")


def _parse_split(text: str, arity: int):
    """Two 1-indexed coordinate groups, e.g. ``1,2|3``."""
    halves = text.split("|")
    if len(halves) != 2:
        raise ValueError(f"--split must contain exactly one '|', got "
                         f"{text!r}")
    sides = []
    for half in halves:
        try:
            coords = [int(tok) for tok in half.split(",") if tok.strip()]
        except ValueError:
            coords = []
        if not coords or not all(1 <= c <= arity for c in coords):
            raise ValueError(f"--split coordinates must be in 1..{arity}")
        sides.append([c - 1 for c in coords])
    return sides


def cmd_analyze_correlation(args) -> tuple:
    inst = _load_instance(args.instance)
    if not inst.edges:
        raise ValueError("--edge: the instance has no edges")
    if not 0 <= args.edge < len(inst.edges):
        raise ValueError(f"--edge must be in 0..{len(inst.edges) - 1}")
    x = _solution_for(args, inst)
    dist = extract_edge_distribution(inst, x, args.edge)
    if args.delta:
        dist = smooth(dist, io.parse_rational(args.delta, "--delta"))
    side1, side2 = _parse_split(args.split, dist.arity)
    report = cheeger_check(dist, side1, side2)
    human = (f"alpha = {report['alpha']}\n"
             f"rho = {report['rho']:.9f}\n"
             f"bound = {report['bound']:.9f}\n"
             f"connected = {report['connected']}\n"
             f"ok = {report['ok']}")
    return report, human


def cmd_analyze_influences(args) -> tuple:
    D = dict_view(_load_instance(args.dict_file))
    labels = io.parse_assignment(_read(args.assignment), D.instance)
    if args.p:
        p = io.parse_rational(args.p, "--p")
        D = dataclasses.replace(D, tilde_values=(p,) * D.m)
    tau = _tau(args)
    d = args.d if args.d is not None else D.r
    report = pseudo_random_check(D, labels, tau, d)
    lines = []
    for b, row in enumerate(report["influences"]):
        lines.append(f"cube {b}: {', '.join(map(str, row))}")
    lines.append(f"max influence = "
                 f"{report['max_influence']} at "
                 f"{report['argmax']}")
    lines.append(f"pseudo-random (tau={tau}, d={d}): "
                 f"{report['pseudo_random']}")
    return report, "\n".join(lines)


def cmd_check(args) -> tuple:
    ids = None
    if args.criteria and args.criteria != ["all"]:
        ids, unread = [], []
        for c in args.criteria:
            try:
                ids.append(int(c))
            except ValueError:
                unread.append(clip(c))
        if unread:
            raise ValueError(f"unknown criteria: {unread} "
                             "(give criterion numbers, or 'all' alone)")
    reports = acceptance.run(ids)
    doc = {"criteria": reports,
           "passed": all(r["passed"] for r in reports)}
    return doc, acceptance.render(reports), 0 if doc["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcsp",
        description="Exact relaxation, rounding, and reduction toolkit "
                    "for monotone constraint minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, subparsers=sub, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="structured output")
        p.set_defaults(func=fn)
        return p

    def add_dict(name, fn, **kwargs):
        p = add(name, fn, **kwargs)
        p.add_argument("instance")
        p.add_argument("--eps", required=True)
        p.add_argument("--delta", required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--solution", help="on-grid solution file "
                       "(default: snapped solver optimum)")
        return p

    p = add("lp", cmd_lp, help="solve the hull relaxation exactly")
    p.add_argument("instance")
    p.add_argument("--lambdas", action="store_true",
                   help="print each edge's mixture certificate")

    p = add("round", cmd_round, help="grid rounding of a solution")
    p.add_argument("instance")
    p.add_argument("--eps", required=True, help="grid step, num/den")
    p.add_argument("--solution", help="solution file (default: solver)")
    p.add_argument("--report", action="store_true",
                   help="include lp/round/opt comparison")

    p = add("oracle", cmd_oracle,
            help="exact optimum by branch-and-bound search")
    p.add_argument("instance")

    p = add_dict("dict", cmd_dict, help="generate the hypercube instance")
    p.add_argument("-o", "--output", required=True)

    add_dict("dict-check", cmd_dict_check,
             help="verify dictator costs and the cube-constant identity")

    p = add("reduce", cmd_reduce,
            help="compose a game with a hypercube instance")
    p.add_argument("--ug", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("-o", "--output", required=True)

    p = add("decode", cmd_decode,
            help="read a game labeling off a composed selection")
    p.add_argument("--f", required=True, help="composed instance file")
    p.add_argument("--solution", required=True,
                   help="assignment file selecting composed vertices")
    p.add_argument("--ug", required=True, help="game file")
    p.add_argument("--dict", help="hypercube instance file (else "
                   "recovered from the composed weights)")
    p.add_argument("--tau", help="influence cutoff, num/den (default 0)")
    p.add_argument("--d", type=int, default=None)

    analyze = sub.add_parser("analyze", help="numeric reports")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = add("gamma", cmd_analyze_gamma, asub,
            help="bivariate Gaussian quadrant probability")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)

    p = add("correlation", cmd_analyze_correlation, asub,
            help="maximal correlation across an edge split")
    p.add_argument("instance")
    p.add_argument("--edge", type=int, required=True)
    p.add_argument("--split", required=True,
                   help="1-indexed coordinate groups, e.g. '1,2|3'")
    p.add_argument("--delta", help="smooth first with this rate")
    p.add_argument("--solution")

    p = add("influences", cmd_analyze_influences, asub,
            help="degree-bounded influences of a cube selection")
    p.add_argument("dict_file")
    p.add_argument("--assignment", required=True)
    p.add_argument("--p", help="override the recovered bias")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--tau", help="pseudo-randomness cutoff, num/den")

    p = add("check", cmd_check, help="run the acceptance suite")
    p.add_argument("criteria", nargs="*",
                   help="criterion numbers, or 'all' (default)")

    return parser


_PARSER = build_parser()  # built once; parse_args does not change it


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, human, *code = args.func(args)
        print(json.dumps(io.to_json(doc), indent=2) if args.json else human)
        return code[0] if code else 0
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AssertionError as exc:
        print(f"property violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
