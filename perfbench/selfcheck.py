"""Self-check of the benchmark: ``python3 perfbench/run.py --self-check``.

Runs the warm-up ops of every workload (one op of each kind) and one
held-out op, all of which must pass.  Then it feeds each checked output
back with one corruption (a flipped label, a count off by one, a value
off by 1/997, gamma off by 1e-6) and requires the check to count it as
failed, and runs an oracle op under a tiny enumeration cap, whose exit
code 4 must count as failed too.  Finally it compares the metric names
in BENCHMARK.json with the ones this benchmark emits.
"""

from __future__ import annotations

import json
import os
import shutil
from fractions import Fraction

import run

NUDGE = Fraction(1, 997)


def _nudge(doc: dict, key: str) -> dict:
    value = Fraction(doc[key]) + NUDGE
    doc[key] = f"{value.numerator}/{value.denominator}"
    return doc


def _flip_first_label(doc: dict) -> dict:
    first = next(iter(doc["labels"]))
    doc["labels"][first] = 0 if doc["labels"][first] else 1
    return doc


def _bump(key: str, by: int):
    def tamper(doc):
        doc[key] += by
        return doc
    return tamper


def _gamma_off(doc: dict) -> dict:
    doc["gamma"] += 1e-6
    return doc


TAMPER = {
    "lp": lambda doc: _nudge(doc, "objective"),
    "oracle": _flip_first_label,
    "round": _flip_first_label,
    "dict-check": lambda doc: _nudge(doc, "bucket_constant_opt"),
    "dict": _bump("vertices", 1),
    "reduce": _bump("edges", -1),
    "decode": _flip_first_label,
    "influences": lambda doc: _nudge(doc, "max_influence"),
    "gamma": _gamma_off,
}


def check_metric_names() -> tuple:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != {name: unit for name, unit, _s in run.PER_LAYER}:
        problems.append("per_layer metrics differ from run.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    return problems, names


def main(import_smcsp) -> int:
    smcsp = import_smcsp()
    import workloads

    problems, names = check_metric_names()
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    runner = run.Runner(smcsp, workloads.check_op)
    report = []
    for name, wl in workloads.WORKLOADS.items():
        work = run.WORK / f"self-check-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            corpus = wl.build(0, work, workloads.load_refs(name))
            for op in corpus.warmup + corpus.held_out[:1]:
                rc, text, dt = runner.call(op)
                reason = workloads.check_op(op, rc, text)
                tampered = workloads.check_op(
                    op, 0, json.dumps(TAMPER[op.kind](json.loads(text)))) \
                    if reason is None else "not run"
                report.append({"workload": name, "kind": op.kind,
                               "case": op.case, "ms": dt * 1e3,
                               "ok": reason is None, "reason": reason,
                               "tamper_caught": tampered is not None})
            if name == "enumerate":
                oracle = next(op for op in corpus.warmup
                              if op.kind == "oracle")
                capped = workloads.Op(oracle.kind, oracle.case, oracle.argv,
                                      oracle.verify, oracle.digest,
                                      oracle.ref, {"SMCSP_CAP_ENUM": "4"})
                rc, text, _dt = runner.call(capped)
                reason = workloads.check_op(capped, rc, text)
                report.append({"workload": name, "kind": "oracle-capped",
                               "case": oracle.case, "exit": rc,
                               "ok": rc == 4 and reason is not None,
                               "reason": reason, "tamper_caught": True})
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if run.WORK.exists() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    bad = [r for r in report if not (r["ok"] and r["tamper_caught"])]
    print(json.dumps({"ops": report, "problems": problems}, indent=1))
    passed = not bad and not problems
    print("self-check " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1
