"""Regenerate ``refs/<workload>.json`` from the code in this checkout.

    python3 perfbench/make_refs.py [workload ...]

Run it only on a commit whose outputs are meant to become the
reference; the committed files were made on the seed commit.  Every
pool op is first checked against the independent references (HiGHS,
numpy enumeration, game recount, mpmath), and the script stops without
writing if any check fails.  LP ops run under the tracer so that the
final simplex basis is digested too.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run


def pool_refs(name: str, smcsp) -> dict:
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name]
    work = run.WORK / f"make-refs-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        kwargs = {"independent": True} if name == "enumerate" else {}
        corpus = wl.build(0, work, None, **kwargs)
        ops = sorted(corpus.timed, key=lambda op: op.case)  # stable order
        runner = run.Runner(smcsp, workloads.check_op)
        tracer = Tracer()
        tracer.install()
        cases: dict = {}
        try:
            for op in ops:
                tracer.last_basis = None
                rc, text, _dt = runner.call(op, tracer)
                reason = workloads.check_op(op, rc, text)
                if reason is not None:
                    raise SystemExit(f"{name} {op.case} {op.kind}: {reason}")
                entry = op.digest(json.loads(text))
                if op.kind == "lp":
                    entry["basis"] = workloads.digest(list(tracer.last_basis))
                cases.setdefault(op.case, {})[op.kind] = entry
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"cases": cases}


def gaussian_refs() -> dict:
    import independent
    import workloads

    points = workloads.criterion_grid() + workloads.sample_points(
        random.Random(2009), 24, 8)
    return {"tolerance": workloads.GAMMA_TOLERANCE,
            "points": [[rho, mu, nu, independent.gamma_mp(rho, mu, nu)]
                       for rho, mu, nu in points]}


def main(argv) -> int:
    smcsp = run.import_smcsp()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    workloads.REFS.mkdir(exist_ok=True)
    for name in names:
        if name == "gaussian":
            doc = gaussian_refs()
        else:
            doc = pool_refs(name, smcsp)
        doc = {"git_sha": run.git_sha(), "src_sha256": run.source_digest(),
               **doc}
        path = workloads.REFS / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
