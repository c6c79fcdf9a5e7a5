"""Benchmark of the smcsp command line, one workload per process.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Each op is one in-process ``smcsp.cli.main([..., "--json"])`` call on
inputs written at set-up; one client runs ops back to back (a closed
loop, no threads).  Whole passes over the workload's reference pool
repeat until ``--seconds`` have elapsed.  Every output is checked (see
``workloads.py``); a nonzero exit, an exception or a wrong output counts
as a failed op.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the run makes one untraced and one traced pass and
reports per-layer metrics from the outside-in tracer (``tracer.py``).
The line before it is a record with versions, seeds, sizes and
percentile details; the same record, and the spans of a traced run, go
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
IMPORT_SAMPLE_S = 0.2  # speed sampling before and after the import

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}

# (metric, unit, source): source is ("incl"|"self", span) for times,
# ("count", name) for counters, ("layer", module) for a layer's self time.
PER_LAYER = [
    ("simplex.self_ms", "ms", ("layer", "simplex")),
    ("simplex.solve_standard_form.self_ms", "ms",
     ("self", "simplex.solve_standard_form")),
    ("simplex.solve_standard_form.calls", "count",
     ("count", "simplex.solve_standard_form.calls")),
    ("simplex.tableau_cells", "count", ("count", "simplex.tableau_cells")),
    ("simplex.tableau_nnz", "count", ("count", "simplex.tableau_nnz")),
    ("simplex.result_max_bits", "bits", ("count", "simplex.result_max_bits")),
    ("simplex.find_feasible_point.ms", "ms",
     ("incl", "simplex.find_feasible_point")),
    ("simplex.find_feasible_point.calls", "count",
     ("count", "simplex.find_feasible_point.calls")),
    ("lp.self_ms", "ms", ("layer", "lp")),
    ("lp.build_lp.ms", "ms", ("incl", "lp.build_lp")),
    ("lp.simplex_solve.self_ms", "ms", ("self", "lp.simplex_solve")),
    ("lp.check_feasible_fractional.ms", "ms",
     ("incl", "lp.check_feasible_fractional")),
    ("lp.check_feasible_fractional.calls", "count",
     ("count", "lp.check_feasible_fractional.calls")),
    ("lp.rows", "count", ("count", "lp.rows")),
    ("lp.cols", "count", ("count", "lp.cols")),
    ("model.self_ms", "ms", ("layer", "model")),
    ("model.brute_force_opt.ms", "ms", ("incl", "model.brute_force_opt")),
    ("model.brute_force_opt.candidates", "count",
     ("count", "model.brute_force_opt.candidates")),
    ("model.brute_force_opt.candidates_per_s", "1/s", None),
    ("model.validate_instance.ms", "ms", ("incl", "model.validate_instance")),
    ("model.make_instance.ms", "ms", ("incl", "model.make_instance")),
    ("rounding.self_ms", "ms", ("layer", "rounding")),
    ("rounding.perturb.ms", "ms", ("incl", "rounding.perturb")),
    ("rounding.round_solution.self_ms", "ms",
     ("self", "rounding.round_solution")),
    ("rounding.round_solution.candidates", "count",
     ("count", "rounding.round_solution.candidates")),
    ("rounding.buckets", "count", ("count", "rounding.buckets")),
    ("distributions.self_ms", "ms", ("layer", "distributions")),
    ("distributions.extract_edge_distribution.ms", "ms",
     ("incl", "distributions.extract_edge_distribution")),
    ("distributions.extract_edge_distribution.calls", "count",
     ("count", "distributions.extract_edge_distribution.calls")),
    ("distributions.smooth.ms", "ms", ("incl", "distributions.smooth")),
    ("dictators.self_ms", "ms", ("layer", "dictators")),
    ("dictators.generate_dict.self_ms", "ms",
     ("self", "dictators.generate_dict")),
    ("dictators.blowup_vertices", "count",
     ("count", "dictators.blowup_vertices")),
    ("dictators.blowup_edges", "count", ("count", "dictators.blowup_edges")),
    ("dictators.completeness_check.ms", "ms",
     ("incl", "dictators.completeness_check")),
    ("dictators.bucket_constant_opt.ms", "ms",
     ("incl", "dictators.bucket_constant_opt")),
    ("dictators.bucket_constant_opt.candidates", "count",
     ("count", "dictators.bucket_constant_opt.candidates")),
    ("dictators.dict_view.ms", "ms", ("incl", "dictators.dict_view")),
    ("dictators.pseudo_random_check.ms", "ms",
     ("incl", "dictators.pseudo_random_check")),
    ("unique_games.self_ms", "ms", ("layer", "unique_games")),
    ("unique_games.compose.self_ms", "ms", ("self", "unique_games.compose")),
    ("unique_games.composed_vertices", "count",
     ("count", "unique_games.composed_vertices")),
    ("unique_games.composed_edges", "count",
     ("count", "unique_games.composed_edges")),
    ("unique_games.compose.tuples", "count",
     ("count", "unique_games.compose.tuples")),
    ("unique_games.decode_labeling.self_ms", "ms",
     ("self", "unique_games.decode_labeling")),
    ("fourier.self_ms", "ms", ("layer", "fourier")),
    ("fourier.biased_fourier.ms", "ms", ("incl", "fourier.biased_fourier")),
    ("fourier.biased_fourier.calls", "count",
     ("count", "fourier.biased_fourier.calls")),
    ("fourier.biased_fourier.cells", "count",
     ("count", "fourier.biased_fourier.cells")),
    ("fourier.biased_fourier.exact_calls", "count",
     ("count", "fourier.biased_fourier.exact_calls")),
    ("io.self_ms", "ms", ("layer", "io")),
    ("io.parse_instance.ms", "ms", ("incl", "io.parse_instance")),
    ("io.serialize_instance.ms", "ms", ("incl", "io.serialize_instance")),
    ("io.bytes_read", "bytes", ("count", "io.bytes_read")),
    ("io.bytes_written", "bytes", ("count", "io.bytes_written")),
    ("gaussian.self_ms", "ms", ("layer", "gaussian")),
    ("gaussian.gamma.ms", "ms", ("incl", "gaussian.gamma")),
    ("gaussian.gamma.calls", "count", ("count", "gaussian.gamma.calls")),
    ("gaussian.gamma.us_per_call", "us", None),
    ("gaussian.gamma.max_abs_err", "prob", None),
    ("cli.self_ms", "ms", ("self", "op")),
    ("op.ms", "ms", ("incl", "op")),
    ("trace.hook_ms", "ms", ("incl", "trace.hook")),
    ("trace.overhead_ratio", "ratio", None),
]


class SetupError(RuntimeError):
    pass


def process_age_s() -> float:
    """Seconds since this process was created (10 ms kernel ticks)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - SCRIPT_T0


SCRIPT_T0 = time.perf_counter()


def import_smcsp():
    if not (SRC / "smcsp" / "cli.py").is_file():
        raise SetupError(f"no smcsp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import smcsp
    import smcsp.cli

    if Path(smcsp.__file__).resolve().parent != SRC / "smcsp":
        raise SetupError(f"imported smcsp from {smcsp.__file__}, "
                         f"not from {SRC}")
    return smcsp


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "smcsp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(),
            "src_sha256": source_digest(), "nproc": os.cpu_count(),
            "seed": args.seed, "held_out_seed": f"{args.workload}/held-out/"
                                                 f"{args.seed}",
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


# -- running one op ---------------------------------------------------------

class Runner:
    """Runs ops in process, checks them, and keeps the tallies."""

    def __init__(self, smcsp, check_op):
        self.cli = smcsp.cli
        self.check_op = check_op
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def call(self, op, tracer=None) -> tuple:
        """(exit code, stdout, seconds) of one op; env applied around it.

        With a tracer, the CLI call is its root span; the output check
        stays outside every span.
        """
        saved = {k: os.environ.get(k) for k in op.env}
        os.environ.update(op.env)
        argv = op.argv + ["--json"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.op(op.kind, lambda: self.cli.main(argv))
        except (Exception, SystemExit) as exc:  # an op that raises fails
            rc = f"raised {exc!r}"
        dt = (time.perf_counter_ns() - t0) / 1e9
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        return rc, out.getvalue(), dt

    def run(self, op, tracer=None) -> tuple:
        """Run and check one op; returns (seconds, ok).

        A traced LP op is also checked against the seed commit's basis.
        """
        if tracer is not None:
            tracer.last_basis = None
        rc, text, dt = self.call(op, tracer)
        basis = tracer.last_basis if tracer is not None else None
        reason = self.check_op(op, rc, text, basis)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"kind": op.kind, "case": op.case,
                                      "reason": reason})
        return dt, reason is None


def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(k) - 1]


def setup(wl, seed: int, work: Path, refs, runner: Runner, calib) -> tuple:
    """Build the corpus SETUP_REPS times; returns (corpus, rep seconds)."""
    times = []
    corpus = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        corpus = wl.build(seed, work, refs)
        for op in corpus.warmup:
            runner.run(op)
        times.append(time.perf_counter() - t0)
        calib.sample_for(0.05)
    return corpus, times


def timed_pass(runner: Runner, ops, calib, tracer=None) -> list:
    """One pass; returns (start, seconds, ok) per op."""
    out = []
    for op in ops:
        t0 = time.perf_counter()
        dt, ok = runner.run(op, tracer)
        out.append((t0, dt, ok))
        calib.tick()
    calib.sample()
    return out


def end_to_end(args, wl, runner, corpus, calib, setup_s) -> tuple:
    """Whole passes until ``--seconds`` elapse, then the held-out ops.

    Each op time is scaled to the reference machine speed with the
    calibration samples around it (see ``calibration.py``); the raw
    figures go into the record.
    """
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(timed_pass(runner, corpus.timed, calib))
    for op in corpus.held_out:
        runner.run(op)
    scaled = [[(dt * calib.factor_at(t + dt / 2), ok) for t, dt, ok in p]
              for p in passes]
    raw = [dt for p in passes for _t, dt, _ok in p]
    flat = [dt for p in scaled for dt, _ok in p]
    n = len(flat)
    beyond = n - int(-(-n * wl.tail_pct // 100))

    def throughput(p):
        # median over passes, so one slow stretch moves it less than a
        # run-long mean would
        return statistics.median(sum(ok for _dt, ok in q)
                                 / sum(dt for dt, _ok in q) for q in p)

    metrics = {
        "setup_s": setup_s,
        "ops_per_s": throughput(scaled),
        "op_p50_ms": statistics.median(flat) * 1e3,
        "op_tail_ms": nearest_rank(flat, wl.tail_pct) * 1e3,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    by_kind: dict = {}
    for op, dt in zip(corpus.timed * len(passes), flat):
        by_kind.setdefault(op.kind, []).append(dt)
    detail = {
        "passes": len(passes), "ops_per_pass": len(corpus.timed),
        "timed_ops": n, "measured_s": sum(raw),
        "speed_factor_mean": sum(flat) / sum(raw),
        "tail_percentile": wl.tail_pct, "tail_ops_beyond": beyond,
        "raw": {"ops_per_s": throughput([[(dt, ok) for _t, dt, ok in p]
                                         for p in passes]),
                "op_p50_ms": statistics.median(raw) * 1e3,
                "op_tail_ms": nearest_rank(raw, wl.tail_pct) * 1e3},
        "p50_ms_by_kind": {k: statistics.median(v) * 1e3
                           for k, v in sorted(by_kind.items())},
    }
    return metrics, detail


def per_layer(runner, corpus, calib) -> tuple:
    """One untraced and one traced pass; per-layer metrics from the spans.

    Times are scaled to the reference speed with the traced pass's
    calibration factor, like the end-to-end figures.
    """
    from tracer import HOOK, Tracer

    start = len(calib.samples)
    plain = [dt for _t, dt, _ok in timed_pass(runner, corpus.timed, calib)]
    plain_f = calib.factor(start)
    tracer = Tracer()
    corpus.stats.clear()
    tracer.install()
    start = len(calib.samples)
    try:
        traced = [dt for _t, dt, _ok in
                  timed_pass(runner, corpus.timed, calib, tracer)]
    finally:
        tracer.uninstall()
    f = calib.factor(start)
    for op in corpus.held_out:
        runner.run(op)

    summary = tracer.summary()
    incl, self_ns = summary["inclusive_ns"], summary["self_ns"]
    layers: dict = {}
    for name, ns in self_ns.items():
        if "." in name and not name.startswith("trace."):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + ns
    counts = tracer.counts
    metrics = {}
    for name, _unit, source in PER_LAYER:
        if source is None:
            continue
        kind, key = source
        if kind == "incl":
            metrics[name] = incl.get(key, 0) * f / 1e6
        elif kind == "self":
            metrics[name] = self_ns.get(key, 0) * f / 1e6
        elif kind == "layer":
            metrics[name] = layers.get(key, 0) * f / 1e6
        else:
            metrics[name] = counts.get(key, 0)
    bf_s = metrics["model.brute_force_opt.ms"] / 1e3
    metrics["model.brute_force_opt.candidates_per_s"] = (
        metrics["model.brute_force_opt.candidates"] / bf_s if bf_s else 0.0)
    calls = metrics["gaussian.gamma.calls"]
    metrics["gaussian.gamma.us_per_call"] = (
        metrics["gaussian.gamma.ms"] * 1e3 / calls if calls else 0.0)
    metrics["gaussian.gamma.max_abs_err"] = corpus.stats.get(
        "max_abs_err", 0.0)
    metrics["trace.overhead_ratio"] = (sum(traced) * f
                                       / (sum(plain) * plain_f) - 1)

    accounted = (sum(layers.values()) + self_ns.get("op", 0)
                 + self_ns.get(HOOK, 0))
    shares = {layer: ns / incl["op"] for layer, ns in layers.items()}
    shares["cli"] = self_ns.get("op", 0) / incl["op"]
    shares["trace"] = incl.get("trace.hook", 0) / incl["op"]
    detail = {
        "layer_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "dominant_layer": max((k for k in shares if k != "trace"),
                              key=shares.get),
        "unaccounted_ms": (incl["op"] - accounted) / 1e6,
        "hook_errors": tracer.counts.get("trace.hook_errors", 0),
        "spans": len(tracer.spans),
        "untraced_pass_s": sum(plain), "traced_pass_s": sum(traced),
        "speed_factors": [plain_f, f],
    }
    return metrics, detail, tracer


def run_workload(args) -> int:
    from calibration import Calibrator

    # speed samples on both sides of the import, which runs only once
    calib = Calibrator()
    calib.sample_for(IMPORT_SAMPLE_S)
    try:
        smcsp = import_smcsp()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    import_s = process_age_s()
    calib.sample_for(IMPORT_SAMPLE_S)
    import_f = calib.factor()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_refs(args.workload)
    if refs is None:
        print(f"perfbench: missing refs/{args.workload}.json",
              file=sys.stderr)
        return 2
    runner = Runner(smcsp, workloads.check_op)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        start = len(calib.samples)
        corpus, reps = setup(wl, args.seed, work, refs, runner, calib)
        reps_f = calib.factor(start)
        setup_s = import_s * import_f + statistics.median(reps) * reps_f
        record = {"env": environment(args), "sizes": corpus.sizes,
                  "setup": {"import_s": import_s, "reps_s": reps,
                            "speed_factors": [import_f, reps_f]}}
        if args.trace:
            metrics, detail, tracer = per_layer(runner, corpus, calib)
        else:
            metrics, detail = end_to_end(args, wl, runner, corpus, calib,
                                         setup_s)
            tracer = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    record["detail"] = detail
    record["failures"] = runner.failures
    units = dict(END_TO_END) if not args.trace else \
        {name: unit for name, unit, _s in PER_LAYER}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("relax", "enumerate", "reduce", "gaussian"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one op of every workload, plus tampered "
                             "outputs that must be counted as failed")
    args = parser.parse_args(argv)
    if args.self_check:
        import selfcheck

        return selfcheck.main(import_smcsp)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
