"""Outside-in span tracer for the smcsp layers (stdlib only).

The tracer replaces public functions of the package with timing
wrappers at every name a caller looks them up by: ``rounding`` binds
``check_feasible_fractional`` at import, so patching ``lp`` alone would
miss those calls.  Every module attribute that *is* the original
function object is swapped, and ``uninstall`` puts each one back.

Spans live in memory as ``(name, start_ns, end_ns, parent)`` tuples,
with the op as the root span.  Count hooks run after their span has
closed, inside a ``trace.hook`` span of their own, so the time spent
deriving sizes from inputs and outputs is not charged to any layer.
Self time is a span's duration minus the durations of its direct
children; spans never overlap because everything runs on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

HOOK = "trace.hook"
PACKAGE = "smcsp"


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(),
                   value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    return 0


# -- count hooks: (tracer, args, kwargs, result) -> None -------------------

def _simplex_solve(tr, args, kwargs, res):
    A, _b, c = args[:3]
    tr.count("simplex.solve_standard_form.calls")
    tr.count("simplex.tableau_cells", len(A) * len(c))
    tr.count("simplex.tableau_nnz", sum(1 for row in A for a in row if a))
    if res.values is not None:
        bits = max([_bits(v) for v in res.values] + [_bits(res.objective)])
        tr.peak("simplex.result_max_bits", bits)


def _calls(name):
    def hook(tr, args, kwargs, res):
        tr.count(name)
    return hook


def _build_lp(tr, args, kwargs, problem):
    tr.count("lp.rows", problem.num_rows)
    tr.count("lp.cols", problem.num_cols)


def _lp_simplex_solve(tr, args, kwargs, sol):
    tr.last_basis = sol.basis


def _brute_force(tr, args, kwargs, res):
    inst = args[0]
    tr.count("model.brute_force_opt.candidates", inst.q ** inst.n)


def _round(tr, args, kwargs, res):
    m = len(res.bucket_values)
    tr.count("rounding.buckets", m)
    tr.count("rounding.round_solution.candidates", args[0].q ** m)


def _generate_dict(tr, args, kwargs, D):
    tr.count("dictators.blowup_vertices", len(D.instance.vertex_ids))
    tr.count("dictators.blowup_edges", len(D.instance.edges))


def _bucket_constant(tr, args, kwargs, res):
    D = args[0]
    tr.count("dictators.bucket_constant_opt.candidates", D.q ** D.m)


def _compose(tr, args, kwargs, inst):
    ug, D = args[:2]
    tr.count("unique_games.composed_vertices", len(inst.vertex_ids))
    tr.count("unique_games.composed_edges", len(inst.edges))
    degrees = [0] * len(ug.right)
    for _u, v, _wt, _perm in ug.edges:
        degrees[v] += 1
    tr.count("unique_games.compose.tuples",
             sum(dg ** len(e.vertices) for e in D.instance.edges
                 for dg in degrees))


def _fourier(tr, args, kwargs, res):
    tr.count("fourier.biased_fourier.calls")
    tr.count("fourier.biased_fourier.cells", len(args[0]))
    tr.count("fourier.biased_fourier.exact_calls", int(res.exact))


def _bytes_read(tr, args, kwargs, res):
    tr.count("io.bytes_read", len(args[0]))


def _bytes_written(tr, args, kwargs, text):
    tr.count("io.bytes_written", len(text))


# (module, function, hook or None).  Only functions that cost real time
# or carry a size are wrapped; tiny predicates such as ``is_feasible``
# run millions of times and would drown the op in wrapper overhead.
TARGETS = (
    ("simplex", "solve_standard_form", _simplex_solve),
    ("simplex", "find_feasible_point",
     _calls("simplex.find_feasible_point.calls")),
    ("lp", "build_lp", _build_lp),
    ("lp", "simplex_solve", _lp_simplex_solve),
    ("lp", "solve_lp", None),
    ("lp", "check_feasible_fractional",
     _calls("lp.check_feasible_fractional.calls")),
    ("model", "brute_force_opt", _brute_force),
    ("model", "validate_instance", None),
    ("model", "make_instance", None),
    ("rounding", "perturb", None),
    ("rounding", "round_solution", _round),
    ("distributions", "extract_edge_distribution",
     _calls("distributions.extract_edge_distribution.calls")),
    ("distributions", "smooth", None),
    ("dictators", "generate_dict", _generate_dict),
    ("dictators", "completeness_check", None),
    ("dictators", "bucket_constant_opt", _bucket_constant),
    ("dictators", "dict_view", None),
    ("dictators", "pseudo_random_check", None),
    ("unique_games", "compose", _compose),
    ("unique_games", "decode_labeling", None),
    ("unique_games", "ug_satisfied_weight", None),
    ("fourier", "biased_fourier", _fourier),
    ("io", "parse_instance", _bytes_read),
    ("io", "parse_ug", _bytes_read),
    ("io", "parse_solution", _bytes_read),
    ("io", "parse_assignment", _bytes_read),
    ("io", "serialize_instance", _bytes_written),
    ("gaussian", "gamma", _calls("gaussian.gamma.calls")),
)


class Tracer:
    """Spans and counts for one traced pass; install, run ops, uninstall."""

    def __init__(self):
        self.spans: list = []     # (name, start_ns, end_ns, parent index)
        self.counts: dict = defaultdict(int)
        self.last_basis = None
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, label: str, fn):
        """Run ``fn()`` as a root span named ``op:<label>``."""
        idx = self._open("op:" + label)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hidx = tracer._open(HOOK)
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    # a changed return type must not fail the op itself
                    tracer.count("trace.hook_errors")
                finally:
                    tracer._close(hidx)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name, hook in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reduction --------------------------------------------------------

    def self_times_ns(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _n, start, end, _p in self.spans]
        for _n, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Inclusive and self time per span name, in ns, plus op totals."""
        own = self.self_times_ns()
        incl: dict = defaultdict(int)
        self_t: dict = defaultdict(int)
        for (name, start, end, parent), s in zip(self.spans, own):
            key = "op" if name.startswith("op:") else name
            self_t[key] += s
            # inclusive time counts outermost spans only, so a recursive
            # or re-entrant layer is not counted twice
            if not self._has_ancestor_named(parent, name):
                incl[key] += end - start
        return {"inclusive_ns": dict(incl), "self_ns": dict(self_t)}

    def _has_ancestor_named(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines, then the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}))
                fh.write("\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
