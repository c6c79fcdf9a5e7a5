"""Mutants of the source that the suite must kill, and their runner.

Each entry of ``MUTANTS`` names a file of the repository, an exact
snippet of it, the snippet's replacement and the test ids that must
fail once the snippet is replaced.  ``test_mutants.py`` checks that
every snippet occurs exactly once in the current source, so an edit
that moves one shows at once.  This module is a helper, not a test
file: pytest does not collect it.

Run it on a copy of the tree made in a directory of your choice::

    python tests/mutants.py WORKDIR [NAME ...]

The runner copies the repository into ``WORKDIR/tree`` (``WORKDIR`` is
made if missing and the copy replaces any earlier one), runs the
listed tests of the chosen mutants, all of them by default, on the
unmutated copy first, which must pass, and then applies one mutant at
a time, runs only its tests with ``-x`` and restores the file.  Each
mutant is reported killed (its tests failed) or survived, with its
time.  The exit status is 0 when every mutant is killed, 1 when one is
not, and 2 when the unmutated copy fails.  Only the standard library
and pytest are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SIMPLEX = "src/smcsp/simplex.py"
SIMPLEX_TESTS = "tests/test_simplex.py::"


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    snippet: str       # occurs exactly once in the file
    replacement: str
    tests: tuple       # pytest ids, each of which the mutant must fail


def _simplex(name, snippet, replacement, *tests):
    return Mutant(name, SIMPLEX, snippet, replacement,
                  tuple(SIMPLEX_TESTS + t for t in tests))


MUTANTS = (
    _simplex("ratio-tie-break-reversed",
             "basis[i] < basis[leave]", "basis[i] > basis[leave]",
             "test_bland_results_pinned", "test_bland_pivot_path_pinned"),
    _simplex("gather-misses-last-constraint-row",
             "    index = range(len(rows))\n",
             "    index = [*range(len(rows) - 2), len(rows) - 1]\n",
             "test_matches_scipy_on_random_programs",
             "test_bland_results_pinned"),
    _simplex("gather-misses-objective-row",
             "    index = range(len(rows))\n",
             "    index = range(len(rows) - 1)\n",
             "test_matches_scipy_on_random_programs",
             "test_bland_results_pinned"),
    _simplex("clear-never-scales-a-row",
             "if scale != 1:", "if False:",
             "test_matches_scipy_on_random_programs",
             "test_covering_lp_pinned"),
    _simplex("clear-scales-row-not-denominator",
             "\n                    dens[i] *= scale", "",
             "test_matches_scipy_on_random_programs",
             "test_covering_lp_pinned"),
    _simplex("phase2-skips-reduced-costs",
             "if cost[bi]:", "if False:",
             "test_matches_scipy_on_random_programs",
             "test_bland_results_pinned"),
    _simplex("pivot-denominator-undivided",
             "\n            p //= g", "",
             "test_bland_results_pinned", "test_bland_pivot_path_pinned"),
)


def _pytest(tree: Path, tests, *flags) -> tuple:
    """Run ``tests`` in ``tree``: (pytest's exit code, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *flags, *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - start


def run(workdir: Path, mutants=MUTANTS, out=sys.stdout) -> int:
    """Copy the tree into ``workdir`` and run ``mutants`` on the copy;
    returns the exit status described in the module docstring."""
    tree = Path(workdir) / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    tests = sorted({t for m in mutants for t in m.tests})
    code, seconds = _pytest(tree, tests)
    print(f"unmutated: pytest exit {code} ({seconds:.1f} s)", file=out)
    if code != 0:
        return 2
    survived = 0
    for m in mutants:
        path = tree / m.path
        source = path.read_text()
        if source.count(m.snippet) != 1:
            raise ValueError(f"{m.name}: snippet does not occur exactly "
                             f"once in {m.path}")
        path.write_text(source.replace(m.snippet, m.replacement))
        try:
            code, seconds = _pytest(tree, m.tests, "-x")
        finally:
            path.write_text(source)
        # 1: a test failed; 2: collection failed, so the tests did too
        killed = code in (1, 2)
        survived += not killed
        verdict = "killed" if killed else f"SURVIVED (pytest exit {code})"
        print(f"{m.name}: {verdict} ({seconds:.1f} s)", file=out)
    return 1 if survived else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python tests/mutants.py WORKDIR [NAME ...]",
              file=sys.stderr)
        return 2
    names = set(args[1:])
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    return run(Path(args[0]), chosen)


if __name__ == "__main__":
    sys.exit(main())
