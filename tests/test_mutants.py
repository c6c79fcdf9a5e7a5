"""The mutant registry still matches the source it mutates.

Running the mutants takes minutes (``python tests/mutants.py WORKDIR``);
this test only checks that every snippet of ``tests/mutants.py`` occurs
exactly once in its file, so an edit that moves or rewrites one shows
in the suite, not at the next mutation run.
"""

from mutants import MUTANTS, ROOT


def test_every_mutant_snippet_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    counts = {m.name: (ROOT / m.path).read_text().count(m.snippet)
              for m in MUTANTS}
    assert all(n == 1 for n in counts.values()), counts
