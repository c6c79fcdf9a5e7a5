"""End-to-end acceptance criteria.

Each criterion is a self-contained scenario from the project's
acceptance list; one test per criterion so the suite prints one
pass/fail line for each.  A failing criterion here is a finding, not a
broken test: criterion 10's pairwise stability lower bound is violated
on a large part of its own grid (the README's criterion-10 verdict and
demos/05_gaussian_bounds.py give the analysis), and the suite reports
that honestly rather than papering over it.
"""

import pytest

from smcsp import acceptance
from smcsp.model import PropertyViolation


@pytest.mark.parametrize(
    "cid", range(1, len(acceptance.CRITERIA) + 1),
    ids=[fn.__name__ for fn, _ in acceptance.CRITERIA])
def test_criterion(cid):
    reports = acceptance.run([cid])
    assert len(reports) == 1
    report = reports[0]
    line = acceptance.render(reports).splitlines()[0]
    print(line)
    assert report["passed"], f"{line}\n{report['details']}"


def test_render_counts_passes():
    reports = [{"id": 1, "title": "t", "passed": True, "details": "",
                "seconds": 0.0},
               {"id": 2, "title": "t", "passed": False, "details": "d",
                "seconds": 0.0}]
    text = acceptance.render(reports)
    assert "[PASS]" in text and "[FAIL]" in text
    assert text.rstrip().endswith("1/2 criteria passed")


def test_a_criterion_that_raises_keeps_its_title(monkeypatch):
    def broken(D):
        raise PropertyViolation("dictator 0 costs too much")

    monkeypatch.setattr(acceptance, "completeness_check", broken)
    report, = acceptance.run([7])
    assert report["title"] == "coordinate labelings: feasible, exact cost"
    assert not report["passed"]
    assert report["details"] == ("assertion failed: dictator 0 costs too "
                                 "much")


def test_criterion_10_details_leave_the_time_to_seconds(monkeypatch):
    # a stub grid and Monte Carlo run keep this fast; the identities and
    # the exact gamma still run
    monkeypatch.setattr(acceptance, "check_gamma_inequalities",
                        lambda tol: {"ok": True, "violations": [],
                                     "checked": 81})
    monkeypatch.setattr(acceptance, "gamma_mc",
                        lambda *args, **kwargs: (1 / 6, 1e-4))
    report, = acceptance.run([10])
    assert report["passed"]
    assert report["details"] == (
        "grid: 0/81 violations (first: None); identities: 0 bad; "
        "mc |0.166667-0.166667| <= 3se=0.000300")


def test_criterion_10_details_print_plain_floats(monkeypatch):
    # the real grid, a stub Monte Carlo run
    monkeypatch.setattr(acceptance, "gamma_mc",
                        lambda *args, **kwargs: (1 / 6, 1e-4))
    report, = acceptance.run([10])
    assert report["details"].startswith(
        "grid: 143/324 violations (first: {'kind': 'pair', 'theta': 0.1, "
        "'lambda': 0.2, 'value': 1.49")
    assert "np.float64(" not in report["details"]
