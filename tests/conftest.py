"""Session settings for the test suite.

Every exact simplex solve in the suite takes at most 816 pivots (the
covering LP of ``test_covering_lp_pinned``), so the session runs under a
PIVOT cap of 2**11 pivots per solve instead of the default 2**16.  A
fault that keeps a solve from its optimum then fails at pivot 2,049, not
at 65,537.  Tests of the cap itself set their own value with
``monkeypatch``, which restores this one after them.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _suite_pivot_cap():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SMCSP_CAP_PIVOT", "11")
        yield
