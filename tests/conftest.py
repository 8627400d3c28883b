"""Emit one PASS/FAIL line per acceptance criterion.

The acceptance tests register their criterion number and title in
CRITERIA at import time; this hook prints the verdict line from the
reporting phase, where pytest's output capture is not active.  Every
test starts with no document kept by the CLI.
"""

import re
import warnings
from contextlib import suppress

import pytest

# when a hypothesis test fails, hypothesis's report hook imports this
# module, which imports libcst, whose import warns DeprecationWarning;
# under -W error that warning aborted the whole session (INTERNALERROR)
# instead of reporting the failure, so it is imported once here, quietly.
# Without libcst the hook skips it, and so does this import
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

CRITERIA = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::(test_criterion_\w+)", report.nodeid)
    if not m or m.group(1) not in CRITERIA:
        return
    num, title = CRITERIA[m.group(1)]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\n{verdict}  [{num}] {title}", flush=True)


@pytest.fixture(autouse=True)
def _no_kept_document(monkeypatch):
    """Each test starts as a CLI process does, with no document kept by an
    earlier ``cli.main`` call; calls within one test share the slot."""
    import cwhom.cli

    monkeypatch.setattr(cwhom.cli, "_kept", (None, None, None))
