"""Shared fixtures plus the acceptance summary hook.

test_acceptance.py records one line per criterion through record();
the terminal summary prints them in order so a plain pytest run shows
the checklist at the end.
"""

from __future__ import annotations

import pytest

CRITERIA = [
    "AC1", "AC2", "AC3", "AC4", "AC5",
    "AC6", "AC7", "AC8", "AC9", "AC10",
]

_RESULTS: dict[str, tuple[str, str]] = {}

# the tests that -k, -m, --deselect or --lf dropped from this run, so that
# test_readme can tell a run of the whole suite
DESELECTED: list = []


def pytest_deselected(items):
    DESELECTED.extend(items)


def record(criterion: str, status: str, detail: str = "") -> None:
    """Store the outcome for one acceptance criterion."""
    assert criterion in CRITERIA, criterion
    assert status in ("pass", "fail"), status
    _RESULTS[criterion] = (status, detail)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    if not _RESULTS:
        return
    tr.section("acceptance criteria")
    for name in CRITERIA:
        status, detail = _RESULTS.get(name, ("fail", "not run"))
        line = f"{name}: {status.upper()}"
        if detail:
            line += f" - {detail}"
        tr.write_line(line)
