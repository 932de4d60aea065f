"""Pytest wiring: fresh CLI caches per test, and one PASS/FAIL line per acceptance criterion."""

from __future__ import annotations

import pytest

import noeth.cli


@pytest.fixture(autouse=True)
def fresh_cli_memo():
    """Empty the problem memo and the parser cache of noeth.cli, so that test order cannot change a result."""
    noeth.cli.load_problem.cache_clear()
    noeth.cli._command_parser.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call":
                continue
            results.append((nodeid.split("::", 1)[1], "PASS" if outcome == "passed" else "FAIL"))
    if results:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(results):
            terminalreporter.write_line(f"{verdict}  {name}")
