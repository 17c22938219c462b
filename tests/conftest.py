"""Prints a one-line verdict per acceptance criterion after the run, and
provides a model file that no count source covers."""

import json
import re

import pytest

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_results = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    key = (int(m.group(1)), m.group(2))
    if report.failed:
        _results[key] = "FAIL"
    elif report.when == "call":
        _results.setdefault(key, "pass" if report.passed else report.outcome)
    elif report.when == "setup" and report.skipped:
        _results.setdefault(key, "skipped")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num, name in sorted(_results):
        terminalreporter.write_line(f"criterion {num} ({name}): {_results[(num, name)]}")


@pytest.fixture
def bare_model_file(tmp_path):
    """A model file with an odd positive-definite form (b2+ = 2, no b1) and
    no count tables: every count on it is missing data."""
    doc = {"name": "bare", "basis": ["P", "Q"], "gram": [[1, 0], [0, 1]], "K": [1, 1], "area": [1, 1]}
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path
