"""Collects acceptance-criterion outcomes and prints one line per criterion
in the terminal summary, where pytest's capture cannot swallow them, and
holds the fixtures several test modules share."""

import os

import pytest

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, description, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} {status}: {description}")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes os.sched_getaffinity report n CPUs for the rest of the
    test, so that a large enough sweep forks n children (none for n = 1,
    which sweeps serially), whatever the machine has."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus
