from pathlib import Path

import pytest

import brute_memo
from ceaf import (
    io_doc,
    is_c_admissible,
    is_conflict_eliminable,
    is_one_directionally_attacked,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_FILES = sorted((ROOT / "fixtures").glob("*.json"))

_ACCEPTANCE_RESULTS = {}


# every brute answer is computed once per test session
brute_memo.install()


def load_fixture(name):
    """A fresh framework from the shipped document ``fixtures/<name>.json``;
    underscores in ``name`` stand for the hyphens of the file name."""
    path = ROOT / "fixtures" / f"{name.replace('_', '-')}.json"
    return io_doc.load(path).framework


@pytest.fixture(scope="session")
def ldp():
    return load_fixture("ldp")


@pytest.fixture(scope="session")
def seven():
    return load_fixture("seven")


@pytest.fixture(scope="session")
def asym():
    return load_fixture("asym")


@pytest.fixture(scope="session")
def disc():
    return load_fixture("disc")


@pytest.fixture(scope="session")
def indep_larger():
    return load_fixture("indep_larger")


@pytest.fixture(scope="session")
def indep_state():
    return load_fixture("indep_state")


@pytest.fixture(scope="session")
def indep_fewer():
    return load_fixture("indep_fewer")


def by_ids(fw, *names):
    return frozenset(fw.by_id(n) for n in names)


def state_leq_literal(fw, first, second):
    """The state ordering spelled out as its defining three-way disjunction;
    an independent route for the equivalence tests."""
    first, second = frozenset(first), frozenset(second)
    if not (is_conflict_eliminable(fw, first) and is_conflict_eliminable(fw, second)):
        return False
    if is_c_admissible(fw, second):
        return True
    if is_one_directionally_attacked(fw, first):
        return True
    return not (
        is_c_admissible(fw, first)
        or is_c_admissible(fw, second)
        or is_one_directionally_attacked(fw, first)
        or is_one_directionally_attacked(fw, second)
    )


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        mark = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{mark} {name}")
