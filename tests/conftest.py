import pytest

from ceaf import (
    fixtures,
    is_c_admissible,
    is_conflict_eliminable,
    is_one_directionally_attacked,
)

_ACCEPTANCE_RESULTS = {}


@pytest.fixture(scope="session")
def ldp():
    return fixtures.ldp()


@pytest.fixture(scope="session")
def seven():
    return fixtures.seven()


@pytest.fixture(scope="session")
def asym():
    return fixtures.asym()


@pytest.fixture(scope="session")
def disc():
    return fixtures.disc()


@pytest.fixture(scope="session")
def indep_larger():
    return fixtures.indep_larger()


@pytest.fixture(scope="session")
def indep_state():
    return fixtures.indep_state()


@pytest.fixture(scope="session")
def indep_fewer():
    return fixtures.indep_fewer()


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
