"""Shared pytest configuration: the tier-1 runtime audit.

Tier-1 (`pytest` with the default ``-m 'not soak and not slow'``) is the
gate every change must keep fast.  Long-running tests belong behind the
``soak`` or ``slow`` markers; anything unmarked that takes longer than
the budget is a marker bug, and this audit turns it into a hard session
failure instead of silent CI rot.
"""

import contextlib
import gc

import pytest


@pytest.fixture()
def no_garbage():
    """``with no_garbage():`` — everything the block drops must die by
    reference count; whatever only a cyclic pass would free fails it."""

    @contextlib.contextmanager
    def block():
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            yield
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    return block


#: Wall-clock budget for one unmarked tier-1 test (seconds).
TIER1_TEST_BUDGET_S = 30.0

#: Markers that exempt a test from the tier-1 budget.
_EXEMPT_MARKERS = ("soak", "slow")

_budget_violations: list[tuple[str, float]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or report.duration <= TIER1_TEST_BUDGET_S:
        return
    if any(marker in report.keywords for marker in _EXEMPT_MARKERS):
        return
    _budget_violations.append((report.nodeid, report.duration))


def pytest_sessionfinish(session, exitstatus):
    if not _budget_violations:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.section("tier-1 runtime audit", sep="=")
        for nodeid, duration in _budget_violations:
            reporter.write_line(
                f"UNMARKED SLOW TEST: {nodeid} took {duration:.1f}s "
                f"(budget {TIER1_TEST_BUDGET_S:.0f}s) — mark it 'soak' or "
                "'slow', or make it faster"
            )
    if session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
