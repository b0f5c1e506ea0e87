"""A time limit on each test's setup and call.

A change that makes the program loop then fails the test that loops,
named, instead of hanging the suite.  The limit is far above the slowest
test (a few seconds).  Where the platform has no SIGALRM, tests run
without a limit.
"""

from __future__ import annotations

import signal

import pytest

TIME_LIMIT_S = 60


def _expired(signum, frame):
    # pytest.fail raises a BaseException, which `except Exception` in the
    # code under test does not swallow.
    pytest.fail(f"exceeded the {TIME_LIMIT_S} s time limit")


def _limited():
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


if hasattr(signal, "SIGALRM"):
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(item):
        yield from _limited()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        yield from _limited()
