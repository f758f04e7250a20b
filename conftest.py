"""Test-wide settings shared by both test roots (tests/ and perfbench/)."""

import faulthandler
import os

import pytest

# No tier-1 test takes more than a few seconds; one that runs this long
# is stuck in a loop, and a traceback plus a failed run says where.
TEST_TIME_LIMIT_S = 60

_STDERR = pytest.StashKey()


def pytest_configure(config):
    # while a test runs, fd 2 is pytest's capture file, which dies
    # unread with the process; the dump goes to the real stderr
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _watchdog(request):
    """Dump every thread's stack and exit if one test hangs."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
