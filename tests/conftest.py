import signal
import threading
from fractions import Fraction

import pytest

from copyposet.structures import BUILTIN_IDS, get_structure

# seconds one test may run before it is failed; a loop that never ends
# (say, in a gap search) then shows as a failure instead of a hung run
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Fail the test by name once it has run TEST_TIME_LIMIT_S seconds.

    Needs SIGALRM and the main thread; elsewhere the test runs unlimited."""
    if (not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expire(signum, frame):
        pytest.fail("%s exceeded the %d-s time limit"
                    % (request.node.nodeid, TEST_TIME_LIMIT_S),
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=BUILTIN_IDS)
def structure(request):
    return get_structure(request.param)


@pytest.fixture
def dlo():
    return get_structure("dlo")


@pytest.fixture
def zorder():
    return get_structure("zorder")


@pytest.fixture
def pairs():
    return get_structure("pairs")


def F(*args):
    return Fraction(*args)
