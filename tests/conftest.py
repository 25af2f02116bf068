import signal
import threading
from fractions import Fraction

import pytest

from copyposet.core import Memo
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


class ForgetfulMemo(Memo):
    """A memo that keeps only the last ``keep`` tables of ``kind`` it made,
    and counts the tables of ``kind`` it makes in ``misses``."""

    __slots__ = ("kind", "keep", "misses")

    def __init__(self, structure, kind, keep):
        super().__init__(structure)
        self.kind, self.keep, self.misses = kind, keep, 0

    def __missing__(self, key):
        value = super().__missing__(key)
        if key[0] is self.kind:
            self.misses += 1
            made = [k for k in self if k[0] is self.kind]
            for k in made[:len(made) - self.keep]:
                del self[k]
        return value


@pytest.fixture
def forgetful(monkeypatch):
    """``forgetful(kind, keep)`` gives every shared instance an empty
    ``ForgetfulMemo`` for the length of the test; returns the memos."""
    def install(kind, keep):
        memos = []
        for sid in BUILTIN_IDS:
            st = get_structure(sid)
            memos.append(ForgetfulMemo(st, kind, keep))
            monkeypatch.setattr(st, "memo", memos[-1])
        return memos
    return install


def F(*args):
    return Fraction(*args)
