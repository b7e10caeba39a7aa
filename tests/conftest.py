import signal

import pytest


@pytest.fixture
def time_limit():
    """Fail the test with ``TimeoutError`` once it runs for 60 s.

    A loop that never ends, such as a non-exact division or a recursion walk
    of 10**12 steps, would otherwise hang the suite.
    """
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
