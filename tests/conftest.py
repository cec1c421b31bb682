"""A time limit on every test, so a search that stops ending fails its
test instead of hanging the suite.  The limit is about twelve times the
slowest test (criterion 3, about 10 s on 2 cores).  It is an alarm in the
main thread, which forked workers do not inherit, and it is not set where
``signal`` has no ``SIGALRM``."""

import signal
import threading

import pytest

TEST_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
