"""A wall-clock bound for a block of test code, by SIGALRM (main thread)."""

import signal
from contextlib import contextmanager


@contextmanager
def alarm(seconds):
    def expire(signum, frame):
        raise TimeoutError("over %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
