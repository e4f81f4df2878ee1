import contextlib
import signal

import pytest


@pytest.fixture
def bounded():
    """``bounded(seconds)``: a context that raises TimeoutError in the test
    after ``seconds``, so a stuck worker pool fails instead of hanging (a
    fork clears the alarm, so only the test's own process gets it)."""
    @contextlib.contextmanager
    def within(seconds):
        def expired(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return within
