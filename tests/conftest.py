import contextlib
import os
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


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)``: report ``n`` usable cores through ``os.sched_getaffinity``,
    which sizes selection's worker pool, so a test takes the same path on
    any machine (forked workers inherit the patch)."""
    def usable(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return usable


@pytest.fixture
def base_builds(monkeypatch, tmp_path):
    """Empty the process's Permuted MNIST base cache and record the process
    id of every synthetic base build, forked workers' too (they append to a
    file); returns a function that reads the recorded ids in call order."""
    from llb import protocol

    log, build = tmp_path / "base-builds", protocol.synthetic_mnist_base

    def recording(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return build(*args, **kwargs)

    monkeypatch.setattr(protocol, "_base_cache", [])
    monkeypatch.setattr(protocol, "synthetic_mnist_base", recording)
    return lambda: [int(line) for line in log.read_text().split()] if log.exists() else []
