"""Fixtures shared by the SPICE tests."""

from __future__ import annotations

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(s):`` fails the test, instead of hanging the
    suite, when its body is still running after ``s`` seconds."""
    @contextlib.contextmanager
    def guard(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return guard
