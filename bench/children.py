"""Starting, timing and reaping the benchmark's child processes.

Children are reaped with ``os.wait4`` so that each one's own peak RSS
(``ru_maxrss``) is known; a deadline kills a child that hangs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from contextlib import contextmanager


def _expire(signum, frame):
    raise TimeoutError("child process exceeded its deadline")


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the caller if the block runs longer than ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; return its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def kill(proc: subprocess.Popen) -> None:
    if proc.returncode is None:
        proc.kill()
        reap(proc)


def run(argv, *, cwd, env, stdout, stderr, timeout: float) -> tuple[int, float, float]:
    """Run ``argv`` to completion; return exit code, wall seconds and peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    try:
        with deadline(timeout):
            code, rss_mb = reap(proc)
    finally:
        kill(proc)
    return code, time.perf_counter() - start, rss_mb
