"""Run one program process to its end and time it exactly.

``subprocess.run(..., timeout=...)`` waits by polling the child with sleeps
that grow to 50 ms, so every wall time it bounds is rounded up to its next
poll: an interpreter start of about 0.22 s reads 0.2185 s or 0.2685 s, and a
small drift across a poll moves a median by 50 ms.  Here the parent blocks
in ``waitpid`` instead, and a timer kills the child if it is still running
at its deadline.
"""

from __future__ import annotations

import subprocess
import threading
import time
from typing import NamedTuple


class Finished(NamedTuple):
    seconds: float  # wall time from just before the fork to the child's exit
    returncode: int
    stderr: bytes
    timed_out: bool  # killed at its deadline


def run(cmd: list[str], *, cwd, env: dict, deadline: float) -> Finished:
    """Run ``cmd`` until it exits or ``deadline`` (a ``time.monotonic()``) passes."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        _, stderr = proc.communicate()  # reads stderr to its end, then a blocking wait
    finally:
        timer.cancel()
    seconds = time.perf_counter() - t0
    timed_out = killed.is_set() and proc.returncode < 0
    return Finished(seconds, proc.returncode, stderr, timed_out)


def last_line(stderr: bytes) -> str:
    lines = stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""
