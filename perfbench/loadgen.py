"""Closed-loop load generator shared by the cipher and sweep workloads."""

from __future__ import annotations

import time


def closed_loop(run_op, seconds: float) -> list:
    """Run ``run_op(op_index)`` back to back, one client, for ``seconds``.

    Ops start while the window is open and each started op runs to its
    end, so at least one op runs.  Returns the ops' results in order.
    """
    start = time.perf_counter()
    results = []
    while not results or time.perf_counter() - start < seconds:
        results.append(run_op(len(results)))
    return results
