"""The sweep_n5 workload, run in its own interpreter.

Each op draws BATCH admissible n=5 partitions uniformly (SHA-256 of
(seed, op, slot) modulo the partition count, as the cipher draws its
schedule) and passes them to ``qbaker.sim.equivalence_sweep`` in-process;
any mismatch it yields fails the op.  Results go to a JSON file::

    python3 perfbench/sweep.py OUT.json SEED SECONDS TRACE
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import time
from pathlib import Path

from qbaker import baker, sim

import partitions
from loadgen import closed_loop

N = 5
BATCH = 256


def draw_partitions(seed: int, op: int, count: int = BATCH) -> list[tuple[int, ...]]:
    total = partitions.count(N)
    out = []
    for slot in range(count):
        digest = hashlib.sha256(b"perfbench/sweep" + struct.pack(">qII", seed, op, slot)).digest()
        out.append(partitions.unrank(N, int.from_bytes(digest[:8], "big") % total))
    return out


def sweep_op(seed: int, op: int) -> dict:
    """One timed sweep over a fresh batch; problems list any mismatch or error."""
    parts = [baker.BakerPartition(N, q) for q in draw_partitions(seed, op)]
    problems = []
    t0 = time.perf_counter()
    try:
        mismatches = list(sim.equivalence_sweep(N, parts))
    except Exception as exc:  # a failed op is counted, never fatal to the run
        mismatches = []
        problems.append(f"sweep raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    problems.extend(f"mismatch for partition {p}: {witness}" for p, witness in mismatches[:3])
    return {"s": elapsed, "parts": len(parts), "states": len(parts) << (2 * N),
            "problems": problems}


def main(argv: list[str]) -> int:
    out, seed, seconds, trace = Path(argv[0]), int(argv[1]), float(argv[2]), argv[3] == "1"
    tracer = None
    if trace:
        from tracing import Tracer, layer_totals

        tracer = Tracer()
        tracer.install()

    def run_op(op: int) -> dict:
        if tracer is not None:
            tracer.op = str(op)
        return sweep_op(seed, op)

    ops = closed_loop(run_op, seconds)
    layers = layer_totals([tracer.dump()]) if tracer is not None else None
    out.write_text(json.dumps({"ops": ops, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
