"""Record the SHA-256 of the ciphertexts the first GOLDEN_OPS ops of each
cipher workload produce at the golden seed, into golden.json.

    python3 perfbench/record_golden.py

Run from the root of a source checkout.  The ciphertext format must stay
bit-identical while its magic is unchanged, so the recorded digests only
change when the format magic is bumped.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

from cipher_ops import GOLDEN_OPS, GOLDEN_PATH, GOLDEN_SEED, CipherRunner, OpResult
from run import CIPHER_WORKLOADS


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".perfbench_work" / f"golden{os.getpid()}"
    digests = {}
    try:
        for wl in CIPHER_WORKLOADS.values():
            runner = CipherRunner(wl, GOLDEN_SEED, root, work / wl.name, env, False,
                                  deadline=time.monotonic() + 3600)
            digests[wl.name] = []
            for op in range(GOLDEN_OPS):
                op_dir, _ = runner.prepare(op)
                res = OpResult()
                runner.encrypt(op_dir, op, res)
                if res.problems:
                    raise RuntimeError(f"{wl.name} op {op}: {res.problems}")
                blob = (op_dir / "ct.qbmi").read_bytes()
                digests[wl.name].append(hashlib.sha256(blob).hexdigest())
                print(f"{wl.name} op {op}: {digests[wl.name][-1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps({"seed": GOLDEN_SEED, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
