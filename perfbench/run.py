"""qbaker benchmark: a closed-loop load generator with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src``).  Workloads:

  keyed_n5_m200       non-simplified mode, 200 images of 32x32, L=8: the
                      per-position schedule and cold table path
  bulk_n4_simplified  simplified mode, 4096 images of 16x16, L=8: data
                      movement, with schedule and tables negligible
  sweep_n5            256 uniformly drawn n=5 partitions per op through
                      sim.equivalence_sweep: the circuit side

A cipher op is ``qbaker encrypt`` then ``qbaker decrypt``, each in a fresh
process, with the ciphertext digest and the decrypted PGMs checked.  Lines
before the last one are a readable summary; the last line is one JSON
object with the end-to-end metrics (``--trace 0``) or, from a run with every
call into the program's layers timed, the per-layer metrics (``--trace 1``).
Per-layer values are per op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import proc
from cipher_ops import GOLDEN_OPS, GOLDEN_SEED, CipherRunner, CipherWorkload
from loadgen import closed_loop
from tracing import layer_totals

CIPHER_WORKLOADS = {
    wl.name: wl
    for wl in (
        CipherWorkload("keyed_n5_m200", n=5, M=200, mode="non_simplified"),
        CipherWorkload("bulk_n4_simplified", n=4, M=4096, mode="simplified"),
    )
}
SWEEP_WORKLOAD = "sweep_n5"
WORKLOADS = (*CIPHER_WORKLOADS, SWEEP_WORKLOAD)

# Interpreter starts timed before the ops and again after them, so that
# setup_s spans the same stretch of machine load as the ops do.
SETUP_SAMPLES = 8
# Every program process must have ended this long after the --seconds window
# closes; with a 30 s window the run then ends within 180 s.
RUN_ALLOWANCE_S = 130.0
SETUP_LIMIT_S = 60.0  # for one interpreter start
# The modules each workload's program process imports before its first op.
SETUP_IMPORT = {SWEEP_WORKLOAD: "import qbaker.sim"}
CLI_IMPORT = "import qbaker.cli"

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    # keyed schedule and table path
    "baker.enumerate_admissible.s": "s",
    "baker.enumerate_admissible.calls": "count",
    "baker.permutation_table.s": "s",
    "baker.permutation_table.calls": "count",
    "cipher.derive_schedule.self_s": "s",
    "cipher.schedule_draws": "count",
    "cipher.tables_needed": "count",
    "cipher.table_build_ratio": "ratio",
    # data movement
    "images.read_manifest.s": "s",
    "images.pack.s": "s",
    "images.unpack.s": "s",
    "images.write_pgm.s": "s",
    "keystream.key_table.s": "s",
    "keystream.derive_seed.s": "s",
    "chaos.generate_sequences.s": "s",
    "cipher.scramble_stage1.self_s": "s",
    "cipher.scramble_stage2.self_s": "s",
    "cipher.diffuse.s": "s",
    "cipher.write_ciphertext.s": "s",
    "cipher.read_ciphertext.s": "s",
    "cipher.ciphertext_bytes": "bytes",
    # circuit side
    "circuit.synthesize.s": "s",
    "circuit.synthesize.calls": "count",
    "circuit.gates_emitted": "count",
    "sim.to_permutation.s": "s",
    "sim.baker_permutation.s": "s",
    "sim.equivalence.s": "s",
    "sim.equivalence_sweep.self_s": "s",
    "sim.states_checked": "count",
}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_setup(root: Path, env: dict, statement: str) -> list[float]:
    """Wall seconds for fresh interpreters that only import the program."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = proc.run([sys.executable, "-c", statement], cwd=root, env=env,
                        deadline=time.monotonic() + SETUP_LIMIT_S)
        if done.returncode != 0:
            raise RuntimeError(f"{statement!r} exited {done.returncode}: "
                               f"{proc.last_line(done.stderr)}")
        samples.append(done.seconds)
    return samples


def run_cipher(wl: CipherWorkload, args, root: Path, work: Path, env: dict,
               deadline: float) -> dict:
    runner = CipherRunner(wl, args.seed, root, work, env, args.trace == 1, deadline)
    ops = closed_loop(runner.run_op, args.seconds)
    enc = [op.encrypt_s for op in ops if op.encrypt_s]
    dec = [op.decrypt_s for op in ops if op.decrypt_s]
    layers = layer_totals([t for op in ops for t in op.traces.values()])
    layers["cipher.ciphertext_bytes"] = sum(op.ciphertext_bytes for op in ops)
    summary = [
        ("encrypt_s", median(enc), "s", f"median of {len(enc)} CLI calls"),
        ("decrypt_s", median(dec), "s", f"median of {len(dec)} CLI calls"),
        ("plaintext_bytes", wl.plaintext_bytes, "bytes", "per op"),
    ]
    if args.seed == GOLDEN_SEED:
        checked = sum(op.digest_checked for op in ops)
        summary.append(("digests_checked", checked, "count",
                        f"of {len(ops)} ciphertexts; golden.json covers ops 0-{GOLDEN_OPS - 1}"))
    traced = [op for op in ops if "encrypt" in op.traces]
    if traced:
        enc_layers = layer_totals([op.traces["encrypt"] for op in traced])
        schedule_s = (enc_layers["baker.enumerate_admissible.s"]
                      + enc_layers["baker.permutation_table.s"])
        summary.append(("schedule_table_share", schedule_s / sum(op.encrypt_s for op in traced),
                        "ratio", "enumerate_admissible + permutation_table over encrypt_s"))
    return {
        "ops": len(ops),
        "problems": [op.problems for op in ops],
        "op_s": [op.encrypt_s + op.decrypt_s for op in ops if not op.problems],
        "layers": layers,
        "summary": summary,
    }


def run_sweep(args, root: Path, work: Path, env: dict, deadline: float) -> dict:
    out = work / "sweep.json"
    cmd = [sys.executable, str(Path(__file__).with_name("sweep.py")), str(out),
           str(args.seed), str(args.seconds), str(args.trace)]
    done = proc.run(cmd, cwd=root, env=env, deadline=deadline)
    if done.timed_out or done.returncode != 0:
        why = ("still running at the run's deadline" if done.timed_out
               else f"exited {done.returncode}: {proc.last_line(done.stderr)}")
        # its ops are lost with it, so the run counts as one failed op
        return {"ops": 1, "problems": [[f"sweep worker {why}"]], "op_s": [],
                "layers": layer_totals([]), "summary": []}
    result = json.loads(out.read_text())
    ops = result["ops"]
    layers = result["layers"] or layer_totals([])
    layers["sim.states_checked"] = sum(op["states"] for op in ops)
    parts = sum(op["parts"] for op in ops)
    busy = sum(op["s"] for op in ops)
    return {
        "ops": len(ops),
        "problems": [op["problems"] for op in ops],
        "op_s": [op["s"] for op in ops if not op["problems"]],
        "layers": layers,
        "summary": [
            ("sweep_parts_per_s", parts / busy, "1/s", f"{parts} partitions in {busy:.2f} s"),
        ],
    }


def per_layer_metrics(layers: dict, ops: int) -> dict:
    values = {name: layers.get(name, 0.0) / ops for name in PER_LAYER}
    needed = layers.get("cipher.tables_needed", 0)
    values["cipher.table_build_ratio"] = (
        layers["baker.permutation_table.calls"] / needed if needed else 0.0
    )
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "qbaker" / "cli.py").is_file():
        print(f"error: no qbaker source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + RUN_ALLOWANCE_S
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    setup_import = SETUP_IMPORT.get(args.workload, CLI_IMPORT)
    try:
        setup = measure_setup(root, env, setup_import)
        if args.workload == SWEEP_WORKLOAD:
            res = run_sweep(args, root, work, env, deadline)
        else:
            res = run_cipher(CIPHER_WORKLOADS[args.workload], args, root, work, env, deadline)
        setup += measure_setup(root, env, setup_import)
    finally:
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    failed = sum(1 for p in res["problems"] if p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    end_to_end = {
        "setup_s": median(setup),
        "op_s": median(res["op_s"]),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {res['ops']}  failed {failed}")
    for problems in res["problems"]:
        for problem in problems:
            print(f"  FAILED: {problem}")
    rows = [
        ("setup_s", end_to_end["setup_s"], "s", f"median of {len(setup)} interpreter starts"),
        ("op_s", end_to_end["op_s"], "s", f"median of {len(res['op_s'])} ops that passed"),
        *res["summary"],
        ("peak_rss_mb", peak_rss_mb, "MB", "highest ru_maxrss of the program processes"),
        ("fail_ratio", failed / res["ops"], "ratio", f"{failed} of {res['ops']} ops"),
    ]
    if args.trace:
        metrics = per_layer_metrics(res["layers"], res["ops"])
        rows += [(name, value, PER_LAYER[name], "per op") for name, value in metrics.items()]
        units = PER_LAYER
    else:
        metrics = end_to_end
        units = END_TO_END
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["ops"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
