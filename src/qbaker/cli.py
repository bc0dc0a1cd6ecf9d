"""Command-line entry point.

Subcommands: encrypt, decrypt, synth, verify, count, enumerate, table1,
chaos-trace.  Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error
(argparse default).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# analysis, circuit and sim are imported by the subcommands that use them,
# so encrypt and decrypt start without them.
from . import baker, chaos, cipher, images


def _emit(text: str, out: str | None, summary: str) -> int:
    """Write ``text`` to the file ``out`` and say so, or to stdout."""
    if out:
        Path(out).write_text(text)
        print(f"{summary} -> {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_encrypt(args) -> int:
    image_set = images.read_manifest(args.manifest, L=args.bit_depth)
    key = cipher.read_key(args.key)
    ct = cipher.encrypt(image_set, key)
    cipher.write_ciphertext(args.out, ct)
    print(f"encrypted {image_set.M} images -> {args.out} "
          f"({ct.tensor.bits.size} bits, mode {ct.mode})")
    return 0


def _cmd_decrypt(args) -> int:
    ct = cipher.read_ciphertext(args.infile)
    key = cipher.read_key(args.key)
    image_set = cipher.decrypt(ct, key)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    for i, image in enumerate(image_set.images):
        images.write_pgm(os.path.join(out_dir, f"image_{i:04d}.pgm"), image)
    print(f"decrypted {image_set.M} images -> {out_dir}")
    return 0


def _cmd_synth(args) -> int:
    from . import circuit

    p = baker.BakerPartition.parse(args.n, args.partition)
    circ = circuit.synthesize(p)
    return _emit(circ.to_text(), args.out, f"{len(circ.gates)} gates")


def _cmd_verify(args) -> int:
    from . import circuit, sim

    circ = circuit.circuit_from_text(Path(args.circuit).read_text())
    ok, witness = sim.equivalence(circ, circ.partition)
    if ok:
        print(f"EQUIVALENT, {len(circ.gates)} gates")
        return 0
    point, got, want = witness
    print(f"MISMATCH at point {point}: circuit -> {got}, map -> {want}")
    return 1


def _cmd_count(args) -> int:
    from . import circuit

    p = baker.BakerPartition.parse(args.n, args.partition)
    counts, total = circuit.gate_count(p)
    per = " + ".join(str(c) for c in counts)
    print(f"partition {p} on n={args.n}: {per} = {total} gates")
    return 0


def _cmd_enumerate(args) -> int:
    parts = baker.enumerate_admissible(args.n)
    for p in parts:
        print(p)
    print(f"# {len(parts)} admissible partitions for n={args.n}", file=sys.stderr)
    return 0


def _cmd_table1(args) -> int:
    from . import analysis

    table = analysis.table1()
    if args.csv:
        Path(args.csv).write_text(table.to_csv())
        print(f"csv -> {args.csv}")
    sys.stdout.write(table.render())
    return 0


def _cmd_chaos_trace(args) -> int:
    lambdas = tuple(float(v) for v in args.lambdas.split(","))
    init = tuple(float(v) for v in args.init.split(","))
    if len(init) != 5:
        raise ValueError("--init needs five comma-separated components")
    params = chaos.ScmParams(lambdas)  # validates count and bounds
    rows = ["step,x1,x2,x3,x4,x5"]
    state = init
    for step in range(1, args.steps + 1):
        state = chaos.scm_step(state, params)
        rows.append(f"{step}," + ",".join(repr(v) for v in state))
    return _emit("\n".join(rows) + "\n", args.out, f"{args.steps} steps")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qbaker",
                                 description="baker-map multi-image encryption workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encrypt", help="encrypt the images listed in a manifest")
    enc.add_argument("--manifest", required=True)
    enc.add_argument("--key", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--bit-depth", type=int, default=8)
    enc.set_defaults(func=_cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a ciphertext file to PGMs")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--key", required=True)
    dec.add_argument("--out-dir", required=True)
    dec.set_defaults(func=_cmd_decrypt)

    syn = sub.add_parser("synth", help="synthesize the circuit for a partition")
    syn.add_argument("--n", type=int, required=True)
    syn.add_argument("--partition", required=True, help="e.g. 2,1,1")
    syn.add_argument("--out")
    syn.set_defaults(func=_cmd_synth)

    ver = sub.add_parser("verify", help="simulate a circuit file against its map")
    ver.add_argument("--circuit", required=True)
    ver.set_defaults(func=_cmd_verify)

    cnt = sub.add_parser("count", help="evaluate the gate-count model")
    cnt.add_argument("--n", type=int, required=True)
    cnt.add_argument("--partition", required=True)
    cnt.set_defaults(func=_cmd_count)

    enm = sub.add_parser("enumerate", help="list admissible partitions")
    enm.add_argument("--n", type=int, required=True)
    enm.set_defaults(func=_cmd_enumerate)

    tab = sub.add_parser("table1", help="reproduce the width/depth benchmark table")
    tab.add_argument("--csv", help="also write the table as CSV")
    tab.set_defaults(func=_cmd_table1)

    tr = sub.add_parser("chaos-trace", help="dump an orbit of the chaotic map")
    tr.add_argument("--steps", type=int, default=250)
    tr.add_argument("--lambdas", default="49,23,58,120,237")
    tr.add_argument("--init", default="0.1,0.5,0.2,-0.8,0.9")
    tr.add_argument("--out")
    tr.set_defaults(func=_cmd_chaos_trace)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
