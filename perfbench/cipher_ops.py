"""One cipher op: write seeded inputs, run ``qbaker encrypt`` and then
``qbaker decrypt`` as separate processes, and check every output.

Each CLI call runs in a fresh interpreter, so decrypt pays the same cold
schedule and table cost a user pays; in one process it would reuse the
tables encrypt built.  Inputs come from SHAKE-256 streams keyed by
(workload, seed, op), so they do not depend on any library's RNG.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import proc

HERE = Path(__file__).resolve().parent
MAGIC = b"QBMI1"
# SHA-256 of the ciphertexts of the first GOLDEN_OPS ops at GOLDEN_SEED,
# recorded with record_golden.py at a commit whose format magic was MAGIC.
# GOLDEN_OPS exceeds the ops a 30 s run of either cipher workload makes here.
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 0
GOLDEN_OPS = 24


@dataclass(frozen=True)
class CipherWorkload:
    name: str
    n: int  # images are 2^n x 2^n
    M: int  # images per op, 8-bit (the CLI's default --bit-depth)
    mode: str  # "simplified" or "non_simplified"

    @property
    def plaintext_bytes(self) -> int:
        return self.M << (2 * self.n)


@dataclass
class OpResult:
    encrypt_s: float = 0.0
    decrypt_s: float = 0.0
    ciphertext_bytes: int = 0
    digest_checked: bool = False  # compared with a recorded digest
    problems: list[str] = field(default_factory=list)
    traces: dict[str, dict] = field(default_factory=dict)  # phase -> trace dump


def _stream(label: str, size: int) -> bytes:
    return hashlib.shake_256(label.encode()).digest(size)


def make_inputs(wl: CipherWorkload, seed: int, op: int):
    """Seeded images (M, side, side) as PGM bytes, and key-file text."""
    side = 1 << wl.n
    base = f"perfbench/{wl.name}/{seed}/{op}"
    pixels = _stream(base + "/images", wl.M * side * side)
    header = f"P5\n{side} {side}\n255\n".encode()  # qbaker.images.write_pgm's header
    pgms = [header + pixels[i * side * side : (i + 1) * side * side] for i in range(wl.M)]
    raw = _stream(base + "/key", 28)
    lambdas = [
        10.0 + 240.0 * int.from_bytes(raw[4 * i : 4 * i + 4], "big") / 2**32
        for i in range(5)
    ]
    lines = [f"lambda{i + 1} = {lam!r}" for i, lam in enumerate(lambdas)]
    lines.append(f"schedule_seed = {int.from_bytes(raw[20:28], 'big')}")
    lines.append(f"mode = {wl.mode}")
    return pgms, "\n".join(lines) + "\n"


def load_golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


class CipherRunner:
    """Runs ops of one cipher workload inside ``work`` with program ``root``."""

    def __init__(self, wl: CipherWorkload, seed: int, root: Path, work: Path,
                 env: dict, trace: bool, deadline: float):
        self.wl = wl
        self.seed = seed
        self.root = root
        self.work = work
        self.env = env
        self.trace = trace
        self.deadline = deadline  # time.monotonic() by which every call must have ended
        self.golden = load_golden().get(wl.name, []) if seed == GOLDEN_SEED else []

    def _cli(self, op_dir: Path, phase: str, op: int, args: list[str], res: OpResult) -> float:
        if self.trace:
            spans = op_dir / f"spans_{phase}.json"
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), f"{op}.{phase}", "--", *args]
        else:
            cmd = [sys.executable, "-m", "qbaker.cli", *args]
        done = proc.run(cmd, cwd=self.root, env=self.env, deadline=self.deadline)
        if done.timed_out:
            res.problems.append(f"{phase} still running at the run's deadline")
        elif done.returncode != 0:
            res.problems.append(f"{phase} exited {done.returncode}: {proc.last_line(done.stderr)}")
        elif self.trace:
            res.traces[phase] = json.loads(spans.read_text())
        return done.seconds

    def prepare(self, op: int) -> tuple[Path, list[bytes]]:
        """Write op inputs over the previous op's files and empty its outputs.

        Every op uses the same paths.  The images are rewritten in place
        (their size never changes), and the ciphertext and the decrypted PGMs
        are written into files that exist and are empty: the previous op's
        outputs truncated to zero length, or for the first op empty files
        made here.  A user decrypting to a new directory pays for creating
        the files as well, but on ext4 a bulk decrypt into a new directory
        took between about 0.9 s and 3 s with the file system's state, against
        1.0-1.3 s in place, and deleting the old outputs between ops made the
        next decrypt more than twice as slow.  An emptied output left by a
        failed call cannot pass the checks.
        """
        op_dir = self.work / "op"
        (op_dir / "images").mkdir(parents=True, exist_ok=True)
        (op_dir / "out").mkdir(exist_ok=True)
        outputs = [op_dir / "ct.qbmi"]
        outputs += [op_dir / "out" / f"image_{i:04d}.pgm" for i in range(self.wl.M)]
        for path in outputs:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
        pgms, key_text = make_inputs(self.wl, self.seed, op)
        names = []
        for i, data in enumerate(pgms):
            name = f"images/image_{i:04d}.pgm"
            fd = os.open(op_dir / name, os.O_WRONLY | os.O_CREAT, 0o644)
            try:
                os.write(fd, data)
            finally:
                os.close(fd)
            names.append(name)
        (op_dir / "manifest.txt").write_text("\n".join(names) + "\n")
        (op_dir / "key.txt").write_text(key_text)
        return op_dir, pgms

    def encrypt(self, op_dir: Path, op: int, res: OpResult):
        args = ["encrypt", "--manifest", str(op_dir / "manifest.txt"),
                "--key", str(op_dir / "key.txt"), "--out", str(op_dir / "ct.qbmi")]
        res.encrypt_s = self._cli(op_dir, "encrypt", op, args, res)

    def check_ciphertext(self, op_dir: Path, op: int, res: OpResult):
        """The ciphertext must match the recorded digest while the format is MAGIC."""
        ct = op_dir / "ct.qbmi"
        if not ct.is_file() or ct.stat().st_size == 0:
            res.problems.append("encrypt wrote no ciphertext")
            return
        blob = ct.read_bytes()
        res.ciphertext_bytes = len(blob)
        if blob.startswith(MAGIC) and op < len(self.golden):
            res.digest_checked = True
            digest = hashlib.sha256(blob).hexdigest()
            if digest != self.golden[op]:
                res.problems.append(f"ciphertext sha256 {digest} != recorded {self.golden[op]}")

    def decrypt(self, op_dir: Path, op: int, res: OpResult):
        args = ["decrypt", "--in", str(op_dir / "ct.qbmi"),
                "--key", str(op_dir / "key.txt"), "--out-dir", str(op_dir / "out")]
        res.decrypt_s = self._cli(op_dir, "decrypt", op, args, res)

    def check_plaintext(self, op_dir: Path, pgms: list[bytes], res: OpResult):
        """Decrypted PGMs must be byte-equal to the inputs, with none extra."""
        out = op_dir / "out"
        want = {f"image_{i:04d}.pgm": data for i, data in enumerate(pgms)}
        got = {p.name for p in out.iterdir()} if out.is_dir() else set()
        if got != set(want):
            res.problems.append(f"decrypt wrote {len(got)} files, expected {len(want)}")
            return
        bad = [name for name, data in want.items() if (out / name).read_bytes() != data]
        if bad:
            res.problems.append(f"{len(bad)} decrypted images differ, first {bad[0]}")

    def run_op(self, op: int) -> OpResult:
        res = OpResult()
        op_dir, pgms = self.prepare(op)
        self.encrypt(op_dir, op, res)
        self.check_ciphertext(op_dir, op, res)
        if not res.problems:
            self.decrypt(op_dir, op, res)
            self.check_plaintext(op_dir, pgms, res)
        return res
