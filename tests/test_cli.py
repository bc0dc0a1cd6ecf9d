import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbaker
from qbaker import chaos, cipher, images
from qbaker.cipher import MasterKey
from qbaker.images import ImageSet
from qbaker.cli import main

from oracles import write_key


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(31)
    for i in range(3):
        images.write_pgm(
            tmp_path / f"img{i}.pgm", rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        )
    (tmp_path / "manifest.txt").write_text("img0.pgm\nimg1.pgm\nimg2.pgm\n")
    write_key(tmp_path / "key.txt", MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 77))
    return tmp_path


class TestEncryptDecrypt:
    def test_files_roundtrip_byte_identical(self, workspace, capsys):
        ct = workspace / "ct.bin"
        out = workspace / "out"
        rc = main([
            "encrypt", "--manifest", str(workspace / "manifest.txt"),
            "--key", str(workspace / "key.txt"), "--out", str(ct),
        ])
        assert rc == 0
        rc = main([
            "decrypt", "--in", str(ct),
            "--key", str(workspace / "key.txt"), "--out-dir", str(out),
        ])
        assert rc == 0
        for i in range(3):
            original = (workspace / f"img{i}.pgm").read_bytes()
            recovered = (out / f"image_{i:04d}.pgm").read_bytes()
            assert original == recovered

    def test_encrypt_reports_payload_bits(self, workspace, capsys):
        ct = workspace / "ct.bin"
        assert main(["encrypt", "--manifest", str(workspace / "manifest.txt"),
                     "--key", str(workspace / "key.txt"), "--out", str(ct)]) == 0
        data = ct.read_bytes()
        bits = 8 * (len(data) - data.index(b"---\n") - 4)  # one block of 8 8x8 images, 8 planes
        assert bits == 4096
        assert f"({bits} bits, mode non_simplified)" in capsys.readouterr().out

    def test_manifest_paths_and_overwritten_outputs(self, workspace, monkeypatch, capsys):
        # entries resolve against the manifest's directory, not the working one
        rng = np.random.default_rng(7)
        (workspace / "set" / "sub").mkdir(parents=True)
        sources = [workspace / "set" / "a.pgm", workspace / "set" / "sub" / "b.pgm",
                   workspace / "img1.pgm"]
        for path in sources[:2]:
            images.write_pgm(path, rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
        (workspace / "set" / "manifest.txt").write_text(
            f"a.pgm\n\n# a comment\n  sub/b.pgm  \n   \n  # indented\n{sources[2]}\n"
        )
        out = workspace / "out"
        out.mkdir()
        for i in (0, 2):  # stale outputs longer than the new ones
            (out / f"image_{i:04d}.pgm").write_bytes(b"stale" * 100)
        monkeypatch.chdir(workspace / "set" / "sub")
        rc = main(["encrypt", "--manifest", "../manifest.txt",
                   "--key", str(workspace / "key.txt"), "--out", str(workspace / "ct.bin")])
        assert rc == 0
        rc = main(["decrypt", "--in", str(workspace / "ct.bin"),
                   "--key", str(workspace / "key.txt"), "--out-dir", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [f"image_{i:04d}.pgm" for i in range(3)]
        for i, source in enumerate(sources):
            assert (out / f"image_{i:04d}.pgm").read_bytes() == source.read_bytes()

    def test_bad_pgm_exits_one_naming_it(self, workspace, capsys):
        bad = workspace / "img2.pgm"
        bad.write_bytes(bad.read_bytes() + b"EXTRA")
        rc = main([
            "encrypt", "--manifest", str(workspace / "manifest.txt"),
            "--key", str(workspace / "key.txt"), "--out", str(workspace / "ct.bin"),
        ])
        assert rc == 1
        assert f"error: {bad}: 69 pixel bytes" in capsys.readouterr().err

    def test_n7_images_roundtrip(self, tmp_path, capsys):
        # 128x128 images: stage 2 draws n=7 ranks past int64 in keyed mode
        rng = np.random.default_rng(32)
        for i in range(2):
            images.write_pgm(tmp_path / f"big{i}.pgm",
                             rng.integers(0, 256, (128, 128)).astype(np.uint8))
        (tmp_path / "manifest.txt").write_text("big0.pgm\nbig1.pgm\n")
        write_key(tmp_path / "key.txt", MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 77))
        rc = main([
            "encrypt", "--manifest", str(tmp_path / "manifest.txt"),
            "--key", str(tmp_path / "key.txt"), "--out", str(tmp_path / "ct.bin"),
        ])
        assert rc == 0
        rc = main(["decrypt", "--in", str(tmp_path / "ct.bin"),
                   "--key", str(tmp_path / "key.txt"), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        for i in range(2):
            assert ((tmp_path / "out" / f"image_{i:04d}.pgm").read_bytes()
                    == (tmp_path / f"big{i}.pgm").read_bytes())

    def test_bit_depth_past_64_exits_one(self, workspace, capsys):
        rc = main([
            "encrypt", "--manifest", str(workspace / "manifest.txt"),
            "--key", str(workspace / "key.txt"), "--out", str(workspace / "ct.bin"),
            "--bit-depth", "65",
        ])
        assert rc == 1
        assert "error: L=65 above 64" in capsys.readouterr().err
        assert not (workspace / "ct.bin").exists()

    def test_decrypt_of_pixels_past_a_byte_exits_one(self, workspace, capsys):
        # L=16 pixels above 255 do not fit an 8-bit PGM: refused, not wrapped,
        # and refused before the first image, which fits, is written
        key = cipher.read_key(workspace / "key.txt")
        wide = ImageSet(1, 16, np.stack([np.full((2, 2), 7), np.full((2, 2), 16000)]))
        cipher.write_ciphertext(workspace / "ct.bin", cipher.encrypt(wide, key))
        out = workspace / "out"
        out.mkdir()
        rc = main(["decrypt", "--in", str(workspace / "ct.bin"),
                   "--key", str(workspace / "key.txt"), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {out / 'image_0001.pgm'}" in err and "[0, 255]" in err
        assert list(out.iterdir()) == []

    def test_missing_manifest_exits_one(self, workspace, capsys):
        rc = main([
            "encrypt", "--manifest", str(workspace / "nope.txt"),
            "--key", str(workspace / "key.txt"), "--out", str(workspace / "x"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSynthVerify:
    def test_synth_then_verify(self, tmp_path, capsys):
        circ = tmp_path / "circ.txt"
        assert main(["synth", "--n", "3", "--partition", "2,1,1", "--out", str(circ)]) == 0
        capsys.readouterr()
        assert main(["verify", "--circuit", str(circ)]) == 0
        assert "EQUIVALENT, 11 gates" in capsys.readouterr().out

    def test_synth_out_directory_exits_one(self, tmp_path, capsys):
        assert main(["synth", "--n", "3", "--partition", "2,1,1",
                     "--out", str(tmp_path)]) == 1
        assert f"{tmp_path}: not a regular file" in capsys.readouterr().err

    def test_verify_detects_tampering(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        main(["synth", "--n", "3", "--partition", "2,1,1", "--out", str(circ)])
        lines = circ.read_text().splitlines()
        circ.write_text("\n".join(lines[:-1]) + "\n")  # drop the last gate
        assert main(["verify", "--circuit", str(circ)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["n", "partition"])
    def test_verify_header_without_field_exits_one(self, tmp_path, capsys, field):
        circ = tmp_path / "c.txt"
        main(["synth", "--n", "3", "--partition", "2,1,1", "--out", str(circ)])
        header, *gates = circ.read_text().splitlines()
        header = " ".join(part for part in header.split() if not part.startswith(field + "="))
        circ.write_text("\n".join([header, *gates]) + "\n")
        assert main(["verify", "--circuit", str(circ)]) == 1
        assert f"error: circuit header lacks '{field}='" in capsys.readouterr().err

    def test_verify_empty_wire_exits_one(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        circ.write_text("# n=2 partition=1,1\nCSWAP x0 y0 ? =1\n")
        assert main(["verify", "--circuit", str(circ)]) == 1
        assert "error: bad wire ''" in capsys.readouterr().err

    def test_verify_control_value_outside_bits_exits_one(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        circ.write_text("# n=3 partition=2,1,1\nCSWAP x0 x1 ? y0=2\n")
        assert main(["verify", "--circuit", str(circ)]) == 1
        assert "error: control value must be 0 or 1" in capsys.readouterr().err

    def test_verify_huge_n_exits_one(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        circ.write_text("# n=100000000 partition=100000000\n")
        assert main(["verify", "--circuit", str(circ)]) == 1
        assert "error: circuit header n=100000000 outside [1, 12]" in capsys.readouterr().err

    def test_synth_n_bounded(self, capsys):
        assert main(["synth", "--n", "13", "--partition", "13"]) == 1
        assert "error: synthesis capped at n=12, got n=13" in capsys.readouterr().err
        assert main(["synth", "--n", "12", "--partition", "11,11"]) == 0
        assert capsys.readouterr().out.startswith("# n=12 partition=11,11")

    def test_count(self, capsys):
        assert main(["count", "--n", "3", "--partition", "2,1,1"]) == 0
        assert "= 11 gates" in capsys.readouterr().out

    def test_count_n_bounded(self, capsys):
        # the partition is refused before any 2^n is formed
        for n in ("16", "100000"):
            assert main(["count", "--n", n, "--partition", n]) == 1
            assert f"error: n must lie in [1, 15], got {n}" in capsys.readouterr().err
        assert main(["count", "--n", "13", "--partition", "13"]) == 0
        assert "= 0 gates" in capsys.readouterr().out
        assert main(["count", "--n", "15", "--partition", "14,14"]) == 0

    def test_inadmissible_partition_fails(self, capsys):
        assert main(["count", "--n", "2", "--partition", "0,1,0"]) == 1


class TestEnumerate:
    def test_lists_all(self, capsys):
        assert main(["enumerate", "--n", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert "1,1" in out

    def test_guard_refuses_n6_at_once(self, capsys):
        assert main(["enumerate", "--n", "6"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_max_n_is_usage_error(self, capsys):
        # the guard is fixed: there is no option to lift it
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "6", "--max-n", "6"])
        assert exc.value.code == 2
        assert "--max-n" in capsys.readouterr().err


class TestTable1:
    def test_prints_and_writes_csv(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        assert main(["table1", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "ratio P2/P1" in out
        assert csv.read_text().startswith("row,")


class TestChaosTrace:
    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main([
            "chaos-trace", "--steps", "250",
            "--lambdas", "49,23,58,120,237",
            "--init", "0.1,0.5,0.2,-0.8,0.9",
            "--out", str(out),
        ])
        assert rc == 0
        golden = (
            __import__("pathlib").Path(__file__).parent / "data" / "chaos_trace_golden.csv"
        )
        assert out.read_text() == golden.read_text()

    def test_bad_init_rejected(self, capsys):
        assert main(["chaos-trace", "--init", "0.1,0.2"]) == 1

    @pytest.mark.parametrize("steps", ["-5", "0"])
    def test_steps_below_one_rejected(self, steps, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["chaos-trace", "--steps", steps, "--out", str(out)]) == 1
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()

    def test_steps_above_bound_rejected_before_any_step(self, tmp_path, capsys, monkeypatch):
        # every row is held until the end, so the bound is checked first
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(chaos, "scm_step", no_step)
        out = tmp_path / "trace.csv"
        steps = str(chaos.MAX_STEPS + 1)
        assert main(["chaos-trace", "--steps", steps, "--out", str(out)]) == 1
        assert f"--steps must lie in [1, {chaos.MAX_STEPS}], got {steps}" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_lambda_count_exits_one(self, capsys):
        assert main(["chaos-trace", "--lambdas", "1,2"]) == 1
        assert "error: exactly five lambda parameters required" in capsys.readouterr().err


class TestNonRegularInputs:
    """A FIFO given as any input or output file is refused by name, with
    exit 1; each run is a subprocess with a timeout, so a blocking read or
    write fails the test instead of hanging the suite."""

    @pytest.mark.parametrize("fifo, argv", [
        ("manifest.txt", ["encrypt", "--manifest", "manifest.txt", "--key", "key.txt",
                          "--out", "ct.bin"]),
        ("img1.pgm", ["encrypt", "--manifest", "manifest.txt", "--key", "key.txt",
                      "--out", "ct.bin"]),
        ("key.txt", ["encrypt", "--manifest", "manifest.txt", "--key", "key.txt",
                     "--out", "ct.bin"]),
        ("ct.bin", ["decrypt", "--in", "ct.bin", "--key", "key.txt", "--out-dir", "out"]),
        ("circ.txt", ["verify", "--circuit", "circ.txt"]),
        ("ct.bin", ["encrypt", "--manifest", "manifest.txt", "--key", "key.txt",
                    "--out", "ct.bin"]),
        ("out/image_0000.pgm", ["decrypt", "--in", "ct.bin", "--key", "key.txt",
                                "--out-dir", "out"]),
        ("synth.txt", ["synth", "--n", "3", "--partition", "2,1,1", "--out", "synth.txt"]),
        ("trace.csv", ["chaos-trace", "--steps", "5", "--out", "trace.csv"]),
        ("table.csv", ["table1", "--csv", "table.csv"]),
        ("out/image_0001.pgm", ["decrypt", "--in", "ct.bin", "--key", "key.txt",
                                "--out-dir", "out"]),
    ], ids=["manifest", "pgm", "key", "ciphertext", "circuit", "encrypt-out", "decrypt-out",
            "synth-out", "chaos-trace-out", "table1-csv", "decrypt-out-second"])
    def test_fifo_refused(self, workspace, fifo, argv):
        decrypt_out = argv[0] == "decrypt" and fifo != "ct.bin"
        if decrypt_out:  # a ciphertext to decrypt
            assert main(["encrypt", "--manifest", str(workspace / "manifest.txt"), "--key",
                         str(workspace / "key.txt"), "--out", str(workspace / "ct.bin")]) == 0
        (workspace / fifo).unlink(missing_ok=True)
        (workspace / fifo).parent.mkdir(exist_ok=True)
        os.mkfifo(workspace / fifo)
        first = workspace / "out" / "image_0000.pgm"
        kept = [first] if decrypt_out and fifo != "out/image_0000.pgm" else []
        for path in kept:
            path.write_bytes(b"kept")
        env = dict(os.environ, PYTHONPATH=str(Path(qbaker.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-m", "qbaker.cli", *argv], env=env,
                             cwd=workspace, capture_output=True, text=True, timeout=60)
        assert run.returncode == 1, run.stderr
        assert f"error: {fifo}: not a regular file" in run.stderr
        if decrypt_out:  # the output set is refused whole: no PGM made or truncated
            assert [p for p in (workspace / "out").glob("*.pgm") if p.is_file()] == kept
            assert all(path.read_bytes() == b"kept" for path in kept)


class TestOutputFiles:
    """Outputs are written over an existing file in place and cut to the
    bytes written; no open truncates."""

    def _encrypt(self, workspace, out):
        return main(["encrypt", "--manifest", str(workspace / "manifest.txt"),
                     "--key", str(workspace / "key.txt"), "--out", str(out)])

    def test_longer_ciphertext_and_synth_files_hold_only_new_bytes(self, workspace, capsys):
        assert self._encrypt(workspace, workspace / "fresh.bin") == 0
        assert main(["synth", "--n", "3", "--partition", "2,1,1",
                     "--out", str(workspace / "fresh.txt")]) == 0
        for name in ("ct.bin", "synth.txt"):
            (workspace / name).write_bytes(b"\xff" * 100_000)
        assert self._encrypt(workspace, workspace / "ct.bin") == 0
        assert main(["synth", "--n", "3", "--partition", "2,1,1",
                     "--out", str(workspace / "synth.txt")]) == 0
        assert (workspace / "ct.bin").read_bytes() == (workspace / "fresh.bin").read_bytes()
        assert (workspace / "synth.txt").read_bytes() == (workspace / "fresh.txt").read_bytes()

    def test_failed_write_leaves_only_the_bytes_written(self, workspace, monkeypatch, capsys):
        assert self._encrypt(workspace, workspace / "fresh.bin") == 0
        ct = workspace / "ct.bin"
        ct.write_bytes(b"\xff" * 100_000)
        real_write, calls = os.write, []

        def full_disk(fd, data):  # a few bytes, then no space left
            calls.append(fd)
            if len(calls) == 1:
                return real_write(fd, bytes(data[:7]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full_disk)
        assert self._encrypt(workspace, ct) == 1
        monkeypatch.undo()
        assert len(calls) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert ct.read_bytes() == (workspace / "fresh.bin").read_bytes()[:7]

    def test_no_output_open_truncates(self, workspace, monkeypatch, capsys):
        ct, out = workspace / "ct.bin", workspace / "out"
        out.mkdir()
        for path in (ct, out / "image_0001.pgm"):  # existing outputs, longer than the new ones
            path.write_bytes(b"\xff" * 100_000)
        real_open, flags = os.open, []

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        assert self._encrypt(workspace, ct) == 0
        assert main(["decrypt", "--in", str(ct), "--key", str(workspace / "key.txt"),
                     "--out-dir", str(out)]) == 0
        monkeypatch.undo()
        assert sum(1 for f in flags if f & os.O_CREAT) == 1 + 3  # the ciphertext and 3 PGMs
        assert not any(f & os.O_TRUNC for f in flags)
        for i in range(3):
            assert (out / f"image_{i:04d}.pgm").read_bytes() == (
                workspace / f"img{i}.pgm").read_bytes()


# -- every input file, fuzzed: the CLI exits 0 or 1, never with a traceback ----

# Each input file and the commands that read it.
FUZZ_COMMANDS = {
    "key.txt": ("encrypt", "decrypt"),
    "ct.bin": ("decrypt",),
    "circ.txt": ("verify",),
    "manifest.txt": ("encrypt",),
    "img1.pgm": ("encrypt",),
}


def _argv(root: Path, command: str) -> list[str]:
    key = ["--key", str(root / "key.txt")]
    return {
        "encrypt": ["encrypt", "--manifest", str(root / "manifest.txt"), *key,
                    "--out", str(root / "out.bin")],
        "decrypt": ["decrypt", "--in", str(root / "ct.bin"), *key,
                    "--out-dir", str(root / "out")],
        "verify": ["verify", "--circuit", str(root / "circ.txt")],
    }[command]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A workspace where every command succeeds, and its input files' bytes."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    rng = np.random.default_rng(3)
    for i in range(3):
        images.write_pgm(root / f"img{i}.pgm",
                         rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
    (root / "manifest.txt").write_text("img0.pgm\nimg1.pgm\nimg2.pgm\n")
    write_key(root / "key.txt", MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 77))
    assert main(["synth", "--n", "3", "--partition", "2,1,1",
                 "--out", str(root / "circ.txt")]) == 0
    assert main(["encrypt", "--manifest", str(root / "manifest.txt"),
                 "--key", str(root / "key.txt"), "--out", str(root / "ct.bin")]) == 0
    for command in ("encrypt", "decrypt", "verify"):
        assert main(_argv(root, command)) == 0
    return root, {name: (root / name).read_bytes() for name in FUZZ_COMMANDS}


def _edited(data: bytes, edits: list[tuple[int, int]]) -> bytes:
    """``data`` after each (position, value) edit: a byte value replaces the
    byte at the position (or is appended past the end); 256 deletes it."""
    buf = bytearray(data)
    for pos, value in edits:
        pos = min(pos, len(buf))
        buf[pos : pos + 1] = b"" if value == 256 else bytes([value])
    return bytes(buf)


@settings(max_examples=100, report_multiple_bugs=False)
@given(name=st.sampled_from(sorted(FUZZ_COMMANDS)), data=st.data())
def test_any_input_file_exits_zero_or_one(valid_files, name, data):
    root, originals = valid_files
    edits = st.lists(st.tuples(st.integers(0, len(originals[name])), st.integers(0, 256)),
                     min_size=1, max_size=4)
    content = data.draw(st.one_of(st.binary(max_size=200),
                                  edits.map(lambda e: _edited(originals[name], e))))
    (root / name).write_bytes(content)
    try:
        for command in FUZZ_COMMANDS[name]:
            assert main(_argv(root, command)) in (0, 1)
    finally:
        (root / name).write_bytes(originals[name])


def test_cli_import_leaves_circuit_side_out():
    # encrypt and decrypt pay for every module the CLI imports at start
    env = dict(os.environ, PYTHONPATH=str(Path(qbaker.__file__).resolve().parents[1]))
    code = "import sys, qbaker.cli; print(sorted(m for m in sys.modules if m.startswith('qbaker')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    for name in ("qbaker.circuit", "qbaker.sim", "qbaker.analysis"):
        assert f"'{name}'" not in out
    assert "'qbaker.cipher'" in out


def test_encrypt_and_decrypt_leave_numpy_ma_out(workspace):
    # importing numpy.ma cost 12-18 ms per call; chaos.rank once pulled it in
    env = dict(os.environ, PYTHONPATH=str(Path(qbaker.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "from qbaker.cli import main\n"
        "assert main(['encrypt', '--manifest', 'manifest.txt', '--key', 'key.txt',"
        " '--out', 'ct.bin']) == 0\n"
        "assert main(['decrypt', '--in', 'ct.bin', '--key', 'key.txt',"
        " '--out-dir', 'out']) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=workspace,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "False"
    assert (workspace / "out" / "image_0002.pgm").read_bytes() == (
        workspace / "img2.pgm").read_bytes()


def test_cipher_process_loads_no_libcrypto(workspace):
    # hashlib's SHAKE would load OpenSSL's libcrypto (_hashlib), about 3.6 MB
    # of every encrypt and decrypt process; the test process imports hashlib
    # itself, so a fresh interpreter runs the commands
    write_key(workspace / "simple.txt", MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 77,
                                                  "simplified"))
    env = dict(os.environ, PYTHONPATH=str(Path(qbaker.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "from qbaker.cli import main\n"
        "loaded = ['_hashlib' in sys.modules]\n"
        "for key in ('key.txt', 'simple.txt'):\n"
        "    assert main(['encrypt', '--manifest', 'manifest.txt', '--key', key,"
        " '--out', 'ct.bin']) == 0\n"
        "    loaded.append('_hashlib' in sys.modules)\n"
        "    assert main(['decrypt', '--in', 'ct.bin', '--key', key, '--out-dir', key + '.out']) == 0\n"
        "    loaded.append('_hashlib' in sys.modules)\n"
        "print(loaded)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=workspace,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == str([False] * 5)
    for key in ("key.txt", "simple.txt"):
        assert (workspace / f"{key}.out" / "image_0002.pgm").read_bytes() == (
            workspace / "img2.pgm").read_bytes()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
