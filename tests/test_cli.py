import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbaker
from qbaker import images
from qbaker.cipher import MasterKey, write_key
from qbaker.cli import main


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

    def test_images_past_n6_exit_one(self, tmp_path, capsys):
        for i in range(2):
            images.write_pgm(tmp_path / f"big{i}.pgm", np.zeros((128, 128), dtype=np.uint8))
        (tmp_path / "manifest.txt").write_text("big0.pgm\nbig1.pgm\n")
        write_key(tmp_path / "key.txt", MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 77))
        rc = main([
            "encrypt", "--manifest", str(tmp_path / "manifest.txt"),
            "--key", str(tmp_path / "key.txt"), "--out", str(tmp_path / "ct.bin"),
        ])
        assert rc == 1
        assert "64-bit" in capsys.readouterr().err

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


def test_cli_import_leaves_circuit_side_out():
    # encrypt and decrypt pay for every module the CLI imports at start
    env = dict(os.environ, PYTHONPATH=str(Path(qbaker.__file__).resolve().parents[1]))
    code = "import sys, qbaker.cli; print(sorted(m for m in sys.modules if m.startswith('qbaker')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    for name in ("qbaker.circuit", "qbaker.sim", "qbaker.analysis"):
        assert f"'{name}'" not in out
    assert "'qbaker.cipher'" in out


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
