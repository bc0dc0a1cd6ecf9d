"""Negative controls: a corrupted output must fail its op."""

import os
import time
from pathlib import Path

import pytest

from qbaker import baker, circuit, sim

import sweep
from cipher_ops import GOLDEN_SEED, CipherRunner, OpResult, load_golden
from run import CIPHER_WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def bulk_runner(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    wl = CIPHER_WORKLOADS["bulk_n4_simplified"]
    return CipherRunner(wl, GOLDEN_SEED, ROOT, tmp_path, env, False, time.monotonic() + 120)


def test_clean_cipher_op_passes(bulk_runner):
    assert load_golden()["bulk_n4_simplified"], "golden digests missing"
    res = bulk_runner.run_op(0)
    assert res.problems == []
    assert res.encrypt_s > 0 and res.decrypt_s > 0


def test_flipped_ciphertext_byte_fails_the_op(bulk_runner):
    op_dir, pgms = bulk_runner.prepare(0)
    res = OpResult()
    bulk_runner.encrypt(op_dir, 0, res)
    ct = op_dir / "ct.qbmi"
    blob = bytearray(ct.read_bytes())
    blob[-1] ^= 0x01
    ct.write_bytes(bytes(blob))

    bulk_runner.check_ciphertext(op_dir, 0, res)
    assert any("sha256" in p for p in res.problems)

    res = OpResult()
    bulk_runner.decrypt(op_dir, 0, res)
    bulk_runner.check_plaintext(op_dir, pgms, res)
    assert any("differ" in p for p in res.problems)


def _drop_one_gate(c):
    gates = c.gates
    i = len(gates) // 2
    return circuit.Circuit(c.n, c.partition, (gates[:i] + gates[i + 1 :],))


def test_dropped_gate_fails_equivalence():
    for q in sweep.draw_partitions(seed=1, op=0, count=16):
        p = baker.BakerPartition(sweep.N, q)
        ok, _ = sim.equivalence(_drop_one_gate(circuit.synthesize(p)), p)
        assert not ok, p


def test_sweep_op_clean_and_with_dropped_gate(monkeypatch):
    assert sweep.sweep_op(seed=2, op=0)["problems"] == []

    synthesize = circuit.synthesize
    monkeypatch.setattr(circuit, "synthesize", lambda p: _drop_one_gate(synthesize(p)))
    result = sweep.sweep_op(seed=2, op=0)
    assert result["problems"] and "mismatch" in result["problems"][0]
