import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qbaker.cli  # noqa: F401  (loads every qbaker module)

import tracing
from run import per_layer_metrics

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.fixture
def restore_qbaker(monkeypatch):
    """Let monkeypatch restore every qbaker attribute the tracer rebinds."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qbaker" or name.startswith("qbaker.")):
            for attr, value in list(vars(mod).items()):
                if callable(value):
                    monkeypatch.setattr(mod, attr, value)


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    inner = tr.wrap("m.inner", lambda: time.sleep(0.02))

    def body():
        inner()
        time.sleep(0.01)
        inner()

    outer = tr.wrap("m.outer", body)
    tr.op = "7"
    outer()
    spans = tr.dump()["spans"]
    assert [s[0] for s in spans] == ["m.outer", "m.inner", "m.inner"]
    assert all(s[1] == "7" for s in spans)
    assert [s[2] for s in spans] == [-1, 0, 0]
    totals = tracing.layer_totals([tr.dump()])
    assert totals["m.inner.calls"] == 2
    assert totals["m.outer.self_s"] == pytest.approx(
        totals["m.outer.s"] - totals["m.inner.s"], abs=1e-9)
    assert 0.009 < totals["m.outer.self_s"] < 0.02


def test_generator_span_excludes_consumer_time():
    tr = tracing.Tracer()

    def gen():
        for _ in range(3):
            time.sleep(0.01)
            yield 1

    for _ in tr.wrap("m.gen", gen)():
        time.sleep(0.03)
    totals = tracing.layer_totals([tr.dump()])
    assert totals["m.gen.calls"] == 1
    assert 0.03 <= totals["m.gen.s"] < 0.06


def test_install_rebinds_from_imports_and_counts(restore_qbaker):
    from qbaker import cipher, images
    from qbaker.cipher import MasterKey

    tr = tracing.Tracer()
    tr.install()
    assert cipher.pack is images.pack and hasattr(cipher.pack, "__wrapped__")
    assert hasattr(cipher.generate_sequences, "__wrapped__")

    rng = np.random.default_rng(0)
    image_set = images.ImageSet(2, 4, rng.integers(0, 16, size=(4, 4, 4)))
    key = MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 5)
    tr.op = "0"
    cipher.decrypt(cipher.encrypt(image_set, key), key)

    totals = tracing.layer_totals([tr.dump()])
    assert totals["images.pack.calls"] == 1  # called through cipher's own binding
    # 4x4 pixels and 4x4 planes in one block: 16 + 16 positions per schedule
    assert totals["cipher.schedule_draws"] == 2 * (16 + 16)
    assert totals["cipher.tables_needed"] > 0
    metrics = per_layer_metrics(totals, ops=1)
    assert metrics["cipher.table_build_ratio"] == pytest.approx(
        totals["baker.permutation_table.calls"] / totals["cipher.tables_needed"])


def test_absent_layer_reported_as_zero(restore_qbaker, monkeypatch):
    from qbaker import baker

    monkeypatch.delattr(baker, "enumerate_admissible", raising=False)
    tr = tracing.Tracer()
    assert tr.install() == ["baker.enumerate_admissible"]
    totals = tracing.layer_totals([tr.dump()])
    assert totals["baker.enumerate_admissible.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
