"""Acceptance suite: one test per shipping criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the full-equivalence sweep (criterion 4) dominates the runtime.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qbaker import baker, chaos, sim
from qbaker.analysis import CASES, PLANE_PARTITION, ProtocolParams, nonsimplified_depth, qubit_width, simplified_depth, table1
from qbaker.baker import BakerPartition
from qbaker.chaos import ScmParams, chebyshev, generate_sequences, scm_step
from qbaker.cipher import MasterKey, decrypt, encrypt
from qbaker.circuit import gate_count, synthesize
from qbaker.images import ImageSet, pack, plan_layout, unpack

from oracles import cube_bits

KEY = MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 0xC0FFEE)


def _report(num: int, message: str):
    print(f"criterion {num}: PASS - {message}")


def test_criterion_1_qubit_widths():
    start = time.time()
    widths = {}
    for M, want_p1, want_p2 in ((30, 27, 25), (64, 29, 26), (128, 31, 27), (200, 33, 28)):
        p1 = qubit_width(ProtocolParams("P1", 8, M))
        p2 = qubit_width(ProtocolParams("P2", 8, M))
        assert (p1, p2) == (want_p1, want_p2), (M, p1, p2)
        widths[M] = (p1, p2)
    assert widths[200] == (33, 28)  # "28 qubits instead of 33"
    assert time.time() - start < 1.0
    _report(1, "width row (27,25) (29,26) (31,27) (33,28); 28 vs 33 at M=200")


def test_criterion_2_gate_counts():
    assert gate_count(BakerPartition(3, (2, 1, 1)))[1] == 11
    per_case = {}
    for case, want in (("i", 48), ("iii", 91), ("iv", 76)):
        got = gate_count(CASES[case]["partition"])[1]
        assert got == want, (case, got)
        per_case[case] = got

    for case, want in (("i", 124), ("iii", 167), ("iv", 152)):
        assert simplified_depth(CASES[case]["partition"]) == want
    assert simplified_depth(PLANE_PARTITION) == 87

    # case (ii): the closed-form model evaluates to 51 (published: 45); the
    # synthesized circuit length is the arbiter and must agree with the model,
    # and the benchmark table must flag the divergent cells
    p_ii = CASES["ii"]["partition"]
    formula = gate_count(p_ii)[1]
    assert formula == len(synthesize(p_ii).gates) == 51
    t = table1()
    j = t.cases.index("ii")
    cell = t.cells["simplified_p1"][j]
    assert cell.flagged and cell.reference == 121
    _report(2, "totals 11/48/91/76 and 124/167/152 + 87 exact; case (ii) 51 vs 45 flagged")


def test_criterion_3_nonsimplified_depths():
    paper_index_gates = {"i": 48, "ii": 45, "iii": 91, "iv": 76}
    p1_row = (3_223_552, 3_260_416, 7_208_960, 9_961_472)
    p2_row = (2_903_040, 5_806_080, 11_612_160, 23_224_320)
    ratio_row = (0.9, 1.7, 1.6, 2.3)
    for j, case in enumerate(("i", "ii", "iii", "iv")):
        M = CASES[case]["M"]
        n2 = paper_index_gates[case]
        d1 = nonsimplified_depth(ProtocolParams("P1", 8, M), 76, n2, 11)
        d2 = nonsimplified_depth(ProtocolParams("P2", 8, M), 76, n2, 11)
        assert d1 == p1_row[j]
        assert d2 == p2_row[j]
        # the published row keeps one decimal by truncation
        truncated = math.floor(d2 / d1 * 10) / 10
        assert abs(truncated - ratio_row[j]) <= 0.05
    _report(3, "P1/P2 depth rows exact; ratio row 0.9/1.7/1.6/2.3 within tolerance")


def test_criterion_4_circuit_formula_equivalence():
    start = time.time()
    checked = 0
    for n in range(1, 6):
        parts = baker.enumerate_admissible(n)
        failures = list(sim.equivalence_sweep(n, parts))
        assert failures == [], failures[:3]
        checked += len(parts)
    elapsed = time.time() - start
    _report(4, f"{checked} admissible partitions (n<=5) simulate to the strip map "
               f"at model gate counts in {elapsed:.0f}s ({checked / elapsed:.0f} "
               f"partitions/s, {sim._piece_permutation.cache_info().currsize} memoized pieces)")


def _roundtrip(images: np.ndarray, n: int, M: int) -> float:
    s = ImageSet(n, 8, images)
    t0 = time.time()
    ct = encrypt(s, KEY)
    back = decrypt(ct, KEY)
    elapsed = time.time() - t0
    assert np.array_equal(back.images, s.images)
    return elapsed


def test_criterion_5_pipeline_roundtrip():
    # Exhaustion over every 64-bit plaintext at (n=1, M=2) is 2^64 instances;
    # the keystream only sees a plaintext through (x0, alpha, beta), so the
    # sweep covers every single-bit pattern, the two constants, and a large
    # random sample instead.
    times = []
    patterns = [np.zeros((2, 2, 2), dtype=int), np.full((2, 2, 2), 255)]
    for img in range(2):
        for x in range(2):
            for y in range(2):
                for bit in range(8):
                    arr = np.zeros((2, 2, 2), dtype=int)
                    arr[img, x, y] = 1 << bit
                    patterns.append(arr)
    rng = np.random.default_rng(1001)
    patterns.extend(rng.integers(0, 256, size=(500, 2, 2, 2)))
    for arr in patterns:
        times.append(_roundtrip(arr, 1, 2))

    for _ in range(100):
        times.append(_roundtrip(rng.integers(0, 256, size=(10, 16, 16)), 4, 10))
    assert max(times) < 1.0, "per-trial budget exceeded"
    _report(5, f"{len(patterns)} exhaustive/random trials at (n=1,M=2) plus 100 at "
               f"(n=4,M=10) roundtrip exactly; worst trial {max(times)*1e3:.0f} ms")


def test_criterion_6_avalanche_and_key_sensitivity():
    rng = np.random.default_rng(2002)
    flip_rates = []
    lam_rates = []
    for _ in range(50):
        imgs = rng.integers(0, 256, size=(8, 16, 16))
        ct = encrypt(ImageSet(4, 8, imgs), KEY)

        flipped = imgs.copy()
        fx, fy, fi = rng.integers(0, 16), rng.integers(0, 16), rng.integers(0, 8)
        flipped[int(rng.integers(0, 8)), fx, fy] ^= 1 << fi
        ct_flip = encrypt(ImageSet(4, 8, flipped), KEY)
        flip_rates.append(np.mean(np.unpackbits(ct.payload) != np.unpackbits(ct_flip.payload)))

        nudged = MasterKey(
            (KEY.lambdas[0] + 1e-9, *KEY.lambdas[1:]), KEY.schedule_seed
        )
        ct_lam = encrypt(ImageSet(4, 8, imgs), nudged)
        lam_rates.append(np.mean(np.unpackbits(ct.payload) != np.unpackbits(ct_lam.payload)))

    flip_mean = float(np.mean(flip_rates))
    lam_mean = float(np.mean(lam_rates))
    assert flip_mean >= 0.35  # target 40% of ciphertext bits, +-5 points
    assert lam_mean >= 0.35
    _report(6, f"mean ciphertext change: bit flip {flip_mean:.1%}, "
               f"lambda+1e-9 {lam_mean:.1%} (target >= 40% +- 5)")


def test_criterion_7_chaos_ranges_ranks_chebyshev():
    params = ScmParams((49.0, 23.0, 58.0, 120.0, 237.0))
    state = (0.1, 0.5, 0.2, -0.8, 0.9)
    lo, hi = 0.0, 0.0
    for _ in range(100_000):
        state = scm_step(state, params)
        lo = min(lo, min(state))
        hi = max(hi, max(state))
    assert -1.0 <= lo and hi <= 1.0

    seqs = generate_sequences((0.1, 0.5, 0.2, -0.8, 0.9), params, (16, 16, 8, 4))
    for ranks, values in ((seqs.ns, seqs.xs), (seqs.ks, seqs.ys),
                          (seqs.rs, seqs.zs), (seqs.ss, seqs.ts)):
        assert sorted(ranks) == list(range(len(values)))

    rng = np.random.default_rng(7)
    for theta in rng.uniform(0, math.pi, size=20):
        for k in range(51):
            assert abs(chebyshev(k, math.cos(theta)) - math.cos(k * theta)) < 1e-9

    golden = Path(__file__).parent / "data" / "chaos_trace_golden.csv"
    rows = golden.read_text().strip().splitlines()[1:]
    state = (0.1, 0.5, 0.2, -0.8, 0.9)
    for row in rows:
        state = scm_step(state, params)
        assert state == tuple(float(v) for v in row.split(",")[1:])
    _report(7, "range held over 1e5 steps; ranks are permutations; Chebyshev "
               "identity < 1e-9 for k<=50; 250-step golden trace reproduced")


def test_criterion_8_blank_image_handling():
    rng = np.random.default_rng(3003)
    imgs = rng.integers(0, 256, size=(10, 16, 16))
    s = ImageSet(4, 8, imgs)
    layout = plan_layout(10, 8)
    assert layout.images_per_block * layout.block_count == 16  # six blank images

    bits = pack(s, slice(None))
    assert np.array_equal(bits, cube_bits(s))
    assert bits.reshape(2, 8, -1)[1, 2:].sum() == 0  # blanks zero

    back = np.empty_like(imgs)
    unpack(bits, 8, back)
    assert np.array_equal(back, imgs)

    ct = encrypt(s, KEY)
    recovered = decrypt(ct, KEY)
    assert recovered.M == 10
    assert np.array_equal(recovered.images, imgs)
    _report(8, "M=10 pads 6 zero blanks, discards them on unpack, and "
               "roundtrips through the cipher exactly")
