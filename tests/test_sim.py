import numpy as np
import pytest

from qbaker import baker, circuit, sim
from qbaker.baker import BakerPartition
from qbaker.circuit import Circuit, ControlCondition, Gate, Wire, synthesize

import oracles


def _gate(t1, t2, *conds):
    return Gate((t1, t2), tuple(ControlCondition(w, v) for w, v in conds))


class TestApplyGate:
    def test_plain_swap(self):
        g = _gate(Wire("x", 0), Wire("y", 0))
        assert oracles.apply_gate(g, (1, 0), 1) == (0, 1)

    def test_failed_control_is_identity(self):
        g = _gate(Wire("x", 0), Wire("y", 0), (Wire("x", 1), 1))
        assert oracles.apply_gate(g, (0b01, 0b00), 2) == (0b01, 0b00)

    def test_satisfied_control_swaps(self):
        g = _gate(Wire("x", 0), Wire("y", 0), (Wire("x", 1), 1))
        assert oracles.apply_gate(g, (0b11, 0b00), 2) == (0b10, 0b01)

    def test_double_application_is_identity(self):
        g = _gate(Wire("x", 1), Wire("y", 0), (Wire("y", 1), 1))
        for x in range(4):
            for y in range(4):
                once = oracles.apply_gate(g, (x, y), 2)
                assert oracles.apply_gate(g, once, 2) == (x, y)


class TestRun:
    def test_flagship_matches_apply(self):
        p = BakerPartition(3, (2, 1, 1))
        circ = synthesize(p)
        for x in range(8):
            for y in range(8):
                assert oracles.run(circ, (x, y)) == oracles.apply(p, (x, y))

    def test_empty_circuit(self):
        circ = Circuit(2, BakerPartition(2, (2,)), ((),))
        assert oracles.run(circ, (3, 1)) == (3, 1)

    def test_reversed_circuit_inverts(self):
        p = BakerPartition(3, (2, 1, 1))
        circ = synthesize(p)
        rev = Circuit(3, p, (tuple(reversed(circ.gates)),))
        for x in range(8):
            for y in range(8):
                assert oracles.run(rev, oracles.run(circ, (x, y))) == (x, y)


class TestToPermutation:
    def test_matches_scalar_run(self):
        p = BakerPartition(3, (2, 1, 1))
        circ = synthesize(p)
        perm = sim.to_permutation(circ)
        for x in range(8):
            for y in range(8):
                nx, ny = oracles.run(circ, (x, y))
                assert perm[(x << 3) | y] == (nx << 3) | ny

    def test_identity_partition(self):
        circ = synthesize(BakerPartition(3, (3,)))
        assert np.array_equal(sim.to_permutation(circ), np.arange(64))

    def test_is_bijection(self):
        circ = synthesize(BakerPartition(4, (2, 2, 2, 2)))
        perm = sim.to_permutation(circ)
        assert np.array_equal(np.sort(perm), np.arange(256))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            sim.to_permutation(Circuit(13, BakerPartition(13, (13,)), ((),)))


class TestEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_partitions(self, n):
        for p in baker.enumerate_admissible(n):
            ok, witness = sim.equivalence(synthesize(p), p)
            assert ok, (p, witness)

    def test_mutated_circuit_reports_witness(self):
        p = BakerPartition(3, (2, 1, 1))
        circ = synthesize(p)
        mutated = Circuit(3, p, (circ.gates[1:],))
        ok, witness = sim.equivalence(mutated, p)
        assert not ok
        point, got, want = witness
        assert oracles.run(mutated, point) == got
        assert oracles.apply(p, point) == want

    def test_any_single_deletion_detected(self):
        p = BakerPartition(3, (2, 1, 1))
        gates = synthesize(p).gates
        for drop in range(len(gates)):
            mutated = Circuit(3, p, (gates[:drop] + gates[drop + 1 :],))
            ok, _ = sim.equivalence(mutated, p)
            assert not ok


def _flip_first_control(piece):
    """The piece with one control value inverted; same length."""
    for i, g in enumerate(piece):
        if g.controls:
            (wire, value), *rest = g.controls
            flipped = Gate(g.targets, (ControlCondition(wire, 1 - value), *rest))
            return piece[:i] + (flipped,) + piece[i + 1 :]
    return piece


@pytest.fixture
def fresh_pieces(monkeypatch):
    """An empty piece memo for this test, so patched builders take effect."""
    monkeypatch.setattr(sim, "_PIECES", {})


def _patch_pieces(monkeypatch, change, head=False):
    """Apply ``change`` to every run piece the builder returns, or to every
    head piece ``(n, q1)`` instead when ``head`` is set."""
    build = circuit.build_piece
    monkeypatch.setattr(
        circuit, "build_piece",
        lambda key: change(build(key)) if (len(key) == 2) == head else build(key))


def _corrupt_window_pieces(monkeypatch):
    _patch_pieces(monkeypatch, _flip_first_control)


class TestSweep:
    def test_matches_single_equivalence(self):
        parts = baker.enumerate_admissible(3)
        assert list(sim.equivalence_sweep(3, parts)) == []

    def test_count_model_enforced(self):
        # a partition object lying about its exponents trips the model check
        p = BakerPartition(3, (2, 1, 1))
        bad = object.__new__(BakerPartition)
        object.__setattr__(bad, "n", 3)
        object.__setattr__(bad, "q", (2, 1, 1))
        fails = list(sim.equivalence_sweep(3, [p, bad]))
        assert fails == []

    def test_dropped_gate_raises(self, fresh_pieces, monkeypatch):
        _patch_pieces(monkeypatch, lambda piece: piece[:-1])
        with pytest.raises(AssertionError, match="gate count"):
            list(sim.equivalence_sweep(3, [BakerPartition(3, (2, 1, 1))]))

    def test_dropped_head_gate_raises(self, fresh_pieces, monkeypatch):
        # head (3, 0) emits its 3 model gates; head (5, 3) emits 8 of 12
        _patch_pieces(monkeypatch, lambda piece: piece[:-1], head=True)
        for n, q in ((3, (0,) * 8), (5, (3,) * 4)):
            with pytest.raises(AssertionError, match="gate count"):
                list(sim.equivalence_sweep(n, [BakerPartition(n, q)]))

    def test_corrupted_piece_yields_confirmed_witness(self, fresh_pieces, monkeypatch):
        _corrupt_window_pieces(monkeypatch)
        p = BakerPartition(3, (2, 1, 1))
        [(got_p, (point, circuit_image, baker_image))] = sim.equivalence_sweep(3, [p])
        assert got_p == p
        assert oracles.run(synthesize(p), point) == circuit_image
        assert oracles.apply(p, point) == baker_image
        assert circuit_image != baker_image

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_verdicts_equal_equivalence(self, n, corrupt, fresh_pieces, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK", 50)  # batches end mid-list
        if corrupt:
            _corrupt_window_pieces(monkeypatch)
        parts = baker.enumerate_admissible(n)
        want = {}
        for p in parts:
            ok, witness = sim.equivalence(synthesize(p), p)
            if not ok:
                want[p] = witness
        assert dict(sim.equivalence_sweep(n, parts)) == want
        assert bool(want) == (corrupt and n > 1)

    def test_composed_pieces_are_the_synthesized_stream(self, fresh_pieces, monkeypatch):
        rng = np.random.default_rng(5)
        parts = [p for n in (1, 2, 3) for p in baker.enumerate_admissible(n)]
        parts += [baker.unrank_admissible(5, int(i))
                  for i in rng.integers(0, baker.count_admissible(5), 64)]
        built = {}
        build = circuit.build_piece
        monkeypatch.setattr(circuit, "build_piece",
                            lambda key: built.setdefault(key, build(key)))
        for n in (1, 2, 3, 5):
            assert list(sim.equivalence_sweep(n, [p for p in parts if p.n == n])) == []
        assert set(built) == set(sim._PIECES)
        for p in parts:
            stream = sum((built[key] for key in circuit.piece_keys(p)), ())
            assert stream == synthesize(p).gates


def _wide_partition(n, q1, v):
    """q1-wide strips up to column 2^v, a 2^v strip, then the rest of the
    square in strips of growing width."""
    q = [q1] * (1 << (v - q1)) + [v]
    pos = 1 << (v + 1)
    while pos < 1 << n:
        e = (pos & -pos).bit_length() - 1  # widest strip 2^e aligned at pos
        q.append(e)
        pos += 1 << e
    return BakerPartition(n, tuple(q))


class TestWidePieces:
    """Wide-strip pieces the n <= 5 sweep never builds."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_equivalent_and_padded_to_model(self, n):
        for q1 in range(n):
            for v in range(q1 + 1, n):
                p = _wide_partition(n, q1, v)
                assert baker.is_admissible(p)
                assert (n, q1, (v,), 1 << v) in circuit.piece_keys(p)
                circ = synthesize(p)
                ok, witness = sim.equivalence(circ, p)
                assert ok, (p, witness)
                assert len(circ.gates) == circuit.gate_count(p)[1]


def _fired_transpositions(circ):
    """Count state pairs each gate actually exchanges, summed over gates."""
    n = circ.n
    states = [(x, y) for x in range(1 << n) for y in range(1 << n)]
    return sum(
        sum(oracles.apply_gate(g, s, n) != s for s in states) // 2 for g in circ.gates
    )


def _parity(perm) -> int:
    """0 for an even permutation, 1 for an odd one, via cycle decomposition."""
    seen = np.zeros(len(perm), dtype=bool)
    parity = 0
    for start in range(len(perm)):
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = int(perm[cur])
            length += 1
        parity ^= max(length - 1, 0) & 1
    return parity


class TestParity:
    @pytest.mark.parametrize("q", [(2, 1, 1), (2, 2), (1, 1, 2)])
    def test_permutation_parity_counts_fired_swaps(self, q):
        p = BakerPartition(3, q)
        circ = synthesize(p)
        perm = sim.to_permutation(circ)
        assert _parity(perm) == _fired_transpositions(circ) % 2
