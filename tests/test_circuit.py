import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import baker, sim
from qbaker.baker import BakerPartition
from qbaker.circuit import (
    ControlCondition,
    Gate,
    Wire,
    build_piece,
    circuit_from_text,
    gate_count,
    synthesize,
)

import oracles


# The paper's strip-membership conditions, kept here as a formula oracle:
# synthesis itself gates narrow strips on window tags instead.


def reduce_to_distinct(prefix):
    """Distinct exponents of the binary expansion of sum(2^q), descending."""
    total = sum(1 << e for e in prefix)
    if total <= 0:
        raise ValueError("prefix must be non-empty")
    return [j for j in range(total.bit_length() - 1, -1, -1) if (total >> j) & 1]


def _home_wire(j, q1, n):
    """Where the original column bit j sits after the first subfunction."""
    return Wire("y", j) if j >= q1 else Wire("x", n - q1 + j)


def controls_for(r, p):
    """Strip-membership conditions for subfunction r (1-based, r >= 2).

    One value-1 condition per set bit of the prefix sum; for r < k also a
    value-0 condition at every other position in [q_r, n-1].  Bits below q_1
    are read from the x wires they were moved to.
    """
    if r < 2:
        raise ValueError("subfunction 1 carries no controls")
    if r > len(p.q):
        raise ValueError(f"r={r} exceeds k={len(p.q)}")
    q1 = p.q[0]
    qr = p.q[r - 1]
    ones = reduce_to_distinct(p.q[: r - 1])
    conds = [ControlCondition(_home_wire(j, q1, p.n), 1) for j in ones]
    if r < len(p.q):
        one_set = set(ones)
        for j in range(p.n - 1, qr - 1, -1):
            if j not in one_set:
                conds.append(ControlCondition(_home_wire(j, q1, p.n), 0))
    return conds


class TestGateCount:
    def test_flagship_eleven(self):
        counts, total = gate_count(BakerPartition(3, (2, 1, 1)))
        assert counts == [5, 3, 3]
        assert total == 11

    @pytest.mark.parametrize(
        "n,q,total",
        [
            (5, (3, 2, 2, 2, 2, 1, 1, 1, 1), 48),
            (7, (4, 3, 3, 3, 2, 2, 3, 2, 2, 6), 91),
            (8, (6, 6, 2, 2, 3, 4, 5, 6), 76),
        ],
    )
    def test_benchmark_cases(self, n, q, total):
        assert gate_count(BakerPartition(n, q))[1] == total

    def test_case_ii_formula_value(self):
        # the closed-form model gives 51 here; the published table says 45,
        # and the synthesized circuit length (the arbiter) agrees with 51
        p = BakerPartition(6, (5, 1, 1, 2, 3, 4))
        counts, total = gate_count(p)
        assert counts == [11, 6, 6, 7, 12, 9]
        assert total == 51
        assert len(synthesize(p).gates) == 51

    def test_zero_iff_width_matches_first(self):
        for n in (2, 3, 4):
            for p in baker.enumerate_admissible(n):
                counts, _ = gate_count(p)
                for qi, c in zip(p.q[1:], counts[1:]):
                    assert (c == 0) == (qi == p.q[0])

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            gate_count(BakerPartition(2, (0, 1, 0)))


class TestSynthF1:
    """The first subfunction is the head piece ``(n, q1)``: M_{q1} over the
    whole square, lowered by swap cycles and padded to the model."""

    def test_pinned_gate_list(self):
        gates = build_piece((2, 1))
        assert [str(g) for g in gates] == ["SWAP y0 y1", "SWAP y1 x1", "SWAP x1 x0"]

    def test_five_gates_for_n3_q2(self):
        assert len(build_piece((3, 2))) == 5

    def test_identity_when_single_strip(self):
        assert build_piece((4, 4)) == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_action_equals_ms(self, n):
        for q in range(n + 1):
            p = BakerPartition(n, tuple([q] * (2 ** (n - q))))
            circ = synthesize(p)  # all strips share q, so the map is M_q
            perm = sim.to_permutation(circ)
            for x in range(2**n):
                for y in range(2**n):
                    mx, my = oracles.apply_ms(q, n, (x, y))
                    assert perm[(x << n) | y] == (mx << n) | my

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_action_equals_ms_wide(self, n):
        for q in range(n + 1):
            p = BakerPartition(n, (q,) * 2 ** (n - q))
            ok, witness = sim.equivalence(synthesize(p), p)
            assert ok, (q, witness)


class TestReduceToDistinct:
    def test_merges_repeats(self):
        assert reduce_to_distinct((2, 1)) == [2, 1]

    def test_binary_expansion(self):
        assert reduce_to_distinct((3, 2, 2, 2)) == [4, 2]

    def test_single(self):
        assert reduce_to_distinct((4,)) == [4]

    def test_admissible_prefixes_bound_next_exponent(self):
        for p in baker.enumerate_admissible(4):
            for r in range(2, len(p.q) + 1):
                exps = reduce_to_distinct(p.q[: r - 1])
                assert p.q[r - 1] <= min(exps)


class TestControlsFor:
    def test_middle_subfunction(self):
        conds = controls_for(2, BakerPartition(3, (2, 1, 1)))
        assert conds == [
            ControlCondition(Wire("y", 2), 1),
            ControlCondition(Wire("x", 2), 0),
        ]

    def test_last_subfunction_ones_only(self):
        conds = controls_for(3, BakerPartition(3, (2, 1, 1)))
        assert conds == [
            ControlCondition(Wire("y", 2), 1),
            ControlCondition(Wire("x", 2), 1),
        ]

    def test_first_subfunction_rejected(self):
        with pytest.raises(ValueError):
            controls_for(1, BakerPartition(3, (2, 1, 1)))

    def test_high_bits_sit_on_y(self):
        p = BakerPartition(4, (2, 2, 2, 2))
        for cond in controls_for(3, p):
            assert cond.wire.reg == "y" or cond.wire.index >= 2


class TestSynthFi:
    """Subfunction f_i of a circuit is its i-th slice."""

    def test_flagship_block_sizes(self):
        circ = synthesize(BakerPartition(3, (2, 1, 1)))
        assert [len(block) for block in circ.subfunctions[1:]] == [3, 3]

    def test_equal_width_block_is_empty(self):
        assert synthesize(BakerPartition(3, (2, 2))).subfunctions[1] == ()

    def test_two_halves_whole_circuit(self):
        p = BakerPartition(3, (2, 2))
        ok, _ = sim.equivalence(synthesize(p), p)
        assert ok


class TestSynthesize:
    def test_flagship_total(self):
        assert len(synthesize(BakerPartition(3, (2, 1, 1))).gates) == 11

    def test_single_strip_empty(self):
        assert synthesize(BakerPartition(4, (4,))).gates == ()

    def test_case_i_total(self):
        p = BakerPartition(5, (3, 2, 2, 2, 2, 1, 1, 1, 1))
        assert len(synthesize(p).gates) == 48

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            synthesize(BakerPartition(2, (0, 1, 0)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_and_validity_everywhere(self, n):
        for p in baker.enumerate_admissible(n):
            circ = synthesize(p)
            circ.validate()  # targets distinct, controls consistent + off-target
            counts, total = gate_count(p)
            assert [len(b) for b in circ.subfunctions] == counts
            assert len(circ.gates) == total

    def test_wide_strip_controls_match_membership_conditions(self):
        # strips wider than the head carry exactly the strip's y-register
        # pattern; for the last strip this fire set equals the ones-only form
        p = BakerPartition(3, (1, 1, 2))
        circ = synthesize(p)
        block = circ.subfunctions[2]
        assert len(block) == 3
        want = set(controls_for(3, p))
        assert want == {ControlCondition(Wire("y", 2), 1)}
        for g in block:
            assert set(g.controls) == want


class TestTextFormat:
    def test_roundtrip(self):
        p = BakerPartition(3, (2, 1, 1))
        circ = synthesize(p)
        parsed = circuit_from_text(circ.to_text())
        assert parsed.n == 3
        assert parsed.partition == p
        assert parsed.gates == circ.gates

    def test_header_required(self):
        with pytest.raises(ValueError):
            circuit_from_text("SWAP x0 y0\n")

    @pytest.mark.parametrize("header", ["# partition=1,1", "# n=2"])
    def test_header_field_required(self, header):
        with pytest.raises(ValueError, match="header lacks"):
            circuit_from_text(header + "\nSWAP x0 y0\n")

    @pytest.mark.parametrize("n", [0, -1, 13, 100000000])
    def test_header_n_bounded(self, n, monkeypatch):
        # refused before the partition is parsed: no 2^n-wide sum is built
        def parse(*args):
            raise AssertionError("partition parsed")
        monkeypatch.setattr(BakerPartition, "parse", parse)
        with pytest.raises(ValueError, match="outside"):
            circuit_from_text(f"# n={n} partition={n}\n")

    def test_bad_gate_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_text("# n=2 partition=1,1\nNOPE x0 y0\n")

    def test_control_on_target_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_text("# n=2 partition=1,1\nCSWAP x0 y0 ? x0=1\n")

    @pytest.mark.parametrize("line", ["CSWAP x0 y0 ? =1", "CSWAP x0 y0 ? y1=1 =0"])
    def test_empty_wire_rejected(self, line):
        with pytest.raises(ValueError, match="bad wire"):
            circuit_from_text(f"# n=2 partition=1,1\n{line}\n")


# Tokens of the gate-line format, well-formed and not, for the parser property;
# well-formed ones come first and are drawn more often.
_HEADERS = ["# n=2 partition=1,1", "# n=3 partition=2,1,1", "# n=1 partition=1",
            "# n=2", "# partition=1,1", "# n=0 partition=0", "# n=2 partition=1,-1",
            "# n=x partition=1,1", "# n=2 partition=", "# n", "#", "SWAP x0 y0", ""]
_WIRES = ["x0", "x1", "y0", "y1", "x2", "y3", "x", "y", "z0", "x-1", "", "="]
_TOKENS = ["SWAP", "CSWAP", "?", "#", "n=2", *_WIRES]
_header = st.one_of(st.sampled_from(_HEADERS[:3]), st.sampled_from(_HEADERS))
_wire = st.one_of(st.sampled_from(_WIRES[:4]), st.sampled_from(_WIRES))
_control = st.builds("{}={}".format, _wire, st.sampled_from(["0", "1", "2", "", "x", "1=0"]))
_swap_line = st.builds(lambda a, b: ["SWAP", a, b], _wire, _wire)
_cswap_line = st.builds(lambda a, b, mark, conds: ["CSWAP", a, b, mark, *conds],
                        _wire, _wire, st.sampled_from(["?", "?", "!"]),
                        st.lists(_control, min_size=1, max_size=3))
_gate_line = st.one_of(_swap_line, _cswap_line, _cswap_line,
                       st.lists(st.sampled_from(_TOKENS), max_size=6))


@settings(max_examples=300, deadline=None)
@given(_header, st.lists(_gate_line, max_size=4))
def test_parser_accepts_valid_or_raises_value_error(header, lines):
    text = "\n".join([header, *(" ".join(toks) for toks in lines)])
    try:
        circ = circuit_from_text(text)
    except ValueError:
        return
    circ.validate()
    assert circuit_from_text(circ.to_text()).gates == circ.gates


class TestGateValidation:
    def test_distinct_targets(self):
        with pytest.raises(ValueError):
            Gate((Wire("x", 0), Wire("x", 0))).validate()

    def test_conflicting_controls(self):
        g = Gate(
            (Wire("x", 0), Wire("y", 0)),
            (ControlCondition(Wire("y", 1), 1), ControlCondition(Wire("y", 1), 0)),
        )
        with pytest.raises(ValueError):
            g.validate()
