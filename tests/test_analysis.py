import pytest

from qbaker.analysis import (
    CASES,
    PLANE_PARTITION,
    ProtocolParams,
    nonsimplified_depth,
    qubit_width,
    simplified_depth,
    table1,
)
from qbaker.circuit import gate_count


class TestQubitWidth:
    @pytest.mark.parametrize(
        "M,w1,w2", [(30, 27, 25), (64, 29, 26), (128, 31, 27), (200, 33, 28)]
    )
    def test_table_row(self, M, w1, w2):
        assert qubit_width(ProtocolParams("P1", 8, M)) == w1
        assert qubit_width(ProtocolParams("P2", 8, M)) == w2

    def test_m200_claim(self):
        assert qubit_width(ProtocolParams("P2", 8, 200)) == 28
        assert qubit_width(ProtocolParams("P1", 8, 200)) == 33

    def test_boundary_equal_m_and_l(self):
        # M > L with ceil(log2 M) == ceil(log2 L) == 3: both protocols need
        # 2 (n + 3) + 1 = 2 n + 3 + 3 + 1 qubits
        p1, p2 = ProtocolParams("P1", 8, 8, 5), ProtocolParams("P2", 8, 8, 5)
        assert qubit_width(p1) == qubit_width(p2) == 23

    def test_block_regime_enforced(self):
        with pytest.raises(ValueError):
            ProtocolParams("P2", 8, 4, 8)

    def test_unknown_protocol_refused(self):
        with pytest.raises(ValueError, match="P1 or P2"):
            ProtocolParams("P3", 8, 30)


class TestSimplifiedDepth:
    def test_p2_is_87(self):
        assert simplified_depth(PLANE_PARTITION) == 87

    @pytest.mark.parametrize("case,want", [("i", 124), ("iii", 167), ("iv", 152)])
    def test_p1_cases(self, case, want):
        assert simplified_depth(CASES[case]["partition"]) == want

    def test_case_ii_diverges_from_published(self):
        assert simplified_depth(CASES["ii"]["partition"]) == 51 + 76


PAPER_INDEX_GATES = {"i": 48, "ii": 45, "iii": 91, "iv": 76}


class TestNonsimplifiedDepth:
    @pytest.mark.parametrize(
        "case,p1_want,p2_want",
        [
            ("i", 3_223_552, 2_903_040),
            ("ii", 3_260_416, 5_806_080),
            ("iii", 7_208_960, 11_612_160),
            ("iv", 9_961_472, 23_224_320),
        ],
    )
    def test_table_rows_from_published_averages(self, case, p1_want, p2_want):
        M = CASES[case]["M"]
        n2 = PAPER_INDEX_GATES[case]
        assert nonsimplified_depth(ProtocolParams("P1", 8, M), 76, n2, 11) == p1_want
        assert nonsimplified_depth(ProtocolParams("P2", 8, M), 76, n2, 11) == p2_want


class TestTable1:
    def test_unflagged_cells_match_published(self):
        t = table1()
        for name, row in t.rows():
            for j, cell in enumerate(row):
                if t.cases[j] != "ii":
                    assert not cell.flagged, (name, j, cell)

    def test_case_ii_flags(self):
        t = table1()
        j = t.cases.index("ii")
        assert t.cells["simplified_p1"][j].flagged
        assert t.cells["simplified_p1"][j].value == 127
        assert t.cells["simplified_p1"][j].reference == 121
        assert t.cells["nonsimplified_p1"][j].flagged
        assert t.cells["ratio"][j].flagged
        # widths and the P2 column stay exact even in case ii
        assert not t.cells["widths_p1"][j].flagged
        assert not t.cells["nonsimplified_p2"][j].flagged

    def test_ratio_row_truncation(self):
        t = table1()
        for j, case in enumerate(t.cases):
            if case == "ii":
                continue
            assert t.cells["ratio"][j].value == t.cells["ratio"][j].reference

    def test_simplified_depth_equals_synthesized_length(self):
        # cross-module consistency: the model totals equal real circuit sizes
        from qbaker.circuit import synthesize

        for case in CASES:
            part = CASES[case]["partition"]
            assert gate_count(part)[1] == len(synthesize(part).gates)

    def test_render_mentions_flags(self):
        text = table1().render()
        assert "flagged cells" in text
        assert "published" in text

    def test_flag_report_keeps_every_digit(self):
        report = table1().render().split("flagged cells")[1]
        assert "non-simplified gates P1 @ M=64: computed 3 653 632, published 3 260 416" in report
        assert "ratio P2/P1 @ M=64: computed 1.5, published 1.7" in report

    def test_csv_shape(self):
        csv = table1().to_csv()
        lines = csv.strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("row,M=30")

    def test_csv_cells_parse_back_exactly(self):
        t = table1()
        lines = t.to_csv().strip().splitlines()[1:]
        for line, (name, row) in zip(lines, t.rows(), strict=True):
            label, *texts = line.split(",")
            assert label == name
            assert [float(x) for x in texts] == [cell.value for cell in row]
        assert "3223552" in lines[4]
