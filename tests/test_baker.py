import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import baker
from qbaker.baker import BakerPartition

import oracles


def brute_force_baker(n, q, x, y):
    """Direct evaluation of the strip formula, independent of oracles.apply."""
    prefix = 0
    for e in q:
        width = 2**e
        if prefix <= x < prefix + width:
            stretch = 2 ** (n - e)
            return (stretch * (x - prefix) + y % stretch, prefix + (y - y % stretch) // stretch)
        prefix += width
    raise AssertionError


def permutation_table(p):
    """Forward map as a table over indices x * 2^n + y, one oracles.apply per point."""
    size = 1 << p.n
    table = [0] * (size * size)
    for x in range(size):
        for y in range(size):
            nx, ny = oracles.apply(p, (x, y))
            table[x * size + y] = nx * size + ny
    return table


def all_partitions_brute(n):
    """Every exponent list summing to 2^n, with no admissibility filter."""
    total = 2**n
    out = []

    def rec(acc, s):
        if s == total:
            out.append(tuple(acc))
            return
        for e in range(n + 1):
            if s + 2**e <= total:
                acc.append(e)
                rec(acc, s + 2**e)
                acc.pop()

    rec([], 0)
    return out


class TestPartition:
    def test_sum_must_match(self):
        with pytest.raises(ValueError):
            BakerPartition(2, (1, 1, 1))

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            BakerPartition(2, (3,))

    def test_empty_partition_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            BakerPartition(3, ())

    def test_n_bounded_by_table_limit(self):
        assert baker.MAX_N == 15
        BakerPartition(15, (15,))
        with pytest.raises(ValueError, match="n must lie in"):
            BakerPartition(16, (16,))
        with pytest.raises(ValueError):
            baker.partition_tables(16, [(16,)])

    def test_parse_and_str(self):
        p = BakerPartition.parse(3, "2,1,1")
        assert p.q == (2, 1, 1)
        assert str(p) == "2,1,1"


class TestAdmissible:
    def test_paper_decomposition(self):
        assert baker.is_admissible(BakerPartition(3, (2, 1, 1)))

    def test_two_halves(self):
        assert baker.is_admissible(BakerPartition(2, (1, 1)))

    def test_divisibility_failure(self):
        # 2^1 does not divide the prefix sum 2^0 = 1
        assert not baker.is_admissible(BakerPartition(2, (0, 1, 0)))
        assert baker.is_admissible(BakerPartition(2, (0, 0, 1)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_enumeration_matches_brute_force(self, n):
        expected = [q for q in all_partitions_brute(n)
                    if baker.is_admissible(BakerPartition(n, q))]
        got = [p.q for p in baker.enumerate_admissible(n)]
        assert got == sorted(expected)

    def test_n1_enumeration(self):
        assert [p.q for p in baker.enumerate_admissible(1)] == [(0, 0), (1,)]

    def test_n2_contains_known(self):
        qs = {p.q for p in baker.enumerate_admissible(2)}
        assert {(2,), (1, 1), (0, 0, 1), (0, 0, 0, 0), (1, 0, 0)} <= qs

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            baker.enumerate_admissible(9)

    def test_enumeration_guard_stops_at_n6(self):
        # 2.1e11 partitions at n=6: the default guard refuses before listing
        with pytest.raises(ValueError):
            baker.enumerate_admissible(6)


class TestRanking:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unrank_matches_enumeration_everywhere(self, n):
        # enumerate_admissible unranks every index, so this checks _ranking
        # against an independent depth-first lister
        want = oracles.admissible_partitions(n)
        assert baker.count_admissible(n) == len(want)
        assert [p.q for p in baker.enumerate_admissible(n)] == want

    def test_counts_beyond_enumeration(self):
        assert baker.count_admissible(5) == 458_330
        assert 2.1e11 < baker.count_admissible(6) < 2.2e11
        for n in (6, 7, 8):  # against the oracle's own DP, not the program's table
            assert baker.count_admissible(n) == oracles.completions(n)[0]
        # the walk stays int64 while the count fits it, and uses Python ints past it
        assert baker._ranking(6)[1].dtype == np.int64
        assert baker._ranking(7)[1].dtype == object

    def test_unranked_partitions_admissible_at_n8(self):
        total = baker.count_admissible(8)
        for i in (0, 1, total // 3, total // 2, total - 1):
            assert baker.is_admissible(oracles.unrank_admissible(8, i))
        assert oracles.unrank_admissible(8, 0).q == (0,) * 256
        assert oracles.unrank_admissible(8, total - 1).q == (8,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_unrank_matches_scalar_walk_everywhere(self, n):
        count = baker.count_admissible(n)
        rows = baker.unrank_rows(n, range(count))
        assert rows.dtype == np.int8 and rows.shape[1] == 1 << n  # (0,) * 2^n is rank 0
        got = [tuple(e for e in row if e >= 0) for row in rows.tolist()]
        assert got == [oracles.unrank(n, i) for i in range(count)]

    def test_batched_unrank_matches_scalar_walk_on_sampled_n5(self):
        ranks = np.random.default_rng(5).integers(0, baker.count_admissible(5), 2048)
        rows = baker.unrank_rows(5, ranks)
        got = [tuple(e for e in row if e >= 0) for row in rows.tolist()]
        assert got == [oracles.unrank(5, int(i)) for i in ranks]
        # rows pad with -1 after each list, to the longest list
        assert max(len(q) for q in got) == rows.shape[1]

    def test_batched_unrank_past_int64_at_n8(self):
        # every n = 8 rank walks as Python ints, whether or not it fits int64
        count = baker.count_admissible(8)
        wide = [0, count - 1, 1 << 63, (1 << 63) + 12_345, count // 3]
        narrow = [(1 << 63) - 2, (1 << 62) + 99, 7]
        for ranks in (wide, narrow, [(1 << 63) - 1]):
            got = [tuple(e for e in row if e >= 0) for row in baker.unrank_rows(8, ranks).tolist()]
            assert got == [oracles.unrank(8, i) for i in ranks]
        for i in (*wide, *narrow):
            assert oracles.unrank_admissible(8, i).q == oracles.unrank(8, i)

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            oracles.unrank_admissible(3, baker.count_admissible(3))
        with pytest.raises(ValueError):
            oracles.unrank_admissible(3, -1)
        with pytest.raises(ValueError):
            baker.count_admissible(0)
        for ranks in ([0, baker.count_admissible(4)], [-1, 0], [0.5]):
            with pytest.raises(ValueError):
                baker.unrank_rows(4, ranks)


class TestRankTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_pointwise_oracle(self, n):
        listed = baker.enumerate_admissible(n)
        got = oracles.rank_tables(n, range(len(listed)))
        assert got.shape == (len(listed), 4**n)
        for row, p in zip(got, listed):
            assert row.tolist() == permutation_table(p)

    def test_sampled_ranks_at_n5_in_any_order(self):
        ranks = [baker.count_admissible(5) - 1, 0, 123_456, 7, 123_456]
        got = oracles.rank_tables(5, ranks)
        for row, i in zip(got, ranks):
            assert row.tolist() == permutation_table(oracles.unrank_admissible(5, i))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracles.rank_tables(16, [0])


class TestApply:
    def test_hand_example(self):
        # x'=2*1+0=2, y'=(2-0)/2=1
        assert oracles.apply(BakerPartition(2, (1, 1)), (1, 2)) == (2, 1)

    def test_single_strip_is_identity(self):
        p = BakerPartition(3, (3,))
        for x in range(8):
            for y in range(8):
                assert oracles.apply(p, (x, y)) == (x, y)

    def test_full_table_against_brute_force(self):
        p = BakerPartition(3, (2, 1, 1))
        for x in range(8):
            for y in range(8):
                assert oracles.apply(p, (x, y)) == brute_force_baker(3, p.q, x, y)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            oracles.apply(BakerPartition(2, (1, 1)), (4, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijection_everywhere(self, n):
        tables = oracles.rank_tables(n, range(baker.count_admissible(n)))
        assert (np.sort(tables, axis=1) == np.arange(4**n)).all()

    def test_strip_images_tile_bands(self):
        p = BakerPartition(3, (2, 1, 1))
        prefix = 0
        for e in p.q:
            width = 2**e
            images = {
                oracles.apply(p, (x, y))
                for x in range(prefix, prefix + width)
                for y in range(8)
            }
            assert {pt[0] for pt in images} == set(range(8))
            assert {pt[1] for pt in images} == set(range(prefix, prefix + width))
            prefix += width


class TestApplyMs:
    def test_identity_at_s_equals_n(self):
        for x in range(8):
            for y in range(8):
                assert oracles.apply_ms(3, 3, (x, y)) == (x, y)

    def test_hand_example(self):
        assert oracles.apply_ms(1, 2, (1, 2)) == (2, 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_apply_on_first_strip(self, n):
        for p in baker.enumerate_admissible(n):
            q1 = p.q[0]
            for x in range(2**q1):
                for y in range(2**n):
                    assert oracles.apply(p, (x, y)) == oracles.apply_ms(q1, n, (x, y))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_strip_formula_equals_ms_on_aligned_strips(self, n):
        # Every (strip width, strip start) an admissible partition can produce
        # is a 2^q-aligned pair, so checking all such pairs covers every strip
        # of every admissible partition at this n.
        for q in range(n + 1):
            for start in range(0, 2**n, 2**q):
                exponents = ([q] * (start // 2**q)) if start else []
                probe = tuple(exponents + [q] * ((2**n - start) // 2**q))
                p = BakerPartition(n, probe)
                for x in range(start, start + 2**q):
                    for y in range(2**n):
                        assert oracles.apply(p, (x, y)) == oracles.apply_ms(q, n, (x, y))

    def test_bounds(self):
        with pytest.raises(ValueError):
            oracles.apply_ms(3, 2, (0, 0))


class TestInverseAndIterate:
    def test_iterate_zero_is_identity(self):
        p = BakerPartition(2, (1, 1))
        assert oracles.iterate(p, 0, (3, 1)) == (3, 1)

    def test_iterate_matches_table(self):
        # the cipher's stacked r-fold tables, checked pointwise against iterate
        n = 2
        ranks = np.repeat(np.arange(baker.count_admissible(n)), 4)
        iters = np.tile([0, 1, 5, 16], baker.count_admissible(n))
        tables, at = oracles.iterated_tables(n, ranks, iters)
        for row, i, r in zip(tables[at], ranks, iters):
            p = oracles.unrank_admissible(n, int(i))
            for x in range(4):
                for y in range(4):
                    nx, ny = oracles.iterate(p, int(r), (x, y))
                    assert row[x * 4 + y] == nx * 4 + ny

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            oracles.iterate(BakerPartition(2, (1, 1)), -1, (0, 0))


@settings(max_examples=40)
@given(st.integers(0, 25), st.integers(0, 63))
def test_apply_is_injective_on_sampled_pairs(pidx, point):
    parts = baker.enumerate_admissible(3)
    p = parts[pidx % len(parts)]
    x, y = divmod(point, 8)
    image = oracles.apply(p, (x, y))
    table = permutation_table(p)
    assert table.count(image[0] * 8 + image[1]) == 1
