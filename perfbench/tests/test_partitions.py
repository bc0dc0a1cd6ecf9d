import pytest

from qbaker import baker

import partitions


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unrank_matches_enumeration_everywhere(n):
    listed = baker.enumerate_admissible(n)
    assert partitions.count(n) == len(listed)
    assert [partitions.unrank(n, i) for i in range(len(listed))] == [p.q for p in listed]


def test_unrank_matches_enumeration_on_a_stride_at_n5():
    listed = baker.enumerate_admissible(5)
    assert partitions.count(5) == len(listed) == 458_330
    for i in list(range(0, len(listed), 997)) + [len(listed) - 1]:
        assert partitions.unrank(5, i) == listed[i].q


def test_unranked_partitions_are_admissible_beyond_enumeration():
    for n in (6, 8):
        total = partitions.count(n)
        for i in (0, total // 3, total - 1):
            assert baker.is_admissible(baker.BakerPartition(n, partitions.unrank(n, i)))


def test_index_out_of_range_rejected():
    with pytest.raises(ValueError):
        partitions.unrank(3, partitions.count(3))
    with pytest.raises(ValueError):
        partitions.unrank(3, -1)
