import pytest

from conftest import ARNDT_OF_6, TABLE_LAST, TABLE_PARTS
from arndt.compositions import ARNDT, FAMILY_KINDS, Family, is_arndt
from arndt.counting import (BruteForceCapExceeded, CountTriangle,
                            compositions_of, count_by_last, count_by_parts,
                            family_members, reduced_antipalindromic,
                            total_last, total_parts)
from arndt.verify import _SAMPLE_K

# Every family kind, the parameterised ones at the k values verify samples.
_KIND_K = {"k-arndt": _SAMPLE_K["gf_k_arndt"],
           "block-arndt": _SAMPLE_K["gf_k_block"]}
EVERY_FAMILY = [Family(kind, k)
                for kind, (_, takes_k, _) in FAMILY_KINDS.items()
                for k in (_KIND_K[kind] if takes_k else (None,))]


def test_compositions_of_4_order():
    assert list(compositions_of(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 3), (1, 2, 1), (1, 1, 2),
        (1, 1, 1, 1)]


def test_compositions_of_edge_cases():
    assert list(compositions_of(0)) == [()]
    assert sum(1 for _ in compositions_of(12)) == 2048
    with pytest.raises(ValueError):
        list(compositions_of(-1))


def test_compositions_stream_properties():
    for n in range(11):
        comps = list(compositions_of(n))
        assert len(comps) == (1 if n == 0 else 2 ** (n - 1))
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n for c in comps)
        assert comps == sorted(comps, reverse=True)


def test_cap():
    with pytest.raises(BruteForceCapExceeded):
        next(compositions_of(29))
    # raising or dropping the cap both unlock the stream
    assert next(compositions_of(29, cap=29)) == (29,)
    assert next(compositions_of(29, cap=None)) == (29,)


def test_arndt_members_of_6():
    members = [c for c in compositions_of(6) if is_arndt(c)]
    assert members == ARNDT_OF_6


@pytest.mark.parametrize("n", sorted(TABLE_PARTS))
def test_count_by_parts_matches_table(n):
    assert count_by_parts(n, ARNDT) == TABLE_PARTS[n]


@pytest.mark.parametrize("n", sorted(TABLE_LAST))
def test_count_by_last_matches_table(n):
    assert count_by_last(n, ARNDT) == TABLE_LAST[n]


def test_count_rows_edge_cases():
    assert count_by_parts(0, ARNDT) == {0: 1}
    assert count_by_last(0, ARNDT) == {0: 1}
    assert count_by_last(1, ARNDT) == {1: 1}


def test_count_by_parts_k_arndt():
    row = count_by_parts(10, Family("k-arndt", 3))
    assert sum(row.values()) == 10


def test_total_parts():
    assert total_parts(0) == 0
    assert total_parts(6) == 21
    assert total_parts(7) == 38


def test_total_last():
    assert total_last(1) == 1
    assert total_last(6) == 17
    assert total_last(7) == 29


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_family_members_is_the_filtered_stream(family):
    for n in range(13):
        assert list(family_members(n, family)) == \
            [c for c in compositions_of(n) if family.member(c)]
    with pytest.raises(BruteForceCapExceeded):
        next(family_members(29, family))


def test_reduced_antipalindromic():
    assert list(reduced_antipalindromic(0)) == [()]
    two_parts = [c for c in reduced_antipalindromic(5) if len(c) == 2]
    assert set(two_parts) == {(4, 1), (3, 2)}
    for n in range(11):
        counts = {}
        for comp in reduced_antipalindromic(n):
            counts[len(comp)] = counts.get(len(comp), 0) + 1
        assert counts == count_by_parts(n, ARNDT)


def test_count_triangle_access():
    tri = CountTriangle({0: {0: 1}, 1: {1: 1}, 2: {1: 1, 2: 0}}, max_row=2)
    assert tri.get(2, 1) == 1
    assert tri.get(2, 5) == 0           # absent cell inside range is zero
    assert tri.row(2) == {1: 1}         # explicit zero entries are dropped
    assert tri.row_sum(1) == 1
    with pytest.raises(LookupError):
        tri.get(3, 0)                   # beyond built rows is an error
