from collections import Counter
from itertools import chain, islice

import pytest

from conftest import (ARNDT_OF_6, PREFIX_BOUND, TABLE_LAST, TABLE_PARTS,
                      block_period)
from reference_predicates import reference_compositions_of, reference_mirrored
from arndt import counting
from arndt.compositions import (ALL_COMPOSITIONS, ANTIPALINDROMIC, ARNDT,
                                FAMILY_KINDS, REDUCED_AP, Family, is_arndt)
from arndt.counting import (WHOLE, BruteForceCapExceeded, compositions_of,
                            count_by_last, count_by_parts, family_blocks,
                            family_members, reduced_antipalindromic, tally,
                            total_last, total_parts)
from arndt.formulas import CountTriangle, fibonacci
from arndt.verify import _SAMPLE_K

# Every family kind, the parameterised ones at the k values verify samples.
_KIND_K = {"k-arndt": _SAMPLE_K["gf_k_arndt"],
           "block-arndt": _SAMPLE_K["gf_k_block"]}
EVERY_FAMILY = [Family(kind, k)
                for kind, (_, takes_k, *_) in FAMILY_KINDS.items()
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
def test_family_members_is_the_filtered_stream(family, references_to_16):
    for reference in references_to_16[:13]:
        assert list(family_members(reference.n, family)) == \
            reference.members(family)
    with pytest.raises(BruteForceCapExceeded):
        next(family_members(29, family))


# Every family with a prefix bound, at the k values its pruned stream is
# gated on, and the two families with a mirror rule.
MIRRORED = [ANTIPALINDROMIC, REDUCED_AP]
PRUNED = PREFIX_BOUND + MIRRORED


def test_pruned_streams_equal_the_filtered_stream(references_to_16):
    for reference in references_to_16:
        n = reference.n
        assert list(compositions_of(n)) == reference.every, n
        for family in PRUNED + [ALL_COMPOSITIONS]:
            assert list(family_members(n, family)) == \
                reference.members(family), (n, str(family))


def test_reduced_ap_walk_equals_the_filtered_stream_to_18():
    # The walk starts each first-half part at 2, the least part a smaller
    # mirror fits opposite; gated beyond the other kinds' range.
    for n in range(17, 19):
        assert list(family_members(n, REDUCED_AP)) == \
            [c for c in reference_compositions_of(n)
             if REDUCED_AP.member(c)], n


def assert_same_stream(got, want):
    """got yields what want yields, compared a chunk at a time."""
    got, want = iter(got), iter(want)
    while chunk := list(islice(want, 4096)):
        assert list(islice(got, len(chunk))) == chunk
    assert next(got, None) is None


def test_mirrored_streams_equal_the_merged_length_walks():
    # The per-length walks merged in order, which the mirrored walk
    # replaced; the two tests above compare the filtered stream, to the
    # same weights.
    for family, most in ((ANTIPALINDROMIC, 16), (REDUCED_AP, 18)):
        for n in range(most + 1):
            assert_same_stream(family_members(n, family),
                               reference_mirrored(n, family))


def test_walks_equal_the_reference_past_the_tail_weight(reference_past_16):
    n = reference_past_16.n
    assert_same_stream(compositions_of(n), reference_past_16.every)
    for family in (ARNDT, Family("k-arndt", -3)):
        assert_same_stream(family_members(n, family),
                           reference_past_16.members(family))


def joined_in_python(n, family):
    """The blocks of family_blocks(n, family), each prefix joined to each of
    its tails in Python, a list per block.  A walked family's prefix must
    pass family.member, and one that comes with stored tails must end a
    block, so that none of the family's pairs or blocks spans it and a
    tail.  A mirrored family's prefix is no member in general: it must be
    nonempty past weight 0 and come with a nonempty list of at most
    2^(TAIL_WEIGHT-1) tails, and each member it joins to must pass
    family.member."""
    for prefix, tails in family_blocks(n, family):
        members = [prefix + tail for tail in tails]
        if family.mirror is None:
            assert family.member(prefix), prefix
            if tails is not WHOLE:
                assert prefix and len(prefix) % block_period(family) == 0, \
                    prefix
        else:
            assert prefix or n == 0, tails
            assert 0 < len(tails) <= 2 ** (counting.TAIL_WEIGHT - 1), prefix
            assert all(map(family.member, members)), prefix
        yield members


def test_block_streams_join_to_the_filtered_stream(references_to_16):
    for reference in references_to_16:
        for family in PRUNED + [ALL_COMPOSITIONS]:
            assert list(chain.from_iterable(joined_in_python(
                reference.n, family))) == reference.members(family), \
                (reference.n, str(family))


def test_block_streams_join_to_the_reference_past_the_tail_weight(
        reference_past_16):
    n = reference_past_16.n
    for family in (ALL_COMPOSITIONS, ARNDT, Family("k-arndt", -3)):
        assert_same_stream(chain.from_iterable(joined_in_python(n, family)),
                           reference_past_16.members(family))


# The statistics as tallied member by member, the reference for tally.
MEMBER_STATISTICS = {"parts": len, "last": lambda comp: comp[-1] if comp else 0}


def member_tally(members, statistic):
    return dict(Counter(map(MEMBER_STATISTICS[statistic], members)))


def test_tally_equals_the_member_tally():
    assert set(MEMBER_STATISTICS) == set(counting.STATISTICS)
    for n in range(17):
        for family in PRUNED + [ALL_COMPOSITIONS]:
            for statistic in MEMBER_STATISTICS:
                assert tally(n, family, statistic) == member_tally(
                    family_members(n, family), statistic), \
                    (n, str(family), statistic)


def test_tally_equals_the_member_tally_past_16(reference_past_16):
    for family in (ALL_COMPOSITIONS, ARNDT, Family("k-arndt", -3)):
        for statistic in MEMBER_STATISTICS:
            assert tally(reference_past_16.n, family, statistic) == \
                member_tally(reference_past_16.members(family), statistic), \
                (str(family), statistic)


def test_streams_call_no_predicate(monkeypatch, references_to_16):
    # The bound or the mirror rule alone builds every stream: with
    # Family.member refusing each call, the streams still equal the
    # references built before it was patched.
    families = PRUNED + [ALL_COMPOSITIONS]
    references = references_to_16[:13]
    members = {(r.n, f): r.members(f) for r in references for f in families}
    blocks = {(r.n, f): [(p, list(t)) for p, t in family_blocks(r.n, f)]
              for r in references for f in families}

    def refuse(self, comp):
        raise AssertionError("a stream called Family.member")

    monkeypatch.setattr(Family, "member", refuse)
    for reference in references:
        n = reference.n
        assert list(compositions_of(n)) == reference.every, n
        for family in families:
            want = members[n, family]
            assert [(p, list(t)) for p, t in family_blocks(n, family)] == \
                blocks[n, family], (n, str(family))
            assert list(family_members(n, family)) == want, (n, str(family))
            for statistic in MEMBER_STATISTICS:
                assert tally(n, family, statistic) == \
                    member_tally(want, statistic), (n, str(family), statistic)


def test_member_counts_at_raised_caps():
    assert sum(1 for _ in family_members(27, ARNDT)) == fibonacci(27)
    assert sum(1 for _ in family_members(29, ARNDT, cap=29)) == fibonacci(29)


def spy_walks(monkeypatch):
    """Record (weight, tails dict) of every walk counting._descend starts."""
    walks = []
    descend = counting._descend

    def spy(n, family, cap, tails):
        walks.append((n, tails))
        return descend(n, family, cap, tails)

    monkeypatch.setattr(counting, "_descend", spy)
    return walks


@pytest.mark.parametrize("family", [ARNDT, Family("k-arndt", -3),
                                    Family("block-arndt", 3),
                                    ALL_COMPOSITIONS], ids=str)
def test_each_tail_weight_is_walked_once_per_stream(monkeypatch, family):
    walks = spy_walks(monkeypatch)
    assert sum(1 for _ in family_members(16, family)) > 0
    (top, tails), inner = walks[0], walks[1:]
    assert top == 16 and inner
    weights = [weight for weight, _ in inner]
    assert max(weights) <= counting.TAIL_WEIGHT
    assert len(set(weights)) == len(weights)
    assert all(shared is tails for _, shared in inner)
    assert sorted(tails) == sorted(weights)
    if family == ALL_COMPOSITIONS:
        assert sorted(weights) == list(range(1, counting.TAIL_WEIGHT + 1))


def test_first_composition_comes_before_any_tail(monkeypatch):
    walks = spy_walks(monkeypatch)
    assert next(compositions_of(40, cap=None)) == (40,)
    assert walks == [(40, {})]


def test_pruned_streams_never_walk_every_composition(monkeypatch):
    def refuse(n, cap=None):
        raise AssertionError("the exhaustive stream was walked")

    monkeypatch.setattr(counting, "compositions_of", refuse)
    for family in PRUNED:
        assert sum(1 for _ in family_members(12, family)) > 0


def test_both_streams_check_the_weight_at_the_first_item():
    streams = [compositions_of(29), compositions_of(-1)] + \
        [family_members(n, family) for family in [ARNDT] + MIRRORED
         for n in (29, -1)]
    for stream in streams:  # building a stream checks nothing yet
        with pytest.raises(ValueError):
            next(stream)


def test_pruned_stream_keeps_the_cap_and_its_message():
    for family in [ARNDT] + MIRRORED:
        for n, error in ((29, BruteForceCapExceeded), (-1, ValueError)):
            with pytest.raises(error) as pruned:
                next(family_members(n, family))
            with pytest.raises(error) as exhaustive:
                next(compositions_of(n))
            assert str(pruned.value) == str(exhaustive.value), str(family)
        assert next(family_members(29, family, cap=None)) == (29,)


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
    assert not hasattr(counting, "CountTriangle")  # formulas owns it
    tri = CountTriangle({0: {0: 1}, 1: {1: 1}, 2: {1: 1, 2: 0}}, max_row=2)
    assert tri.get(2, 1) == 1
    assert tri.get(2, 5) == 0           # absent cell inside range is zero
    assert tri.row(2) == {1: 1}         # explicit zero entries are dropped
    assert tri.row_sum(1) == 1
    with pytest.raises(LookupError):
        tri.get(3, 0)                   # beyond built rows is an error
