import os
import subprocess
import sys
from collections import Counter
from itertools import chain, islice, zip_longest
from pathlib import Path

import pytest

from conftest import (ARNDT_OF_6, PREFIX_BOUND, TABLE_LAST, TABLE_PARTS,
                      block_period)
from reference_predicates import (reference_compositions_of,
                                  reference_mirrored,
                                  reference_mirrored_blocks)
from arndt import counting
from arndt.compositions import (ALL_COMPOSITIONS, ANTIPALINDROMIC, ARNDT,
                                FAMILY_KINDS, REDUCED_AP, STATISTICS, Family,
                                is_arndt)
from arndt.counting import (WHOLE, compositions_of, family_blocks,
                            family_members, tally)
from arndt.formulas import fibonacci
from arndt.verify import _SAMPLE_K

# Every family kind, the parameterised ones at the k values verify samples.
EVERY_FAMILY = [Family(kind, k) for kind in FAMILY_KINDS
                for k in _SAMPLE_K.get(kind, (None,))]


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


def test_streams_take_no_cap():
    # the brute-force cap is the CLI's: a stream past its default starts
    assert next(compositions_of(29)) == (29,)


def test_arndt_members_of_6():
    members = [c for c in compositions_of(6) if is_arndt(c)]
    assert members == ARNDT_OF_6


@pytest.mark.parametrize("n", sorted(TABLE_PARTS))
def test_count_by_parts_matches_table(n):
    assert tally(n, ARNDT, "parts") == TABLE_PARTS[n]


@pytest.mark.parametrize("n", sorted(TABLE_LAST))
def test_count_by_last_matches_table(n):
    assert tally(n, ARNDT, "last") == TABLE_LAST[n]


def test_count_rows_edge_cases():
    assert tally(0, ARNDT, "parts") == {0: 1}
    assert tally(0, ARNDT, "last") == {0: 1}
    assert tally(1, ARNDT, "last") == {1: 1}


def test_count_by_parts_k_arndt():
    row = tally(10, Family("k-arndt", 3), "parts")
    assert sum(row.values()) == 10


def _total(n, statistic):
    """The statistic summed over the Arndt compositions of n."""
    return sum(m * c for m, c in tally(n, ARNDT, statistic).items())


def test_total_parts():
    assert _total(0, "parts") == 0
    assert _total(6, "parts") == 21
    assert _total(7, "parts") == 38


def test_total_last():
    assert _total(1, "last") == 1
    assert _total(6, "last") == 17
    assert _total(7, "last") == 29


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_family_members_is_the_filtered_stream(family, references_to_16):
    for reference in references_to_16[:13]:
        assert list(family_members(reference.n, family)) == \
            reference.members(family)
    assert next(family_members(29, family)) == (29,)


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


def test_the_first_block_is_the_one_part_member():
    # The writer writes a block as one item, and the first item of a
    # stream alone: so the first block must be one line.
    for n in range(17):
        for family in PRUNED + [ALL_COMPOSITIONS]:
            assert next(family_blocks(n, family)) == \
                ((n,) if n else (), WHOLE), (n, str(family))


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
    for family, most in ((ANTIPALINDROMIC, 19), (REDUCED_AP, 22)):
        for n in range(most + 1):
            assert_same_stream(family_members(n, family),
                               reference_mirrored(n, family))


def test_mirrored_blocks_equal_the_replaced_block_walk():
    # The walk that finished each block per length, the last two parts in
    # one loop, which the frame finish replaced: the same prefixes in the
    # same order, each with the same tails.
    for family, most in ((ANTIPALINDROMIC, 21), (REDUCED_AP, 24)):
        for n in range(most + 1):
            for got, want in zip_longest(family_blocks(n, family),
                                         reference_mirrored_blocks(n, family)):
                assert got is not None and want is not None, (n, got, want)
                assert (got[0], list(got[1])) == want, (n, str(family))


# Drains the blocks of each (n, kind, k) listed in argv[1] and prints the
# traced peak; the frame and stored caches are empty in a fresh process.
_TRACED_STREAMS = """
import ast, sys, tracemalloc
from arndt.compositions import Family
from arndt.counting import family_blocks
tracemalloc.start()
for n, kind, k in ast.literal_eval(sys.argv[1]):
    for _ in family_blocks(n, Family(kind, k)):
        pass
print(tracemalloc.get_traced_memory()[1])
"""


def test_mirrored_walk_holds_a_bounded_frame_cache():
    # The traced peak while the blocks are drained (Python 3.11): 465 KiB for
    # antipalindromic at n = 21, 455 KiB for reduced-ap at n = 24, and
    # 676 KiB over the mixed sequence.  The frames hold masks only, and the
    # compositions of each weight up to TAIL_WEIGHT are stored once for
    # every mirror and stream, so the peak does not grow with n.  Each case
    # runs in a fresh process: a warm one reuses freed tuples from the
    # interpreter's free lists without new traced allocations, and so reads
    # lower than the peak bounded here.
    mixed = ((20, ALL_COMPOSITIONS), (20, Family("k-arndt", -3)),
             (21, ANTIPALINDROMIC), (24, REDUCED_AP), (22, ARNDT),
             (16, Family("block-arndt", 1)))
    src = Path(counting.__file__).resolve().parents[1]
    for streams in (((21, ANTIPALINDROMIC),), ((24, REDUCED_AP),), mixed):
        listed = repr([(n, f.kind, f.k) for n, f in streams])
        result = subprocess.run([sys.executable, "-c", _TRACED_STREAMS, listed],
                                capture_output=True, text=True, check=True,
                                env=dict(os.environ, PYTHONPATH=str(src)))
        peak = int(result.stdout)
        assert peak <= 1.5 * 2 ** 20, (listed, peak)


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
    assert set(MEMBER_STATISTICS) == set(STATISTICS)
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
    assert sum(1 for _ in family_members(29, ARNDT)) == fibonacci(29)


def spy_walks(monkeypatch):
    """Record the weight of every walk counting._descend starts, from an
    empty store of tails."""
    walks = []
    descend = counting._descend

    def spy(n, bound):
        walks.append(n)
        return descend(n, bound)

    counting._stored.cache_clear()
    monkeypatch.setattr(counting, "_descend", spy)
    return walks


WALKED = [ARNDT, Family("k-arndt", -3), Family("block-arndt", 3),
          ALL_COMPOSITIONS]


@pytest.mark.parametrize("family", WALKED, ids=str)
def test_each_tail_weight_is_walked_once_per_stream(monkeypatch, family):
    walks = spy_walks(monkeypatch)
    members = list(family_members(16, family))
    top, inner = walks[0], walks[1:]
    assert top == 16 and inner
    assert max(inner) <= counting.TAIL_WEIGHT
    assert len(set(inner)) == len(inner)
    assert counting._stored.cache_info().currsize == len(inner)
    if family == ALL_COMPOSITIONS:
        assert sorted(inner) == list(range(1, counting.TAIL_WEIGHT + 1))
    # A second stream walks no tail weight again.
    walks.clear()
    assert list(family_members(16, family)) == members
    assert walks == [16]


@pytest.mark.parametrize("family", WALKED, ids=str)
def test_streams_of_a_family_share_the_stored_tails(family):
    first, second = (list(family_blocks(16, family)) for _ in range(2))
    assert [prefix for prefix, _ in first] == [prefix for prefix, _ in second]
    assert any(tails is not WHOLE for _, tails in first)
    assert all(a is b for (_, a), (_, b) in zip(first, second))


def test_first_composition_comes_before_any_tail(monkeypatch):
    walks = spy_walks(monkeypatch)
    assert next(compositions_of(40)) == (40,)
    assert walks == [40]
    assert counting._stored.cache_info().currsize == 0


def test_pruned_streams_never_walk_every_composition(monkeypatch):
    def refuse(n):
        raise AssertionError("the exhaustive stream was walked")

    monkeypatch.setattr(counting, "compositions_of", refuse)
    for family in PRUNED:
        assert sum(1 for _ in family_members(12, family)) > 0


def test_both_streams_check_the_weight_at_the_first_item():
    streams = [compositions_of(-1)] + \
        [family_members(-1, family) for family in [ARNDT] + MIRRORED]
    for stream in streams:  # building a stream checks nothing yet
        with pytest.raises(ValueError):
            next(stream)


def test_pruned_stream_refuses_a_negative_weight_with_its_message():
    # Every kind is refused by family_blocks at the first draw, not before,
    # with the message of the exhaustive stream, and also by tally.  No
    # stream takes a cap: each kind starts at weight 29.
    for family in [Family(kind, {"k-arndt": -3, "block-arndt": 3}.get(kind))
                   for kind in FAMILY_KINDS]:
        blocks = family_blocks(-1, family)
        with pytest.raises(ValueError) as exhaustive:
            next(compositions_of(-1))
        for draw in (lambda: next(blocks),
                     lambda: next(family_members(-1, family)),
                     lambda: tally(-1, family, "parts")):
            with pytest.raises(ValueError) as pruned:
                draw()
            assert type(pruned.value) is ValueError, str(family)
            assert str(pruned.value) == str(exhaustive.value), str(family)
        prefix, tails = next(family_blocks(29, family))
        assert prefix + tails[0] == (29,)
        assert next(family_members(29, family)) == (29,)


def test_reduced_antipalindromic():
    assert list(family_members(0, REDUCED_AP)) == [()]
    two_parts = [c for c in family_members(5, REDUCED_AP) if len(c) == 2]
    assert set(two_parts) == {(4, 1), (3, 2)}
    for n in range(11):
        counts = {}
        for comp in family_members(n, REDUCED_AP):
            counts[len(comp)] = counts.get(len(comp), 0) + 1
        assert counts == tally(n, ARNDT, "parts")
