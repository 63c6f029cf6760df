"""Hypothesis properties against independent oracles: the predicate kernels
against their generator-expression references on arbitrary int tuples, the
split of a member at a block end, the plain grid's column width against
its width over every cell, the prefix-bound walks at any k against
the predicate-filtered stream, the mirrored block walks against the merged
per-length walks, the frames that face a prefix against the filtered
compositions, and the bijection against pairs laid out by hand."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from arndt import cli
from arndt.bijection import arndt_to_reduced_ap, reduced_ap_to_arndt
from arndt.compositions import (ANTIPALINDROMIC, REDUCED_AP, Family,
                                is_arndt, is_reduced_ap_representative)
from arndt.counting import _clamped, _facing, family_blocks, family_members
from conftest import BLOCK_WALKED, block_period
from reference_predicates import (MIRROR_RULES, assert_kernels_agree,
                                  reference_compositions_of,
                                  reference_mirrored)

MOST_WEIGHT = 500


@given(st.lists(st.integers(-4, 6), max_size=12).map(tuple))
def test_kernels_equal_the_reference_predicates_on_int_tuples(comp):
    # Odd lengths, repeated parts and parts below 1 included.
    assert_kernels_agree(comp)


@given(st.sampled_from(BLOCK_WALKED),
       st.lists(st.integers(1, 12), max_size=12).map(tuple),
       st.lists(st.integers(1, 12), max_size=12).map(tuple))
def test_members_split_at_each_block_end(family, prefix, tail):
    # A prefix cut back to a whole number of blocks, then any tail.
    prefix = prefix[:len(prefix) - len(prefix) % block_period(family)]
    assert family.member(prefix + tail) == \
        (family.member(prefix) and family.member(tail))


@settings(deadline=None)
@given(st.one_of(st.builds(Family, st.just("k-arndt"), st.integers(-12, 12)),
                 st.builds(Family, st.just("block-arndt"), st.integers(1, 12))),
       st.integers(0, 12))
def test_bound_walks_equal_the_filtered_stream_at_any_k(family, n):
    # k well past the -4..4 and 1..5 that the fixed gates walk.
    assert list(family_members(n, family)) == \
        [c for c in reference_compositions_of(n) if family.member(c)]


@st.composite
def small_compositions(draw, most=14):
    """A composition of weight at most `most`, drawn a part at a time."""
    parts, left = [], draw(st.integers(0, most))
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return tuple(parts)


@given(st.sampled_from([ANTIPALINDROMIC, REDUCED_AP]), small_compositions())
def test_mirrored_blocks_hold_the_members_in_order(family, comp):
    # Blocks in decreasing prefix order, each prefix nonempty past weight 0
    # and its tails decreasing, join to the merged per-length walks; a
    # composition of that weight is among them just when it is a member.
    n = sum(comp)
    blocks = list(family_blocks(n, family))
    prefixes = [prefix for prefix, _ in blocks]
    assert prefixes == sorted(set(prefixes), reverse=True)
    assert all(prefixes) or n == 0
    for _, tails in blocks:
        assert list(tails) == sorted(set(tails), reverse=True)
    members = [prefix + tail for prefix, tails in blocks for tail in tails]
    assert members == list(reference_mirrored(n, family))
    assert (comp in members) == family.member(comp)


@st.composite
def frames(draw):
    """A weight rest <= 14, whether parts above their mirror are allowed,
    and 1 to 6 mirrors from 1..rest+3, unclamped."""
    rest = draw(st.integers(0, 14))
    return rest, draw(st.booleans()), tuple(draw(st.lists(
        st.integers(1, rest + 3), min_size=1, max_size=6)))


@given(frames())
def test_facing_tails_are_the_filtered_compositions(frame):
    # Each part p against its mirror m by the reference walks' own rule;
    # the clamped mirrors give the same list as the unclamped ones.
    rest, above, mirrors = frame
    allow = MIRROR_RULES["antipalindromic" if above else "reduced-ap"]
    want = [c for c in reference_compositions_of(rest)
            if len(c) == len(mirrors)
            and all(allow(p, m) == p for p, m in zip(c, mirrors))]
    assert _facing(rest, above, mirrors) == want
    assert _facing(rest, above, _clamped(rest, mirrors)) == want


@st.composite
def descending_pairs(draw):
    """Pairs (a, b) with a > b >= 1, drawn one by one, and at most one lone
    part, all of total weight at most MOST_WEIGHT."""
    pairs, left = [], MOST_WEIGHT
    for _ in range(draw(st.integers(0, 40))):
        if left < 3:
            break
        b = draw(st.integers(1, (left - 1) // 2))
        a = draw(st.integers(b + 1, left - b))
        pairs.append((a, b))
        left -= a + b
    lone = (draw(st.integers(1, left)),) if left and draw(st.booleans()) \
        else ()
    return pairs, lone


@given(descending_pairs())
def test_bijection_round_trips_on_pairs_laid_out_by_hand(drawn):
    pairs, lone = drawn
    # Arndt: the pairs side by side.  Reduced representative: the pairs
    # nested from the outside in, with the lone part in the middle.
    arndt = tuple(part for pair in pairs for part in pair) + lone
    reduced = tuple(a for a, _ in pairs) + lone + \
        tuple(b for _, b in reversed(pairs))
    assert sum(arndt) <= MOST_WEIGHT
    assert is_arndt(arndt) and is_reduced_ap_representative(reduced)
    assert arndt_to_reduced_ap(arndt) == reduced
    assert reduced_ap_to_arndt(reduced) == arndt
    assert reduced_ap_to_arndt(arndt_to_reduced_ap(arndt)) == arndt
    assert arndt_to_reduced_ap(reduced_ap_to_arndt(reduced)) == reduced


@given(st.lists(st.dictionaries(st.integers(0, 30),
                                st.integers(-10 ** 12, 10 ** 12)
                                | st.integers(-99, 99), max_size=8),
                max_size=12),
       st.integers(0, 10 ** 4))
def test_grid_width_equals_the_width_over_every_cell(rows, first):
    # Rows at increasing weights from `first`, with negative cells and
    # empty rows included.
    rows = list(enumerate(rows, first))
    max_m = max((max(row) for _, row in rows if row), default=0)
    every_cell = max([len(str(max_m)), len("n\\m")]
                     + [len(str(v)) for n, row in rows
                        for v in (n, *row.values())])
    assert cli._grid_width(rows, max_m) == every_cell
