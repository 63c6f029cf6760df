"""Hypothesis properties against independent oracles: the predicate kernels
against their generator-expression references on arbitrary int tuples, the
split of a member at a block end, and the bijection against pairs laid out
by hand."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from arndt.bijection import arndt_to_reduced_ap, reduced_ap_to_arndt
from arndt.compositions import is_arndt, is_reduced_ap_representative
from conftest import BLOCK_WALKED, block_period
from reference_predicates import assert_kernels_agree

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
