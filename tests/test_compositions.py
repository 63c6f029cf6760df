from operator import lt, ne

import pytest

from arndt.compositions import (ANTIPALINDROMIC, ARNDT, FAMILY_KINDS, Family,
                                flip_class, is_antipalindromic, is_arndt,
                                is_k_arndt, is_k_block_arndt,
                                is_reduced_ap_representative)
from arndt.counting import compositions_of
from conftest import BLOCK_WALKED, block_period
from reference_predicates import assert_kernels_agree


def test_is_arndt():
    assert is_arndt((2, 1, 2, 1))
    assert is_arndt(())
    assert not is_arndt((1, 1, 2))
    assert is_arndt((3, 1, 2))          # trailing unpaired part is free
    assert not is_arndt((1, 2))


def test_is_k_arndt():
    assert is_k_arndt((5, 1, 4), 3)
    assert is_k_arndt((1, 2), -3)       # 1 > 2 - 3
    assert not is_k_arndt((5, 2), 3)
    for n in range(11):
        for comp in compositions_of(n):
            assert is_k_arndt(comp, 0) == is_arndt(comp)


def test_is_k_block_arndt():
    assert is_k_block_arndt((4, 2, 1, 2, 1), 3)
    assert is_k_block_arndt((5, 3, 1, 1), 3)    # trailing (1) vacuous
    assert not is_k_block_arndt((5, 1, 1, 1), 3)
    assert not is_k_block_arndt((4, 1, 2, 3), 3)
    for n in range(9):
        for comp in compositions_of(n):
            assert is_k_block_arndt(comp, 1)
            assert is_k_block_arndt(comp, 2) == is_arndt(comp)


def test_is_k_block_arndt_rejects_bad_k():
    for comp in [(), (3, 1), (1, 2, 3)]:
        for k in (0, -1, -8):
            with pytest.raises(ValueError,
                               match="^family 'block-arndt' needs k >= 1$"):
                is_k_block_arndt(comp, k)


def test_is_antipalindromic():
    assert is_antipalindromic((1, 2, 6, 3, 2))
    assert is_antipalindromic(())
    assert not is_antipalindromic((1, 2, 1))
    assert is_antipalindromic((7,))     # middle index exempt


def test_is_reduced_ap_representative():
    assert is_reduced_ap_representative((2, 3, 6, 2, 1))
    assert not is_reduced_ap_representative((1, 2, 6, 3, 2))
    assert is_reduced_ap_representative((5,))
    assert is_reduced_ap_representative(())


def test_flip_class_worked_example():
    cls = flip_class((1, 2, 6, 3, 2))
    assert cls == {(1, 2, 6, 3, 2), (2, 2, 6, 3, 1), (1, 3, 6, 2, 2),
                   (2, 3, 6, 2, 1)}
    assert sum(is_reduced_ap_representative(c) for c in cls) == 1


def test_flip_class_small():
    assert flip_class((7,)) == {(7,)}
    assert flip_class((3, 1)) == {(3, 1), (1, 3)}


def test_flip_class_rejects_non_antipalindromic():
    with pytest.raises(ValueError):
        flip_class((1, 2, 1))


@pytest.mark.parametrize("n", range(11))
def test_flip_class_sizes(n):
    for comp in compositions_of(n):
        if is_antipalindromic(comp):
            cls = flip_class(comp)
            assert len(cls) == 1 << (len(comp) // 2)
            assert sum(is_reduced_ap_representative(c) for c in cls) == 1


def test_family_validation():
    assert ARNDT.member((2, 1))
    assert Family("k-arndt", -2).member((1, 2))
    assert Family("block-arndt", 3).member((5, 3, 1, 1))
    assert ANTIPALINDROMIC.member((1, 2, 6, 3, 2))
    assert Family("all").member((1, 1, 1))
    with pytest.raises(ValueError):
        Family("k-arndt")               # k required
    with pytest.raises(ValueError):
        Family("block-arndt", 0)        # k >= 1
    with pytest.raises(ValueError):
        Family("arndt", 2)              # no parameter
    with pytest.raises(ValueError):
        Family("fibonacci")


@pytest.mark.parametrize("family, text, shown", [
    (ARNDT, "arndt", "Family(kind='arndt', k=None)"),
    (Family("all"), "all", "Family(kind='all', k=None)"),
    (Family("k-arndt", -1), "k-arndt(k=-1)", "Family(kind='k-arndt', k=-1)"),
    (Family("block-arndt", 3), "block-arndt(k=3)",
     "Family(kind='block-arndt', k=3)")],
    ids=["arndt", "all", "k-arndt", "block-arndt"])
def test_a_family_is_the_immutable_record_of_its_kind_and_k(family, text,
                                                            shown):
    kind, k = family
    assert repr(family) == shown
    assert str(family) == text
    assert hash(family) == hash((kind, k))
    assert family == Family(kind, k)
    assert (family == ARNDT) == (kind == "arndt")
    assert (family == Family("all")) == (kind == "all")
    bound = family.bound
    with pytest.raises(AttributeError):
        family.k = 3
    assert family.k == k and family.bound == bound


@pytest.mark.parametrize("kind", ["k-arndt", "block-arndt"])
@pytest.mark.parametrize("k", [1.5, 2.0, "2", True])
def test_family_rejects_a_k_that_is_not_an_int(kind, k):
    # A float k once pruned the member stream by a fractional drop, so the
    # stream and the predicate disagreed; only an int k is a parameter.
    with pytest.raises(ValueError, match=f"family '{kind}' needs an integer k"):
        Family(kind, k)


def test_kernels_equal_the_reference_predicates_on_every_composition():
    truths = set()
    for n in range(15):
        for comp in compositions_of(n):
            assert_kernels_agree(comp)
            truths.add((is_arndt(comp), is_antipalindromic(comp),
                        is_reduced_ap_representative(comp)))
    assert len(truths) > 3  # both answers of every predicate were compared


@pytest.mark.parametrize("family", BLOCK_WALKED, ids=str)
def test_a_composition_splits_at_each_block_end(family, references_to_16):
    # At every cut after a multiple of the period, no pair or block spans
    # the cut: member(p + t) == member(p) and member(t).  This is what lets
    # the walk test each prefix and each stored tail once, not each member.
    comps = [c for reference in references_to_16[:15] for c in reference.every]
    members = set(filter(family.member, comps))
    step = block_period(family)
    assert [(c[:j], c[j:]) for c in comps for j in range(step, len(c), step)
            if (c in members) != (c[:j] in members and c[j:] in members)
            ] == []


def test_every_mirror_is_a_comparison_the_walk_implements():
    # counting._mirrored reads the least part opposite which another is
    # allowed as 2 - mirror(2, 1), and counting._frames a mirror past every
    # part as one that refuses none: both hold for p != m and for p < m.
    mirrors = [mirror for _, _, mirror in FAMILY_KINDS.values() if mirror]
    assert mirrors
    assert all(mirror is ne or mirror is lt for mirror in mirrors), mirrors
