import pytest

from arndt.bijection import arndt_to_reduced_ap, reduced_ap_to_arndt
from arndt.compositions import (ARNDT, REDUCED_AP, is_arndt,
                                is_reduced_ap_representative)
from arndt.counting import compositions_of, family_members
from reference_predicates import (reference_arndt_to_reduced_ap,
                                  reference_reduced_ap_to_arndt)


def test_worked_example():
    assert reduced_ap_to_arndt((2, 3, 6, 2, 1)) == (2, 1, 3, 2, 6)
    assert arndt_to_reduced_ap((2, 1, 3, 2, 6)) == (2, 3, 6, 2, 1)


def test_small_cases():
    assert reduced_ap_to_arndt((5,)) == (5,)
    assert reduced_ap_to_arndt((3, 1)) == (3, 1)
    assert reduced_ap_to_arndt(()) == ()
    assert arndt_to_reduced_ap(()) == ()
    assert arndt_to_reduced_ap((2, 1, 2, 1)) == (2, 2, 1, 1)
    assert is_reduced_ap_representative((2, 2, 1, 1))


def test_domain_errors():
    with pytest.raises(ValueError):
        reduced_ap_to_arndt((1, 2, 6, 3, 2))    # not the representative
    with pytest.raises(ValueError):
        arndt_to_reduced_ap((1, 2))             # not Arndt


@pytest.mark.parametrize("n", range(13))
def test_bijectivity(n):
    reduced = list(family_members(n, REDUCED_AP))
    image = [reduced_ap_to_arndt(c) for c in reduced]
    for src, dst in zip(reduced, image):
        assert is_arndt(dst)
        assert sum(dst) == sum(src) and len(dst) == len(src)
        assert arndt_to_reduced_ap(dst) == src
    arndt_set = {c for c in compositions_of(n) if is_arndt(c)}
    assert len(set(image)) == len(image)
    assert set(image) == arndt_set


def test_slicing_maps_equal_the_loop_maps():
    reduced = [c for n in range(17) for c in family_members(n, REDUCED_AP)]
    arndt = [c for n in range(17) for c in family_members(n, ARNDT)]
    assert len(reduced) + len(arndt) == 5168
    for comp in reduced:
        assert reduced_ap_to_arndt(comp) == \
            reference_reduced_ap_to_arndt(comp), comp
    for comp in arndt:
        assert arndt_to_reduced_ap(comp) == \
            reference_arndt_to_reduced_ap(comp), comp
