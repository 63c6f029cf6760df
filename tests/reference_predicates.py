"""The membership predicates as generator expressions over indices, as they
were before their loops moved into map over operator functions: the
reference that the kernels in arndt.compositions are gated against."""

from arndt.compositions import (is_antipalindromic, is_arndt, is_k_arndt,
                                is_reduced_ap_representative)

# The k values every k-Arndt kernel is compared at.
KERNEL_K = range(-3, 4)


def reference_is_arndt(comp):
    return all(comp[i] > comp[i + 1] for i in range(0, len(comp) - 1, 2))


def reference_is_k_arndt(comp, k):
    return all(comp[i] > comp[i + 1] + k for i in range(0, len(comp) - 1, 2))


def reference_is_antipalindromic(comp):
    l = len(comp)
    return all(comp[i] != comp[l - 1 - i] for i in range(l // 2))


def reference_is_reduced_ap_representative(comp):
    l = len(comp)
    return all(comp[i] > comp[l - 1 - i] for i in range(l // 2))


def assert_kernels_agree(comp):
    """Each kernel gives its reference's answer on comp."""
    assert is_arndt(comp) == reference_is_arndt(comp), comp
    assert is_antipalindromic(comp) == reference_is_antipalindromic(comp), comp
    assert is_reduced_ap_representative(comp) == \
        reference_is_reduced_ap_representative(comp), comp
    for k in KERNEL_K:
        assert is_k_arndt(comp, k) == reference_is_k_arndt(comp, k), (comp, k)
