"""References for the fast paths: the membership predicates as generator
expressions over indices, which the kernels in arndt.compositions are gated
against, and the successor-rule composition stream, which the walks of
arndt.counting are gated against."""

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


def reference_compositions_of(n):
    """Every composition of n once, in decreasing lex order, by the
    successor rule: strip trailing 1s, decrement the new last part, and
    append the stripped weight plus one as a single part."""
    if n == 0:
        yield ()
        return
    cur = [n]
    while True:
        yield tuple(cur)
        tail = 0
        while cur and cur[-1] == 1:
            tail += cur.pop()
        if not cur:
            return
        cur[-1] -= 1
        cur.append(tail + 1)
