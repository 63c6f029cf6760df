"""References for the fast paths: the membership predicates as generator
expressions over indices, which the kernels in arndt.compositions are gated
against; the successor-rule composition stream, the per-length mirrored
walks merged in order, each walk by its own mirror rule, and the mirrored
block walk that finished each length of a block on its own, which the walks
of arndt.counting are gated against;
the falling-factorial binomial, which arndt.formulas.gen_binomial is gated
against; and the bijection's maps as loops over index pairs, which the
slicing maps of arndt.bijection are gated against."""

import heapq
from itertools import chain
from math import factorial, prod

from arndt.compositions import (is_antipalindromic, is_arndt, is_k_arndt,
                                is_k_block_arndt,
                                is_reduced_ap_representative)
from arndt.counting import TAIL_WEIGHT

# The k values every k-Arndt kernel is compared at.
KERNEL_K = range(-3, 4)
# The block lengths every k-block Arndt kernel is compared at.
KERNEL_BLOCK_K = range(1, 9)


def reference_is_arndt(comp):
    return all(comp[i] > comp[i + 1] for i in range(0, len(comp) - 1, 2))


def reference_is_k_arndt(comp, k):
    return all(comp[i] > comp[i + 1] + k for i in range(0, len(comp) - 1, 2))


def reference_is_k_block_arndt(comp, k):
    return all(comp[j] > comp[j + 1]
               for j in range(len(comp) - 1) if (j + 1) % k)


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
    for k in KERNEL_BLOCK_K:
        assert is_k_block_arndt(comp, k) == \
            reference_is_k_block_arndt(comp, k), (comp, k)


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


# The mirror rules of the reference walks, kept apart from the comparisons
# in arndt.compositions.FAMILY_KINDS that the walks under test read: each
# maps a part p and its mirror m to the largest part at most p allowed
# opposite m (below 1 if none).
MIRROR_RULES = {"antipalindromic": lambda p, m: p - (p == m),
                "reduced-ap": lambda p, m: min(p, m - 1)}


def reference_mirrored_length(n, length, allow):
    """The compositions of n with `length` parts whose parts at indices
    i >= length - length//2 are each allowed opposite their mirror by the
    mirror rule `allow`, in decreasing lex order: depth first, largest part
    first, a part leaving 1 for each later slot and 1 more for each later
    pair, a first-half part at least the least part a mirror is allowed
    opposite."""
    pairs = length // 2
    free = length - pairs
    last = length - 1
    least = next((x for x in range(1, n + 1) if allow(n, x) >= 1), n + 1)
    parts = []
    rest = n
    while True:
        i = len(parts)
        top = rest - (last - i)
        if i >= free:
            top = allow(top, parts[last - i])
        elif i < pairs:
            top -= pairs - 1 - i
        if top >= (least if i < pairs else 1) and (i < last or top == rest):
            parts.append(top)
            rest -= top
            if i < last:
                continue
            yield tuple(parts)
            rest += parts.pop()
        while parts:
            j = len(parts) - 1
            lower = parts[j] - 1
            if j >= free:
                lower = allow(lower, parts[last - j])
            if lower >= (least if j < pairs else 1):
                rest += parts[j] - lower
                parts[j] = lower
                break
            rest += parts.pop()
        else:
            return


def reference_mirrored(n, family):
    """The members of weight n of a family with a mirror rule in
    MIRROR_RULES, in decreasing lex order: heapq.merge over the walks of
    each length."""
    if n == 0:
        return iter([()])
    allow = MIRROR_RULES[family.kind]
    return heapq.merge(*(reference_mirrored_length(n, length, allow)
                         for length in range(1, n + 1)), reverse=True)


def reference_mirrored_length_tails(parts, rest, length, above, least):
    """The tails of weight rest, in decreasing lex order, that extend
    `parts` to `length` parts whose parts at indices i >= length - length//2
    differ from their mirror m, and are below it unless `above` (p != m or
    p < m), and whose first-half parts are at least `least`, as one list.
    Depth first, largest part first: a part leaves 1 for each later slot and
    1 more for each later pair, and the last two, where both have a mirror,
    are x and rest - x in one loop.  Backtracking stays past the prefix."""
    pairs = length // 2
    free = length - pairs  # parts below this index have no mirror yet
    last = length - 1
    parts = list(parts)
    i = fixed = len(parts)  # the index of the next part
    tails = []
    while True:
        top = rest - (last - i)
        if i >= free:
            m = parts[last - i]
            top = top - (top == m) if above else top if top < m else m - 1
        elif i < pairs:
            top -= pairs - 1 - i
        if i == last - 1 >= free:  # x opposite parts[1], rest - x parts[0]
            head, skip, spare = tuple(parts[fixed:]), parts[1], rest - parts[0]
            for x in range(top, 0 if above else max(0, spare), -1):
                if x != skip and x != spare:
                    tails.append(head + (x, rest - x))
        elif top >= (least if i < pairs else 1) and (i < last or top == rest):
            parts.append(top)
            if i < last:
                rest -= top
                i += 1
                continue
            tails.append(tuple(parts[fixed:]))
            parts.pop()
        while i > fixed:
            i -= 1
            lower = parts[i] - 1
            if i >= free:
                lower -= lower == parts[last - i]
            if lower >= (least if i < pairs else 1):
                rest += parts[i] - lower
                parts[i] = lower
                i += 1
                break
            rest += parts.pop()
        else:
            return tails


def reference_mirrored_blocks(n, family):
    """The (prefix, tails list) blocks of weight n of a family with a mirror
    rule in MIRROR_RULES, in decreasing lex order: depth first over
    prefixes with the lengths they allow, down to the prefixes that leave
    at most TAIL_WEIGHT, each finished per length and the runs sorted."""
    allow = MIRROR_RULES[family.kind]
    above = allow(2, 1) == 2  # whether parts above their mirror are allowed
    least = 2 - above  # the least part opposite which another is allowed

    def walk(parts, rest, lengths):
        i = len(parts)
        for x in range(rest, 0, -1):
            fits = [l for l in lengths
                    if (x == rest if l == i + 1 else
                        x <= rest - (l - 1 - i) - max(0, l // 2 - 1 - i))
                    and (x >= least if i < l // 2 else i < l - l // 2
                         or allow(x, parts[l - 1 - i]) == x)]
            prefix, left = (*parts, x), rest - x
            if not fits:
                continue
            if left > TAIL_WEIGHT:
                yield from walk(prefix, left, fits)
            elif not left:
                yield prefix, [()]
            elif tails := sorted(chain.from_iterable(
                    reference_mirrored_length_tails(
                        prefix, left, length, above, least)
                    for length in fits), reverse=True):
                yield prefix, tails

    return walk((), n, list(range(1, n + 1))) if n else iter([((), [()])])


def reference_gen_binomial(p, q):
    """The falling factorial p(p-1)...(p-q+1) over q!, and 0 for q < 0."""
    if q < 0:
        return 0
    return prod(p - i for i in range(q)) // factorial(q)


def reference_reduced_ap_to_arndt(comp):
    """The i-th outermost pair (comp[i], comp[l-1-i]) becomes the i-th
    adjacent pair; an odd length's middle part goes last."""
    l = len(comp)
    out = []
    for i in range(l // 2):
        out.append(comp[i])
        out.append(comp[l - 1 - i])
    if l % 2:
        out.append(comp[l // 2])
    return tuple(out)


def reference_arndt_to_reduced_ap(comp):
    """The i-th adjacent pair (comp[2i], comp[2i+1]) lands at positions i
    and l-1-i; a trailing unpaired part becomes the middle."""
    l = len(comp)
    out = [0] * l
    for i in range(l // 2):
        out[i] = comp[2 * i]
        out[l - 1 - i] = comp[2 * i + 1]
    if l % 2:
        out[l // 2] = comp[-1]
    return tuple(out)
