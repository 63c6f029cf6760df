"""The weight- and parts-preserving bijection between reduced anti-palindromic
representatives and Arndt compositions.

Both families compare pairs of parts with the first strictly larger: Arndt
compositions pair consecutively, representatives pair mirrored ends.  The map
sends the i-th outermost pair (c[i], c[l-1-i]) of a representative to the
i-th adjacent pair of the Arndt composition, working inward; for odd length
the lone middle part becomes the final unpaired part.
"""

from __future__ import annotations

from .compositions import is_arndt, is_reduced_ap_representative


def reduced_ap_to_arndt(comp) -> tuple:
    """Map a reduced anti-palindromic representative to an Arndt composition.

    (2, 3, 6, 2, 1) pairs as (2, 1), (3, 2) with middle 6, giving
    (2, 1, 3, 2, 6).
    """
    if not is_reduced_ap_representative(comp):
        raise ValueError(f"{comp!r} is not a reduced anti-palindromic "
                         "representative")
    h = len(comp) // 2
    out = [0] * (2 * h)
    out[::2] = comp[:h]
    out[1::2] = comp[::-1][:h]
    return (*out, *comp[h:len(comp) - h])


def arndt_to_reduced_ap(comp) -> tuple:
    """Inverse map: consecutive Arndt pairs become mirrored outer pairs.

    The i-th pair (comp[2i], comp[2i+1]) lands at positions i and l-1-i; a
    trailing unpaired part becomes the middle.  Round trips are the identity.
    """
    if not is_arndt(comp):
        raise ValueError(f"{comp!r} is not an Arndt composition")
    h = len(comp) // 2
    return (*comp[0:2 * h:2], *comp[2 * h:], *comp[1:2 * h:2][::-1])
