"""Frozen reference data shared by the test modules, and the reference
composition streams shared as session fixtures.

The two triangles are the published tables of counts for weights 0..10; the
composition lists are the published worked examples.  Everything else in the
tests is computed by an independent route before being asserted.
"""

import sys

import pytest

from arndt.compositions import ALL_COMPOSITIONS, ARNDT, Family
from reference_predicates import reference_compositions_of

# Every family with a prefix bound, at the k values its walk is gated on.
PREFIX_BOUND = [ARNDT] + [Family("k-arndt", k) for k in range(-4, 5)] + \
    [Family("block-arndt", k) for k in range(1, 6)]
# The families whose walk joins prefixes to stored tails.
BLOCK_WALKED = PREFIX_BOUND + [ALL_COMPOSITIONS]


def block_period(family):
    """Every how many parts the walk of a family in BLOCK_WALKED ends a
    block: the period of its prefix bound."""
    return family.bound[0]


class Reference:
    """The reference stream of weight n as a list, `every`, and the members
    of each family among it, each list made once."""

    def __init__(self, n):
        self.n = n
        self.every = list(reference_compositions_of(n))
        self._members = {}

    def members(self, family):
        if family not in self._members:
            self._members[family] = list(filter(family.member, self.every))
        return self._members[family]


@pytest.fixture(scope="session")
def references_to_16():
    """The Reference of each weight 0..16, index n."""
    return [Reference(n) for n in range(17)]


@pytest.fixture(scope="session", params=range(17, 21))
def reference_past_16(request):
    """The Reference of n = 17..20.  pytest runs the tests that take it
    grouped by n, so each is built once and one is held at a time."""
    return Reference(request.param)


# Arndt compositions of n with m parts, rows 0..10 (zero cells omitted).
TABLE_PARTS = {
    0: {0: 1},
    1: {1: 1},
    2: {1: 1},
    3: {1: 1, 2: 1},
    4: {1: 1, 2: 1, 3: 1},
    5: {1: 1, 2: 2, 3: 2},
    6: {1: 1, 2: 2, 3: 4, 4: 1},
    7: {1: 1, 2: 3, 3: 6, 4: 2, 5: 1},
    8: {1: 1, 2: 3, 3: 9, 4: 5, 5: 3},
    9: {1: 1, 2: 4, 3: 12, 4: 8, 5: 8, 6: 1},
    10: {1: 1, 2: 4, 3: 16, 4: 14, 5: 16, 6: 3, 7: 1},
}

# Arndt compositions of n with last part m, rows 0..10 (zero cells omitted).
TABLE_LAST = {
    0: {0: 1},
    1: {1: 1},
    2: {2: 1},
    3: {1: 1, 3: 1},
    4: {1: 2, 4: 1},
    5: {1: 2, 2: 2, 5: 1},
    6: {1: 4, 2: 2, 3: 1, 6: 1},
    7: {1: 6, 2: 3, 3: 2, 4: 1, 7: 1},
    8: {1: 10, 2: 5, 3: 3, 4: 1, 5: 1, 8: 1},
    9: {1: 16, 2: 8, 3: 4, 4: 3, 5: 1, 6: 1, 9: 1},
    10: {1: 26, 2: 13, 3: 7, 4: 4, 5: 2, 6: 1, 7: 1, 10: 1},
}

ARNDT_OF_6 = [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 2, 1), (3, 1, 2),
              (2, 1, 3), (2, 1, 2, 1)]

K3_ARNDT_OF_10 = {(10,), (9, 1), (8, 2), (8, 1, 1), (7, 3), (7, 2, 1),
                  (7, 1, 2), (6, 1, 3), (6, 2, 2), (5, 1, 4)}

BLOCK3_ARNDT_OF_10 = {(10,), (9, 1), (8, 2), (7, 3), (7, 2, 1), (6, 4),
                      (6, 3, 1), (6, 2, 1, 1), (5, 4, 1), (5, 3, 2),
                      (5, 3, 1, 1), (5, 2, 1, 2), (4, 3, 2, 1), (4, 3, 1, 2),
                      (4, 2, 1, 3), (3, 2, 1, 4), (4, 2, 1, 2, 1),
                      (3, 2, 1, 3, 1)}

# Number of k-block Arndt compositions of n for k = 3 and 4, n from 0.
BLOCK3_TOTALS = [1, 1, 1, 2, 2, 3, 4, 6, 8, 13]
BLOCK4_TOTALS = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]


@pytest.fixture
def unlimited_int_text():
    """Lift the interpreter's limit on the digits of an int's text for one
    test, so that a reference term of any length can be printed."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)
