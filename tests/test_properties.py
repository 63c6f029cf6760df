"""Hypothesis properties against independent oracles: the predicate kernels
against their generator-expression references on arbitrary int tuples, the
split of a member at a block end, the plain grid's column width against
its width over every cell, the prefix-bound walks at any k against
the predicate-filtered stream, the mirrored block walks against the merged
per-length walks, the frame masks over the compositions of a weight against
the compositions they name, filtered, the bijection against pairs laid out
by hand, the CLI's outcome on argvs built from its parser, and the outcome
of argvs run in turn through the shared parser against a fresh one's."""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dict_rows import dense
from arndt import cli
from arndt.bijection import arndt_to_reduced_ap, reduced_ap_to_arndt
from arndt.compositions import (ALL_COMPOSITIONS, ANTIPALINDROMIC,
                                REDUCED_AP, Family, is_arndt,
                                is_reduced_ap_representative)
from arndt.counting import _frames, _stored, family_blocks, family_members
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


@settings(deadline=None)
@given(st.integers(0, 12), st.sampled_from([ANTIPALINDROMIC, REDUCED_AP]),
       st.data())
def test_frame_masks_select_the_filtered_compositions(rest, family, data):
    # Each mask against the compositions of rest filtered by the reference
    # walks' own mirror rule, p opposite its mirror m; mirrors unclamped.
    allow = MIRROR_RULES[family.kind]
    lengths, refused, nonmember = _frames(rest, family.mirror)
    every = list(reference_compositions_of(rest))
    assert (_stored(rest, ALL_COMPOSITIONS.bound) if rest else [()]) == every

    def selected(mask):
        return [c for i, c in enumerate(every)
                if mask >> len(every) - 1 - i & 1]

    def member(comp):
        return all(allow(comp[-1 - i], comp[i]) == comp[-1 - i]
                   for i in range(len(comp) // 2))

    sizes = data.draw(st.sets(st.integers(0, rest)))
    assert selected(sum(lengths[size] for size in sizes)) == \
        [c for c in every if len(c) in sizes]
    s, v = data.draw(st.integers(0, rest)), data.draw(st.integers(1, rest + 3))
    assert selected(refused[s][min(v, rest + 1)]) == \
        [c for c in every if len(c) > s and allow(c[-1 - s], v) != c[-1 - s]]
    j = data.draw(st.integers(0, rest + 1))
    assert selected(nonmember[j]) == \
        [c for c in every if not member(c[:max(0, len(c) - j)])]


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
    # empty rows included, each as the list that the writers read.
    rows = [(n, dense(row)) for n, row in enumerate(rows, first)]
    max_m = max((len(row) - 1 for _, row in rows if row), default=0)
    every_cell = max([len(str(max_m)), len("n\\m")]
                     + [len(str(v)) for n, row in rows for v in (n, *row)])
    assert cli._grid_width(rows, max_m) == every_cell


def parser_actions():
    """Each subcommand of cli.build_parser() -> its actions, help left out."""
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: [action for action in sub._actions if action.dest != "help"]
            for name, sub in commands.choices.items()}


COMMANDS = parser_actions()
# The largest value drawn for each int option, so that no draw runs long;
# --max-n is always given, so that no brute force passes weight 12.
MOST = {"--n": 10, "--N": 40, "--k": 8, "--max-n": 12}
# Junk: no large number, no abbreviation of an option, no "error:".
JUNK = ["", "-", "--", "--bogus", "x", "-5", "0", "1.5", "0x1f", "=", "--k"]


@st.composite
def argvs(draw):
    """A subcommand and its arguments drawn from their choices and types,
    the optional ones included or not, shuffled, and up to two junk tokens
    put anywhere."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    groups = []
    for action in COMMANDS[command]:
        flag = action.option_strings[:1]
        if action.choices is not None:
            values = [draw(st.sampled_from(sorted(action.choices)))]
        elif action.nargs == 0:
            values = []
        else:
            most = MOST[flag[0]]
            values = [str(draw(st.integers(
                -most if action.type is int else -2, most)))]
        if action.required or flag == ["--max-n"] or draw(st.booleans()):
            groups.append(flag + values)
    argv = [command] + [token for group in draw(st.permutations(groups))
                        for token in group]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(JUNK)))
    return argv


@settings(deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_outcome(argv):
    # A return of 0, 1 or 3, or a usage error; a nonzero one says why on
    # exactly one error line.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
    if code:
        assert sum("error:" in line
                   for line in err.getvalue().splitlines()) == 1, argv


def outcome(argv):
    """cli.main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(st.lists(argvs(), min_size=2, max_size=4))
def test_the_shared_parser_answers_as_a_fresh_one(drawn):
    # The argvs run one after another through the one parser of the
    # process, then each through a parser built for it alone.
    shared = [outcome(argv) for argv in drawn]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert [outcome(argv) for argv in drawn] == shared
