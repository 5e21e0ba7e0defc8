"""Tests for partitions, node operations, and the charged dominance order."""

from __future__ import annotations

import inspect
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockdec.combinatorics import (
    Node,
    Ordering,
    RankMismatch,
    add_node,
    addable_nodes,
    compare_dominance,
    content,
    empty,
    enumerate_multipartitions,
    format_charge,
    format_multipartition,
    gamma_lex_sorted,
    gamma_sequence,
    node_key,
    node_less,
    parse_charge,
    parse_multipartition,
    partitions,
    rank,
    removable_nodes,
    remove_node,
    residue,
)
from fockdec.fock import _i_nodes


def mp(text):
    return parse_multipartition(text)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions(n)) for n in range(11)] == expected


def test_partitions_shape_and_errors():
    assert partitions(0) == ((),)
    assert partitions(4)[0] == (4,)
    assert partitions(4)[-1] == (1, 1, 1, 1)
    for part in partitions(6):
        assert all(a >= b for a, b in zip(part, part[1:]))
        assert sum(part) == 6
    with pytest.raises(ValueError):
        partitions(-1)


def test_parse_format_round_trip():
    for text in ["-", "3", "2.1", "1.1.1", "-|3", "2.1|1", "-|-|4.2", "10.3|-"]:
        assert format_multipartition(mp(text)) == text
    assert mp("-") == ((),)
    assert mp("-|2.1") == ((), (2, 1))
    assert mp("10.3") == ((10, 3),)
    with pytest.raises(ValueError):
        mp("1.2")  # parts must weakly decrease
    with pytest.raises(ValueError):
        mp("0")


def test_parse_format_charge():
    assert parse_charge("0,1") == (0, 1)
    assert parse_charge("-2") == (-2,)
    assert format_charge((1, 3)) == "1,3"
    assert parse_charge(format_charge((0, -1, 2))) == (0, -1, 2)


def test_rank_and_empty():
    assert rank(empty(3)) == 0
    assert empty(2) == ((), ())
    assert rank(mp("2.1|1")) == 4
    assert rank(mp("-|-")) == 0


def test_add_remove_node():
    base = mp("2.1|1")
    assert add_node(base, Node(1, 3, 1)) == mp("3.1|1")
    assert add_node(base, Node(3, 1, 1)) == mp("2.1.1|1")
    assert add_node(base, Node(2, 1, 2)) == mp("2.1|1.1")
    assert remove_node(base, Node(1, 2, 1)) == mp("1.1|1")
    assert remove_node(base, Node(1, 1, 2)) == mp("2.1|-")
    with pytest.raises(ValueError):
        add_node(base, Node(1, 2, 1))  # already filled
    with pytest.raises(ValueError):
        add_node(base, Node(2, 3, 1))  # would violate row order
    with pytest.raises(ValueError):
        remove_node(base, Node(1, 1, 1))  # not at the end of its row
    with pytest.raises(ValueError):
        remove_node(base, Node(2, 1, 2))  # no such row


def test_add_remove_are_inverse():
    charge = (0, 1)
    for lam in enumerate_multipartitions(2, 3):
        for node in addable_nodes(lam, charge):
            bigger = add_node(lam, node)
            assert rank(bigger) == rank(lam) + 1
            assert remove_node(bigger, node) == lam
        for node in removable_nodes(lam, charge):
            smaller = remove_node(lam, node)
            assert rank(smaller) == rank(lam) - 1
            assert add_node(smaller, node) == lam


def test_content_residue_and_node_order():
    assert content(Node(2, 3, 1), (0, 0)) == 1
    assert content(Node(2, 3, 2), (0, 5)) == 6
    assert residue(7, 3) == 1
    assert residue(-1, 2) == 1
    assert residue(-1, 3) == 2
    assert residue(-1, None) == -1
    assert node_key(Node(1, 2, 2), (0, 0)) == (1, 2)
    assert node_less(Node(1, 1, 1), Node(1, 1, 2), (0, 0))
    assert not node_less(Node(1, 1, 2), Node(1, 1, 1), (0, 0))
    # a later component with smaller content still sorts first
    assert node_less(Node(1, 1, 2), Node(1, 1, 1), (0, -3))


@st.composite
def charged_multipartitions(draw):
    """(e, charge, multipartition): level 1-3, charges down to -5."""
    e = draw(st.sampled_from((2, 3, 5, None)))
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-5, 2), min_size=level, max_size=level)))
    parts = st.lists(st.integers(1, 5), max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))
    return e, charge, tuple(draw(st.lists(parts, min_size=level, max_size=level)))


@given(charged_multipartitions())
@settings(max_examples=200, deadline=None)
def test_residue_filters_follow_the_one_residue_rule(case):
    e, charge, lam = case
    adds = addable_nodes(lam, charge)
    rems = removable_nodes(lam, charge)
    if e is None:
        residues = sorted({content(n, charge) for n in adds + rems} | {min(charge) - 9})
    else:
        residues = range(e)
    for i in residues:
        want_adds = [n for n in adds if residue(content(n, charge), e) == i]
        want_rems = [n for n in rems if residue(content(n, charge), e) == i]
        assert addable_nodes(lam, charge, e, i) == want_adds
        assert removable_nodes(lam, charge, e, i) == want_rems
        scan_adds, scan_rems = _i_nodes(lam, charge, e, i)
        assert scan_adds == [(node_key(n, charge), n.comp - 1, n.row - 1) for n in want_adds]
        assert scan_rems == [node_key(n, charge) for n in want_rems]


def test_addable_removable_fixtures():
    base = mp("2.1|1")
    assert addable_nodes(base, (0, 0), 2, 0) == [
        Node(3, 1, 1),
        Node(2, 2, 1),
        Node(1, 3, 1),
    ]
    assert removable_nodes(base, (0, 0)) == [
        Node(2, 1, 1),
        Node(1, 1, 2),
        Node(1, 2, 1),
    ]
    assert addable_nodes(((1,), ()), (0, 0), 2, 0) == [Node(1, 1, 2)]
    assert addable_nodes(((1,), ()), (0, 0), 2, 1) == [
        Node(2, 1, 1),
        Node(1, 2, 1),
    ]
    assert removable_nodes(empty(2), (0, 0)) == []


def test_gamma_sequence_fixtures():
    assert gamma_sequence(((), ()), (0, 0)) == ()
    assert gamma_sequence(mp("2|1.1"), (0, 1)) == (2, 1, -1, -7, -8, -10, -11, -13, -14)
    assert gamma_sequence(mp("2|1.1"), (0, 1), pad=2) == (
        2, 1, -1, -7, -8, -10, -11, -13, -14, -16, -17, -19, -20,
    )
    with pytest.raises(ValueError):
        gamma_sequence(mp("2|1.1"), (0,))
    with pytest.raises(ValueError):
        gamma_sequence(mp("2"), (0,), pad=-1)


def test_compare_dominance_fixtures():
    assert compare_dominance(mp("3"), mp("2.1"), (0,)) is Ordering.GREATER
    assert compare_dominance(mp("2.1"), mp("3"), (0,)) is Ordering.LESS
    assert compare_dominance(mp("2.1"), mp("2.1"), (0,)) is Ordering.EQUAL
    assert compare_dominance(mp("-|2.1"), mp("2|1"), (0, 0)) is Ordering.INCOMPARABLE
    with pytest.raises(RankMismatch):
        compare_dominance(mp("3"), mp("2"), (0,))


def test_compare_dominance_takes_no_modulus():
    assert "e" not in inspect.signature(compare_dominance).parameters


def test_order_axioms_exhaustive():
    charges = [(0, 0), (0, 1), (1, 3)]
    for charge in charges:
        mps = enumerate_multipartitions(2, 3, charge)
        rel = {}
        for a in mps:
            for b in mps:
                rel[a, b] = compare_dominance(a, b, charge)
        for a in mps:
            assert rel[a, a] is Ordering.EQUAL
        flipped = {
            Ordering.GREATER: Ordering.LESS,
            Ordering.LESS: Ordering.GREATER,
            Ordering.EQUAL: Ordering.EQUAL,
            Ordering.INCOMPARABLE: Ordering.INCOMPARABLE,
        }
        for a, b in combinations(mps, 2):
            assert rel[a, b] is not Ordering.EQUAL
            assert rel[b, a] is flipped[rel[a, b]]
        for a in mps:
            for b in mps:
                for c in mps:
                    if rel[a, b] is Ordering.GREATER and rel[b, c] is Ordering.GREATER:
                        assert rel[a, c] is Ordering.GREATER


def test_order_is_pad_invariant():
    charge = (0, 1)
    mps = enumerate_multipartitions(2, 3, charge)
    for a, b in combinations(mps, 2):
        base = compare_dominance(a, b, charge)
        for pad in (1, 3, 7):
            assert compare_dominance(a, b, charge, pad) is base


def test_gamma_lex_refines_dominance():
    for charge in [(0, 0), (1, 3)]:
        mps = enumerate_multipartitions(2, 4, charge)
        for i, a in enumerate(mps):
            for b in mps[i + 1 :]:
                # a sorts before b, so b must never strictly dominate a
                assert compare_dominance(b, a, charge) is not Ordering.GREATER


def test_gamma_lex_sorted_is_deterministic():
    charge = (0, 0)
    mps = enumerate_multipartitions(2, 3, charge)
    assert gamma_lex_sorted(list(reversed(mps)), charge) == mps
    assert gamma_lex_sorted(mps, charge, reverse=False) == list(reversed(mps))


def test_enumeration_fixtures():
    assert [format_multipartition(m) for m in enumerate_multipartitions(1, 3)] == [
        "3",
        "2.1",
        "1.1.1",
    ]
    assert [format_multipartition(m) for m in enumerate_multipartitions(2, 3)] == [
        "-|3",
        "3|-",
        "1|2",
        "-|2.1",
        "2|1",
        "2.1|-",
        "1|1.1",
        "1.1|1",
        "-|1.1.1",
        "1.1.1|-",
    ]
    assert enumerate_multipartitions(2, 0) == [((), ())]
    assert len(enumerate_multipartitions(3, 2)) == 9
    with pytest.raises(ValueError):
        enumerate_multipartitions(2, 3, (0,))
