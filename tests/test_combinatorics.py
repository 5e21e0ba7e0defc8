"""Tests for partitions, node operations, and the charged dominance order."""

from __future__ import annotations

import inspect
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockdec.combinatorics import (
    Ordering,
    RankMismatch,
    add_boxes,
    compare_dominance,
    compare_prefix_sums,
    empty,
    enumerate_multipartitions,
    format_multipartition,
    gamma_keys,
    gamma_lex_sorted,
    gamma_prefix_sums,
    gamma_sequence,
    i_nodes,
    parse_charge,
    parse_multipartition,
    partitions,
    rank,
)
from fockdec.reference import (
    Node,
    add_node,
    addable_nodes,
    content,
    node_key,
    node_less,
    removable_nodes,
    remove_node,
    residue,
)


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
    assert parse_charge("0,-1,2") == (0, -1, 2)


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
    for lam in enumerate_multipartitions(3, charge):
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
        scan_adds, scan_rems = i_nodes(lam, charge, e, i)
        assert scan_adds == [(node_key(n, charge), n.comp - 1, n.row - 1) for n in want_adds]
        assert scan_rems == [node_key(n, charge) for n in want_rems]
        for (_, ci, r), n in zip(scan_adds, want_adds):
            assert add_boxes(lam, [(ci, r)]) == add_node(lam, n)
    # modulo 1 every node is a 0-node: the scan lists them all, in node order
    all_adds, all_rems = i_nodes(lam, charge, 1, 0)
    assert all_adds == [(node_key(n, charge), n.comp - 1, n.row - 1) for n in adds]
    assert all_rems == [node_key(n, charge) for n in rems]


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
    assert gamma_sequence(mp("2|1.1"), (0, 1)) == (2, 1, -1, -7, -8, -10, -11, -14)
    assert gamma_sequence(mp("2|1.1"), (5, -3)) == (16, 7, 4, 1, -10, -13, -19, -22)
    with pytest.raises(ValueError):
        gamma_sequence(mp("2|1.1"), (0,))


def test_gamma_sequence_is_cut_at_the_rank_whatever_the_charge():
    # a deeper cut would make the sequence a million entries longer
    for text, charge in [
        ("2.1", (10**6,)),
        ("2.1|1", (10**6, 0)),
        ("1|-|3", (0, -(10**6), 10**6)),
    ]:
        lam = mp(text)
        assert len(gamma_sequence(lam, charge)) == len(charge) * rank(lam)


def test_compare_dominance_fixtures():
    assert compare_dominance(mp("3"), mp("2.1"), (0,)) is Ordering.GREATER
    assert compare_dominance(mp("2.1"), mp("3"), (0,)) is Ordering.LESS
    assert compare_dominance(mp("2.1"), mp("2.1"), (0,)) is Ordering.EQUAL
    assert compare_dominance(mp("-|2.1"), mp("2|1"), (0, 0)) is Ordering.INCOMPARABLE
    with pytest.raises(RankMismatch):
        compare_dominance(mp("3"), mp("2"), (0,))


def _running_difference_order(xs, ys):
    """Dominance by the running difference of two gamma sequences."""
    ge = le = True
    run = 0
    for xa, xb in zip(xs, ys):
        run += xa - xb
        ge, le = ge and run >= 0, le and run <= 0
    if ge and le:
        return Ordering.EQUAL
    return Ordering.GREATER if ge else Ordering.LESS if le else Ordering.INCOMPARABLE


@st.composite
def equal_rank_pairs(draw):
    """(charge, a, b): level 1-3, random charge, a and b of one rank."""
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-4, 4), min_size=level, max_size=level)))
    n = draw(st.integers(0, 6))
    layer = enumerate_multipartitions(n, charge)
    return charge, draw(st.sampled_from(layer)), draw(st.sampled_from(layer))


@given(equal_rank_pairs())
@settings(max_examples=300, deadline=None)
def test_prefix_sum_rule_is_the_dominance_order(case):
    charge, a, b = case
    want = _running_difference_order(gamma_sequence(a, charge), gamma_sequence(b, charge))
    keys = gamma_prefix_sums(a, charge), gamma_prefix_sums(b, charge)
    assert compare_prefix_sums(*keys) is want
    assert compare_dominance(a, b, charge) is want
    assert (want is Ordering.EQUAL) == (a == b)


def test_compare_prefix_sums_rejects_unequal_ranks():
    with pytest.raises(RankMismatch):
        compare_prefix_sums(gamma_prefix_sums(mp("3"), (0,)), gamma_prefix_sums(mp("2"), (0,)))


def test_compare_dominance_takes_no_modulus():
    assert "e" not in inspect.signature(compare_dominance).parameters


def test_order_axioms_exhaustive():
    charges = [(0, 0), (0, 1), (1, 3)]
    for charge in charges:
        mps = enumerate_multipartitions(3, charge)
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


def _deep_gamma_sequence(lam, charge, extra):
    """gamma_sequence cut at rank + max(charge[i], 0) + extra, not at the rank."""
    n, scale = rank(lam), len(lam) + 1
    out = []
    for i, (part, s) in enumerate(zip(lam, charge), start=1):
        for j in range(1, n + max(s, 0) + extra + 1):
            pj = part[j - 1] if j <= len(part) else 0
            out.append(scale * (pj - j + s) - (scale - i))
    return sorted(out, reverse=True)


@st.composite
def deep_cut_cases(draw):
    """(charge, extra, layer, a, b): level 1-3, charges up to 40, a and b in layer."""
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-6, 40), min_size=level, max_size=level)))
    n = draw(st.integers(0, 5 if level < 3 else 4))
    layer = enumerate_multipartitions(n, charge)
    a, b = draw(st.sampled_from(layer)), draw(st.sampled_from(layer))
    return charge, draw(st.integers(0, 7)), layer, a, b


# Entries past the rank are shared by the whole layer, so sequences padded
# with deeper entries order the layer the same way as ones cut at the rank.


@given(deep_cut_cases())
@settings(max_examples=200, deadline=None)
def test_order_is_pad_invariant(case):
    charge, extra, _, a, b = case
    deep_a = _deep_gamma_sequence(a, charge, extra)
    deep_b = _deep_gamma_sequence(b, charge, extra)
    assert compare_dominance(a, b, charge) is _running_difference_order(deep_a, deep_b)


@given(deep_cut_cases())
@settings(max_examples=200, deadline=None)
def test_gamma_lex_order_is_pad_invariant(case):
    charge, extra, layer, _, _ = case
    deep = {lam: _deep_gamma_sequence(lam, charge, extra) for lam in layer}
    assert sorted(layer, key=deep.__getitem__, reverse=True) == layer


def test_gamma_lex_refines_dominance():
    for charge in [(0, 0), (1, 3)]:
        mps = enumerate_multipartitions(4, charge)
        for i, a in enumerate(mps):
            for b in mps[i + 1 :]:
                # a sorts before b, so b must never strictly dominate a
                assert compare_dominance(b, a, charge) is not Ordering.GREATER


def _unsorted_layer(level, n):
    """Every level-l multipartition of rank n, in no particular order."""
    return [
        tuple(combo)
        for sizes in product(range(n + 1), repeat=level)
        if sum(sizes) == n
        for combo in product(*(partitions(k) for k in sizes))
    ]


def _sequence_sorted(mps, charge):
    return sorted(mps, key=lambda m: gamma_sequence(m, charge), reverse=True)


@st.composite
def gamma_sort_cases(draw):
    """(mps, charge): level 1-4, charges in [-6, 40]; a whole rank layer in
    a drawn order, or a set drawn from several rank layers."""
    level = draw(st.integers(1, 4))
    charge = tuple(draw(st.lists(st.integers(-6, 40), min_size=level, max_size=level)))
    top = (6, 5, 4, 3)[level - 1]
    if draw(st.booleans()):
        mps = draw(st.permutations(_unsorted_layer(level, draw(st.integers(0, top)))))
    else:
        pool = [m for n in range(top + 1) for m in _unsorted_layer(level, n)]
        mps = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    return list(mps), charge


@given(gamma_sort_cases())
@settings(max_examples=300, deadline=None)
@example(([((), ()), ((1,), ()), ((), (2,)), ((1,), (1,))], (0, 0)))
@example(([((2,),), ((1, 1),), ((),), ((3,),)], (-6,)))
@example(([((1,), (), ()), ((), (), (1,)), ((), (1,), ())], (40, -6, 40)))
def test_gamma_lex_sorted_is_the_gamma_sequence_sort(case):
    # each multipartition keeps its own rank cut, so mixed ranks sort as
    # their tuples do: a sequence that is a prefix of another sorts after it
    mps, charge = case
    want = _sequence_sorted(mps, charge)
    assert gamma_lex_sorted(mps, charge) == want
    assert gamma_lex_sorted(iter(mps), charge) == want


def test_gamma_lex_sorted_checks_the_level():
    with pytest.raises(ValueError):
        gamma_lex_sorted([mp("1|-")], (0,))
    with pytest.raises(ValueError):
        gamma_lex_sorted([mp("1"), mp("1|-")], (0, 0))
    assert gamma_lex_sorted([], (0,)) == []


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_gamma_key_width_depends_on_level_and_rank_only(level):
    # one component ten million above the others: the windows of the
    # other components are packed next to it, not 10**7 bits away
    for charge in [(10**7,) + tuple(range(level - 1)), tuple(range(level - 1)) + (-(10**7),)]:
        for n in range(1, (6, 5, 4, 3)[level - 1] + 1):
            layer = _unsorted_layer(level, n)
            keys = gamma_keys(layer, charge)
            assert max(k.bit_length() for k in keys.values()) <= 2 * level * level * n
            assert gamma_lex_sorted(layer, charge) == _sequence_sorted(layer, charge)


def test_gamma_lex_sorted_is_deterministic():
    charge = (0, 0)
    mps = enumerate_multipartitions(3, charge)
    assert gamma_lex_sorted(list(reversed(mps)), charge) == mps


def test_enumeration_fixtures():
    assert [format_multipartition(m) for m in enumerate_multipartitions(3, (0,))] == [
        "3",
        "2.1",
        "1.1.1",
    ]
    assert [format_multipartition(m) for m in enumerate_multipartitions(3, (0, 0))] == [
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
    assert enumerate_multipartitions(0, (0, 0)) == [((), ())]
    assert len(enumerate_multipartitions(2, (0, 0, 0))) == 9
    # the level is the charge's: a level-1 charge gives no level-2 output
    assert {len(m) for m in enumerate_multipartitions(3, (0,))} == {1}
    assert {len(m) for m in enumerate_multipartitions(3, (5, -1))} == {2}
