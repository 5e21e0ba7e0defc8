"""Tests for peeling words, bar-invariant monomials, and the canonical basis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdec.canonical
import fockdec.reference
from fockdec.canonical import (
    CanonicalBasisSet,
    InvariantViolated,
    MissingPredecessor,
    OrderViolation,
    PeelingUnitriangularityViolated,
    apply_peeling,
    apply_peelings,
    canonical_basis,
)
from fockdec.combinatorics import (
    Ordering,
    compare_dominance,
    enumerate_multipartitions,
    format_multipartition,
    gamma_sequence,
    parse_multipartition,
)
from fockdec.crystal import generate_component
from fockdec.laurent import ONE, LaurentPoly, bar_symmetric_part
from fockdec.reference import (
    NotInCrystal,
    apply_f_divided,
    basis_vector,
    brute_force_basis,
    build_A,
    peeling_sequence,
)


def mp(text):
    return parse_multipartition(text)


def poly(*pairs):
    return LaurentPoly.from_pairs(pairs)


def test_peeling_sequence_fixtures():
    assert peeling_sequence(mp("-|3"), 2, (0, 0)) == ((0, 1), (1, 1), (0, 1))
    assert peeling_sequence(mp("-|2.1"), 2, (0, 0)) == ((1, 2), (0, 1))
    assert peeling_sequence(mp("3.1|4.1"), 2, (0, 0)) == (
        (1, 2),
        (0, 2),
        (1, 3),
        (0, 2),
    )
    assert peeling_sequence(mp("-|-"), 2, (0, 0)) == ()


# levels 1-3, dominant and non-dominant charges, with the top rank per level
WORD_SWEEP = [
    ((0,), 9),
    ((2,), 9),
    ((0, 0), 7),
    ((0, 1), 7),
    ((1, 3), 7),
    ((1, -1), 7),
    ((2, 0), 7),
    ((0, 0, 0), 5),
    ((0, 1, 2), 5),
    ((2, 0, 1), 5),
    ((1, -1, 2), 5),
]


def test_graph_words_are_the_signature_words():
    checked = 0
    for e in (2, 3, 5, None):
        for charge, top in WORD_SWEEP:
            graph = generate_component(e, charge, top)
            words = graph.peeling_words
            for layer in graph.layers:
                for lam in layer:
                    assert words[lam] == peeling_sequence(lam, e, charge), (
                        e,
                        charge,
                        format_multipartition(lam),
                    )
                    checked += 1
            assert len(words) == sum(map(len, graph.layers))
    assert checked == 4204


def test_canonical_basis_keeps_the_graph_words():
    for e in (2, None):
        words = generate_component(e, (0, 1), 5).peeling_words
        cb = canonical_basis(e, (0, 1), 5)
        assert cb.peelings == {lam: words[lam] for lam in cb.labels}


def test_peeling_monomials_first_leave_triangularity_at_rank_9():
    # the module docstring's claim: at e=2, charge (0,0), no peeling monomial
    # of rank 1-8 has a term before its label in the layer order; at rank 9
    # only the one at 3.1|4.1 does, and the vertex among those terms has
    # bar-symmetric coefficient, matched by an excess on the label
    for n in range(1, 10):
        cb = canonical_basis(2, (0, 0), n)
        early = {}
        for lam in cb.labels:
            at = cb.position[lam]
            terms = [m for m in cb.avectors[lam].entries if cb.position[m] < at]
            if terms:
                names = sorted(map(format_multipartition, terms))
                early[format_multipartition(lam)] = names
        if n < 9:
            assert early == {}, n
        else:
            assert early == {"3.1|4.1": ["4.1|4", "4|4.1"]}
    a = cb.avectors[mp("3.1|4.1")]
    assert a.coeff(mp("4|4.1")) == ONE and mp("4|4.1") in cb.vectors
    assert mp("4.1|4") not in cb.vectors
    assert a.coeff(mp("3.1|4.1")) == poly((0, 1), (2, 1))
    assert cb.corrections[mp("3.1|4.1")] == {mp("4|4.1"): ONE}
    assert cb.vectors[mp("3.1|4.1")].coeff(mp("3.1|4.1")) == ONE


def test_layer_and_positions_on_the_basis_set():
    for e, charge, n in [(2, (0, 0), 4), (None, (1, -1, 2), 3)]:
        cb = canonical_basis(e, charge, n)
        assert cb.layer == tuple(enumerate_multipartitions(n, charge))
        assert cb.position == {m: k for k, m in enumerate(cb.layer)}
        assert list(cb.labels) == sorted(cb.labels, key=cb.position.__getitem__)


def test_peeling_dead_end():
    with pytest.raises(NotInCrystal):
        peeling_sequence(mp("2|-"), 2, (0, 0))


def test_apply_peeling_reaches_its_vertex():
    for text in ["-|3", "1|2", "-|2.1", "3.1|4.1"]:
        lam = mp(text)
        a = apply_peeling(peeling_sequence(lam, 2, (0, 0)), 2, (0, 0))
        assert not a.coeff(lam).is_zero()
    assert apply_peeling((), 2, (0, 0)) == basis_vector(((), ()), (0, 0))


@st.composite
def peeling_word_sets(draw):
    """(e, charge, words): words over a three-step alphabet, so that many
    of them share leading steps; duplicates and the empty word occur.  The
    alphabet always holds two steps with one residue and different
    multiplicities, which must not count as a shared step."""
    e = draw(st.sampled_from((2, 3, 5, None)))
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-2, 2), min_size=level, max_size=level)))
    i = draw(st.integers(-3, 3) if e is None else st.integers(0, e - 1))
    j = i + 1 if e is None else (i + 1) % e
    steps = draw(st.permutations([(i, 1), (i, 2), (j, 1), (j, 2)]))[:3]
    word = st.lists(st.sampled_from(steps), max_size=4).map(tuple)
    return e, charge, draw(st.lists(word, min_size=1, max_size=6))


@st.composite
def revisiting_word_sets(draw):
    """(e, charge, words): words that share an application prefix and then
    part on steps of one residue with different multiplicities and of
    different residues with one multiplicity, so a prefix's result is
    visited again under other (i, u); the prefix is also taken in a
    second order, which reaches the same multipartitions another way."""
    e = draw(st.sampled_from((2, 3, 5, None)))
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-2, 2), min_size=level, max_size=level)))
    residue = st.integers(-3, 3) if e is None else st.integers(0, e - 1)
    prefix = draw(st.lists(st.tuples(residue, st.integers(1, 2)), max_size=3))
    i, j = draw(residue), draw(residue)
    lasts = [(i, 1), (i, 2), (i, 3), (j, 1)]
    orders = [prefix, prefix[::-1]]
    # words list their steps last-applied first
    return e, charge, [tuple([last] + order[::-1]) for order in orders for last in lasts]


@given(peeling_word_sets() | revisiting_word_sets())
@settings(max_examples=200, deadline=None)
def test_shared_prefix_application_matches_each_word(case):
    e, charge, words = case
    got = apply_peelings(words, e, charge)
    assert len(got) == len(words)
    for word, vec in zip(words, got):
        x = basis_vector(((),) * len(charge), charge)
        for i, u in reversed(word):
            x = apply_f_divided(x, e, i, u)
        assert vec == x
        assert apply_peeling(word, e, charge) == x


# words that repeat and nest: each later word reuses suffixes met before,
# and the empty word needs no step
NESTED_WORDS = [
    ((1, 1), (0, 1)),
    ((0, 2), (1, 1), (0, 1)),
    ((1, 1), (0, 1)),
    ((0, 1),),
    (),
    ((1, 2), (0, 2), (1, 1), (0, 1)),
    ((0, 2), (1, 1), (0, 1)),
    ((0, 1), (1, 1), (0, 1)),
]


def test_each_distinct_suffix_is_applied_once(monkeypatch):
    graph = generate_component(2, (0, 0), 9)
    crystal_words = [graph.peeling_words[lam] for lam in graph.vertices(9)]
    kernel = fockdec.canonical.apply_divided_power
    steps = []

    def counted(x, i, u, *layout):
        steps.append((i, u))
        return kernel(x, i, u, *layout)

    monkeypatch.setattr(fockdec.canonical, "apply_divided_power", counted)
    for words in (crystal_words, NESTED_WORDS):
        steps.clear()
        apply_peelings(words, 2, (0, 0))
        assert len(steps) == len({w[k:] for w in words for k in range(len(w))})
    assert len(steps) == 5
    # canonical_basis applies the same words in one pass too
    steps.clear()
    canonical_basis(2, (0, 0), 9)
    assert len(steps) == len({w[k:] for w in crystal_words for k in range(len(w))})


def test_build_A_unit_coefficient():
    a = build_A(mp("-|2.1"), 2, (0, 0))
    assert a.coeff(mp("-|2.1")) == ONE
    assert a.coeff(mp("2.1|-")) == poly((1, 1))


def test_golden_columns_rank3():
    cb = canonical_basis(2, (0, 0), 3)
    assert [format_multipartition(l) for l in cb.labels] == ["-|3", "1|2", "-|2.1"]
    assert str(cb.vectors[mp("-|3")]) == (
        "(-|3, 1) + (3|-, v) + (1|2, v) + (2|1, v^2) + (1|1.1, v) + "
        "(1.1|1, v^2) + (-|1.1.1, v^2) + (1.1.1|-, v^3)"
    )
    assert str(cb.vectors[mp("1|2")]) == (
        "(1|2, 1) + (2|1, v) + (1|1.1, v^2) + (1.1|1, v^3)"
    )
    assert str(cb.vectors[mp("-|2.1")]) == "(-|2.1, 1) + (2.1|-, v)"


def test_golden_columns_rank3_no_modulus():
    cb = canonical_basis(None, (0, 0), 3)
    expected = {
        "-|3": "(-|3, 1) + (3|-, v)",
        "1|2": "(1|2, 1) + (2|1, v)",
        "-|2.1": "(-|2.1, 1) + (2.1|-, v)",
        "1|1.1": "(1|1.1, 1) + (1.1|1, v)",
        "-|1.1.1": "(-|1.1.1, 1) + (1.1.1|-, v)",
    }
    assert {format_multipartition(l): str(cb.vectors[l]) for l in cb.labels} == expected


def test_level_one_no_modulus_is_identity():
    for n in range(6):
        cb = canonical_basis(None, (0,), n)
        for lam in cb.labels:
            assert cb.vectors[lam] == basis_vector(lam, (0,))


def test_columns_are_unitriangular_and_ordered():
    for e, charge in [(2, (0, 0)), (3, (0, 1)), (None, (0, 0))]:
        for n in range(5):
            cb = canonical_basis(e, charge, n)
            for lam in cb.labels:
                g = cb.vectors[lam]
                assert g.coeff(lam) == ONE
                for term, c in g.entries.items():
                    if term == lam:
                        continue
                    assert c.in_v_ztimes()
                    assert gamma_sequence(term, charge) < gamma_sequence(lam, charge)
                    # support terms sit strictly below the label
                    assert compare_dominance(lam, term, charge) is Ordering.GREATER


def test_monomial_reexpansion_identity():
    for e, charge, n in [(2, (0, 0), 4), (3, (0, 1), 4), (2, (0, 0), 9)]:
        cb = canonical_basis(e, charge, n)
        for lam in cb.labels:
            total = cb.vectors[lam]
            for mu, m in cb.corrections[lam].items():
                assert m == bar_symmetric_part(m)  # corrections are bar-symmetric
                assert not m.is_zero()
                assert mu != lam
                total = total + cb.vectors[mu].scale(m)
            assert total == cb.avectors[lam]


def test_brute_force_agreement_small():
    for e in (2, 3, None):
        for charge in [(0,), (0, 1)]:
            for n in range(4):
                cb = canonical_basis(e, charge, n)
                bf = brute_force_basis(e, charge, n)
                assert set(bf) == set(cb.labels)
                for lam in cb.labels:
                    assert cb.vectors[lam] == bf[lam]


def test_brute_force_checks_hold_without_asserts(monkeypatch):
    # doubled monomial vectors leave 2 on the diagonal; the check must raise
    # a real exception, so it still runs under python -O
    apply = fockdec.canonical.apply_peelings

    def doubled(seqs, e, charge):
        return [x.scale(LaurentPoly(0, (2,))) for x in apply(seqs, e, charge)]

    monkeypatch.setattr(fockdec.reference, "apply_peelings", doubled)
    with pytest.raises(InvariantViolated) as info:
        brute_force_basis(2, (0,), 2)
    # a subclass would mean a different check fired
    assert type(info.value) is InvariantViolated


def test_nontrivial_correction_regression():
    # the first vertex whose peeling monomial is not unitriangular on its
    # own: the reduction must subtract a full basis vector, not a monomial
    cb = canonical_basis(2, (0, 0), 9)
    lam = ((3, 1), (4, 1))
    assert cb.corrections[lam] == {((4,), (4, 1)): ONE}
    # the correction points at a gamma-greater vertex, so the usual
    # downward elimination order cannot produce it
    assert gamma_sequence(((4,), (4, 1)), (0, 0)) > gamma_sequence(lam, (0, 0))
    assert cb.avectors[lam].coeff(lam) == poly((0, 1), (2, 1))
    assert cb.vectors[lam].coeff(lam) == ONE
    bf = brute_force_basis(2, (0, 0), 9)
    for label in cb.labels:
        assert cb.vectors[label] == bf[label]


def test_congruent_charges_have_equal_layer_sizes():
    # a charge and its dominant representative (sorted, and reduced mod e
    # for finite e) give crystals with the same number of vertices per rank
    for e, charge, dominant in [
        (2, (1, 0), (0, 1)),
        (2, (1, 3), (1, 1)),
        (None, (3, -1), (-1, 3)),
        (3, (2, 0, 1), (0, 1, 2)),
        (3, (0, 0, -1), (0, 0, 2)),
    ]:
        for n in range(5):
            got = canonical_basis(e, charge, n)
            assert len(got.labels) == len(canonical_basis(e, dominant, n).labels)


def test_non_dominant_charge():
    cb = canonical_basis(2, (1, 0), 3)
    assert [format_multipartition(l) for l in cb.labels] == ["3|-", "-|3", "2|1", "1|2"]
    dom_count = len(canonical_basis(2, (0, 1), 3).labels)
    assert len(cb.labels) == dom_count
    for lam in cb.labels:
        g = cb.vectors[lam]
        assert g.coeff(lam) == ONE
        for term, c in g.entries.items():
            if term != lam:
                assert c.in_v_ztimes()
                assert gamma_sequence(term, (1, 0)) < gamma_sequence(lam, (1, 0))
    # the fixture column: the swap of the dominant-charge column
    assert str(cb.vectors[mp("3|-")]) == (
        "(3|-, 1) + (1|2, v) + (1|1.1, v) + (1.1.1|-, v^2)"
    )


def test_basis_set_is_frozen():
    cb = canonical_basis(2, (0,), 2)
    assert isinstance(cb, CanonicalBasisSet)
    with pytest.raises(Exception):
        cb.rank = 7


def test_missing_predecessor_error_type():
    for exc_type in (MissingPredecessor, PeelingUnitriangularityViolated, OrderViolation):
        assert issubclass(exc_type, InvariantViolated)
        assert issubclass(exc_type, RuntimeError)


# Hand-made level-2 monomials, which no crystal gives, for _build's own
# checks; _build works on keys, and LABEL names them in its messages
A, B, C = mp("2|-"), mp("1|1"), mp("-|2")
LABEL = {3: A, 2: C, 1: B}


def test_a_dependency_cycle_raises_order_violation():
    # each carries the other with a bar-symmetric coefficient, so neither
    # can be reduced first
    monomials = {3: {3: ONE, 1: poly((-1, 1), (1, 1))}, 1: {1: ONE, 3: ONE}}
    with pytest.raises(OrderViolation) as info:
        fockdec.canonical._build(3, monomials, LABEL, {}, {}, [])
    assert str(info.value) == "basis vectors depend on each other: 2|- <- 1|1 <- 2|-"


def test_an_offender_that_is_no_label_raises_missing_predecessor():
    monomials = {3: {3: ONE, 1: ONE}}
    with pytest.raises(MissingPredecessor) as info:
        fockdec.canonical._build(3, monomials, LABEL, {}, {}, [])
    assert str(info.value) == "no crystal vertex at 1|1"


def test_offenders_are_cleared_greatest_key_first():
    # subtracting the greatest offender's vector also clears the lesser
    # offender, which is no vertex: taken first, it would raise
    # MissingPredecessor
    m = poly((-1, 1), (1, 1))
    monomials = {1: {1: ONE, 2: poly((0, 1), (2, 1)), 3: m}, 3: {3: ONE, 2: poly((1, 1))}}
    corrections = {}
    assert fockdec.canonical._build(1, monomials, LABEL, {}, corrections, []) == {1: ONE}
    assert corrections[1] == {3: m}
