"""Tests for Fock vectors, the residue operators, and their identities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdec.fock
import fockdec.reference
from fockdec.combinatorics import (
    bead_layout,
    enumerate_multipartitions,
    gamma_keys,
    gamma_lex_sorted,
    parse_multipartition,
    rank,
)
from fockdec.fock import FockVector
from fockdec.laurent import ONE, ZERO, LaurentPoly
from fockdec.reference import (
    InvalidPair,
    Node,
    NodeCounts,
    add_node,
    addable_nodes,
    apply_e,
    apply_f,
    apply_f_divided,
    apply_t,
    basis_vector,
    check_compatibility,
    compatibility_rhs_f,
    count_N,
    node_less,
    qfactorial,
    qint,
    removable_nodes,
)

VAC2 = basis_vector(((), ()), (0, 0))


def mp(text):
    return parse_multipartition(text)


def poly(*pairs):
    return LaurentPoly.from_pairs(pairs)


def signed_qint(n):
    if n == 0:
        return ZERO
    return qint(n) if n > 0 else -qint(-n)


def test_vector_construction_drops_zeros():
    x = FockVector((0,), {mp("2"): ZERO, mp("1.1"): ONE})
    assert list(x.entries) == [mp("1.1")]
    assert x.coeff(mp("2")) == ZERO
    assert x.coeff(mp("1.1")) == ONE
    assert not x.is_zero()
    assert FockVector((0,), {}).is_zero()


def test_vector_algebra():
    a = basis_vector(mp("2"), (0,))
    b = basis_vector(mp("1.1"), (0,))
    s = a + b.scale(poly((1, 1)))
    assert s.coeff(mp("2")) == ONE
    assert s.coeff(mp("1.1")) == poly((1, 1))
    assert (s - s).is_zero()
    assert a.scale(ZERO).is_zero()
    with pytest.raises(ValueError):
        a + basis_vector(mp("2"), (1,))


def test_vector_is_not_hashable():
    with pytest.raises(TypeError):
        hash(basis_vector(mp("1"), (0,)))


def test_vector_string_and_json_forms():
    assert str(FockVector((0,), {})) == "0"
    x = apply_f(apply_f(VAC2, 2, 0), 2, 1)
    assert str(x) == "(-|2, 1) + (2|-, v) + (-|1.1, v) + (1.1|-, v^2)"


def test_basis_vector_level_check():
    with pytest.raises(ValueError):
        basis_vector(mp("2|1"), (0,))


def test_operator_fixtures():
    f0 = apply_f(VAC2, 2, 0)
    assert str(f0) == "(-|1, 1) + (1|-, v)"
    assert str(apply_e(f0, 2, 0)) == "(-|-, v^-1 + v)"
    assert apply_t(f0, 2, 0) == f0
    assert str(apply_t(VAC2, 2, 0)) == "(-|-, v^2)"
    assert apply_t(VAC2, 2, 1) == VAC2
    assert str(apply_f_divided(VAC2, 2, 0, 2)) == "(1|1, 1)"
    assert apply_e(VAC2, 2, 0).is_zero()
    assert apply_f(FockVector((0, 0), {}), 2, 0).is_zero()


def test_divided_power_edges():
    assert apply_f_divided(VAC2, 2, 0, 0) == VAC2
    assert apply_f_divided(VAC2, 2, 0, 1) == apply_f(VAC2, 2, 0)
    with pytest.raises(ValueError):
        apply_f_divided(VAC2, 2, 0, -1)


def test_square_is_twice_factorial_times_divided_square():
    for e in (2, 3, None):
        x = apply_f(VAC2, e, 1) + apply_f(VAC2, e, 0).scale(poly((1, 1)))
        for i in (0, 1):
            twice = apply_f(apply_f(x, e, i), e, i)
            assert twice == apply_f_divided(x, e, i, 2).scale(qfactorial(2))


def test_count_N_fixtures():
    got = count_N(mp("1|-"), mp("1|1"), Node(1, 1, 2), None, 0, (0, 0))
    assert got == NodeCounts(0, -1, 0)
    got = count_N(mp("2.1|1"), mp("2.2|1"), Node(2, 2, 1), 2, 0, (0, 0))
    assert got == NodeCounts(0, 1, 2)
    assert repr(got) == "NodeCounts(n_above=0, n_below=1, n_total=2)"


def test_count_N_rejects_bad_pairs():
    with pytest.raises(InvalidPair) as exc:
        count_N(mp("1|1"), mp("1|1.1"), Node(1, 1, 2), None, 0, (0, 0))
    assert "is not addable" in str(exc.value)
    with pytest.raises(InvalidPair):
        count_N(mp("1|-"), mp("2|-"), Node(1, 1, 2), None, 0, (0, 0))
    with pytest.raises(InvalidPair) as exc:
        count_N(mp("1|-"), mp("1|1"), Node(1, 1, 2), 2, 1, (0, 0))
    assert "does not have residue" in str(exc.value)


def test_count_N_matches_operator_exponents():
    charge = (0, 1)
    for lam in enumerate_multipartitions(2, charge):
        for e, i in [(2, 0), (2, 1), (3, 2), (None, -1), (None, 0)]:
            y = basis_vector(lam, charge)
            fy = apply_f(y, e, i)
            for gamma in addable_nodes(lam, charge, e, i):
                nc = count_N(lam, add_node(lam, gamma), gamma, e, i, charge)
                assert fy.coeff(add_node(lam, gamma)) == poly((nc.n_above, 1))


def test_commutation_on_basis_vectors():
    for charge in [(0,), (0, 1), (1, 3)]:
        for n in range(4):
            for lam in enumerate_multipartitions(n, charge):
                x = basis_vector(lam, charge)
                for e in (2, 3, None):
                    residues = range(e) if e is not None else range(-3, 4)
                    for i in residues:
                        lhs = apply_e(apply_f(x, e, i), e, i) - apply_f(
                            apply_e(x, e, i), e, i
                        )
                        net = len(addable_nodes(lam, charge, e, i)) - len(
                            removable_nodes(lam, charge, e, i)
                        )
                        assert lhs == x.scale(signed_qint(net))


def test_compatibility_sweep():
    for charge in [(0,), (0, 1)]:
        for n in range(4):
            for lam in enumerate_multipartitions(n, charge):
                x = basis_vector(lam, charge)
                for e in (2, 3):
                    for i in range(e):
                        assert check_compatibility(x, e, i)


def test_compatibility_check_has_teeth():
    # rebuilding the residue-1 operator cannot reproduce the residue-0 one
    x = apply_f(VAC2, 2, 0)
    assert compatibility_rhs_f(x, 2, 1) != apply_f(x, 2, 0)


def test_divided_powers_stay_exact_on_towers():
    # repeated divided powers starting from the vacuum never leave the
    # integral lattice, for any order of residues and multiplicities
    for e in (2, 3):
        for seq in [
            [(0, 1), (1, 2), (0, 2)],
            [(1, 1), (0, 2), (1, 3)],
            [(0, 2), (1, 1), (0, 1), (1, 2)],
        ]:
            x = VAC2
            for i, u in seq:
                x = apply_f_divided(x, e, i, u)  # raises if not exact
            for c in x.entries.values():
                assert not c.is_zero()


# -- the closed-form kernel against the operator as first written ---------

MODULI = (2, 3, 5, None)


@st.composite
def charged_vectors(draw, max_rank=3):
    """(e, residue, vector): a few multipartitions of one rank, level 1-3,
    a random charge, random Laurent coefficients."""
    e = draw(st.sampled_from(MODULI))
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-2, 2), min_size=level, max_size=level)))
    layer = enumerate_multipartitions(draw(st.integers(0, max_rank)), charge)
    support = draw(st.lists(st.sampled_from(layer), min_size=1, max_size=4, unique=True))
    pairs = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=3)
    x = FockVector(charge, {m: LaurentPoly.from_pairs(draw(pairs)) for m in support})
    i = draw(st.integers(-4, 4) if e is None else st.integers(0, e - 1))
    return e, i, x


def rescanning_f(x, e, i):
    """f_i with the removable i-nodes counted on each new multipartition."""
    out = {}
    for lam, c in x.entries.items():
        adds = addable_nodes(lam, x.charge, e, i)
        for pos, gamma in enumerate(adds):
            mu = add_node(lam, gamma)
            above_rem = sum(
                1 for n in removable_nodes(mu, x.charge, e, i) if node_less(gamma, n, x.charge)
            )
            term = c.shift(len(adds) - pos - 1 - above_rem)
            out[mu] = out[mu] + term if mu in out else term
    return FockVector(x.charge, out)


@given(charged_vectors(), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_closed_form_divided_power_times_factorial_is_repeated_f(case, u):
    e, i, x = case
    repeated = x
    for _ in range(u):
        repeated = rescanning_f(repeated, e, i)
    assert apply_f_divided(x, e, i, u).scale(qfactorial(u)) == repeated
    if u == 1:
        assert apply_f(x, e, i) == repeated


@given(charged_vectors(max_rank=2), st.integers(-3, 1), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_modulus_below_two_is_rejected(case, e, u):
    _, i, x = case
    with pytest.raises(ValueError):
        apply_f(x, e, i)
    with pytest.raises(ValueError):
        apply_f_divided(x, e, i, u)


# -- the fused elimination step ------------------------------------------

laurent_terms = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3)


@st.composite
def elimination_steps(draw):
    """(x, g, m, rest): g and rest on one rank layer, x = m*g + rest, so
    every entry of g outside rest's support cancels in x - m*g.  m is ONE,
    an integer (zero included) or p + bar(p), bar-symmetric."""
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-2, 2), min_size=level, max_size=level)))
    layer = enumerate_multipartitions(draw(st.integers(0, 3)), charge)
    pick = st.lists(st.sampled_from(layer), max_size=5, unique=True)

    def vector(support):
        return FockVector(
            charge, {mu: LaurentPoly.from_pairs(draw(laurent_terms)) for mu in support}
        )

    g, rest = vector(draw(pick)), vector(draw(pick))
    p = LaurentPoly.from_pairs(draw(laurent_terms))
    m = draw(
        st.sampled_from([ONE, p + p.bar()])
        | st.integers(-3, 3).map(lambda k: poly((0, k)))
    )
    return g.scale(m) + rest, g, m, rest


@given(elimination_steps())
@settings(max_examples=300, deadline=None)
def test_fused_step_is_the_scaled_difference(case):
    x, g, m, rest = case
    got = x.sub_scaled(g, m)
    assert got == x - g.scale(m) == x + g.scale(-m) == rest
    assert all(not c.is_zero() for c in got.entries.values())
    # the inputs are left as they were
    assert x == g.scale(m) + rest
    # vector + is itself a sub_scaled call, so x is also checked entry by entry
    for mu in set(g.entries) | set(rest.entries):
        assert x.coeff(mu) == g.coeff(mu) * m + rest.coeff(mu)


# -- the bead-mask kernel against the i_nodes scan -------------------------


@st.composite
def bead_layout_cases(draw):
    """(e, charge, n, lam, i, u): level 1-4, charges in -3..3 or 10**7
    apart (disjoint windows), lam of rank below the layout's rank n."""
    level = draw(st.integers(1, 4))
    spread = draw(st.sampled_from((0, 10**7)))
    charge = tuple(
        spread * draw(st.integers(-1, 1)) + draw(st.integers(-3, 3)) for _ in range(level)
    )
    n = draw(st.integers(1, (6, 5, 4, 3)[level - 1]))
    lam = draw(st.sampled_from(enumerate_multipartitions(draw(st.integers(0, n - 1)), charge)))
    e = draw(st.sampled_from((2, 3, 4, 5, None)))
    if e is None:
        i = draw(st.sampled_from(charge)) + draw(st.integers(-4, 4))
    else:
        i = draw(st.integers(0, e - 1))
    return e, charge, n, lam, i, draw(st.integers(0, 3))


@given(bead_layout_cases())
@settings(max_examples=300, deadline=None)
def test_mask_scan_lists_the_nodes_and_exponents_of_i_nodes(case):
    e, charge, n, lam, i, u = case
    _, masks = bead_layout(charge, n, e)
    key = gamma_keys([lam], charge, n)[lam]
    got = fockdec.fock._bead_moves(key, len(charge), masks.get(i, 0), u)
    # the tuple kernel: i_nodes' addable nodes in node order, add_boxes
    want = fockdec.reference._moves(lam, charge, e, i, u)
    keys = gamma_keys([mu for mu, _ in want], charge, n)
    assert got == [(keys[mu], k) for mu, k in want]
    # the layer's masks in this layout sort as gamma_lex_sorted does
    layer = enumerate_multipartitions(rank(lam), charge)
    keys = gamma_keys(layer, charge, n)
    assert sorted(layer, key=keys.__getitem__, reverse=True) == gamma_lex_sorted(layer, charge)
