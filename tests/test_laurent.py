from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockdec import laurent
from fockdec.laurent import (
    MINUS_ONE,
    ONE,
    V,
    ZERO,
    LaurentPoly,
    bar_symmetric_part,
)
from fockdec.reference import DivisionNotExact, exact_div, qfactorial, qint


def poly(*pairs: tuple[int, int]) -> LaurentPoly:
    return LaurentPoly.from_pairs(list(pairs))


laurent_polys = st.builds(
    LaurentPoly.from_pairs,
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9)),
        max_size=6,
    ),
)


def test_kernel_is_declared():
    assert laurent.KERNEL == "python"


def test_zero_and_one_normal_forms():
    assert ZERO.is_zero()
    assert not ZERO
    assert poly() == ZERO
    assert poly((3, 0), (5, 0)) == ZERO
    assert poly((0, 1)) == ONE
    assert V == poly((1, 1))
    assert MINUS_ONE == -ONE == poly((0, -1))


def test_from_terms_merges_duplicate_exponents():
    assert poly((2, 1), (2, 2)) == poly((2, 3))
    assert poly((0, 1), (0, -1)) == ZERO


def test_string_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(poly((-2, 1), (1, 3))) == "v^-2 + 3*v"
    assert str(poly((1, -1))) == "-v"
    assert str(poly((0, 2), (2, -3))) == "2 - 3*v^2"


def test_structural_equality_and_hash():
    a = poly((-1, 2), (3, 1))
    b = poly((3, 1), (-1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != poly((-1, 2))
    assert len({a, b}) == 1


@settings(max_examples=200, deadline=None)
@given(laurent_polys, laurent_polys)
def test_equal_polynomials_hash_equal_whatever_the_route(a, b):
    routes = [
        a + b,
        b + a,
        a - -b,
        (a + b + b) - b,
        LaurentPoly.from_pairs(a.to_pairs() + b.to_pairs()),
        (a + b).bar().bar(),
        (a + b).shift(3).shift(-3),
        -(-(a + b)),
    ]
    assert all(p == routes[0] for p in routes)
    first = [hash(p) for p in routes]
    assert len(set(first)) == 1
    # the hash each object keeps is the one it computed
    assert [hash(p) for p in routes] == first
    assert len(set(routes)) == 1


def test_coeff_items_and_exponent_range():
    p = poly((-2, 5), (0, -1), (3, 2))
    assert list(p.items()) == [(-2, 5), (0, -1), (3, 2)]


def test_eval_one_sums_coefficients():
    assert poly((-2, 5), (0, -1), (3, 2)).eval_one() == 6
    assert ZERO.eval_one() == 0


@given(laurent_polys, laurent_polys, laurent_polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ZERO == a
    assert a - a == ZERO
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ONE == a
    assert a * (b + c) == a * b + a * c


@given(laurent_polys, laurent_polys)
@settings(max_examples=200, deadline=None)
def test_bar_is_a_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


def test_bar_inverts_v():
    assert V.bar() == poly((-1, 1))
    assert poly((2, 3), (5, -1)).bar() == poly((-2, 3), (-5, -1))


@given(laurent_polys, laurent_polys)
@settings(max_examples=200, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            exact_div(a * b, b)
    else:
        assert exact_div(a * b, b) == a


# A reference for the term arithmetic: polynomials as {exponent: coefficient}
# dicts with no zero values.  Division runs top-down, the opposite direction
# from exact_div.


def _terms(p: LaurentPoly) -> dict[int, int]:
    """The terms of p, after checking that p is in normal form."""
    assert isinstance(p, LaurentPoly) and isinstance(p.coeffs, tuple)
    if p.coeffs:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0, repr(p)
    else:
        assert p.val == 0 and p == ZERO == LaurentPoly(0, ()), repr(p)
    return {p.val + k: c for k, c in enumerate(p.coeffs) if c}


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_div(a: dict, b: dict):
    """The quotient a / b as terms, or None when there is none."""
    rem: dict[int, int] = dict(a)
    quo: dict[int, int] = {}
    if not rem:
        return quo
    top = max(b)
    for k in range(max(a) - top, min(a) - min(b) - 1, -1):
        q, r = divmod(rem.get(k + top, 0), b[top])
        if r:
            return None
        if q:
            quo[k] = q
            rem = _ref_add(rem, {e + k: c * q for e, c in b.items()}, -1)
    return None if rem else quo


@given(
    laurent_polys,
    laurent_polys,
    st.integers(-3, 3),
    st.integers(-4, 4),
    st.sampled_from([0, 1]) | st.integers(-5, 5),
)
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_the_dict_reference(a, b, k, exp, coeff):
    ta, tb = _terms(a), _terms(b)
    assert _terms(a + b) == _ref_add(ta, tb)
    assert _terms(a - b) == _ref_add(ta, tb, -1)
    assert _terms(-a) == _ref_add({}, ta, -1)
    assert _terms(a * b) == _ref_mul(ta, tb)
    assert _terms(a * k) == _terms(k * a) == _ref_mul(ta, {0: k} if k else {})
    assert _terms(a.shift(exp, coeff)) == _ref_mul(ta, {exp: coeff} if coeff else {})
    mirrored = {-e: c for e, c in ta.items()}
    assert _terms(a.bar()) == mirrored
    assert a.is_bar_symmetric() == (ta == mirrored)
    if not tb:
        return
    for p in (a * b, a, a * b + ONE):
        want = _ref_div(_terms(p), tb)
        if want is None:
            with pytest.raises(DivisionNotExact):
                exact_div(p, b)
        else:
            assert _terms(exact_div(p, b)) == want


# monomials are the usual coefficients of an elimination step
small_polys = laurent_polys | st.builds(
    lambda c, k: poly((k, c)), st.integers(-3, 3), st.integers(-4, 4)
)


@given(
    small_polys,
    small_polys,
    small_polys,
    st.lists(st.tuples(small_polys, st.integers(-4, 4)), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_one_buffer_forms_match_the_dict_reference(a, b, c, shifted):
    # _terms also requires every result in normal form: empty, or nonzero ends
    ta, tb, tc = _terms(a), _terms(b), _terms(c)
    assert _terms(a.add_product(b, c)) == _ref_add(ta, _ref_mul(tb, tc))
    # an empty self is the bare product, built without the trim
    assert _terms(ZERO.add_product(b, c)) == _ref_mul(tb, tc)
    want: dict[int, int] = {}
    for p, k in shifted:
        want = _ref_add(want, _ref_mul(_terms(p), {k: 1}))
    assert _terms(LaurentPoly.sum_shifted(shifted)) == want
    # terms that cancel leave the normal-form zero
    assert _terms(LaurentPoly.sum_shifted([(a, 2), (-a, 2)])) == {}
    assert _terms(a.add_product(a, -ONE)) == {}


def test_inexact_division_raises():
    with pytest.raises(DivisionNotExact):
        exact_div(poly((0, 1), (1, 1)), poly((0, 2)))
    with pytest.raises(DivisionNotExact):
        exact_div(poly((0, 1), (2, 1)), poly((0, 1), (1, 1)))


def test_shift_multiplies_by_a_monomial():
    p = poly((0, 1), (1, 1))
    assert p.shift(2, 3) == poly((2, 3), (3, 3))
    assert p.shift(-1) == poly((-1, 1), (0, 1))


def test_quantum_integers():
    assert qint(1) == ONE
    assert qint(2) == poly((-1, 1), (1, 1))
    assert qint(3) == poly((-2, 1), (0, 1), (2, 1))
    assert qint(4) == poly((-3, 1), (-1, 1), (1, 1), (3, 1))
    with pytest.raises(ValueError):
        qint(0)
    for n in range(1, 8):
        assert qint(n).is_bar_symmetric()
        assert qint(n).eval_one() == n


def test_quantum_factorials():
    assert qfactorial(0) == ONE
    assert qfactorial(1) == ONE
    assert qfactorial(2) == qint(2)
    assert qfactorial(3) == poly((-3, 1), (-1, 2), (1, 2), (3, 1))
    for n in range(2, 7):
        assert qfactorial(n) == qfactorial(n - 1) * qint(n)
        assert exact_div(qfactorial(n), qint(n)) == qfactorial(n - 1)


def test_bar_symmetric_part_fixture():
    p = poly((-2, 1), (-1, 2), (0, 3), (1, 1), (2, 5))
    m = bar_symmetric_part(p)
    assert m == poly((-2, 1), (-1, 2), (0, 3), (1, 2), (2, 1))
    assert m.is_bar_symmetric()
    assert (p - m).in_v_ztimes()


@given(laurent_polys)
@settings(max_examples=200, deadline=None)
def test_bar_symmetric_part_properties(p):
    m = bar_symmetric_part(p)
    assert m.is_bar_symmetric()
    assert (p - m).in_v_ztimes()
    if p.is_bar_symmetric():
        assert m == p


def test_positivity_predicates():
    assert ZERO.in_v_ztimes() and ZERO.in_nonneg_v_poly()
    assert poly((1, 1), (4, -2)).in_v_ztimes()
    assert not poly((0, 1)).in_v_ztimes()
    assert not poly((-1, 1), (2, 1)).in_v_ztimes()
    assert poly((0, 1), (2, 3)).in_nonneg_v_poly()
    assert not poly((0, 1), (2, -3)).in_nonneg_v_poly()
    assert not poly((-1, 1)).in_nonneg_v_poly()
