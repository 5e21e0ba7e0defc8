"""Tests for the multi-runner abacus correspondence and reading sequences."""

from __future__ import annotations

from math import lcm

import pytest

from fockdec.abacus import (
    AbacusData,
    RTooSmall,
    ascii_art,
    min_valid_r,
    position,
    position_label,
    reading_word,
    stable_r,
    tau_forward,
    tau_inverse,
)

MP = ((1, 1), (1, 1), (1,))
CHARGE = (0, 0, -1)

SWEEP = [
    (MP, CHARGE, 2),
    (MP, CHARGE, 3),
    (((), (), ()), (0, 0, 0), 2),
    (((3, 1), (2,)), (0, 1), 2),
    (((2, 2), ()), (-1, 2), 3),
    (((4,),), (0,), 2),
    (((2, 1, 1),), (3,), 4),
]


def test_position_fixtures():
    assert position(3, 2, 3) == (1, 2)
    assert position(-7, 2, 3) == (-3, 3)
    assert position(1, 2, 3) == (1, 1)
    assert position(5, 1, 1) == (5, 1)


def test_position_label_inverts_position():
    for e, l in [(1, 1), (2, 3), (3, 2), (4, 1), (5, 5)]:
        for k in range(-40, 41):
            phi, d = position(k, e, l)
            assert 1 <= d <= l
            assert position_label(phi, d, e, l) == k
        # every (column, runner) pair is hit exactly once
        seen = {position(k, e, l) for k in range(-40, 41)}
        assert len(seen) == 81


def test_golden_reading_sequences():
    ks = tau_inverse(MP, CHARGE, 2, 7)
    assert ks == (3, 1, 0, -2, -4, -6, -7)
    data = reading_word(ks, 2, 3)
    assert data.k == (3, 1, 0, -2, -4, -6, -7)
    assert data.w == (0, -6, -7, 3, -2, 1, -4)
    assert data.c == (1, 1, 2, 2, 2, 2, 1)
    assert data.d == (2, 1, 3, 2, 1, 3, 3)
    assert data.m == (0, 0, -1, -1, -1, -2, -2)
    assert data.phi == (1, 1, 0, 0, 0, -2, -3)
    assert data.a == (1, 1, 1, 2, 2, 2, 2)
    assert data.b == (3, 3, 3, 2, 2, 1, 1)
    assert data.zeta == (0, -2, -3, 1, 0, 1, 0)


def test_label_decomposition_identity():
    ks = tau_inverse(MP, CHARGE, 2, 7)
    data = reading_word(ks, 2, 3)
    e, l = data.e, data.l
    for k, c, d, m, phi in zip(data.k, data.c, data.d, data.m, data.phi):
        assert k == c + e * (d - 1) + e * l * m
        assert phi == c + e * m
        assert 1 <= c <= e and 1 <= d <= l


def test_reading_word_structure():
    for mp, charge, e in SWEEP:
        l = len(charge)
        r = min_valid_r(mp, charge, e) + 3
        data = reading_word(tau_inverse(mp, charge, e, r), e, l)
        for seq in (data.k, data.w, data.c, data.d, data.m, data.phi, data.b, data.zeta):
            assert len(seq) == r
        assert data.a == tuple(sorted(data.c))
        assert sorted(data.w) == sorted(data.k)
        # runner indices in w weakly decrease, columns decrease per runner
        assert all(x >= y for x, y in zip(data.b, data.b[1:]))
        for x, y, bx, by in zip(data.zeta, data.zeta[1:], data.b, data.b[1:]):
            if bx == by:
                assert x > y


def test_level_one_reading_is_trivial():
    ks = tau_inverse(((4, 2, 1),), (0,), 3, 6)
    data = reading_word(ks, 3, 1)
    assert data.w == ks
    assert data.zeta == ks
    assert data.phi == ks
    assert data.b == (1,) * 6
    assert data.d == (1,) * 6


def test_tau_round_trip():
    for mp, charge, e in SWEEP:
        l = len(charge)
        base = min_valid_r(mp, charge, e)
        for r in (base, base + 1, base + 5):
            ks = tau_inverse(mp, charge, e, r)
            assert len(ks) == r
            assert all(x > y for x, y in zip(ks, ks[1:]))
            assert ks[-1] == sum(charge) + 1 - r
            assert tau_forward(ks, e, l) == (mp, charge)


def test_tau_inverse_validation():
    with pytest.raises(ValueError):
        tau_inverse(MP, (0, 0), 2, 7)  # level mismatch
    with pytest.raises(ValueError):
        tau_inverse(MP, CHARGE, 0, 7)  # bad period
    with pytest.raises(ValueError):
        tau_inverse(MP, CHARGE, 2, 0)  # r must be positive


def test_r_too_small_carries_suggestion():
    assert min_valid_r(MP, CHARGE, 2) == 6
    assert min_valid_r(MP, CHARGE, 3) == 8
    with pytest.raises(RTooSmall) as exc:
        tau_inverse(MP, CHARGE, 2, 5)
    assert exc.value.suggested == 6
    assert str(exc.value) == "r=5 is too small; the least valid choice is 6"
    for mp, charge, e in SWEEP:
        base = min_valid_r(mp, charge, e)
        if base > 1:
            with pytest.raises(RTooSmall) as exc:
                tau_inverse(mp, charge, e, base - 1)
            assert exc.value.suggested == base
        tau_inverse(mp, charge, e, base)  # must not raise


def test_tau_forward_validation():
    with pytest.raises(ValueError):
        tau_forward((), 2, 3)
    with pytest.raises(ValueError):
        tau_forward((1, 3, 0), 2, 3)  # not strictly decreasing
    with pytest.raises(ValueError):
        tau_forward((2, 2), 2, 3)


def test_stable_r_fixture():
    assert stable_r(MP, CHARGE, 2, 3) == 17
    assert stable_r(MP, CHARGE, 3, 2) == 17
    k2 = tau_inverse(MP, CHARGE, 2, 17)
    k3 = tau_inverse(MP, CHARGE, 3, 17)
    assert k2[-1] == k3[-1] == -17
    d2 = reading_word(k2, 2, 3)
    d3 = reading_word(k3, 3, 3)
    assert d2.b == d3.b
    assert d2.zeta == d3.zeta


def test_stable_r_properties():
    for mp, charge, e in SWEEP:
        l = len(charge)
        for e_prime in (2, 3, 5):
            r = stable_r(mp, charge, e, e_prime)
            assert r >= min_valid_r(mp, charge, e)
            assert r >= min_valid_r(mp, charge, e_prime)
            assert (r - sum(charge)) % (l * lcm(e, e_prime)) == 0
            assert stable_r(mp, charge, e_prime, e) == r
            # the two readings coincide at the stable cut
            da = reading_word(tau_inverse(mp, charge, e, r), e, l)
            db = reading_word(tau_inverse(mp, charge, e_prime, r), e_prime, l)
            assert da.b == db.b
            assert da.zeta == db.zeta


def test_json_form():
    data = reading_word(tau_inverse(MP, CHARGE, 2, 7), 2, 3)
    obj = data.to_json_obj()
    assert obj["e"] == 2 and obj["l"] == 3
    assert obj["k"] == [3, 1, 0, -2, -4, -6, -7]
    assert obj["w"] == [0, -6, -7, 3, -2, 1, -4]
    assert set(obj) == {"e", "l", "k", "w", "c", "d", "m", "phi", "a", "b", "zeta"}
    assert isinstance(data, AbacusData)


def test_ascii_art_golden():
    art = ascii_art(tau_inverse(MP, CHARGE, 2, 7), 2, len(CHARGE))
    assert art == (
        "phi:  1  0 -1 -2 -3\n"
        "  1:  o  o  .  .  .\n"
        "  2:  o  o  .  .  .\n"
        "  3:  .  o  .  o  o"
    )
