"""The output checks must accept a good output and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py

GOOD is `fockdec factorize --e 2 --charge 0,0 --rank 2 --format json`
without its report, small enough to verify by hand: the e=2 column of -|2
is the e=inf column of -|2 plus v times the e=inf column of -|1.1.
"""

from __future__ import annotations

import copy

import pytest

from checks import (
    CheckFailed,
    check_abacus,
    check_antisymmetric,
    check_crystal,
    check_factorize,
    count_e_regular,
    count_multipartitions,
    multipartitions,
)

ROWS = ["-|2", "2|-", "1|1", "-|1.1", "1.1|-"]
GOOD = {
    "e": 2,
    "charge": [0, 0],
    "rank": 2,
    "basis_e": {
        "row_labels": list(ROWS),
        "col_labels": ["-|2", "1|1"],
        "entries": [[[[0, 1]], []], [[[1, 1]], []], [[], [[0, 1]]],
                    [[[1, 1]], []], [[[2, 1]], []]],
    },
    "basis_inf": {
        "row_labels": list(ROWS),
        "col_labels": ["-|2", "1|1", "-|1.1"],
        "entries": [[[[0, 1]], [], []], [[[1, 1]], [], []], [[], [[0, 1]], []],
                    [[], [], [[0, 1]]], [[], [], [[1, 1]]]],
    },
    "relative": {
        "row_labels": ["-|2", "1|1", "-|1.1"],
        "col_labels": ["-|2", "1|1"],
        "entries": [[[[0, 1]], []], [[], [[0, 1]]], [[[1, 1]], []]],
    },
    "report": [],
    "all_pass": True,
}
OP = {"cmd": "factorize", "e": 2, "charge": (0, 0), "rank": 2}


def rejects(obj, reason):
    with pytest.raises(CheckFailed, match=reason):
        check_factorize(obj, OP)


def test_accepts_known_good_output():
    assert check_factorize(copy.deepcopy(GOOD), OP) == {
        "cells": 10 + 15 + 6, "nonzeros": 5 + 5 + 3, "extract_steps": 1,
        "max_coeff": 1, "max_span": 0,
    }


def test_rejects_flipped_product_entry():
    bad = copy.deepcopy(GOOD)
    # v^2 -> v^3 at (1.1|-, -|2): still in v*Z[v], so only the product breaks
    bad["basis_e"]["entries"][4][0] = [[3, 1]]
    rejects(bad, "basis_e != basis_inf \\* relative at \\(1.1\\|-, -\\|2\\)")


def test_rejects_dropped_row():
    bad = copy.deepcopy(GOOD)
    for name in ("basis_e", "basis_inf"):
        del bad[name]["row_labels"][4]
        del bad[name]["entries"][4]
    rejects(bad, "has 4 rows; the generating function gives 5")


def test_rejects_negative_coefficient():
    bad = copy.deepcopy(GOOD)
    # -v in the relative matrix, with basis_e changed to keep the product
    bad["relative"]["entries"][2][0] = [[1, -1]]
    bad["basis_e"]["entries"][3][0] = [[1, -1]]
    bad["basis_e"]["entries"][4][0] = [[2, -1]]
    rejects(bad, "has a negative coefficient")


def test_rejects_non_unit_diagonal():
    bad = copy.deepcopy(GOOD)
    bad["relative"]["entries"][1][1] = [[0, 1], [1, 1]]
    rejects(bad, "relative diagonal at 1\\|1 is .*, not 1")


def test_counts_match_known_sequences():
    # partitions of 0..8, bipartitions of 0..6, 3-regular partitions of 0..8
    assert [count_multipartitions(1, n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert [count_multipartitions(2, n) for n in range(7)] == [1, 2, 5, 10, 20, 36, 65]
    assert [count_e_regular(n, 3) for n in range(9)] == [1, 1, 2, 2, 4, 5, 7, 9, 13]
    assert all(len(multipartitions(3, n)) == count_multipartitions(3, n) for n in range(6))


def test_rejects_crystal_edge_with_wrong_residue():
    op = {"cmd": "crystal", "e": 2, "charge": (0, 1), "rank": 1}
    good = {"e": 2, "charge": [0, 1], "max_rank": 1,
            "vertices": [["-|-"], ["-|1", "1|-"]],
            "edges": [{"source": "-|-", "target": "1|-", "residue": 0},
                      {"source": "-|-", "target": "-|1", "residue": 1}]}
    check_crystal(copy.deepcopy(good), op)
    good["edges"][1]["residue"] = 0
    with pytest.raises(CheckFailed):
        check_crystal(good, op)


def test_rejects_wrong_abacus_label():
    op = {"cmd": "abacus", "mp": ((2, 1), ()), "charge": (0, 1), "e": 2,
          "r": None, "stable_for": 3}
    good = {"r": 13, "e": 2, "l": 2,
            "k": [3, 2, 0, -1, -2, -4, -5, -6, -7, -8, -9, -10, -11],
            "w": [3, 0, -1, -4, -5, -8, -9, 2, -2, -6, -7, -10, -11],
            "c": [1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2, 1],
            "d": [2, 1, 2, 2, 1, 2, 2, 1, 1, 2, 2, 1, 1],
            "m": [0, 0, -1, -1, -1, -2, -2, -2, -2, -3, -3, -3, -3],
            "phi": [1, 2, 0, -1, 0, -2, -3, -2, -3, -4, -5, -4, -5],
            "a": [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2],
            "b": [2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1],
            "zeta": [1, 0, -1, -2, -3, -4, -5, 2, 0, -2, -3, -4, -5]}
    check_abacus(copy.deepcopy(good), op)
    good["k"][0] = 5
    with pytest.raises(CheckFailed, match="labeling formula"):
        check_abacus(good, op)


def test_rejects_order_that_is_not_antisymmetric():
    check_antisymmetric({"relation": "Greater"}, {"relation": "Less"})
    with pytest.raises(CheckFailed):
        check_antisymmetric({"relation": "Greater"}, {"relation": "Greater"})


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
