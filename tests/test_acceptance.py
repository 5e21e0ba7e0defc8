"""Acceptance gate: one test per shipped guarantee, exact arithmetic only.

Every test prints a single ``ACCEPTANCE n: PASS`` line once its criterion
holds, so a verbose run shows one verdict line per guarantee.
"""

from __future__ import annotations

import inspect
import json
import time
from itertools import combinations

from fockdec.abacus import min_valid_r, reading_word, stable_r, tau_forward, tau_inverse
from fockdec.canonical import apply_peeling, canonical_basis
from fockdec.cli import main as cli_main
from fockdec.combinatorics import (
    Ordering,
    compare_dominance,
    enumerate_multipartitions,
    gamma_sequence,
    parse_multipartition,
)
from fockdec.crystal import generate_component
from fockdec.factorize import (
    all_pass,
    basis_matrix,
    extract_relative,
    matrix_to_csv,
    verify,
)
from fockdec.laurent import ONE, ZERO
from fockdec.reference import (
    addable_nodes,
    apply_e,
    apply_f,
    apply_f_divided,
    back_substitution_oracle,
    basis_vector,
    brute_force_basis,
    check_compatibility,
    dense_entries,
    peeling_sequence,
    qint,
    removable_nodes,
)

# level -> charges exercised by the factorization sweep
SWEEP_CHARGES = {
    1: [(0,)],
    2: [(0, 0), (0, 1), (1, 3)],
    3: [(0, 1, 2), (2, 0, 1), (1, -1, 2)],
}
SWEEP_E = [2, 3, 4]
SWEEP_MAX_RANK = 5


def announce(capsys, n: int, extra: str = "") -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: PASS{extra}", flush=True)


def mp(text):
    return parse_multipartition(text)


def _triple(e, charge, n):
    ge = canonical_basis(e, charge, n)
    gi = canonical_basis(None, charge, n)
    de = basis_matrix(ge)
    di = basis_matrix(gi)
    return ge, gi, de, di, extract_relative(ge, gi)


def test_acceptance_1_golden_matrices(capsys):
    start = time.perf_counter()
    _, _, de, di, rel = _triple(2, (0, 0), 3)
    elapsed = time.perf_counter() - start
    assert matrix_to_csv(de) == (
        ",-|3,1|2,-|2.1\n"
        "-|3,1*v^0,.,.\n"
        "3|-,1*v^1,.,.\n"
        "1|2,1*v^1,1*v^0,.\n"
        "-|2.1,.,.,1*v^0\n"
        "2|1,1*v^2,1*v^1,.\n"
        "2.1|-,.,.,1*v^1\n"
        "1|1.1,1*v^1,1*v^2,.\n"
        "1.1|1,1*v^2,1*v^3,.\n"
        "-|1.1.1,1*v^2,.,.\n"
        "1.1.1|-,1*v^3,.,.\n"
    )
    assert matrix_to_csv(di) == (
        ",-|3,1|2,-|2.1,1|1.1,-|1.1.1\n"
        "-|3,1*v^0,.,.,.,.\n"
        "3|-,1*v^1,.,.,.,.\n"
        "1|2,.,1*v^0,.,.,.\n"
        "-|2.1,.,.,1*v^0,.,.\n"
        "2|1,.,1*v^1,.,.,.\n"
        "2.1|-,.,.,1*v^1,.,.\n"
        "1|1.1,.,.,.,1*v^0,.\n"
        "1.1|1,.,.,.,1*v^1,.\n"
        "-|1.1.1,.,.,.,.,1*v^0\n"
        "1.1.1|-,.,.,.,.,1*v^1\n"
    )
    assert matrix_to_csv(rel) == (
        ",-|3,1|2,-|2.1\n"
        "-|3,1*v^0,.,.\n"
        "1|2,1*v^1,1*v^0,.\n"
        "-|2.1,.,.,1*v^0\n"
        "1|1.1,1*v^1,1*v^2,.\n"
        "-|1.1.1,1*v^2,.,.\n"
    )
    assert elapsed < 1.0
    announce(capsys, 1, f" ({elapsed:.3f}s)")


def test_acceptance_2_abacus_worked_example(capsys):
    shape, charge = ((1, 1), (1, 1), (1,)), (0, 0, -1)
    ks = tau_inverse(shape, charge, 2, 7)
    data = reading_word(ks, 2, 3)
    assert data.k == (3, 1, 0, -2, -4, -6, -7)
    assert data.c == (1, 1, 2, 2, 2, 2, 1)
    assert data.d == (2, 1, 3, 2, 1, 3, 3)
    assert data.m == (0, 0, -1, -1, -1, -2, -2)
    assert data.phi == (1, 1, 0, 0, 0, -2, -3)
    assert data.w == (0, -6, -7, 3, -2, 1, -4)
    assert data.a == (1, 1, 1, 2, 2, 2, 2)
    assert data.b == (3, 3, 3, 2, 2, 1, 1)
    assert data.zeta == (0, -2, -3, 1, 0, 1, 0)
    assert tau_forward(ks, 2, 3) == (shape, charge)
    # stabilizing against a second period reads every bead down to -17
    r = stable_r(shape, charge, 2, 3)
    assert r == 17
    k2 = tau_inverse(shape, charge, 2, r)
    k3 = tau_inverse(shape, charge, 3, r)
    assert k2[-1] == -17 and k3[-1] == -17
    d2, d3 = reading_word(k2, 2, 3), reading_word(k3, 3, 3)
    assert d2.b == d3.b and d2.zeta == d3.zeta
    announce(capsys, 2)


def test_acceptance_3_factorization_identity_sweep(capsys):
    start = time.perf_counter()
    configs = 0
    for level, charges in SWEEP_CHARGES.items():
        for charge in charges:
            for e in SWEEP_E:
                for n in range(SWEEP_MAX_RANK + 1):
                    _, _, de, di, rel = _triple(e, charge, n)
                    assert dense_entries(di.matmul(rel)) == dense_entries(de)
                    ints_di, ints_rel = di.eval_one(), rel.eval_one()
                    prod = tuple(
                        tuple(
                            sum(
                                ints_di[i][k] * ints_rel[k][j]
                                for k in range(len(ints_rel))
                            )
                            for j in range(len(rel.col_labels))
                        )
                        for i in range(len(di.row_labels))
                    )
                    assert prod == de.eval_one()
                    configs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    announce(capsys, 3, f" ({configs} configurations, {elapsed:.1f}s)")


def test_acceptance_4_structural_suite(capsys):
    for level, charges in SWEEP_CHARGES.items():
        for charge in charges:
            for e in SWEEP_E:
                for n in range(SWEEP_MAX_RANK + 1):
                    ge, gi, de, di, rel = _triple(e, charge, n)
                    for basis, m in ((ge, de), (gi, di)):
                        table = dense_entries(m)
                        for j, lam in enumerate(m.col_labels):
                            for i, nu in enumerate(m.row_labels):
                                c = table[i][j]
                                if nu == lam:
                                    assert c == ONE
                                elif not c.is_zero():
                                    assert c.in_v_ztimes()
                                    assert c.in_nonneg_v_poly()
                                    assert (
                                        compare_dominance(lam, nu, charge)
                                        is Ordering.GREATER
                                    )
                    table = dense_entries(rel)
                    for i, nu in enumerate(rel.row_labels):
                        for j, lam in enumerate(rel.col_labels):
                            c = table[i][j]
                            assert c.in_nonneg_v_poly()
                            if nu == lam:
                                assert c == ONE
                            elif not c.is_zero():
                                assert c.in_v_ztimes()
                                assert (
                                    compare_dominance(lam, nu, charge)
                                    is Ordering.GREATER
                                )
                    assert all_pass(verify(de, di, rel, charge))
    announce(capsys, 4)


def test_acceptance_5_independent_oracles(capsys):
    for level, charges in SWEEP_CHARGES.items():
        for charge in charges:
            for e in SWEEP_E:
                for n in range(SWEEP_MAX_RANK + 1):
                    _, _, de, di, rel = _triple(e, charge, n)
                    orc = back_substitution_oracle(de, di)
                    assert orc.row_labels == rel.row_labels
                    assert orc.col_labels == rel.col_labels
                    assert dense_entries(orc) == dense_entries(rel)
    for e in (2, 3, 4, None):
        for charge in [(0,), (0, 0), (0, 1)]:
            for n in range(4):
                cb = canonical_basis(e, charge, n)
                bf = brute_force_basis(e, charge, n)
                assert set(bf) == set(cb.labels)
                for lam in cb.labels:
                    assert cb.vectors[lam] == bf[lam]
    announce(capsys, 5)


def test_acceptance_6_operator_identities(capsys):
    for charge in [(0,), (0, 0), (0, 0, 0)]:
        for n in range(4):
            for lam in enumerate_multipartitions(n, charge):
                x = basis_vector(lam, charge)
                for e in SWEEP_E:
                    for i in range(e):
                        lhs = apply_e(apply_f(x, e, i), e, i) - apply_f(
                            apply_e(x, e, i), e, i
                        )
                        net = len(addable_nodes(lam, charge, e, i)) - len(
                            removable_nodes(lam, charge, e, i)
                        )
                        if net == 0:
                            expected = x.scale(ZERO)
                        elif net > 0:
                            expected = x.scale(qint(net))
                        else:
                            expected = x.scale(-qint(-net))
                        assert lhs == expected
                        assert check_compatibility(x, e, i)
    # the divided powers in every peeling word divide exactly
    for e, charge in [(2, (0, 0)), (3, (0, 1))]:
        graph = generate_component(e, charge, 6)
        for n in range(7):
            for vert in graph.vertices(n):
                a = apply_peeling(peeling_sequence(vert, e, charge), e, charge)
                assert not a.coeff(vert).is_zero()
    announce(capsys, 6)


def test_acceptance_7_level_one_degeneration(capsys):
    for n in range(SWEEP_MAX_RANK + 1):
        di = basis_matrix(canonical_basis(None, (0,), n))
        assert di.row_labels == di.col_labels
        table = dense_entries(di)
        for i in range(len(di.row_labels)):
            for j in range(len(di.col_labels)):
                assert table[i][j] == (ONE if i == j else ZERO)
        for e in (2, 3):
            _, _, de, _, rel = _triple(e, (0,), n)
            assert rel.col_labels == de.col_labels
            assert rel.row_labels == de.row_labels == di.row_labels
            assert dense_entries(rel) == dense_entries(de)
    announce(capsys, 7)


def test_acceptance_8_order_sanity(capsys):
    assert "e" not in inspect.signature(compare_dominance).parameters
    flipped = {
        Ordering.GREATER: Ordering.LESS,
        Ordering.LESS: Ordering.GREATER,
        Ordering.INCOMPARABLE: Ordering.INCOMPARABLE,
    }
    for charge in [(0, 0), (0, 1), (1, 3)]:
        mps = enumerate_multipartitions(4, charge)
        assert len(mps) == 20
        rel = {}
        for a in mps:
            for b in mps:
                rel[a, b] = compare_dominance(a, b, charge)
        for a in mps:
            assert rel[a, a] is Ordering.EQUAL  # reflexivity of equality
        for a, b in combinations(mps, 2):
            assert rel[a, b] is not Ordering.EQUAL  # irreflexive strict part
            assert rel[b, a] is flipped[rel[a, b]]  # antisymmetric
        for a in mps:
            for b in mps:
                for c in mps:
                    if (
                        rel[a, b] is Ordering.GREATER
                        and rel[b, c] is Ordering.GREATER
                    ):
                        assert rel[a, c] is Ordering.GREATER  # transitive
    announce(capsys, 8)


def _cli_json(capsys, *argv):
    rc = cli_main([str(a) for a in argv] + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0, argv
    return json.loads(out)


def test_acceptance_9_large_e_is_generic(capsys):
    """Once e > (charge spread) + 2n - 2 no two nodes of a rank-n
    multipartition share a residue unless they share a content, so
    G_e = G_inf and the relative matrix is the identity."""
    configs = 0
    for charges in SWEEP_CHARGES.values():
        for charge in dict.fromkeys(charges + [c[::-1] for c in charges]):
            spread = max(charge) - min(charge)
            for n in range(SWEEP_MAX_RANK + 1):
                e = max(2, spread + 2 * n - 1)
                obj = _cli_json(capsys, "factorize", "--e", e,
                                "--charge=" + ",".join(map(str, charge)), "--rank", n)
                assert obj["all_pass"] is True
                assert obj["basis_e"] == obj["basis_inf"]
                rel = obj["relative"]
                assert rel["row_labels"] == rel["col_labels"] == obj["basis_e"]["col_labels"]
                for i, row in enumerate(rel["entries"]):
                    assert row == [[[0, 1]] if j == i else [] for j in range(len(row))]
                configs += 1
    announce(capsys, 9, f" ({configs} configurations)")


def test_acceptance_10_uniform_charge_shift(capsys):
    """Adding k to every charge component shifts every residue by k, so
    the labels and coefficients of the canonical basis do not change."""
    configs = 0
    for charges in SWEEP_CHARGES.values():
        for charge in charges:
            for e in ("2", "3", "inf"):
                for n in range(SWEEP_MAX_RANK + 1):
                    base = _cli_json(capsys, "canonical", "--e", e,
                                     "--charge=" + ",".join(map(str, charge)), "--rank", n)
                    for k in (1, -3):
                        shifted = ",".join(str(s + k) for s in charge)
                        obj = _cli_json(capsys, "canonical", "--e", e,
                                        f"--charge={shifted}", "--rank", n)
                        assert obj["matrix"] == base["matrix"], (e, charge, k, n)
                        configs += 1
    announce(capsys, 10, f" ({configs} configurations)")


def _partitions(m, cap=None):
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _beads(lam, count):
    """The bead positions (beta numbers) of lam with ``count`` beads."""
    padded = lam + (0,) * (count - len(lam))
    return {part + count - 1 - k for k, part in enumerate(padded)}


def _from_beads(beads):
    ordered = sorted(beads, reverse=True)
    return tuple(p for p in (b - (len(beads) - 1 - k) for k, b in enumerate(ordered)) if p)


def test_acceptance_11_weight_one_blocks(capsys):
    """At level 1 the block of an e-core of size n - e has e partitions,
    one per runner bead moved down by e.  In gamma order (lexicographic at
    level 1) each but the last labels a basis vector lam + v*lam', lam' the
    next partition of the block, and the last is no crystal vertex."""
    blocks = 0
    for e in range(2, 6):
        for n in range(e, 9):
            obj = _cli_json(capsys, "canonical", "--e", e, "--charge", "0", "--rank", n)
            mat = obj["matrix"]
            columns = {
                col: {mat["row_labels"][r]: row[c]
                      for r, row in enumerate(mat["entries"]) if row[c]}
                for c, col in enumerate(mat["col_labels"])
            }
            for core in _partitions(n - e):
                beads = _beads(core, len(core) + e)
                if any(b >= e and b - e not in beads for b in beads):
                    continue
                block = sorted(
                    (_from_beads(beads - {b} | {b + e}) for b in beads if b + e not in beads),
                    reverse=True,
                )
                labels = [".".join(map(str, lam)) or "-" for lam in block]
                assert len(labels) == e
                for lam, nxt in zip(labels, labels[1:]):
                    assert columns[lam] == {lam: [[0, 1]], nxt: [[1, 1]]}, (e, n, lam)
                assert labels[-1] not in columns
                blocks += 1
    assert blocks == 26
    announce(capsys, 11, f" ({blocks} blocks)")
