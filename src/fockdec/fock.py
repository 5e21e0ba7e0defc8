"""The level-l v-deformed Fock space and its residue operators.

Vectors are finite Z[v, 1/v]-combinations of multipartitions of a fixed
level and charge.  The raising operator f_i inserts one box of residue i and
weights each insertion by v to the count of addable i-nodes above the new
box minus removable i-nodes above it in the result.  The modulus is e >= 2
or None; apply_divided_power raises ValueError for e < 2.

apply_divided_power is the one raising operator: it applies the divided
power f_i^(u), with f_i itself at u = 1, from one scan of each source
multipartition.  A box of residue i changes addable and removable nodes
only at residues i - 1 and i + 1, so the exponents of every insertion are
read off the source itself.  f_i^(u) is computed in closed form, one term
per u-subset of the addable i-nodes, never as u applications of f_i
followed by a division by [u]!.  The (target, exponent) moves of f_i^(u)
from one multipartition go into a transition table keyed by
(multipartition, i, u), which the caller owns, so a caller that applies
many divided powers at one charge and e (canonical.apply_peelings)
computes them once per key.  The contributions to each target are
collected and summed once, and FockVector.sub_scaled forms the
elimination step x - m*g in one pass; x + y is x.sub_scaled(y, -1).

With e=None the same formulas run on raw contents instead of residues:
that is the large-rank limit in which every content class is its own
residue.  apply_f and apply_f_divided (the kernel with a fresh table),
the lowering operator e_i, the diagonal operator t_i, the node counts of
one insertion, and the check that each finite-e operator expands through
the content operators are cross-checks in fockdec.reference.

>>> x = basis_vector(((), ()), (0, 0))
>>> print(apply_divided_power(x, 2, 0, 1, {}))
(-|1, 1) + (1|-, v)
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .combinatorics import (
    Charge,
    Multipartition,
    add_boxes,
    format_multipartition,
    gamma_lex_sorted,
    i_nodes,
)
from .laurent import MINUS_ONE, ONE, ZERO, LaurentPoly

__all__ = [
    "FockVector",
    "basis_vector",
    "apply_divided_power",
]


class FockVector:
    """An immutable finite combination of same-level multipartitions.

    ``entries`` maps multipartition -> nonzero LaurentPoly; zero
    coefficients are dropped on construction, so equality is structural.
    """

    __slots__ = ("charge", "entries")

    def __init__(self, charge: Charge, entries: dict[Multipartition, LaurentPoly]):
        self.charge = charge
        self.entries = {mp: c for mp, c in entries.items() if not c.is_zero()}

    @classmethod
    def _of(cls, charge: Charge, entries: dict[Multipartition, LaurentPoly]) -> "FockVector":
        """Wrap entries already free of zero coefficients, without a copy."""
        x = object.__new__(cls)
        x.charge = charge
        x.entries = entries
        return x

    def coeff(self, mp: Multipartition) -> LaurentPoly:
        return self.entries.get(mp, ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "FockVector") -> "FockVector":
        return self.sub_scaled(other, MINUS_ONE)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self.sub_scaled(other, ONE)

    def sub_scaled(self, other: "FockVector", m: LaurentPoly) -> "FockVector":
        """self - other.scale(m) in one pass over other's entries.

        The elimination step of canonical_basis and extract_relative.  No
        product is formed when m is ONE; otherwise each entry c of other
        becomes c * (-m), added to the entry of self in one buffer.
        """
        self._check(other)
        out = dict(self.entries)
        if m == ONE:
            for mp, c in other.entries.items():
                got = out.get(mp)
                if got is None:
                    out[mp] = -c
                elif got == c:
                    del out[mp]
                else:
                    out[mp] = got - c
        elif m:
            neg = -m
            for mp, c in other.entries.items():
                got = out.get(mp)
                if got is None:
                    out[mp] = c * neg
                else:
                    total = got.add_product(c, neg)
                    if total:
                        out[mp] = total
                    else:
                        del out[mp]
        return FockVector._of(self.charge, out)

    def scale(self, p: LaurentPoly) -> "FockVector":
        if p.is_zero():
            return FockVector(self.charge, {})
        return FockVector(self.charge, {mp: c * p for mp, c in self.entries.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockVector)
            and self.charge == other.charge
            and self.entries == other.entries
        )

    def __str__(self) -> str:
        """The terms in descending gamma order at this charge."""
        if not self.entries:
            return "0"
        return " + ".join(
            f"({format_multipartition(mp)}, {self.entries[mp]})"
            for mp in gamma_lex_sorted(self.entries, self.charge)
        )

    def __repr__(self) -> str:
        return f"FockVector({self.charge}, {self.entries!r})"

    def _check(self, other: "FockVector") -> None:
        if self.charge != other.charge:
            raise ValueError(f"charge mismatch: {self.charge} vs {other.charge}")


def basis_vector(mp: Multipartition, charge: Charge) -> FockVector:
    if len(mp) != len(charge):
        raise ValueError(f"level {len(mp)} multipartition with charge {charge}")
    return FockVector(charge, {mp: ONE})


def _single_exponents(
    adds: list[tuple[tuple[int, int], int, int]], rems: list[tuple[int, int]]
) -> list[int]:
    """Per addable i-node: addable i-nodes above it minus removable i-nodes above it."""
    out = [0] * len(adds)
    j = len(rems)
    for pos in range(len(adds) - 1, -1, -1):
        key = adds[pos][0]
        while j and rems[j - 1] > key:
            j -= 1
        out[pos] = (len(adds) - pos - 1) - (len(rems) - j)
    return out


def apply_divided_power(
    x: FockVector, e: Optional[int], i: int, u: int, table: dict
) -> FockVector:
    """The divided power f_i^u / [u]!, in closed form.

    lam goes to lam + S for every u-subset S of lam's addable i-nodes, with
    exponent the sum over gamma in S of the addable i-nodes of lam above
    gamma and not in S, minus the removable i-nodes of lam above gamma.
    Inserting gamma (content c) changes addability and removability only
    at contents c - 1 and c + 1, whose residues differ from i when e >= 2
    or e is None.  So every other addable or removable i-node stays as it
    was, every subset can be inserted, and the exponent is the sum of the
    single-box exponents minus u(u-1)/2, one for each pair in S.  That
    argument fails for e = 1.

    ``table`` maps (multipartition, i, u) to the list of (target,
    exponent) moves of f_i^(u) from that multipartition; a missing key is
    computed here and stored.  One table serves one charge and one e, so
    it lives no longer than the call that owns it.  Each target's
    contributions are collected first and summed once.
    Raises ValueError for u < 0 or e < 2.
    """
    if u < 0:
        raise ValueError(f"negative divided power {u}")
    if e is not None and e < 2:
        raise ValueError(f"modulus e={e} must be at least 2 (or None for no modulus)")
    if u == 0:
        return x
    charge = x.charge
    out: dict[Multipartition, LaurentPoly] = {}
    # targets reached more than once: every (coefficient, shift) term
    shared: dict[Multipartition, list[tuple[LaurentPoly, int]]] = {}
    for mp, c in x.entries.items():
        key = (mp, i, u)
        moves = table.get(key)
        if moves is None:
            moves = table[key] = _moves(mp, charge, e, i, u)
        for mu, k in moves:
            if mu not in out:
                out[mu] = LaurentPoly(c.val + k, c.coeffs)
            elif mu in shared:
                shared[mu].append((c, k))
            else:
                shared[mu] = [(out[mu], 0), (c, k)]
    for mu, terms in shared.items():
        total = LaurentPoly.sum_shifted(terms)
        if total:
            out[mu] = total
        else:
            del out[mu]
    return FockVector._of(charge, out)


def _moves(
    mp: Multipartition, charge: Charge, e: Optional[int], i: int, u: int
) -> list[tuple[Multipartition, int]]:
    """The (target, exponent) terms of f_i^(u) applied to mp alone."""
    adds, rems = i_nodes(mp, charge, e, i)
    if len(adds) < u:
        return []
    single = _single_exponents(adds, rems)
    pairs = u * (u - 1) // 2
    return [
        (
            add_boxes(mp, [adds[p][1:] for p in subset]),
            sum(single[p] for p in subset) - pairs,
        )
        for subset in combinations(range(len(adds)), u)
    ]
