"""The level-l v-deformed Fock space and its residue operators.

Vectors are finite Z[v, 1/v]-combinations of multipartitions of a fixed
level and charge.  The raising operator f_i inserts one box of residue i and
weights each insertion by v to the count of addable i-nodes above the new
box minus removable i-nodes above it in the result.  The modulus is e >= 2
or None (no modulus: every content is its own residue).

apply_divided_power, the commands' one raising operator, applies the
divided power f_i^(u) in closed form, one term per u-subset of the
addable i-nodes, to a vector keyed by the bead masks of one rank-n layout
(combinatorics.bead_layout), for sources of rank below n.  Its moves from
a mask go into a transition table that the caller owns, so a caller that
applies many divided powers at one charge and e (canonical_basis)
computes them once per (mask, i, u).  subtract_scaled forms the
elimination step x - m*g in place, and FockVector.sub_scaled on a copy;
x + y is x.sub_scaled(y, -1).

fockdec.reference holds the same operator on multipartition tuples
(apply_f, apply_f_divided), which the tests check the mask kernel against,
and the lowering operator e_i, the diagonal operator t_i, the node counts
of one insertion, and the check that each finite-e operator expands
through the content operators.
"""

from __future__ import annotations

from itertools import combinations

from .combinatorics import Charge, Multipartition, format_multipartition, gamma_lex_sorted
from .laurent import MINUS_ONE, ONE, ZERO, LaurentPoly

__all__ = [
    "FockVector",
    "apply_divided_power",
    "subtract_scaled",
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
        """self - other.scale(m) in one pass over other's entries: the
        elimination step of extract_relative."""
        self._check(other)
        out = dict(self.entries)
        subtract_scaled(out, other.entries, m)
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


def subtract_scaled(out: dict, other: dict, m: LaurentPoly) -> None:
    """out - m * other, formed in place in out; a cancelled entry is deleted.
    No product is formed when m is ONE; otherwise each entry c of other
    becomes c * (-m), added to the entry of out in one buffer."""
    if m == ONE:
        for mp, c in other.items():
            got = out.get(mp)
            if got is None:
                out[mp] = -c
            elif got == c:
                del out[mp]
            else:
                out[mp] = got - c
    elif m:
        neg = -m
        for mp, c in other.items():
            got = out.get(mp)
            if got is None:
                out[mp] = c * neg
            else:
                total = got.add_product(c, neg)
                if total:
                    out[mp] = total
                else:
                    del out[mp]


def apply_divided_power(
    x: dict[int, LaurentPoly], i: int, u: int, lv: int, masks: dict[int, int], table: dict
) -> dict[int, LaurentPoly]:
    """The divided power f_i^u / [u]! on a vector keyed by bead masks.

    lam goes to lam + S for every u-subset S of lam's addable i-nodes, with
    exponent the sum over gamma in S of the addable i-nodes of lam above
    gamma and not in S, minus the removable i-nodes of lam above gamma.
    Inserting gamma (content c) changes addability and removability only
    at contents c - 1 and c + 1, whose residues differ from i when e >= 2
    or e is None.  So every other addable or removable i-node stays as it
    was, every subset can be inserted, and the exponent is the sum of the
    single-box exponents minus u(u-1)/2, one for each pair in S.

    lv is the level and masks the residue masks of bead_layout.  ``table``
    maps (mask, i, u) to the moves of f_i^(u) from that mask, filled here;
    one table serves one layout and lives no longer than its caller.
    """
    p = masks.get(i, 0)
    out: dict[int, LaurentPoly] = {}
    # targets reached more than once: every (coefficient, shift) term
    shared: dict[int, list[tuple[LaurentPoly, int]]] = {}
    for m, c in x.items():
        key = (m, i, u)
        moves = table.get(key)
        if moves is None:
            moves = table[key] = _bead_moves(m, lv, p, u)
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
    return out


def _bead_moves(m: int, lv: int, p: int, u: int) -> list[tuple[int, int]]:
    """The (target, exponent) terms of f_i^(u) on the mask m alone, p the
    residue mask of i.  An addable node is an empty bit with a bead lv
    bits below, a removable node a bead with none there; inserting a node
    moves that bead up, one XOR of both bits.
    """
    up = m << lv
    rems = m & ~up & p
    adds = up & ~m & p
    nodes = []
    while adds:
        low = adds & -adds
        nodes.append(low)
        adds ^= low
    k = len(nodes)
    if k < u:
        return []
    # per node: addable i-nodes above it minus removable i-nodes above it
    single = [k - j - 1 - (rems & -(low << 1)).bit_count() for j, low in enumerate(nodes)]
    flips = [low | low >> lv for low in nodes]
    pairs = u * (u - 1) // 2
    return [
        (m ^ sum(f), sum(s) - pairs)
        for f, s in zip(combinations(flips, u), combinations(single, u))
    ]
